"""Fourier x Hermite Galerkin solver for the generalized collisional invariant.

The invariant psi solves L(psi) = -sin(theta) on the hyperplane of mu-mean-zero
functions.  Expanded on the orthonormal basis phi_j(theta) P_k(kappa), with
phi_j = exp(i j theta)/sqrt(2 pi M(theta)) and P_k the normalized probabilists'
Hermite polynomials, the coefficient matrix X = {C_j^k} satisfies the Sylvester
type matrix equation

    beta1 M1 X N1 + beta2 M2 X N2 - lam X D2 = B,

which is vectorized column-major through sparse Kronecker products (at most
seven nonzeros per column).  The solution is real and odd under
(theta, kappa) -> (-theta, -kappa), which fixes every coefficient by one real
number; the system restricted to that class is real and is solved by one
sparse LU.  An independent assembly route scatters the 3x3 single-mode stencil
of L over all basis pairs; the two assemblies must agree entrywise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps
from scipy.sparse.linalg import splu
from scipy.special import ive

from .equilibrium import ModelParams, von_mises_pdf
from .grid import Grid2D, GridField
from .special import hermite_p_row

__all__ = [
    "SpectralParams",
    "CoeffMatrix",
    "assemble_shift",
    "assemble_system",
    "assemble_rhs",
    "assemble_kron_matrix",
    "assemble_symmetry_maps",
    "stencil_galerkin_matrix",
    "solve_gci",
    "reconstruct_psi",
    "psi_on_grid",
    "theta_marginal_times_m",
]

#: relative algebraic residual ||A vec - b|| / ||b|| required of the solve, with the full complex A
SOLVE_RTOL = 1e-10
#: allowed imaginary residue of reconstructed values, relative to |real| + 1
IMAG_TOL = 1e-8


@dataclass(frozen=True)
class SpectralParams:
    """Galerkin truncation: Fourier half-width m, Hermite degree n, and model parameters."""

    m: int
    n: int
    model: ModelParams

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")

    @property
    def n_fourier(self) -> int:
        return 2 * self.m + 1

    @property
    def n_hermite(self) -> int:
        return self.n + 1

    @property
    def size(self) -> int:
        return self.n_fourier * self.n_hermite

    def fourier_orders(self) -> np.ndarray:
        return np.arange(-self.m, self.m + 1)


@dataclass(frozen=True)
class CoeffMatrix:
    """Complex coefficients C_j^k of psi, rows j = -m..m, columns k = 0..n.

    Carries the relative algebraic residual of the solve.
    """

    entries: np.ndarray
    residual: float = float("nan")

    def tail_norms(self) -> tuple[float, float]:
        """l2 norms of the last Fourier shells (|j| = m) and Hermite column (k = n); small when resolved."""
        x = self.entries
        return float(np.linalg.norm(x[[0, -1], :])), float(np.linalg.norm(x[:, -1]))

    def symmetry_defects(self) -> tuple[float, float]:
        """Max deviations from (reality) C_{-j}^k = conj(C_j^k) and (oddness) C_{-j}^k = -(-1)^k C_j^k."""
        x = self.entries
        flipped = x[::-1, :]
        reality = float(np.max(np.abs(flipped - np.conj(x))))
        signs = (-1.0) ** np.arange(x.shape[1])
        oddness = float(np.max(np.abs(flipped + signs[None, :] * x)))
        return reality, oddness

    def to_csv(self, path) -> None:
        """Columns j, k, re, im."""
        m = (self.entries.shape[0] - 1) // 2
        j, k = np.meshgrid(np.arange(-m, m + 1), np.arange(self.entries.shape[1]), indexing="ij")
        data = np.column_stack(
            [j.ravel(), k.ravel(), self.entries.real.ravel(), self.entries.imag.ravel()]
        )
        np.savetxt(path, data, delimiter=",", header="j,k,re,im", comments="", fmt="%.17g")


def assemble_shift(size: int, direction: str) -> np.ndarray:
    """0/1 matrix with ones on the subdiagonal ('sub') or superdiagonal ('super')."""
    if direction not in ("sub", "super"):
        raise ValueError(f"direction must be 'sub' or 'super', got {direction!r}")
    return np.eye(size, k=-1 if direction == "sub" else 1)


def assemble_system(sp: SpectralParams) -> dict:
    """Matrices and scalars of the coefficient equation.

    M1 = D1 = diag(-m..m), M2 = L_{-1} - L_{+1} (size 2m+1);
    N1 = sqrt(D2) L_{-1} + L_{+1} sqrt(D2), N2 = sqrt(D2) L_{-1} - L_{+1} sqrt(D2),
    D2 = diag(0..n) (size n+1); beta1 = i alpha/sqrt(lam), beta2 = i lam sqrt(lam)/(4 alpha).
    """
    lam, alpha = sp.model.lam, sp.model.alpha
    d1 = np.diag(sp.fourier_orders().astype(float))
    d2 = np.diag(np.arange(sp.n + 1, dtype=float))
    sqrt_d2 = np.sqrt(d2)
    l_sub = assemble_shift(sp.n_hermite, "sub")
    l_super = assemble_shift(sp.n_hermite, "super")
    return {
        "M1": d1,
        "M2": assemble_shift(sp.n_fourier, "sub") - assemble_shift(sp.n_fourier, "super"),
        "N1": sqrt_d2 @ l_sub + l_super @ sqrt_d2,
        "N2": sqrt_d2 @ l_sub - l_super @ sqrt_d2,
        "D2": d2,
        "beta1": 1j * alpha / math.sqrt(lam),
        "beta2": 1j * lam * math.sqrt(lam) / (4.0 * alpha),
    }


def assemble_rhs(sp: SpectralParams) -> np.ndarray:
    """Basis coefficients of -sin(theta): nonzero only in the Hermite-degree-0 column.

    B(j, 0) = i (I_{j-1}(k/2) - I_{j+1}(k/2)) / (2 sqrt(I0(k))) with k = lam^2/alpha^2,
    evaluated with the scaled ive(n, x) = exp(-x) I_n(x) so the exponentials cancel.
    """
    k = sp.model.concentration
    j = sp.fourier_orders()
    b = np.zeros((sp.n_fourier, sp.n_hermite), dtype=complex)
    b[:, 0] = 1j * (ive(j - 1, k / 2.0) - ive(j + 1, k / 2.0)) / (2.0 * math.sqrt(ive(0, k)))
    return b


def assemble_kron_matrix(sp: SpectralParams) -> sps.csc_matrix:
    """Sparse operator on vec(X) (column-major): beta1 kron(N1^T, M1) + beta2 kron(N2^T, M2) - lam kron(D2, Id)."""
    s = assemble_system(sp)
    eye = sps.identity(sp.n_fourier)
    return (
        s["beta1"] * sps.kron(s["N1"].T, s["M1"], format="csc")
        + s["beta2"] * sps.kron(s["N2"].T, s["M2"], format="csc")
        - sp.model.lam * sps.kron(s["D2"], eye, format="csc")
    )


def assemble_symmetry_maps(sp: SpectralParams) -> tuple[sps.csc_matrix, sps.csc_matrix]:
    """Expansion E and restriction R of the class C_{-j}^k = conj(C_j^k) = -(-1)^k C_j^k.

    On it each coefficient is fixed by one real number r_j^k with j >= 0:
    C_{+-j}^k = +-i r (k even) or r (k odd), and C_0^k = 0 for even k.  E maps
    the reduced vector r to vec(X) (column-major); R reads r back, so R E = Id.
    L maps the class into itself, so A E = E (R A E) and R A E is real.
    """
    m, nf = sp.m, sp.n_fourier
    j, k = np.meshgrid(np.arange(m + 1), np.arange(sp.n_hermite), indexing="ij")
    keep = (j > 0) | (k % 2 == 1)
    j, k = j[keep], k[keep]
    phase = np.where(k % 2 == 0, 1j, 1.0 + 0j)
    cols = np.arange(j.size)
    pairs = j > 0  # C_{-j}^k = conj(phase) r; the j = 0 row is its own mirror
    rows = np.concatenate([m + j, m - j[pairs]]) + nf * np.concatenate([k, k[pairs]])
    vals = np.concatenate([phase, np.conj(phase[pairs])])
    expand = sps.csc_matrix(
        (vals, (rows, np.concatenate([cols, cols[pairs]]))), shape=(sp.size, j.size)
    )
    restrict = sps.csc_matrix((np.conj(phase), (cols, m + j + nf * k)), shape=(j.size, sp.size))
    return expand, restrict


def stencil_galerkin_matrix(sp: SpectralParams) -> np.ndarray:
    """Galerkin operator assembled mode by mode from the 3x3 stencil of L.

    Applying L to a single basis function phi_j P_k produces seven neighbor
    modes; each contribution is scattered into the big matrix indexed
    column-major: flat index = (j + m) + (2m+1) * k.  Independent oracle for
    the Kronecker assembly (same index convention, built without any matrix
    product).
    """
    lam, alpha = sp.model.lam, sp.model.alpha
    beta1 = 1j * alpha / math.sqrt(lam)
    beta2 = 1j * lam * math.sqrt(lam) / (4.0 * alpha)
    m, n = sp.m, sp.n
    size = sp.size
    a = np.zeros((size, size), dtype=complex)

    def flat(j: int, k: int) -> int:
        return (j + m) + (2 * m + 1) * k

    for j in range(-m, m + 1):
        for k in range(0, n + 1):
            col = flat(j, k)
            sq_k = math.sqrt(k)
            sq_k1 = math.sqrt(k + 1)
            # contributions of L(phi_j P_k), dropped when they leave the truncation
            targets = [
                (j, k, -lam * k),
                (j, k - 1, beta1 * j * sq_k),
                (j, k + 1, beta1 * j * sq_k1),
                (j + 1, k - 1, beta2 * sq_k),
                (j - 1, k - 1, -beta2 * sq_k),
                (j - 1, k + 1, beta2 * sq_k1),
                (j + 1, k + 1, -beta2 * sq_k1),
            ]
            for tj, tk, coeff in targets:
                if -m <= tj <= m and 0 <= tk <= n and coeff != 0:
                    a[flat(tj, tk), col] += coeff
    return a


def solve_gci(sp: SpectralParams) -> CoeffMatrix:
    """Solve the coefficient equation on the solution's symmetry class by one sparse real LU.

    The truncated constant spans a near-kernel of the full matrix A (reciprocal
    condition about 1e-38 at (30, 61)).  It is even under (theta, kappa) ->
    (-theta, -kappa) while psi is odd, so on the real, odd class of
    assemble_symmetry_maps the system Re(R A E) r = Re(R b) is well conditioned,
    and reality, oddness and <psi>_mu = 0 hold exactly.  Raises RuntimeError if
    ||A E r - b|| / ||b|| exceeds SOLVE_RTOL.
    """
    a = assemble_kron_matrix(sp)
    b = assemble_rhs(sp).flatten(order="F")
    expand, restrict = assemble_symmetry_maps(sp)
    # .real is a strided view of the complex data; splu needs contiguous arrays
    reduced = sps.csc_matrix((restrict @ a @ expand).real, copy=True)
    vec = expand @ splu(reduced).solve((restrict @ b).real)
    residual = float(np.linalg.norm(a @ vec - b) / np.linalg.norm(b))
    if residual > SOLVE_RTOL:
        raise RuntimeError(f"sparse solve residual {residual:.3e} exceeds {SOLVE_RTOL:.0e}")
    x = vec.reshape((sp.n_fourier, sp.n_hermite), order="F")
    return CoeffMatrix(entries=x, residual=residual)


def _constant_coefficients(sp: SpectralParams) -> np.ndarray:
    """Basis coefficients of the constant function 1 (truncated): C(j, 0) = I_j(k/2) / sqrt(I0(k)), scaled."""
    k = sp.model.concentration
    c = np.zeros((sp.n_fourier, sp.n_hermite), dtype=complex)
    c[:, 0] = ive(sp.fourier_orders(), k / 2.0) / math.sqrt(ive(0, k))
    return c


def mu_mean(x: CoeffMatrix, sp: SpectralParams) -> float:
    """<psi>_mu computed spectrally; zero for a solution on the hyperplane E."""
    ones = _constant_coefficients(sp)
    return float(np.real(np.sum(np.conj(ones) * x.entries)))


def _fourier_rows(sp: SpectralParams, theta) -> np.ndarray:
    """phi_j(theta) for j = -m..m, shape theta.shape + (2m+1,)."""
    theta = np.asarray(theta, dtype=float)
    j = sp.fourier_orders()
    phase = np.exp(1j * theta[..., None] * j)
    weight = 1.0 / np.sqrt(2.0 * math.pi * von_mises_pdf(sp.model, theta))
    return phase * weight[..., None]


@np.errstate(divide="ignore", invalid="ignore")  # non-finite values raise in _check_real
def reconstruct_psi(x: CoeffMatrix, sp: SpectralParams, theta, kappa):
    """Evaluate psi(theta, kappa) = sum_jk C_j^k phi_j(theta) P_k(kappa).

    The values are psi only where |kappa| <= kappa_cutoff(sp.model); beyond it
    the truncated series is round-off amplified by the top Hermite degrees and
    by 1/sqrt(M(theta)) (see psi_on_grid).  Accepts scalars or broadcastable
    arrays; raises ValueError if the imaginary residue exceeds 1e-8 * (|real| + 1)
    and FloatingPointError if any value is not finite (near theta = pi once
    M(theta) underflows, lambda^2/alpha^2 above about 372).
    """
    theta = np.asarray(theta, dtype=float)
    kappa = np.asarray(kappa, dtype=float)
    theta_b, kappa_b = np.broadcast_arrays(theta, kappa)
    phi = _fourier_rows(sp, theta_b)
    p = hermite_p_row(sp.n, sp.model.lam, sp.model.alpha, kappa_b)
    vals = np.einsum("...j,jk,...k->...", phi, x.entries, p)
    _check_real(vals)
    out = np.real(vals)
    if out.ndim == 0:
        return float(out)
    return out


def _check_real(vals: np.ndarray) -> None:
    n_bad = np.size(vals) - np.count_nonzero(np.isfinite(vals))
    if n_bad:
        raise FloatingPointError(
            f"reconstruction is not finite at {n_bad} of {np.size(vals)} points "
            "(the Fourier weight 1/sqrt(M) overflows where M(theta) underflows)"
        )
    bad = np.abs(np.imag(vals)) > IMAG_TOL * (np.abs(np.real(vals)) + 1.0)
    if np.any(bad):
        worst = float(np.max(np.abs(np.imag(vals))))
        raise ValueError(f"reconstruction has non-real residue {worst:.3e}")


@np.errstate(divide="ignore", invalid="ignore")  # non-finite values raise in _check_real
def psi_on_grid(x: CoeffMatrix, sp: SpectralParams, grid: Grid2D) -> GridField:
    """Reconstruct psi on a finite-difference grid (separable, so O(grid * basis) work).

    The values are psi only where |kappa| <= kappa_cutoff(sp.model).  Grid
    rows beyond it hold the truncated series, which is not psi: there the
    coefficient round-off is amplified by the top Hermite degrees and by
    1/sqrt(M(theta)).  grid.residual_inf takes its sup inside the cutoff.
    """
    phi = _fourier_rows(sp, grid.theta)  # (n_theta, 2m+1)
    p = hermite_p_row(sp.n, sp.model.lam, sp.model.alpha, grid.kappa)  # (n_kappa, n+1)
    vals = phi @ x.entries @ p.T
    _check_real(vals)
    return GridField(grid, np.real(vals))


def theta_marginal_times_m(x: CoeffMatrix, sp: SpectralParams, theta):
    """psi_bar(theta) * M(theta), evaluated without the 1/sqrt(M) amplification.

    psi_bar = sum_j C_j^0 phi_j is the kappa-average of psi, exact since the
    Hermite directions integrate to delta_{k0} against the Gaussian weight.
    The marginal itself carries a 1/sqrt(M) factor that grows like
    exp(concentration) near theta = pi and amplifies coefficient noise at
    large lambda/alpha; the product against the Von Mises weight is the
    quantity that enters every moment integral and stays O(1).
    """
    theta = np.asarray(theta, dtype=float)
    j = sp.fourier_orders()
    phase = np.exp(1j * theta[..., None] * j)
    weight = np.sqrt(von_mises_pdf(sp.model, theta) / (2.0 * math.pi))
    vals = (phase @ x.entries[:, 0]) * weight
    _check_real(vals)
    out = np.real(vals)
    if out.ndim == 0:
        return float(out)
    return out
