"""Fourier x Hermite Galerkin solver for the generalized collisional invariant.

The invariant psi solves L(psi) = -sin(theta) on the hyperplane of mu-mean-zero
functions.  Expanded on the orthonormal basis phi_j(theta) P_k(kappa), with
phi_j = exp(i j theta)/sqrt(2 pi M(theta)) and P_k the normalized probabilists'
Hermite polynomials, the coefficient matrix X = {C_j^k} satisfies the Sylvester
type matrix equation

    beta1 M1 X N1 + beta2 M2 X N2 - lam X D2 = B,

in which each coefficient couples only to itself, (j, k+-1) and (j+-1, k+-1).
The solution is real and odd under (theta, kappa) -> (-theta, -kappa), which
fixes every coefficient by one real number r_j^k with j >= 0.  That real system
is solved by one banded LU (LAPACK gbsv), bandwidth m+2, on the half grid
j >= 0; no matrix of the full complex system is ever formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgbsv
from scipy.special import ive

from .equilibrium import ModelParams, von_mises_pdf
from .grid import Grid2D, GridField
from .special import hermite_p_row

__all__ = [
    "SpectralParams",
    "CoeffMatrix",
    "assemble_rhs",
    "apply_operator",
    "assemble_band",
    "solve_gci",
    "reconstruct_psi",
    "psi_on_grid",
    "von_mises_projection",
]

#: relative algebraic residual ||L(X) - B|| / ||B|| required of the solve, with the full complex L
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


def von_mises_projection(sp: SpectralParams, q: int) -> np.ndarray:
    """The integrals of exp(i (j + q) theta) sqrt(M(theta) / 2 pi) over theta, for j = -m..m.

    Each is I_{j+q}(k/2) / sqrt(I0(k)), k = lam^2/alpha^2, in the scaled form ive(n, x) =
    exp(-x) I_n(x) so the exponentials cancel; every theta moment against M combines them.
    """
    k = sp.model.concentration
    return ive(sp.fourier_orders() + q, k / 2.0) / math.sqrt(ive(0, k))


def assemble_rhs(sp: SpectralParams) -> np.ndarray:
    """Basis coefficients of -sin(theta): nonzero only in the Hermite-degree-0 column.

    B(j, 0) = i (I_{j-1}(k/2) - I_{j+1}(k/2)) / (2 sqrt(I0(k))) with k = lam^2/alpha^2.
    """
    b = np.zeros((sp.n_fourier, sp.n_hermite), dtype=complex)
    b[:, 0] = 1j * (von_mises_projection(sp, -1) - von_mises_projection(sp, 1)) / 2.0
    return b


def apply_operator(entries: np.ndarray, sp: SpectralParams) -> np.ndarray:
    """The operator of the module docstring applied to X, matrix-free.

    M1 = diag(-m..m), M2 X = X shifted down a row minus X shifted up a row,
    (XU)_k = sqrt(k) X_{k-1}, (XU^T)_k = sqrt(k+1) X_{k+1}, N1 = U + U^T, N2 = U^T - U,
    D2 = diag(0..n), beta1 = i alpha/sqrt(lam) and beta2 = i lam sqrt(lam)/(4 alpha).
    """
    lam, alpha = sp.model.lam, sp.model.alpha
    k = np.arange(sp.n_hermite)
    x = np.pad(entries, ((0, 0), (1, 1)))
    xu, xut = x[:, :-2] * np.sqrt(k), x[:, 2:] * np.sqrt(k + 1)
    n2 = np.pad(xut - xu, ((1, 1), (0, 0)))
    beta1, beta2 = 1j * alpha / math.sqrt(lam), 1j * lam * math.sqrt(lam) / (4.0 * alpha)
    m1n1 = sp.fourier_orders()[:, None] * (xu + xut)
    return beta1 * m1n1 + beta2 * (n2[:-2] - n2[2:]) - lam * k * entries


def assemble_band(sp: SpectralParams) -> np.ndarray:
    """The real system for r_j^k, j >= 0, in gbsv band storage: kl = ku = m+2, unknown j + (m+1)k.

    With a1 = alpha/sqrt(lam), a2 = lam sqrt(lam)/(4 alpha) and s = (-1)^k, row (j, k) is
    s [a1 j (sqrt(k) r_j^{k-1} + sqrt(k+1) r_j^{k+1}) + a2 (sqrt(k+1) (r_{j-1}^{k+1} -
    r_{j+1}^{k+1}) - sqrt(k) (r_{j-1}^{k-1} - r_{j+1}^{k-1}))] - lam k r_j^k, with the mirror
    r_{-1}^k = -r_1^k; r_0^k is pinned to 0 for even k.  A[row, row + d] is ab[2(m+2) - d, row + d].
    """
    m, n, lam, alpha = sp.m, sp.n, sp.model.lam, sp.model.alpha
    w, size = m + 2, (m + 1) * (n + 1)
    j, k = np.arange(m + 1.0)[:, None], np.arange(n + 1.0)
    live, sign = (j > 0) | (k % 2 == 1), np.where(k % 2 == 0, 1.0, -1.0)
    a1 = sign * j * (alpha / math.sqrt(lam))
    a2 = sign * live * (lam * math.sqrt(lam) / (4.0 * alpha))
    left, right = j > 0, np.where(j == 0, 2.0, j < m)  # row 0 folds in r_{-1} = -r_1
    up, down = np.sqrt(k + 1.0), np.sqrt(k)
    ab = np.zeros((3 * w + 1, size), order="F")  # gbsv takes it without a copy
    for d, coef in ((-m - 1, a1 * down), (m + 1, a1 * up), (m, a2 * up * left),
                    (-m - 2, -a2 * down * left), (m + 2, -a2 * up * right), (-m, a2 * down * right)):
        ab[2 * w - d, max(d, 0) : size + min(d, 0)] = coef.ravel("F")[max(-d, 0) : size - max(d, 0)]
    ab[:, :: 2 * (m + 1)] = 0.0  # the pinned unknowns enter no other row
    ab[2 * w] = np.where(live, -lam * k, 1.0).ravel("F")
    return ab


def solve_gci(sp: SpectralParams) -> CoeffMatrix:
    """Solve the coefficient equation by one real banded LU, bandwidth m+2, on the half grid j >= 0.

    The truncated constant, even under (theta, kappa) -> (-theta, -kappa), is a
    near-kernel of the full operator (reciprocal condition about 1e-38 at (30, 61)).  psi is
    odd, and on its real, odd class C_{+-j}^k = phase_k r_j^k or conj(phase_k) r_j^k
    (phase_k = i for even k, 1 for odd k) the system is well conditioned and reality,
    oddness and <psi>_mu = 0 hold exactly.  Raises RuntimeError if the band is singular
    or ||apply_operator(X) - B|| / ||B|| is not at most SOLVE_RTOL.
    """
    b = assemble_rhs(sp)
    phase = np.where(np.arange(sp.n_hermite) % 2 == 0, 1j, 1.0)
    rhs = (np.conj(phase) * b[sp.m :]).real.reshape(-1, 1, order="F")
    w = sp.m + 2
    *_, r, info = dgbsv(w, w, assemble_band(sp), rhs, overwrite_ab=True, overwrite_b=True)
    if info != 0:
        raise RuntimeError(f"banded LU is singular (LAPACK gbsv info {info})")
    r = r.reshape((sp.m + 1, sp.n_hermite), order="F")
    x = np.concatenate([np.conj(phase) * r[:0:-1], phase * r])
    residual = float(np.linalg.norm(apply_operator(x, sp) - b) / np.linalg.norm(b))
    if not residual <= SOLVE_RTOL:  # also fails on NaN
        raise RuntimeError(f"banded solve residual {residual:.3e} exceeds {SOLVE_RTOL:.0e}")
    return CoeffMatrix(entries=x, residual=residual)


def _constant_coefficients(sp: SpectralParams) -> np.ndarray:
    """Basis coefficients of the constant function 1 (truncated): C(j, 0) = I_j(k/2) / sqrt(I0(k))."""
    c = np.zeros((sp.n_fourier, sp.n_hermite), dtype=complex)
    c[:, 0] = von_mises_projection(sp, 0)
    return c


def mu_mean(x: CoeffMatrix, sp: SpectralParams) -> float:
    """<psi>_mu computed spectrally; zero for a solution on the hyperplane E."""
    ones = _constant_coefficients(sp)
    return float(np.real(np.sum(np.conj(ones) * x.entries)))


@np.errstate(divide="ignore", invalid="ignore")  # non-finite values raise in _real
def reconstruct_psi(x: CoeffMatrix, sp: SpectralParams, theta, kappa):
    """Evaluate psi(theta, kappa) = sum_jk C_j^k phi_j(theta) P_k(kappa).

    The values are psi only where |kappa| <= kappa_cutoff(sp.model); beyond it
    the truncated series is round-off amplified by the top Hermite degrees and
    by 1/sqrt(M(theta)) (see psi_on_grid).  Accepts scalars or broadcastable
    arrays: the Fourier sum runs over theta's own shape and the Hermite rows
    over kappa's, and only their contraction broadcasts.  Raises ValueError if
    the imaginary residue exceeds 1e-8 * (|real| + 1) and FloatingPointError
    if any value is not finite (near theta = pi once M(theta) underflows,
    lambda^2/alpha^2 above about 372).
    """
    theta = np.asarray(theta, dtype=float)
    s = np.exp(1j * theta[..., None] * sp.fourier_orders()) @ x.entries  # theta.shape + (n+1,)
    p = hermite_p_row(sp.n, sp.model.lam, sp.model.alpha, kappa)  # kappa.shape + (n+1,)
    weight = np.sqrt(2.0 * math.pi * von_mises_pdf(sp.model, theta))
    return _real(np.einsum("...k,...k->...", s, p) / weight)


def _real(vals: np.ndarray):
    """Real part of reconstructed values, a float when 0-d; raises on non-finite or non-real values."""
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
    out = np.real(vals)
    return float(out) if out.ndim == 0 else out


def psi_on_grid(x: CoeffMatrix, sp: SpectralParams, grid: Grid2D) -> GridField:
    """Reconstruct psi on a finite-difference grid (separable, so O(grid * basis) work).

    The values are psi only where |kappa| <= kappa_cutoff(sp.model).  Grid
    rows beyond it hold the truncated series, which is not psi: there the
    coefficient round-off is amplified by the top Hermite degrees and by
    1/sqrt(M(theta)).  grid.residual_inf takes its sup inside the cutoff.
    """
    return GridField(grid, reconstruct_psi(x, sp, grid.theta[:, None], grid.kappa))

