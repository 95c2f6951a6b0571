"""Fourier x Hermite Galerkin solver for the generalized collisional invariant.

The invariant psi solves L(psi) = -sin(theta) on the hyperplane of mu-mean-zero
functions.  Expanded on the orthonormal basis phi_j(theta) P_k(kappa), with
phi_j = exp(i j theta)/sqrt(2 pi M(theta)) and P_k the normalized probabilists'
Hermite polynomials, the coefficients C_j^k solve a linear system in which each
couples only to itself, (j, k+-1) and (j+-1, k+-1).  The solution is real and odd
under (theta, kappa) -> (-theta, -kappa), which fixes every coefficient by one real
number r_j^k with j >= 0, and _half_operator is L on that class (its rows are written
out in assemble_schur_band); the complex system is never formed.  In that real system
the odd Hermite degrees couple only to the even ones, and to themselves through the
diagonal -lam k, so they are eliminated exactly.  L is a transport part,
antisymmetric in L^2(mu), plus the Ornstein-Uhlenbeck part, -lam k on degree k.  On
the real half grid the antisymmetry reads A_oe = -W A_eo^T, with A_eo and A_oe the
even-to-odd couplings and W = diag(2 at j = 0, 1 at j >= 1) on the odd unknowns
(r_0 stands for C_0 alone, r_j for both C_+-j).  So the Schur complement on the even
degrees, S = -lam E - A_eo (lam O)^-1 W A_eo^T with E and O the diagonals of the even
and odd degrees, is symmetric negative definite: one banded Cholesky factor of -S
(LAPACK pbtrf, kd = m+2, the lower band only) solves it on m ceil((n+1)/2) unknowns,
the odd degrees follow by back-substitution, and the same factor refines the result
where the small odd pivots spoil it, for any right-hand side of the class (_factored).
-sin(theta) and the moments <sin(q theta) psi>_mu are real there too (sine_projection).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import ModelParams, _is_integer, _ive, _scipy, von_mises_pdf
from .grid import Grid2D, GridField
from .special import hermite_p_row

__all__ = [
    "SpectralParams",
    "CoeffMatrix",
    "assemble_rhs",
    "assemble_schur_band",
    "solve_gci",
    "reconstruct_psi",
    "psi_on_grid",
    "sine_projection",
    "sine_moment",
]

#: relative algebraic residual ||L(X) - B|| / ||B|| required of the solve
SOLVE_RTOL = 1e-10
#: iterative-refinement steps allowed after the first banded solve
REFINE_STEPS = 2
#: allowed imaginary residue of reconstructed values, relative to |real| + 1
IMAG_TOL = 1e-8


@dataclass(frozen=True)
class SpectralParams:
    """Galerkin truncation: Fourier half-width m, Hermite degree n, and model parameters."""

    m: int
    n: int
    model: ModelParams

    def __post_init__(self):
        if not (_is_integer(self.m) and self.m >= 1):
            raise ValueError(f"m must be a positive integer, got {self.m!r}")
        if not (_is_integer(self.n) and self.n >= 1):
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        self.model.concentration, self.model.pressure  # ValueError if lam^2 or alpha^2 underflows

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

    @functools.cached_property  # the point's solve and moments share it
    def _bessel_column(self) -> np.ndarray:
        """The read-only column ive(0..m+2, k/2) / sqrt(ive(0, k)) that sine_projection slices."""
        k = self.model.concentration
        column = _scipy("special").ive(np.arange(self.m + 3), k / 2.0) / math.sqrt(_ive(0, k))
        column.flags.writeable = False
        return column


@dataclass(frozen=True)
class CoeffMatrix:
    """Complex coefficients C_j^k of psi, rows j = -m..m, columns k = 0..n.

    Carries the relative algebraic residual ||L(X) - B|| / ||B|| of the solve (the CLI's
    "algebraic residual").  It shows that the solve passed SOLVE_RTOL; it is not a measured
    error.  A value near 1e-12 is round-off, and how L(X) - B is evaluated changes it.
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


def sine_projection(sp: SpectralParams, q: int) -> np.ndarray:
    """<-sin(q theta), phi_j>_mu = i t_j, t_j = (b_|j-q| - b_(j+q))/2 on the half grid j = 0..m.

    b = sp._bessel_column holds the integrals of exp(i s theta) sqrt(M(theta) / 2 pi); t is odd
    in j, and q is 0, 1 or 2.  Past k = 2^31 ive(n, k/2) is NaN, and the solve names it.
    """
    b, j = sp._bessel_column, np.arange(sp.m + 1)
    return (b[np.abs(j - q)] - b[j + q]) / 2.0


def assemble_rhs(sp: SpectralParams) -> np.ndarray:
    """-sin(theta) on the real half grid: sine_projection(sp, 1) in the Hermite-degree-0 column."""
    f = np.zeros((sp.m + 1, sp.n_hermite))
    f[:, 0] = sine_projection(sp, 1)
    return f


def sine_moment(x: CoeffMatrix, sp: SpectralParams, q: int) -> float:
    """<sin(q theta) psi>_mu = -2 sum_{j >= 1} r_j^0 t_j, t = sine_projection(sp, q), exactly.

    Only degree 0 survives the kappa integral; there C_{+-j}^0 = +-i r_j^0 with r_j^0 = Im C_j^0.
    """
    return -2.0 * float(x.entries[sp.m + 1 :, 0].imag @ sine_projection(sp, q)[1:])


@functools.lru_cache(maxsize=16)
def _structure(m: int, n: int) -> tuple[np.ndarray, ...]:
    """The read-only model-free arrays of truncation (m, n): W and P, whose (W @ c) @ P is the
    lower band of assemble_schur_band, then k = 0..n, sqrt(k), sqrt(k+1), j = 0..m as a column
    (_half_operator) and phase_k (solve_gci).

    P[t] holds piece t in rows j + u, u = -2..2, of column j = 1..m (zero where j + u leaves
    1..m): (JD - DJ)/4, J^2, D^2, (JD + DJ)/4 and the identity.  W[s, e/2, t] is the
    polynomial in c = (1, d, k/16, lam) that scales piece t in the column block e, for rows
    in the same block (s = 0) and the next (s = 1); the previous block is their transpose.
    """
    j, u = np.arange(1.0, m + 1)[:, None], np.arange(-2, 3)
    diag = u == 0
    pieces = np.stack(np.broadcast_arrays(
        (np.abs(u) == 1) / 4.0,
        diag * j * j,
        (np.abs(u) == 2) + diag * (-1.0 - (j == 1) - (j < m)),
        ((u == 1) * (2.0 * j + 1.0) + (u == -1) * (1.0 - 2.0 * j)) / 4.0,
        diag * 1.0,
    )) * ((j + u >= 1) & (j + u <= m))
    e = np.arange(0.0, n + 1, 2)
    below = e / np.maximum(e - 1.0, 1.0)  # e/(e-1), and 0 at e = 0 with no odd degree below
    above = (e < n) * 1.0
    up = np.sqrt((e + 2.0) / (e + 1.0)) * (e + 2 <= n)
    weights = np.zeros((2, len(e), 5, 4))
    weights[0, :, 0, 0] = above - below
    weights[0, :, 1, 1] = -(below + above)
    weights[0, :, 2, 2] = below + above
    weights[0, :, 4, 3] = -e
    # rows in the next block take Q^2, with -(JD + DJ)/4
    weights[1, :, 1, 1] = weights[1, :, 2, 2] = -up
    weights[1, :, 3, 0] = up
    k = np.arange(n + 1.0)
    arrays = (weights, pieces.reshape(5, 5 * m), k, np.sqrt(k), np.sqrt(k + 1.0),
              np.arange(m + 1.0)[:, None], np.where(np.arange(n + 1) % 2 == 0, 1j, 1.0))
    for array in arrays:
        array.flags.writeable = False
    return arrays


def assemble_schur_band(sp: SpectralParams) -> np.ndarray:
    """-S, S the real system on the even Hermite degrees, in pbtrf lower band storage, kd = m+2.

    With J = diag(j) and (D r)_j = r_{j-1} - r_{j+1} on j = 0..m (mirror r_{-1} = -r_1),
    P, Q = a1 J +- a2 D, a1 = alpha/sqrt(lam) and a2 = lam sqrt(lam)/(4 alpha), the real
    system for r_j^k, j >= 0, has for even e and odd o the rows (f^o = 0 for B)

        sqrt(e) Q r^{e-1} + sqrt(e+1) P r^{e+1} - lam e r^e = f^e,
        -sqrt(o) Q r^{o-1} - sqrt(o+1) P r^{o+1} - lam o r^o = f^o.

    Eliminating each odd r^o leaves, in block row e, -sqrt(e/(e-1)) Q^2/lam on r^{e-2},
    -(e/(e-1) QP + PQ)/lam - lam e on r^e and -sqrt((e+2)/(e+1)) P^2/lam on r^{e+2}, without
    the terms whose odd degree e -+ 1 lies outside 1..n.  Over lam, QP and PQ are
    d J^2 +- (JD - DJ)/4 - (k/16) D^2, and P^2 and Q^2 are d J^2 +- (JD + DJ)/4 + (k/16) D^2,
    with d = alpha^2/lam^2 and k = lam^2/alpha^2.  r_0^e = 0, so the unknowns are r_j^e,
    j >= 1, at (j-1) + m e/2.  Column j there holds j^2 of J^2 in row j; 1 of JD - DJ in
    rows j -+ 1; -(2j-1) and 2j+1 of JD + DJ in rows j-1 and j+1; and 1 of D^2 in rows
    j -+ 2 and -1 - [j=1] - [j<m] in row j.  S is symmetric negative definite (module
    docstring), so only its lower band is written: -S[row, col] is ab[row - col, col].
    """
    m, n = sp.m, sp.n
    weights, pieces, *_ = _structure(m, n)
    c = -np.array([1.0, sp.model.pressure, sp.model.concentration / 16.0, sp.model.lam])
    coef = ((weights @ c) @ pieces).reshape(2, -1, m, 5)  # block, column e/2, column j, row u
    band = np.zeros((coef.shape[1], m, m + 3))  # column (j, e) is band[e/2, j-1]
    band[:, :, :3] = coef[0, :, :, 2:]
    # the next block sits in rows m + u; when m <= 4 it shares band rows with this one, on
    # entries that never share a row, and at m = 1 its u = -2 row, zero there, lies above
    top = max(m - 2, 0)
    band[:, :, top:] += coef[1, :, :, top - m + 2 :]
    return band.reshape(-1, m + 3).T  # Fortran order: pbtrf takes it without a copy


def _half_operator(r: np.ndarray, sp: SpectralParams) -> np.ndarray:
    """L on the real, odd class, rows j = 0..m and k = 0..n, as written in assemble_schur_band.

    The even rows at j = 0 are 0: r_0^e = 0 is pinned, so they are not equations.
    """
    m, n, lam, alpha = sp.m, sp.n, sp.model.lam, sp.model.alpha
    _, _, k, sqrt_k, sqrt_k1, j, _ = _structure(m, n)
    padded = np.zeros((m + 1, n + 3))  # zero degrees -1 and n+1
    padded[:, 1:-1] = r
    lo, hi = sqrt_k * padded[:, :-2], sqrt_k1 * padded[:, 2:]
    diff = np.zeros((m + 3, n + 1))  # hi - lo on j = -1..m+1
    diff[1:-1] = hi - lo
    diff[0] = -diff[2]  # the mirror r_{-1} = -r_1
    a1, a2 = alpha / math.sqrt(lam), lam * math.sqrt(lam) / (4.0 * alpha)
    rows = a1 * j * (lo + hi) + a2 * (diff[:-2] - diff[2:])
    rows[:, 1::2] *= -1.0
    rows -= lam * k * r
    rows[0, ::2] = 0.0
    return rows


def _half_norm(a: np.ndarray) -> float:
    """The l2 norm of the complex coefficients that the half grid a stands for: rows j >= 1 twice."""
    return math.hypot(np.linalg.norm(a), np.linalg.norm(a[1:]))


def _factored(sp: SpectralParams):
    """Factor -S once; return solve(f) -> (r, residual), the half grid r with _half_operator(r) = f.

    f is a right-hand side of psi's class on the half grid, rows j = 0..m and columns k = 0..n,
    with f[0, ::2] = 0: those rows are not equations, since r_0^e = 0 is pinned.  The odd
    pivots -lam k are small against the coupling when lam is small and alpha large (at even n
    the first residual reaches 3e-6 at lam = 0.01, alpha = 100), so while ||L(r) - f|| / ||f||,
    both taken by _half_norm, exceeds SOLVE_RTOL the same factor corrects r from that defect,
    at most REFINE_STEPS times (CoeffMatrix says what the residual means).  Raises RuntimeError
    if -S is not positive definite, and solve raises it if f is not finite or the residual
    stays above SOLVE_RTOL.
    """
    lapack = _scipy("linalg.lapack")
    factor, info = lapack.dpbtrf(assemble_schur_band(sp), lower=1, overwrite_ab=True)
    if info != 0:
        raise RuntimeError(f"Schur band is not positive definite (LAPACK pbtrf info {info})")
    lam_odd = sp.model.lam * _structure(sp.m, sp.n)[2][1::2]

    def solve(f):
        f_norm = _half_norm(f)
        if not math.isfinite(f_norm):
            k = sp.model.concentration
            raise RuntimeError(f"right-hand side is not finite at lam^2/alpha^2 = {k:.3e}")
        r, defect = np.zeros_like(f), -f
        for refinements in range(REFINE_STEPS + 1):
            d_odd, rhs = defect[:, 1::2], defect[1:, ::2]
            if d_odd.any():  # d_e - A_eo A_oo^-1 d_o on j >= 1; -f has none when f is in degree 0
                g = np.zeros_like(f)
                g[:, 1::2] = d_odd / lam_odd
                rhs = (defect + _half_operator(g, sp))[1:, ::2]
            c = np.zeros_like(f)
            # -rhs is a new array, so overwrite_b never writes into defect
            even = lapack.dpbtrs(factor, -rhs.ravel(order="F"), lower=1, overwrite_b=True)[0]
            c[1:, ::2] = even.reshape(-1, sp.m).T
            c[:, 1::2] = (_half_operator(c, sp)[:, 1::2] - d_odd) / lam_odd
            r = r - c  # _half_operator(c) = defect
            defect = _half_operator(r, sp) - f
            residual = _half_norm(defect) / f_norm
            if residual <= SOLVE_RTOL:  # also fails on NaN
                return r, residual
            if not math.isfinite(residual):  # no correction can mend a non-finite system
                break
        raise RuntimeError(
            f"banded solve residual {residual:.3e} exceeds {SOLVE_RTOL:.0e} "
            f"after {refinements} refinement steps"
        )

    return solve


def solve_gci(sp: SpectralParams) -> CoeffMatrix:
    """Solve for the coefficients of psi: _factored(sp) on assemble_rhs(sp), expanded to X.

    The truncated constant, even under (theta, kappa) -> (-theta, -kappa), is a near-kernel
    of the full system (reciprocal condition about 1e-38 at (30, 61)).  On psi's real, odd
    class, C_{+-j}^k = phase_k r_j^k or conj(phase_k) r_j^k (phase_k = i for even k, 1 for odd
    k), it is well conditioned, and reality, oddness and <psi>_mu = 0 hold exactly.  Raises
    RuntimeError as _factored does, and so from lam^2/alpha^2 = 2^31, where B is not finite.
    """
    r, residual = _factored(sp)(assemble_rhs(sp))
    phase = _structure(sp.m, sp.n)[-1]
    return CoeffMatrix(np.concatenate([np.conj(phase) * r[:0:-1], phase * r]), residual)


def reconstruct_psi(x: CoeffMatrix, sp: SpectralParams, theta, kappa):
    """Evaluate psi(theta, kappa) = sum_jk C_j^k phi_j(theta) P_k(kappa).

    The values are psi only where |kappa| <= kappa_cutoff(sp.model); beyond it
    the truncated series is round-off amplified by the top Hermite degrees and
    by 1/sqrt(M(theta)) (see psi_on_grid).  Accepts scalars or broadcastable
    arrays: the Fourier sum runs over theta's own shape and the Hermite rows
    over kappa's, and only their contraction broadcasts.  Raises
    FloatingPointError if any value is not finite (near theta = pi once
    M(theta) underflows, lambda^2/alpha^2 above about 372) or if the imaginary
    residue exceeds 1e-8 * (|real| + 1), which is coefficient round-off that
    1/sqrt(M(theta)) amplifies near theta = pi.
    """
    theta = np.asarray(theta, dtype=float)
    return _evaluate(x, sp, theta, _fourier_rows(theta, sp.m), kappa)


def _fourier_rows(theta: np.ndarray, m: int) -> np.ndarray:
    """exp(i j theta) for j = -m..m, shape theta.shape + (2m+1,)."""
    return np.exp(1j * theta[..., None] * np.arange(-m, m + 1))


@functools.lru_cache(maxsize=4)  # model-free: every (lam, alpha) on one grid shares it
def _grid_fourier(grid: Grid2D, m: int) -> np.ndarray:
    """The read-only _fourier_rows of grid.theta as a column, shape (n_theta, 1, 2m+1)."""
    table = _fourier_rows(grid.theta[:, None], m)
    table.flags.writeable = False
    return table


@np.errstate(divide="ignore", invalid="ignore")  # non-finite values raise in _real
def _evaluate(x: CoeffMatrix, sp: SpectralParams, theta: np.ndarray, fourier: np.ndarray, kappa):
    """reconstruct_psi from fourier = _fourier_rows(theta, sp.m).

    The Fourier sum is one 2-D product with theta's nodes as rows, and the sum over the
    Hermite degree one einsum, which BLAS runs as a single product on a grid.
    """
    s = (fourier.reshape(-1, sp.n_fourier) @ x.entries).reshape(theta.shape + (sp.n_hermite,))
    p = hermite_p_row(sp.n, sp.model.lam, sp.model.alpha, kappa)  # kappa.shape + (n+1,)
    weight = np.sqrt(2.0 * math.pi * von_mises_pdf(sp.model, theta))
    return _real(np.einsum("...k,...k->...", s, p, optimize=True) / weight)


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
        raise FloatingPointError(f"reconstruction has non-real residue {worst:.3e}")
    out = np.real(vals)
    return float(out) if out.ndim == 0 else out


def psi_on_grid(x: CoeffMatrix, sp: SpectralParams, grid: Grid2D) -> GridField:
    """Reconstruct psi on a finite-difference grid (separable, so O(grid * basis) work).

    The values are psi only where |kappa| <= kappa_cutoff(sp.model).  Grid
    rows beyond it hold the truncated series, which is not psi: there the
    coefficient round-off is amplified by the top Hermite degrees and by
    1/sqrt(M(theta)).  grid.residual_inf takes its sup inside the cutoff.
    The values equal reconstruct_psi(x, sp, grid.theta[:, None], grid.kappa) bit for bit;
    only exp(i j theta) on the grid's nodes comes from a cache, which holds nothing of the model.
    """
    fourier = _grid_fourier(grid, sp.m)
    return GridField(grid, _evaluate(x, sp, grid.theta[:, None], fourier, grid.kappa))

