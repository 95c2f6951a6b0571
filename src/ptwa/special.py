"""Normalized probabilists' Hermite polynomials, the curvature direction of the spectral basis.

The basis functions are ``P_n(kappa) = He_n(sqrt(lambda)/alpha * kappa) / sqrt(n!)``,
orthonormal against the curvature equilibrium.  With x = sqrt(lambda)/alpha * kappa, the
recurrence He_{k+1}(x) = x He_k(x) - k He_{k-1}(x) with 1/sqrt(n!) folded in reads
sqrt(k+1) P_{k+1} - x P_k + sqrt(k) P_{k-1} = 0 from P_0 = 1: for one kappa, a
lower-triangular system with two subdiagonals.  hermite_p_row stacks one such block per
kappa along a single band, joined by zero entries, and solves the stack with one LAPACK
triangular band solve (dtbtrs), so no Python loop runs over the degrees.  The BLAS kernel
under it decides whether a multiply-subtract is fused, so P's last bits depend on the
BLAS build, as those of the banded Cholesky in the spectral solve already do.

The modified Bessel functions behind every closed-form constant (normalizations, the
density drift coefficient c1, the right-hand side of the spectral system) are scipy's
exponentially scaled ``scipy.special.ive``, called where they are used.  Both scipy
modules load on first use through ``equilibrium._scipy``.
"""

from __future__ import annotations

import math

import numpy as np

from .equilibrium import _scipy

__all__ = ["hermite_p_row"]


def hermite_p_row(n_max: int, lam: float, alpha: float, kappa: np.ndarray) -> np.ndarray:
    """All normalized Hermite values P_0..P_{n_max} at each kappa, shape kappa.shape + (n_max+1,).

    One dtbtrs call on the stacked band of the module docstring.  The band holds
    3 * kappa.size * (n_max+1) doubles and the right-hand side, which becomes the result,
    one third of that, so the call peaks at about 4x the returned table: 7.3 MB of band at
    n_max = 241 on the 1262 kappa nodes of the finest grid under cli.MAX_GRID_NODES.

    Raises FloatingPointError, with a message starting "reconstruction is not finite",
    if any kappa is not finite or any value overflows (x^n / sqrt(n!) passes 1e308 at
    n = 241 once |x| is about 180): a zero band entry times inf is NaN, so such a row
    would spoil every row stacked after it.
    """
    kappa = np.asarray(kappa, dtype=float)
    x = math.sqrt(lam) / alpha * kappa.reshape(-1, 1)
    root = np.sqrt(np.arange(n_max + 1.0))
    sub2 = root[1:n_max]
    # row j of a (size * (n_max+1), 3) C array is column j of the (3, .) Fortran band
    band = np.zeros((x.size, n_max + 1, 3))
    band[:, :, 0] = root
    band[:, 0, 0] = 1.0
    band[:, :n_max, 1] = -x
    band[:, : sub2.size, 2] = sub2
    rhs = np.zeros((x.size, n_max + 1))
    rhs[:, 0] = 1.0
    lapack = _scipy("linalg.lapack")
    p, _ = lapack.dtbtrs(band.reshape(-1, 3).T, rhs.reshape(-1, 1), uplo="L", overwrite_b=1)
    p = p.reshape(kappa.shape + (n_max + 1,))
    if not np.isfinite(p).all():
        first = kappa.flat[np.argmin(np.isfinite(p).reshape(x.size, -1).all(axis=1))]
        raise FloatingPointError(
            f"reconstruction is not finite: the Hermite rows to degree {n_max} overflow "
            f"or kappa is not finite at kappa = {float(first):.6g}"
        )
    return p
