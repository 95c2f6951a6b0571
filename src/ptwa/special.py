"""Normalized probabilists' Hermite polynomials, the curvature direction of the spectral basis.

The basis functions are ``P_n(kappa) = He_n(sqrt(lambda)/alpha * kappa) / sqrt(n!)``,
orthonormal against the curvature equilibrium.  The modified Bessel functions
behind every closed-form constant (normalizations, the density drift
coefficient c1, the right-hand side of the spectral system) are scipy's
exponentially scaled ``scipy.special.ive``, called where they are used and
loaded on first use by ``equilibrium._scipy``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["hermite_p_row"]


def hermite_p_row(n_max: int, lam: float, alpha: float, kappa: np.ndarray) -> np.ndarray:
    """All normalized Hermite values P_0..P_{n_max} at each kappa, shape kappa.shape + (n_max+1,).

    Evaluated by the three-term recurrence He_{k+1}(x) = x He_k(x) - k He_{k-1}(x)
    with the 1/sqrt(n!) normalization folded in incrementally:
    p_{k+1} = (x p_k - sqrt(k) p_{k-1}) / sqrt(k+1).
    """
    kappa = np.asarray(kappa, dtype=float)
    x = math.sqrt(lam) / alpha * kappa
    out = np.empty(kappa.shape + (n_max + 1,))
    out[..., 0] = 1.0
    if n_max >= 1:
        out[..., 1] = x
    for k in range(1, n_max):
        out[..., k + 1] = (x * out[..., k] - math.sqrt(k) * out[..., k - 1]) / math.sqrt(k + 1)
    return out
