"""Macroscopic coefficients and characteristic speeds of the hydrodynamic limit.

The limit system transports the density at speed c1 and the direction field at
speed c2 = gamma2/gamma1, where gamma1 = <sin(theta) psi>_mu and
gamma2 = <sin(theta) cos(theta) psi>_mu are moments of the collisional
invariant, and carries a pressure coefficient d = alpha^2/lambda^2.  Both
moments are exact Bessel projections of psi's Hermite-degree-0 column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import c1_coefficient, theta_nodes
from .spectral import CoeffMatrix, SpectralParams, von_mises_projection

__all__ = [
    "HydroCoeffs",
    "gamma_moments",
    "gamma_moments_spectral",
    "compute_hydro_coeffs",
    "characteristic_speeds",
    "hyperbolicity_check",
]

#: below this magnitude gamma1 is treated as degenerate
GAMMA1_MIN = 1e-10


@dataclass(frozen=True)
class HydroCoeffs:
    """Macroscopic constants: drift c1, convection c2 = gamma2/gamma1, pressure d = alpha^2/lambda^2."""

    c1: float
    c2: float
    d: float
    gamma1: float
    gamma2: float

    def __post_init__(self):
        if not (0.0 < self.c1 < 1.0):
            raise ValueError(f"c1 must lie in (0, 1), got {self.c1}")
        if not self.d > 0:
            raise ValueError(f"d must be positive, got {self.d}")
        if self.gamma1 == 0.0:
            raise ValueError("gamma1 must be nonzero")


def _sine_moment(x: CoeffMatrix, sp: SpectralParams, q: int) -> float:
    """<sin(q theta) psi>_mu = Re sum_j C_j^0 i (h(-q) - h(q)) / 2, h(s) = von_mises_projection(sp, s)."""
    weights = 1j * (von_mises_projection(sp, -q) - von_mises_projection(sp, q)) / 2.0
    return float(np.real(np.sum(x.entries[:, 0] * weights)))


def gamma_moments(x: CoeffMatrix, sp: SpectralParams) -> dict:
    """gamma1 = <sin psi>_mu and gamma2 = <sin cos psi>_mu = <sin(2 theta) psi>_mu / 2, exactly.

    Only the Hermite-degree-0 column survives the kappa integral, and
    phi_j sqrt(M) = exp(i j theta)/sqrt(2 pi), so each moment is that column
    against Bessel columns (_sine_moment); there is no theta quadrature.
    """
    gamma1 = _sine_moment(x, sp, 1)
    gamma2 = _sine_moment(x, sp, 2) / 2.0
    if abs(gamma1) < GAMMA1_MIN:
        raise ArithmeticError(f"degenerate moment: |gamma1| = {abs(gamma1):.3e} < {GAMMA1_MIN}")
    return {"gamma1": gamma1, "gamma2": gamma2}


def gamma_moments_spectral(x: CoeffMatrix, sp: SpectralParams) -> float:
    """gamma1 without the degeneracy check; the same projection as gamma_moments."""
    return _sine_moment(x, sp, 1)


def compute_hydro_coeffs(x: CoeffMatrix, sp: SpectralParams) -> HydroCoeffs:
    """Package (c1, c2, d) with the underlying moments for one parameter point."""
    g = gamma_moments(x, sp)
    model = sp.model
    return HydroCoeffs(
        c1=c1_coefficient(model),
        c2=g["gamma2"] / g["gamma1"],
        d=model.pressure,
        gamma1=g["gamma1"],
        gamma2=g["gamma2"],
    )


def _discriminant(h: HydroCoeffs, theta: float) -> float:
    """The characteristic discriminant at wave angle theta, the same for both speeds."""
    return (h.c1 - h.c2) ** 2 * math.cos(theta) ** 2 + 4.0 * h.c1 * h.d * math.sin(theta) ** 2


def characteristic_speeds(h: HydroCoeffs, theta: float) -> tuple[float, float]:
    """Both characteristic velocities of the reduced one-dimensional system at wave angle theta.

    gamma_pm = 1/2 [(c1 + c2) cos(theta) +- sqrt(disc)], disc from _discriminant.
    The discriminant is a sum of squares scaled by positives; a negative value
    is an internal invariant violation.
    """
    disc = _discriminant(h, theta)
    assert disc >= 0.0, "characteristic discriminant must be non-negative"
    root = math.sqrt(disc)
    base = (h.c1 + h.c2) * math.cos(theta)
    return 0.5 * (base + root), 0.5 * (base - root)


def hyperbolicity_check(h: HydroCoeffs, theta_samples: int) -> bool:
    """True iff the characteristic discriminant is >= 0 at all sampled wave angles."""
    if theta_samples < 8:
        raise ValueError(f"theta_samples must be >= 8, got {theta_samples}")
    return all(_discriminant(h, th) >= 0.0 for th in theta_nodes(theta_samples))
