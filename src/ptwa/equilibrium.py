"""Closed-form local equilibria of the collision operator and their moments.

The stationary local state is the product mu(theta, kappa) = M(theta) N(kappa)
of a Von Mises distribution in the heading angle (concentration lambda^2/alpha^2)
and a centered Gaussian in the curvature (variance alpha^2/lambda).  The drift
coefficient of the macroscopic density equation is the Bessel ratio
c1 = I1(lambda^2/alpha^2) / I0(lambda^2/alpha^2).  Both are evaluated through the
exponentially scaled ive(n, k) = exp(-k) I_n(k), so the exponentials cancel and
nothing overflows at large concentration.  The module also owns the seeded
Philox stream that both stochastic simulators draw their noise from, the rule
for integer settings, and the one loader of scipy.
"""

from __future__ import annotations

import functools
import importlib
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "von_mises_pdf",
    "gaussian_pdf",
    "c1_coefficient",
    "c1_quadrature",
    "wrap_angle",
    "theta_nodes",
    "kappa_cutoff",
    "seeded_stream",
]

#: default number of nodes for periodic-trapezoid quadrature in theta
THETA_QUAD_NODES = 512
#: psi is represented for |kappa| up to this many equilibrium standard deviations
KAPPA_CUTOFF_SIGMAS = 12.0


def wrap_angle(theta):
    """Wrap angle(s) to the canonical interval (-pi, pi]."""
    w = np.mod(-np.asarray(theta) + np.pi, 2.0 * np.pi)
    out = np.pi - w
    # mod maps -pi to itself; fold the open endpoint
    out = np.where(out == -np.pi, np.pi, out)
    if np.ndim(theta) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class ModelParams:
    """Scaled model parameters: relaxation rate lam and noise intensity alpha."""

    lam: float
    alpha: float

    def __post_init__(self):
        if not (0 < self.lam < math.inf and 0 < self.alpha < math.inf):
            raise ValueError(f"lam and alpha must be positive and finite, got {self.lam}, {self.alpha}")

    def _ratio_of_squares(self, num: float, den: float) -> float:
        """num^2/den^2; ValueError if den^2 underflows, a model only the particle scheme can run."""
        if den**2 == 0.0:
            raise ValueError(f"lam^2 and alpha^2 must not underflow to 0, got {self.lam}, {self.alpha}")
        return num**2 / den**2

    @property
    def concentration(self) -> float:
        """Von Mises concentration lambda^2/alpha^2."""
        return self._ratio_of_squares(self.lam, self.alpha)

    @property
    def kappa_variance(self) -> float:
        """Stationary curvature variance alpha^2/lambda."""
        return self.alpha**2 / self.lam

    @property
    def pressure(self) -> float:
        """Pressure coefficient d = alpha^2/lambda^2 of the hydrodynamic limit."""
        return self._ratio_of_squares(self.alpha, self.lam)


@functools.cache
def _scipy(module: str):
    """scipy.<module>, imported on the first call that needs it and cached.

    Only the spectral solve and the Bessel constants need scipy: scipy.special for ive,
    i0e and i1e, scipy.linalg.lapack for the banded Cholesky.  Importing both takes about
    0.3 s and 32 MB of resident memory on top of numpy (2-core x86-64 host, Python 3.11,
    scipy 1.17), and either one alone most of that, so the particle simulator and the
    Monte-Carlo oracle, which need neither, run without them.  The values are those of the
    same scipy functions either way.
    """
    return importlib.import_module(f"scipy.{module}")


def _ive(order: int, k: float) -> float:
    """scipy's ive(order, k) for order 0 or 1; ive is NaN once k rounds to 2**30, i0e and i1e are not."""
    special = _scipy("special")
    value = special.ive(order, k)
    return (special.i0e, special.i1e)[order](k) if math.isnan(value) else value


def _is_integer(value) -> bool:
    """True for a Python or numpy integer; False for a bool, a float (2.0 too) or anything else."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def von_mises_pdf(params: ModelParams, theta):
    """Von Mises density M(theta) = exp(k cos theta) / (2 pi I0(k)), k = lam^2/alpha^2, in scaled form."""
    k = params.concentration
    return np.exp(k * (np.cos(theta) - 1.0)) / (2.0 * math.pi * _ive(0, k))


def gaussian_pdf(params: ModelParams, kappa):
    """Gaussian density N(kappa) with mean 0 and variance alpha^2/lam."""
    var = params.kappa_variance
    return np.exp(-np.asarray(kappa) ** 2 / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


def c1_coefficient(params: ModelParams) -> float:
    """Density drift speed c1 = I1(lam^2/alpha^2) / I0(lam^2/alpha^2)."""
    k = params.concentration
    return float(_ive(1, k) / _ive(0, k))


def c1_quadrature(params: ModelParams, n_nodes: int = THETA_QUAD_NODES) -> float:
    """c1 evaluated as the quadrature of cos(theta) M(theta) over (-pi, pi]; cross-check route."""
    theta = theta_nodes(n_nodes)
    w = 2.0 * math.pi / n_nodes
    return float(np.sum(np.cos(theta) * von_mises_pdf(params, theta)) * w)


def theta_nodes(n_nodes: int) -> np.ndarray:
    """Uniform periodic nodes on [-pi, pi), spacing 2 pi / n_nodes."""
    return -math.pi + 2.0 * math.pi * np.arange(n_nodes) / n_nodes


def kappa_cutoff(params: ModelParams) -> float:
    """Truncation |kappa| <= KAPPA_CUTOFF_SIGMAS alpha / sqrt(lam); Gaussian tail beyond < 1e-31.

    This is the domain on which the spectral invariant psi is represented.
    Beyond it the truncated Hermite series is not psi (it is round-off
    amplified by the top Hermite degrees), so grid.residual_inf ignores it.
    """
    return KAPPA_CUTOFF_SIGMAS * params.alpha / math.sqrt(params.lam)


def seeded_stream(seed: int, stream: int) -> np.random.Generator:
    """Counter-based Philox stream keyed by (seed, stream); reproducible under any scheduling.

    Raises ValueError unless both key words are integers (numpy's too, not bools) in [0, 2**64).
    """
    if not all(_is_integer(w) and 0 <= w < 2**64 for w in (seed, stream)):
        raise ValueError(f"Philox key words must be integers in [0, 2**64): seed={seed}, stream={stream}")
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
