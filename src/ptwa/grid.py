"""Finite-difference verifier of the spectral invariant, behind ``ptwa residual``.

Used to *verify* the spectral solver, never as the primary solver: the
invariant-defining operator L is discretized with second-order centered
differences (periodic in theta, truncated in kappa), and residual_inf is the
sup of |L(psi) + sin(theta)| over a sampled psi.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import ModelParams, _is_integer, kappa_cutoff, theta_nodes

__all__ = ["Grid2D", "GridField", "apply_L", "residual_inf"]


@dataclass(frozen=True)
class Grid2D:
    """Periodic x truncated grid: theta in [-pi, pi) with n_theta nodes, kappa on [kappa_min, kappa_max].

    The node arrays theta and kappa are built on first use and cached, read-only, on the
    grid; they hold nothing of the model, and equality and hashing see only the four fields.
    """

    n_theta: int
    kappa_min: float
    kappa_max: float
    n_kappa: int

    def __post_init__(self):
        if not (_is_integer(self.n_theta) and _is_integer(self.n_kappa)):
            raise ValueError(f"node counts must be integers, got {self.n_theta!r}, {self.n_kappa!r}")
        if self.n_theta < 8 or self.n_kappa < 8:
            raise ValueError("grid too coarse: need n_theta >= 8 and n_kappa >= 8")
        if not -math.inf < self.kappa_min < self.kappa_max < math.inf:
            raise ValueError(f"need finite kappa_min < kappa_max, got {self.kappa_min}, {self.kappa_max}")

    @property
    def d_theta(self) -> float:
        return 2.0 * math.pi / self.n_theta

    @property
    def d_kappa(self) -> float:
        return (self.kappa_max - self.kappa_min) / (self.n_kappa - 1)

    @functools.cached_property
    def theta(self) -> np.ndarray:
        return _read_only(theta_nodes(self.n_theta))

    @functools.cached_property
    def kappa(self) -> np.ndarray:
        return _read_only(np.linspace(self.kappa_min, self.kappa_max, self.n_kappa))

    def meshgrid(self):
        """(theta, kappa) arrays of shape (n_theta, n_kappa)."""
        return np.meshgrid(self.theta, self.kappa, indexing="ij")

    def interior_mask(self) -> np.ndarray:
        """True away from the kappa boundary layer (one row each side; theta is periodic)."""
        mask = np.ones((self.n_theta, self.n_kappa), dtype=bool)
        mask[:, 0] = False
        mask[:, -1] = False
        return mask


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class GridField:
    """Real samples of a function of (theta, kappa), shape (n_theta, n_kappa)."""

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_theta, self.grid.n_kappa):
            raise ValueError(f"values shape {v.shape} does not match grid")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", v)


def _d_theta(values: np.ndarray, dth: float) -> np.ndarray:
    """Centered periodic derivative along axis 0."""
    out = np.empty_like(values)
    np.subtract(values[2:], values[:-2], out=out[1:-1])
    np.subtract(values[1], values[-1], out=out[0])
    np.subtract(values[0], values[-2], out=out[-1])
    out /= 2.0 * dth
    return out


def _d_kappa(values: np.ndarray, dk: float) -> np.ndarray:
    """Centered derivative along axis 1; one-sided first-order at the kappa boundary rows."""
    out = np.empty_like(values)
    out[:, 1:-1] = (values[:, 2:] - values[:, :-2]) / (2.0 * dk)
    out[:, 0] = (values[:, 1] - values[:, 0]) / dk
    out[:, -1] = (values[:, -1] - values[:, -2]) / dk
    return out


def _d2_kappa(values: np.ndarray, dk: float) -> np.ndarray:
    """Centered second derivative along axis 1; shifted stencil at the boundary rows."""
    out = np.empty_like(values)
    out[:, 1:-1] = (values[:, 2:] - 2.0 * values[:, 1:-1] + values[:, :-2]) / dk**2
    out[:, 0] = (values[:, 2] - 2.0 * values[:, 1] + values[:, 0]) / dk**2
    out[:, -1] = (values[:, -1] - 2.0 * values[:, -2] + values[:, -3]) / dk**2
    return out


def apply_L(psi: GridField, params: ModelParams) -> GridField:
    """Invariant-defining operator L(psi) = kappa dpsi/dtheta - lam sin(theta) dpsi/dkappa
    - lam kappa dpsi/dkappa + alpha^2 d2psi/dkappa2, in centered differences: second order
    on grid.interior_mask(), one-sided on the kappa boundary rows."""
    g = psi.grid
    th, ka = g.theta[:, None], g.kappa
    v = psi.values
    dv_dkappa = _d_kappa(v, g.d_kappa)
    out = (
        ka * _d_theta(v, g.d_theta)
        - params.lam * np.sin(th) * dv_dkappa
        - params.lam * ka * dv_dkappa
        + params.alpha**2 * _d2_kappa(v, g.d_kappa)
    )
    return GridField(g, out)


def residual_inf(psi: GridField, params: ModelParams) -> float:
    """Sup of |L(psi) + sin(theta)| over interior grid points with |kappa| <= kappa_cutoff(params).

    psi is represented only where |kappa| <= kappa_cutoff (12 standard
    deviations of the curvature equilibrium).  Beyond it the truncated Hermite
    series is not psi but coefficient round-off, amplified by the high-degree
    polynomials and by 1/sqrt(M(theta)); it grows under grid refinement, so it
    is not counted as residual.
    """
    g = psi.grid
    res = apply_L(psi, params).values + np.sin(g.theta)[:, None]
    # interior_mask() is every theta row and the kappa columns 1..n_kappa-2
    represented = np.abs(g.kappa[1:-1]) <= kappa_cutoff(params)
    return float(np.max(np.abs(res[:, 1:-1][:, represented])))
