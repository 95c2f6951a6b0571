"""Reference routes for tests only: the collision operator Q, its flux and entropy dissipation.

The paper's limit rests on two kinetic facts: rho * mu_theta_bar spans the kernel of Q, and Q
dissipates entropy.  These functions state both on plain (n_theta, n_kappa) arrays sampled on a
ptwa.grid.Grid2D, with grid.apply_L's stencils, beside the equilibrium density and the mu-mean.
"""

import math

import numpy as np
from scipy.special import ive

from ptwa.equilibrium import gaussian_pdf, von_mises_pdf
from ptwa.grid import _d2_kappa, _d_kappa, _d_theta

#: isotropy tolerance for the flux, relative to total mass
FLUX_TOL = 1e-12


def mu_pdf(params, theta, kappa):
    """Equilibrium density mu(theta, kappa) = M(theta) N(kappa)."""
    return von_mises_pdf(params, theta) * gaussian_pdf(params, kappa)


def integrate(grid, values) -> float:
    """Periodic trapezoid in theta times trapezoid in kappa."""
    w = np.full(grid.n_kappa, grid.d_theta * grid.d_kappa)
    w[[0, -1]] *= 0.5
    return float(np.sum(values * w))


def apply_Q(grid, f, theta_bar, params):
    """Q(f) = -kappa df/dtheta - lam sin(theta_bar - theta) df/dkappa + lam d/dkappa(kappa f)
    + alpha^2 d2f/dkappa2, second order on grid.interior_mask(), one-sided on the kappa edges."""
    th, ka = grid.meshgrid()
    dk = grid.d_kappa
    return (
        -ka * _d_theta(f, grid.d_theta)
        - params.lam * np.sin(theta_bar - th) * _d_kappa(f, dk)
        + params.lam * _d_kappa(ka * f, dk)
        + params.alpha**2 * _d2_kappa(f, dk)
    )


def flux_direction(grid, f):
    """Direction of the flux integral tau(theta) f dtheta dkappa, or None if isotropic."""
    th, _ = grid.meshgrid()
    jx, jy = integrate(grid, np.cos(th) * f), integrate(grid, np.sin(th) * f)
    if math.hypot(jx, jy) <= FLUX_TOL * max(abs(integrate(grid, f)), 1e-300):
        return None
    return math.atan2(jy, jx)


def dissipation(grid, f, params):
    """Entropy dissipation integral Q(f) f / mu_theta_bar, or None if f has no flux direction."""
    theta_bar = flux_direction(grid, f)
    if theta_bar is None:
        return None
    th, ka = grid.meshgrid()
    return integrate(grid, apply_Q(grid, f, theta_bar, params) * f / mu_pdf(params, th - theta_bar, ka))


def bessel_column(sp) -> np.ndarray:
    """<1, phi_j>_mu = I_|j|(k/2) / sqrt(I0(k)) for j = -m..m, k = lam^2/alpha^2, in scaled form."""
    k = sp.model.concentration
    return ive(np.abs(sp.fourier_orders()), k / 2.0) / math.sqrt(ive(0, k))


def constant_coefficients(sp) -> np.ndarray:
    """Basis coefficients of the constant 1: bessel_column in the Hermite-degree-0 column."""
    c = np.zeros((sp.n_fourier, sp.n_hermite), dtype=complex)
    c[:, 0] = bessel_column(sp)
    return c


def mu_mean(x, sp) -> float:
    """<psi>_mu from the coefficients: zero for a solution on the mean-zero hyperplane."""
    return float(np.real(np.vdot(bessel_column(sp), x.entries[:, 0])))
