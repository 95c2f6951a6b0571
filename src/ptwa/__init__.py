"""Curvature-controlled alignment model toolkit.

Implements the scaled individual-based model, its kinetic equilibria, the
Fourier x Hermite spectral solver for the generalized collisional invariant, a
Feynman-Kac Monte-Carlo cross-check, and the macroscopic hydrodynamic
coefficients (c1, c2, d) with their characteristic speeds.
"""

import os

# PTWA_NUM_THREADS caps the BLAS/OpenMP pools; it must be applied before the
# first numpy import, which every submodule makes.
if "PTWA_NUM_THREADS" in os.environ:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["PTWA_NUM_THREADS"])

from .equilibrium import (
    DimensionalParams,
    Equilibrium,
    ModelParams,
    c1_coefficient,
    c1_quadrature,
    equilibrium_flux,
    gaussian_pdf,
    mu_pdf,
    nondimensionalize,
    von_mises_pdf,
    wrap_angle,
)
from .grid import Grid2D, GridField, apply_L, apply_Q, dissipation, eval_H, flux_direction, residual_inf
from .hydro import (
    HydroCoeffs,
    HydroState,
    c2_coefficient,
    characteristic_speeds,
    compute_hydro_coeffs,
    gamma_moments,
    hyperbolicity_check,
)
from .montecarlo import MCC2Result, OracleConfig, feynman_kac_psi, mc_c2, simulate_linear_sde
from .particles import Agents, AgentState, SimConfig, SimStats, collect_stats, run_simulation, step
from .spectral import (
    CoeffMatrix,
    SpectralParams,
    assemble_rhs,
    assemble_shift,
    assemble_system,
    psi_on_grid,
    reconstruct_psi,
    solve_gci,
    stencil_galerkin_matrix,
    theta_marginal_times_m,
)

__version__ = "0.1.0"
