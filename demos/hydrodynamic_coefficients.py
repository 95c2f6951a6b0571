"""Macroscopic transport coefficients and characteristic speeds.

The hydrodynamic limit carries three coefficients: the equilibrium order
parameter c1, the convection speed c2 = gamma2/gamma1 built from moments of
the collisional-invariant solution, and the pressure coefficient
d = alpha^2/lambda^2.  This script computes them, prints the characteristic
speeds of the linearized system across angles, and runs a hyperbolicity
sweep over a parameter box.
"""

import numpy as np

from ptwa.equilibrium import ModelParams
from ptwa.hydro import characteristic_speeds, compute_hydro_coeffs, hyperbolicity_check
from ptwa.spectral import SpectralParams, solve_gci

# --- coefficients at the reference point ---------------------------------
sp = SpectralParams(20, 41, ModelParams(1.0, 1.0))
h = compute_hydro_coeffs(solve_gci(sp), sp)
print(f"c1 = {h.c1:.8f}   c2 = {h.c2:.8f}   d = {h.d:.8f}")

# --- characteristic speeds across propagation angles ---------------------
print("\n theta      minus       plus")
for theta in np.linspace(0.0, np.pi, 5):
    plus, minus = characteristic_speeds(h, float(theta))
    print(f"{theta:6.3f}   {minus:+.6f}   {plus:+.6f}")

# --- hyperbolicity over a parameter box ----------------------------------
print("\nhyperbolicity over lambda, alpha in [0.5, 2]^2 (64 angles each):")
for lam in (0.5, 1.0, 2.0):
    row = []
    for alpha in (0.5, 1.0, 2.0):
        sp = SpectralParams(12, 25, ModelParams(lam, alpha))
        hh = compute_hydro_coeffs(solve_gci(sp), sp)
        row.append("ok" if hyperbolicity_check(hh, theta_samples=64) else "FAIL")
    print(f"  lambda={lam}:  " + "  ".join(row))
