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

__version__ = "0.1.0"
