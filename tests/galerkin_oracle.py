"""Reference assembly of the Galerkin operator, for tests only.

It scatters the 3x3 single-mode stencil of L over all basis pairs, with no
matrix product, so it is independent of spectral.apply_operator, which applies
the same operator matrix-free; the two must agree on every coefficient matrix.
"""

import math

import numpy as np

from ptwa.spectral import SpectralParams


def stencil_galerkin_matrix(sp: SpectralParams) -> np.ndarray:
    """Galerkin operator assembled mode by mode from the 3x3 stencil of L.

    Applying L to a single basis function phi_j P_k produces seven neighbor
    modes; each contribution is scattered into the big matrix indexed
    column-major: flat index = (j + m) + (2m+1) * k.  Independent oracle for
    apply_operator (same index convention, built without any matrix product).
    """
    lam, alpha = sp.model.lam, sp.model.alpha
    beta1 = 1j * alpha / math.sqrt(lam)
    beta2 = 1j * lam * math.sqrt(lam) / (4.0 * alpha)
    m, n = sp.m, sp.n
    size = sp.size
    a = np.zeros((size, size), dtype=complex)

    def flat(j: int, k: int) -> int:
        return (j + m) + (2 * m + 1) * k

    for j in range(-m, m + 1):
        for k in range(0, n + 1):
            col = flat(j, k)
            sq_k = math.sqrt(k)
            sq_k1 = math.sqrt(k + 1)
            # contributions of L(phi_j P_k), dropped when they leave the truncation
            targets = [
                (j, k, -lam * k),
                (j, k - 1, beta1 * j * sq_k),
                (j, k + 1, beta1 * j * sq_k1),
                (j + 1, k - 1, beta2 * sq_k),
                (j - 1, k - 1, -beta2 * sq_k),
                (j - 1, k + 1, beta2 * sq_k1),
                (j + 1, k + 1, -beta2 * sq_k1),
            ]
            for tj, tk, coeff in targets:
                if -m <= tj <= m and 0 <= tk <= n and coeff != 0:
                    a[flat(tj, tk), col] += coeff
    return a
