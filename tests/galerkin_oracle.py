"""Reference routes for tests only: the complex Galerkin system and the gamma moments.

stencil_galerkin_matrix scatters the 3x3 single-mode stencil of L over all
basis pairs of the full complex system, with no matrix product, so it is
independent of spectral._half_operator, which the solver applies to the real
half grid of the solution's symmetry class; on that class the two must agree
(stencil_on_class and half_grid_rows), and complex_rhs is its right-hand
side B.  gamma_moments_trapezoid integrates the theta marginal on periodic
nodes, independent of the Bessel projections of hydro.gamma_moments.
"""

import math

import numpy as np

from ptwa.equilibrium import theta_nodes, von_mises_pdf
from ptwa.spectral import CoeffMatrix, SpectralParams, _real, sine_projection


def stencil_galerkin_matrix(sp: SpectralParams) -> np.ndarray:
    """Galerkin operator assembled mode by mode from the 3x3 stencil of L.

    Applying L to a single basis function phi_j P_k produces seven neighbor
    modes; each contribution is scattered into the big matrix indexed
    column-major: flat index = (j + m) + (2m+1) * k, built without any matrix
    product.
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


def complex_rhs(sp: SpectralParams) -> np.ndarray:
    """B of the full complex system, (2m+1) x (n+1): B_j = i sign(j) t_|j| in the Hermite-degree-0
    column, t = sine_projection(sp, 1) on the half grid j >= 0."""
    j = sp.fourier_orders()
    b = np.zeros((sp.n_fourier, sp.n_hermite), dtype=complex)
    b[:, 0] = 1j * np.sign(j) * sine_projection(sp, 1)[np.abs(j)]
    return b


def class_member(r: np.ndarray) -> np.ndarray:
    """C_{+-j}^k = phase_k r_j^k or conj(phase_k) r_j^k, phase_k = i (k even) or 1 (k odd)."""
    phase = np.where(np.arange(r.shape[1]) % 2 == 0, 1j, 1.0)
    return np.concatenate([np.conj(phase) * r[:0:-1], phase * r])


def stencil_on_class(a: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The stencil matrix a applied to class_member(r), as a (2m+1) x (n+1) coefficient matrix."""
    x = class_member(r)
    return (a @ x.flatten(order="F")).reshape(x.shape, order="F")


def half_grid_rows(y: np.ndarray) -> np.ndarray:
    """Re(conj(phase_k) y_j^k) on j = 0..m: the real rows a member y of the class reduces to."""
    phase = np.where(np.arange(y.shape[1]) % 2 == 0, 1j, 1.0)
    return (np.conj(phase) * y[y.shape[0] // 2 :]).real


def theta_marginal_times_m(x: CoeffMatrix, sp: SpectralParams, theta):
    """psi_bar(theta) * M(theta), evaluated without the 1/sqrt(M) amplification.

    psi_bar = sum_j C_j^0 phi_j is the kappa-average of psi, exact since the
    Hermite directions integrate to delta_{k0} against the Gaussian weight.
    The marginal itself carries a 1/sqrt(M) factor that grows like
    exp(concentration) near theta = pi; the product with the Von Mises weight
    is what enters every moment integral and stays O(1).
    """
    theta = np.asarray(theta, dtype=float)
    phase = np.exp(1j * theta[..., None] * sp.fourier_orders())
    weight = np.sqrt(von_mises_pdf(sp.model, theta) / (2.0 * math.pi))
    return _real((phase @ x.entries[:, 0]) * weight)


def gamma_moments_trapezoid(x: CoeffMatrix, sp: SpectralParams, n_nodes: int) -> dict:
    """<sin psi>_mu and <sin cos psi>_mu by the periodic trapezoid rule on n_nodes nodes.

    Converges spectrally, but sqrt(M) has Fourier content up to order about
    (lam/alpha) sqrt(log(1/eps)), some 600 at lam^2/alpha^2 = 1e4, where 512
    nodes alias at the 1e-9 level and 4096 do not.
    """
    th = theta_nodes(n_nodes)
    weighted = theta_marginal_times_m(x, sp, th) * (2.0 * math.pi / n_nodes)
    return {
        "gamma1": float(np.sum(np.sin(th) * weighted)),
        "gamma2": float(np.sum(np.sin(th) * np.cos(th) * weighted)),
    }
