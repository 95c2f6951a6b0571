"""Fourier x Hermite Galerkin solver for the collisional invariant."""

import cmath
import math

import numpy as np
import pytest
from galerkin_oracle import stencil_galerkin_matrix, theta_marginal_times_m
from numpy.polynomial.hermite_e import hermeval

from ptwa import spectral
from ptwa.equilibrium import ModelParams, mu_pdf, theta_nodes, von_mises_pdf
from ptwa.grid import Grid2D, residual_inf
from ptwa.hydro import compute_hydro_coeffs
from ptwa.spectral import (
    CoeffMatrix,
    SpectralParams,
    _constant_coefficients,
    apply_operator,
    assemble_band,
    assemble_rhs,
    mu_mean,
    psi_on_grid,
    reconstruct_psi,
    solve_gci,
)

UNIT = ModelParams(1.0, 1.0)
#: criterion 3's (lambda, alpha) grid and the corners of criterion 8's
SYMMETRY_POINTS = [(lam, a) for lam in (0.5, 1.0, 2.0) for a in (0.5, 1.0, 2.0)] + [
    (5.0, 0.2),
    (0.2, 5.0),
]


def class_member(r: np.ndarray) -> np.ndarray:
    """C_{+-j}^k = phase_k r_j^k or conj(phase_k) r_j^k, phase_k = i (k even) or 1 (k odd)."""
    phase = np.where(np.arange(r.shape[1]) % 2 == 0, 1j, 1.0)
    return np.concatenate([np.conj(phase) * r[:0:-1], phase * r])


def dense_from_band(ab: np.ndarray, w: int) -> np.ndarray:
    """The matrix held in gbsv band storage with kl = ku = w (entry (i, c) at ab[2w + i - c, c])."""
    size = ab.shape[1]
    a = np.zeros((size, size))
    for c in range(size):
        for i in range(max(0, c - w), min(size, c + w + 1)):
            a[i, c] = ab[2 * w + i - c, c]
    return a


class TestSpectralParams:
    def test_sizes(self):
        sp = SpectralParams(m=3, n=4, model=UNIT)
        assert sp.n_fourier == 7 and sp.n_hermite == 5 and sp.size == 35
        assert list(sp.fourier_orders()) == [-3, -2, -1, 0, 1, 2, 3]

    def test_rejects_bad_truncation(self):
        with pytest.raises(ValueError):
            SpectralParams(m=0, n=4, model=UNIT)
        with pytest.raises(ValueError):
            SpectralParams(m=3, n=0, model=UNIT)


class TestAssembleRhs:
    def test_shape_and_sparsity(self):
        b = assemble_rhs(SpectralParams(m=3, n=4, model=UNIT))
        assert b.shape == (7, 5)
        assert np.all(b[:, 1:] == 0.0)

    def test_center_vanishes(self):
        for model in (UNIT, ModelParams(2.0, 0.7)):
            b = assemble_rhs(SpectralParams(m=2, n=2, model=model))
            assert b[2, 0] == 0.0  # j = 0 row

    def test_reference_value(self):
        b = assemble_rhs(SpectralParams(m=2, n=2, model=UNIT))
        assert b[3, 0] == pytest.approx(0.458399j, abs=1e-6)  # j = 1

    def test_antisymmetry(self):
        b = assemble_rhs(SpectralParams(m=4, n=3, model=ModelParams(1.7, 0.9)))
        assert np.allclose(b[::-1, 0], -b[:, 0])

    def test_matches_quadrature(self):
        # B(j,0) is the basis coefficient of -sin(theta): <-sin, phi_j P_0>_mu
        sp = SpectralParams(m=3, n=2, model=ModelParams(1.4, 0.8))
        th = theta_nodes(2048)
        w = 2 * math.pi / 2048
        m_pdf = von_mises_pdf(sp.model, th)
        b = assemble_rhs(sp)
        for row, j in enumerate(sp.fourier_orders()):
            phi_j = np.exp(1j * j * th) / np.sqrt(2 * math.pi * m_pdf)
            ref = np.sum(-np.sin(th) * np.conj(phi_j) * m_pdf) * w
            assert b[row, 0] == pytest.approx(ref, abs=1e-10)


class TestAssemblyOracle:
    @pytest.mark.parametrize("m,n", [(1, 2), (3, 4), (5, 6)])
    def test_kron_equals_stencil(self, m, n):
        # apply_operator is the Kronecker operator of the module docstring applied matrix-free
        for model in (UNIT, ModelParams(2.0, 0.6)):
            sp = SpectralParams(m=m, n=n, model=model)
            rng = np.random.default_rng(m)
            shape = (sp.n_fourier, sp.n_hermite)
            x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            stencil = stencil_galerkin_matrix(sp) @ x.flatten(order="F")
            applied = apply_operator(x, sp).flatten(order="F")
            assert np.max(np.abs(applied - stencil)) < 1e-12 * np.max(np.abs(stencil))

    def test_single_mode_stencil(self):
        # L(phi_1 P_0) = beta1 phi_1 P_1 + beta2 (phi_0 - phi_2) P_1 within the truncation
        sp = SpectralParams(m=2, n=2, model=UNIT)
        a = stencil_galerkin_matrix(sp)
        col = (1 + sp.m) + sp.n_fourier * 0  # (j=1, k=0)
        expect = np.zeros(sp.size, dtype=complex)
        expect[(1 + sp.m) + sp.n_fourier * 1] = 1j  # beta1 * j * sqrt(k+1)
        expect[(0 + sp.m) + sp.n_fourier * 1] = 0.25j  # beta2 * sqrt(k+1) into phi_0
        expect[(2 + sp.m) + sp.n_fourier * 1] = -0.25j  # -beta2 * sqrt(k+1) into phi_2
        assert np.allclose(a[:, col], expect)

    def test_center_entry(self):
        sp = SpectralParams(m=2, n=3, model=ModelParams(1.9, 1.1))
        a = stencil_galerkin_matrix(sp)
        for j, k in [(-1, 2), (0, 3), (2, 1)]:
            flat = (j + sp.m) + sp.n_fourier * k
            assert a[flat, flat] == pytest.approx(-sp.model.lam * k)


class TestSolveGci:
    def test_residual_contract(self, small_solution):
        x, _ = small_solution
        assert x.residual <= 1e-10
        assert all(math.isfinite(v) for v in x.tail_norms())

    def test_symmetries(self, small_solution):
        x, _ = small_solution
        reality, oddness = x.symmetry_defects()
        assert reality < 1e-8 and oddness < 1e-8

    def test_mean_zero(self, small_solution):
        x, sp = small_solution
        assert abs(mu_mean(x, sp)) < 1e-8

    def test_small_case_against_dense_least_norm(self):
        # at modest truncation the plain solve is stable; cross-check the full pipeline
        sp = SpectralParams(m=3, n=4, model=ModelParams(1.2, 0.9))
        x = solve_gci(sp)
        a = stencil_galerkin_matrix(sp)
        b = assemble_rhs(sp).flatten(order="F")
        vec = x.entries.flatten(order="F")
        assert np.linalg.norm(a @ vec - b) / np.linalg.norm(b) <= 1e-10

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_result_raises(self):
        # lambda^2/alpha^2 overflows, so ive(0, inf) = 0 leaves the right-hand side NaN
        with pytest.raises(RuntimeError, match="residual nan"):
            solve_gci(SpectralParams(4, 7, ModelParams(1e154, 1e-3)))

    def test_singular_band_raises(self, monkeypatch):
        sp = SpectralParams(m=3, n=4, model=UNIT)
        monkeypatch.setattr(spectral, "assemble_band", lambda p: np.zeros_like(assemble_band(p)))
        with pytest.raises(RuntimeError, match="singular"):
            solve_gci(sp)


class TestReducedSolve:
    @pytest.mark.parametrize("lam,alpha", SYMMETRY_POINTS)
    def test_symmetries_and_mean_are_exact(self, lam, alpha):
        sp = SpectralParams(m=12, n=25, model=ModelParams(lam, alpha))
        x = solve_gci(sp)
        assert x.symmetry_defects() == (0.0, 0.0)
        assert mu_mean(x, sp) == 0.0

    @pytest.mark.parametrize("m,n", [(3, 4), (5, 6)])
    def test_class_is_closed_under_the_operator(self, m, n):
        # L maps the real, odd class into itself, and the band is L on the class
        for model in (UNIT, ModelParams(2.0, 0.6)):
            sp = SpectralParams(m=m, n=n, model=model)
            r = np.random.default_rng(m + n).standard_normal((m + 1, n + 1))
            r[0, ::2] = 0.0  # C_0^k = 0 for even k
            y = apply_operator(class_member(r), sp)
            scale = np.max(np.abs(y))
            reality, oddness = CoeffMatrix(y).symmetry_defects()
            assert max(reality, oddness) <= 1e-15 * scale
            assert np.max(np.abs(y[m, ::2])) <= 1e-15 * scale
            phase = np.where(np.arange(n + 1) % 2 == 0, 1j, 1.0)
            reduced = np.conj(phase) * y[m:]
            assert np.max(np.abs(reduced.imag)) <= 1e-15 * scale
            band = dense_from_band(assemble_band(sp), m + 2)
            got = band @ r.flatten(order="F")
            assert np.max(np.abs(got - reduced.real.flatten(order="F"))) <= 1e-14 * scale

    @pytest.mark.parametrize("m,n", [(6, 13), (10, 21)])
    def test_matches_dense_least_norm_oracle(self, m, n):
        # independent route: min-norm least squares on the stencil matrix, then mean-zero
        for model in (UNIT, ModelParams(2.0, 0.6), ModelParams(5.0, 0.2), ModelParams(0.2, 5.0)):
            sp = SpectralParams(m=m, n=n, model=model)
            b = assemble_rhs(sp).flatten(order="F")
            vec, *_ = np.linalg.lstsq(stencil_galerkin_matrix(sp), b, rcond=None)
            ones = _constant_coefficients(sp).flatten(order="F")
            vec -= np.vdot(ones, vec) / np.vdot(ones, ones) * ones
            oracle = CoeffMatrix(vec.reshape((sp.n_fourier, sp.n_hermite), order="F"))
            x = solve_gci(sp)
            assert np.max(np.abs(x.entries - oracle.entries)) < 1e-10
            c2 = compute_hydro_coeffs(x, sp).c2
            assert abs(c2 - compute_hydro_coeffs(oracle, sp).c2) < 1e-12

    def test_hard_corner_reconstructs_on_the_residual_grid(self):
        # a plain complex LU of the full system left 1.1e-2 imaginary residue here
        sp = SpectralParams(m=30, n=61, model=ModelParams(2.0, 0.5))
        x = solve_gci(sp)
        field = psi_on_grid(x, sp, Grid2D(31, -5.0, 5.0, 51))  # `ptwa residual` at delta 0.2
        assert residual_inf(field, sp.model) == pytest.approx(3.6277, rel=1e-4)


class TestReconstruction:
    def test_origin_is_zero(self, small_solution):
        x, sp = small_solution
        assert reconstruct_psi(x, sp, 0.0, 0.0) == pytest.approx(0.0, abs=1e-8)

    def test_oddness(self, small_solution):
        x, sp = small_solution
        rng = np.random.default_rng(5)
        th = rng.uniform(-math.pi, math.pi, 50)
        ka = rng.uniform(-4.0, 4.0, 50)
        plus = reconstruct_psi(x, sp, th, ka)
        minus = reconstruct_psi(x, sp, -th, -ka)
        assert np.allclose(minus, -plus, atol=1e-8)

    def test_grid_matches_pointwise(self, small_solution):
        # reference: the explicit double sum sum_jk C_j^k exp(i j theta) P_k(kappa) / sqrt(2 pi M)
        x, sp = small_solution
        scale = math.sqrt(sp.model.lam) / sp.model.alpha

        def double_sum(theta, kappa):
            total = 0j
            for row, j in enumerate(sp.fourier_orders()):
                for k in range(sp.n_hermite):
                    unit = np.zeros(k + 1)
                    unit[k] = 1.0
                    p_k = hermeval(scale * kappa, unit) / math.sqrt(math.factorial(k))
                    total += x.entries[row, k] * cmath.exp(1j * j * theta) * p_k
            return total.real / math.sqrt(2 * math.pi * von_mises_pdf(sp.model, theta))

        reference = np.vectorize(double_sum)
        rng = np.random.default_rng(11)
        th = rng.uniform(-3.0, 3.0, 6)
        ka = rng.uniform(-3.0, 3.0, 6)
        g = Grid2D(16, -3.0, 3.0, 11)
        cases = [
            (0.7, -1.2),  # scalar x scalar
            (th, ka),  # (N,) x (N,)
            (th, 0.4),  # (N,) x scalar
            (g.theta[:, None], g.kappa),  # (n_theta, 1) x (n_kappa,)
        ]
        for theta, kappa in cases:
            want = reference(theta, kappa)
            got = reconstruct_psi(x, sp, theta, kappa)
            assert np.shape(got) == np.shape(want)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
        assert isinstance(reconstruct_psi(x, sp, 0.7, -1.2), float)
        assert np.array_equal(psi_on_grid(x, sp, g).values, reconstruct_psi(x, sp, *cases[-1]))

    def test_theta_marginal(self, small_solution):
        x, sp = small_solution
        assert theta_marginal_times_m(x, sp, 0.0) == pytest.approx(0.0, abs=1e-8)
        th = np.linspace(0.1, 3.0, 7)
        assert np.allclose(
            theta_marginal_times_m(x, sp, -th), -theta_marginal_times_m(x, sp, th), atol=1e-8
        )
        # psi_bar integrates to zero against the Von Mises weight
        nodes = theta_nodes(512)
        w = 2 * math.pi / 512
        assert np.sum(theta_marginal_times_m(x, sp, nodes)) * w == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.filterwarnings("error")
    def test_underflowed_weight_raises(self):
        # at lambda^2/alpha^2 = 625, M(theta) underflows near theta = pi and 1/sqrt(M) is inf
        sp = SpectralParams(m=30, n=61, model=ModelParams(5.0, 0.2))
        x = solve_gci(sp)
        assert math.isfinite(reconstruct_psi(x, sp, 0.3, 0.0))
        with pytest.raises(FloatingPointError, match="not finite at 1 of 1 points"):
            reconstruct_psi(x, sp, math.pi, 0.0)
        with pytest.raises(FloatingPointError, match="not finite at 2 of 3 points"):
            reconstruct_psi(x, sp, np.array([0.3, 3.0, math.pi]), 0.0)
        with pytest.raises(FloatingPointError, match="not finite"):
            psi_on_grid(x, sp, Grid2D(16, -1.0, 1.0, 9))

    def test_mean_zero_by_quadrature(self, small_solution):
        # <psi>_mu = 0 checked on a product quadrature, independent of the spectral route
        x, sp = small_solution
        th = theta_nodes(256)
        ka = np.linspace(-8, 8, 401)
        psi = reconstruct_psi(x, sp, th[:, None], ka[None, :])
        w = mu_pdf(sp.model, th[:, None], ka[None, :])
        total = np.sum(psi * w) * (2 * math.pi / 256) * (ka[1] - ka[0])
        assert total == pytest.approx(0.0, abs=1e-6)
