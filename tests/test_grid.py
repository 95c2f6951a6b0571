"""Finite-difference plumbing: operator L, and the test oracle's Q, flux direction, dissipation."""

import math

import numpy as np
import pytest
from kinetic_oracle import apply_Q, dissipation, flux_direction, integrate, mu_pdf

from ptwa.equilibrium import ModelParams, gaussian_pdf, kappa_cutoff, von_mises_pdf
from ptwa.grid import Grid2D, GridField, _d2_kappa, _d_kappa, apply_L, residual_inf
from ptwa.spectral import SpectralParams, psi_on_grid, solve_gci

UNIT = ModelParams(1.0, 1.0)
#: acceptance criterion 3's (lambda, alpha) points
CRITERION_3 = [(lam, a) for lam in (0.5, 1.0, 2.0) for a in (0.5, 1.0, 2.0)]


def meshgrid_apply_L(psi, params):
    """apply_L as written on (n_theta, n_kappa) meshgrids with np.roll, the form it replaced."""
    g, v = psi.grid, psi.values
    th, ka = g.meshgrid()
    dv_dtheta = (np.roll(v, -1, axis=0) - np.roll(v, 1, axis=0)) / (2.0 * g.d_theta)
    dv_dkappa = _d_kappa(v, g.d_kappa)
    return (
        ka * dv_dtheta
        - params.lam * np.sin(th) * dv_dkappa
        - params.lam * ka * dv_dkappa
        + params.alpha**2 * _d2_kappa(v, g.d_kappa)
    )


def meshgrid_residual_inf(psi, params):
    """residual_inf as written on meshgrids, the form it replaced."""
    th, ka = psi.grid.meshgrid()
    res = meshgrid_apply_L(psi, params) + np.sin(th)
    represented = psi.grid.interior_mask() & (np.abs(ka) <= kappa_cutoff(params))
    return float(np.max(np.abs(res[represented])))


def fine_grid(n_theta=64, n_kappa=101, half_width=5.0):
    return Grid2D(n_theta=n_theta, kappa_min=-half_width, kappa_max=half_width, n_kappa=n_kappa)


class TestGrid2D:
    def test_spacing(self):
        g = Grid2D(32, -5.0, 5.0, 51)
        assert g.d_theta == pytest.approx(2 * math.pi / 32)
        assert g.d_kappa == pytest.approx(0.2)
        assert g.theta[0] == pytest.approx(-math.pi)
        assert g.kappa[0] == -5.0 and g.kappa[-1] == 5.0

    def test_nodes_are_built_once_and_read_only(self):
        g = Grid2D(32, -5.0, 5.0, 51)
        assert g.theta is g.theta and g.kappa is g.kappa
        for nodes in (g.theta, g.kappa):
            with pytest.raises(ValueError, match="read-only"):
                nodes[0] = 0.0
        # equal grids share the Fourier cache of psi_on_grid, which they key
        fresh = Grid2D(32, -5.0, 5.0, 51)
        assert fresh == g and hash(fresh) == hash(g)

    def test_rejects_coarse(self):
        with pytest.raises(ValueError):
            Grid2D(4, -5.0, 5.0, 51)
        with pytest.raises(ValueError):
            Grid2D(32, -5.0, 5.0, 6)

    @pytest.mark.parametrize(
        "n_theta, n_kappa", [(31.5, 51), (32, 50.5), (32.0, 51), (True, 51), (32, np.float64(51))]
    )
    def test_rejects_a_node_count_that_is_not_an_integer(self, n_theta, n_kappa):
        # Grid2D(31.5, ...) built 32 theta nodes 2 pi/31.5 apart, so the period did not close
        with pytest.raises(ValueError, match="integer"):
            Grid2D(n_theta, -5.0, 5.0, n_kappa)

    @pytest.mark.parametrize(
        "kappa_min, kappa_max", [(-5.0, math.inf), (-math.inf, 5.0), (-5.0, math.nan), (math.nan, 5.0)]
    )
    def test_rejects_non_finite_kappa_bounds(self, kappa_min, kappa_max):
        # kappa_max = inf gave NaN nodes and a RuntimeWarning
        with pytest.raises(ValueError, match="finite"):
            Grid2D(32, kappa_min, kappa_max, 51)

    def test_numpy_integer_node_counts(self):
        g = Grid2D(np.int64(32), -5.0, 5.0, np.uint16(51))
        assert np.array_equal(g.theta, Grid2D(32, -5.0, 5.0, 51).theta)
        assert g.interior_mask().shape == (32, 51)

    def test_interior_mask(self):
        g = Grid2D(16, -5.0, 5.0, 11)
        mask = g.interior_mask()
        assert not mask[:, 0].any() and not mask[:, -1].any()
        assert mask[:, 1:-1].all()


class TestFluxDirection:
    def test_equilibrium_points_along_theta_bar(self):
        g = fine_grid()
        th, ka = g.meshgrid()
        for theta_bar in (0.0, math.pi / 3):
            f = mu_pdf(UNIT, th - theta_bar, ka)
            assert flux_direction(g, f) == pytest.approx(theta_bar, abs=1e-6)

    def test_isotropic_returns_none(self):
        g = fine_grid()
        th, ka = g.meshgrid()
        assert flux_direction(g, np.ones_like(th) * gaussian_pdf(UNIT, ka)) is None


class TestApplyQ:
    def test_zero_field(self):
        g = fine_grid(32, 51)
        assert np.all(apply_Q(g, np.zeros((32, 51)), 0.3, UNIT) == 0.0)

    def test_equilibrium_residual_second_order(self):
        # Q(rho mu_theta_bar) = 0 exactly; the discrete residual is O(Delta^2)
        sups = []
        for n_theta, n_kappa in [(32, 51), (64, 101)]:
            g = Grid2D(n_theta, -5.0, 5.0, n_kappa)
            th, ka = g.meshgrid()
            q = apply_Q(g, 1.7 * mu_pdf(UNIT, th - 0.4, ka), 0.4, UNIT)
            sups.append(np.max(np.abs(q[g.interior_mask()])))
        ratio = sups[0] / sups[1]
        assert 3.2 <= ratio <= 4.8

    def test_rotation_covariance(self):
        # shifting f by a whole number of grid cells shifts Q the same way
        g = fine_grid(32, 51)
        shift = 5
        phi = shift * g.d_theta
        th, ka = g.meshgrid()
        f = mu_pdf(UNIT, th, ka) * (1 + 0.2 * np.sin(th + ka))
        q = apply_Q(g, f, 0.0, UNIT)
        q_rot = apply_Q(g, np.roll(f, shift, axis=0), phi, UNIT)
        assert np.allclose(np.roll(q, shift, axis=0), q_rot, atol=1e-12)

    def test_mass_conservation(self):
        g = fine_grid()
        th, ka = g.meshgrid()
        q = apply_Q(g, mu_pdf(UNIT, th, ka) * (1 + 0.3 * np.cos(th)), 0.0, UNIT)
        # integral of Q(f) vanishes up to O(Delta^2) boundary/truncation slack
        assert integrate(g, q) == pytest.approx(0.0, abs=1e-4)


class TestApplyL:
    def test_constant_in_kernel(self):
        g = fine_grid(32, 51)
        psi = GridField(g, np.full((32, 51), 2.5))
        assert np.allclose(apply_L(psi, UNIT).values, 0.0, atol=1e-12)

    def test_linear_kappa_closed_form(self):
        # L(kappa) = -lam sin(theta) - lam kappa, exact for the discrete stencil too
        p = ModelParams(1.3, 0.8)
        g = fine_grid(32, 51)
        th, ka = g.meshgrid()
        psi = GridField(g, ka.astype(float))
        expected = -p.lam * np.sin(th) - p.lam * ka
        got = apply_L(psi, p).values
        assert np.allclose(got[g.interior_mask()], expected[g.interior_mask()], atol=1e-10)

    def test_second_order_convergence_rate(self):
        p = ModelParams(1.0, 1.0)

        def psi_fn(th, ka):
            return np.sin(th) * np.exp(-(ka**2) / 8.0) + 0.3 * np.cos(2 * th) * ka

        def l_exact(th, ka):
            dth = np.cos(th) * np.exp(-(ka**2) / 8.0) - 0.6 * np.sin(2 * th) * ka
            dka = np.sin(th) * np.exp(-(ka**2) / 8.0) * (-ka / 4.0) + 0.3 * np.cos(2 * th)
            d2ka = np.sin(th) * np.exp(-(ka**2) / 8.0) * (ka**2 / 16.0 - 0.25)
            return ka * dth - p.lam * np.sin(th) * dka - p.lam * ka * dka + p.alpha**2 * d2ka

        errs = []
        for n_theta, n_kappa in [(32, 51), (64, 101)]:
            g = Grid2D(n_theta, -5.0, 5.0, n_kappa)
            th, ka = g.meshgrid()
            got = apply_L(GridField(g, psi_fn(th, ka)), p).values
            errs.append(np.max(np.abs((got - l_exact(th, ka))[g.interior_mask()])))
        rate = math.log2(errs[0] / errs[1])
        assert 1.8 <= rate <= 2.2

    def test_adjoint_structure(self):
        # integral Q(f) g = integral f L(g) for compactly supported smooth f, g
        g = fine_grid(64, 161, half_width=8.0)
        th, ka = g.meshgrid()
        bump = np.exp(-(ka**2) / 2.0)
        f = mu_pdf(UNIT, th, ka) * (1 + 0.3 * np.sin(th)) * bump
        phi = np.cos(th) * bump
        lhs = integrate(g, apply_Q(g, f, 0.0, UNIT) * phi)
        rhs = integrate(g, f * apply_L(GridField(g, phi), UNIT).values)
        assert lhs == pytest.approx(rhs, abs=5e-3 * max(1.0, abs(lhs)))


class TestBroadcastVerifier:
    """apply_L and residual_inf broadcast theta as a column and kappa as a row: the same bits."""

    @pytest.mark.parametrize(
        "g",
        [Grid2D(16, -5.0, 5.0, 11), Grid2D(32, -5.0, 5.0, 51), Grid2D(64, -5.0, 5.0, 101),
         Grid2D(64, -8.0, 8.0, 161), Grid2D(31, -5.0, 5.0, 51)],
    )
    def test_test_grids(self, g):
        p = ModelParams(1.3, 0.8)
        th, ka = g.meshgrid()
        for values in (ka.astype(float), np.sin(th) * np.exp(-(ka**2) / 8.0) + 0.3 * np.cos(2 * th) * ka):
            psi = GridField(g, values)
            assert np.array_equal(apply_L(psi, p).values, meshgrid_apply_L(psi, p))
            assert residual_inf(psi, p) == meshgrid_residual_inf(psi, p)

    @pytest.mark.parametrize("lam, alpha", CRITERION_3)
    def test_criterion_3_points(self, lam, alpha):
        sp = SpectralParams(30, 61, ModelParams(lam, alpha))
        x = solve_gci(sp)
        for g in (Grid2D(32, -5.0, 5.0, 51), Grid2D(64, -5.0, 5.0, 101)):
            psi = psi_on_grid(x, sp, g)
            assert np.array_equal(apply_L(psi, sp.model).values, meshgrid_apply_L(psi, sp.model))
            assert residual_inf(psi, sp.model) == meshgrid_residual_inf(psi, sp.model)


class TestResidualInf:
    def test_closed_form_test_function(self):
        # psi = kappa gives |(-lam+1) sin(theta) - lam kappa|, maximized on the interior
        p = ModelParams(1.5, 1.0)
        g = Grid2D(32, -5.0, 5.0, 51)
        th, ka = g.meshgrid()
        psi = GridField(g, ka.astype(float))
        interior = g.interior_mask()
        expected = np.max(np.abs(((1 - p.lam) * np.sin(th) - p.lam * ka)[interior]))
        assert residual_inf(psi, p) == pytest.approx(expected, abs=1e-10)

    def test_sup_is_taken_where_psi_is_represented(self):
        # psi = kappa up to one node beyond the cutoff and 1e12 further out, on a
        # grid reaching twice the cutoff: every stencil of a node with
        # |kappa| <= cutoff sees the linear field, every node beyond sees the jump
        p = ModelParams(2.0, 0.5)
        cutoff = kappa_cutoff(p)
        g = Grid2D(32, -8.0, 8.0, 81)
        th, ka = g.meshgrid()
        psi = GridField(g, np.where(np.abs(ka) <= cutoff + g.d_kappa, ka, 1e12))
        inside = g.interior_mask() & (np.abs(ka) <= cutoff)
        expected = np.max(np.abs(((1 - p.lam) * np.sin(th) - p.lam * ka)[inside]))
        everywhere = np.max(np.abs(apply_L(psi, p).values + np.sin(th))[g.interior_mask()])
        assert g.kappa_max > cutoff and everywhere > 1e10
        assert residual_inf(psi, p) == pytest.approx(expected, abs=1e-10)


class TestDissipation:
    def test_equilibrium_has_zero_dissipation(self):
        g = fine_grid()
        th, ka = g.meshgrid()
        d = dissipation(g, mu_pdf(UNIT, th, ka), UNIT)
        assert d == pytest.approx(0.0, abs=1e-4)

    def test_isotropic_returns_none(self):
        g = fine_grid()
        th, ka = g.meshgrid()
        assert dissipation(g, np.ones_like(th) * gaussian_pdf(UNIT, ka), UNIT) is None

    @pytest.mark.parametrize(
        "perturbation",
        [lambda th, ka: 1 + 0.3 * np.cos(ka), lambda th, ka: 1 + 0.1 * np.sin(th)],
    )
    def test_matches_entropy_identity(self, perturbation):
        # independent oracle: dissipation = -alpha^2 int (N/M) |d/dkappa (f/N)|^2
        g = fine_grid(64, 201, half_width=6.0)
        th, ka = g.meshgrid()
        f = mu_pdf(UNIT, th, ka) * perturbation(th, ka)
        lhs = dissipation(g, f, UNIT)
        ratio = f / gaussian_pdf(UNIT, ka)
        d_ratio = np.gradient(ratio, g.kappa, axis=1)
        rhs_integrand = (
            -UNIT.alpha**2 * gaussian_pdf(UNIT, ka) / von_mises_pdf(UNIT, th) * d_ratio**2
        )
        rhs = integrate(g, rhs_integrand)
        assert lhs <= 1e-6
        assert lhs == pytest.approx(rhs, rel=0.05, abs=1e-6)
