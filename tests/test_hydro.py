"""Macroscopic coefficients, characteristic speeds, hyperbolicity."""

import math

import numpy as np
import pytest
from galerkin_oracle import gamma_moments_trapezoid

from ptwa.equilibrium import ModelParams, c1_coefficient
from ptwa.hydro import (
    HydroCoeffs,
    characteristic_speeds,
    compute_hydro_coeffs,
    gamma_moments,
    gamma_moments_spectral,
    hyperbolicity_check,
)
from ptwa.spectral import CoeffMatrix, SpectralParams, solve_gci


#: criterion 3's (lambda, alpha) grid and the corners of criterion 8's
ORACLE_POINTS = [(lam, a) for lam in (0.5, 1.0, 2.0) for a in (0.5, 1.0, 2.0)] + [
    (5.0, 0.2),
    (0.2, 5.0),
]


def coeffs(c1=0.45, c2=0.18, d=1.0):
    return HydroCoeffs(c1=c1, c2=c2, d=d, gamma1=0.5, gamma2=0.09)


class TestHydroTypes:
    def test_validation(self):
        with pytest.raises(ValueError):
            HydroCoeffs(c1=1.5, c2=0.1, d=1.0, gamma1=0.5, gamma2=0.05)
        with pytest.raises(ValueError):
            HydroCoeffs(c1=0.5, c2=0.1, d=-1.0, gamma1=0.5, gamma2=0.05)
        with pytest.raises(ValueError):
            HydroCoeffs(c1=0.5, c2=0.1, d=1.0, gamma1=0.0, gamma2=0.05)


class TestGammaMoments:
    def test_reference_values(self, medium_solution):
        x, sp = medium_solution
        g = gamma_moments(x, sp)
        assert g["gamma1"] == pytest.approx(0.51733448, abs=1e-6)
        assert g["gamma2"] == pytest.approx(0.09379593, abs=1e-6)

    def test_quadrature_equals_spectral_projection(self):
        # the Bessel projections against the periodic trapezoid of the theta marginal
        for lam, alpha in ORACLE_POINTS:
            sp = SpectralParams(m=30, n=61, model=ModelParams(lam, alpha))
            x = solve_gci(sp)
            g = gamma_moments(x, sp)
            ref = gamma_moments_trapezoid(x, sp, n_nodes=1024)
            assert g["gamma1"] == pytest.approx(ref["gamma1"], rel=1e-12, abs=0.0)
            assert g["gamma2"] == pytest.approx(ref["gamma2"], rel=1e-12, abs=0.0)
            assert g["gamma1"] == gamma_moments_spectral(x, sp)

    @pytest.mark.parametrize("lam,alpha", [(10.0, 0.1), (100.0, 1.0)])
    def test_large_concentration(self, lam, alpha):
        # lambda^2/alpha^2 = 1e4: a 512-node trapezoid aliases at 1e-9 here, 4096 nodes do not
        sp = SpectralParams(m=30, n=61, model=ModelParams(lam, alpha))
        x = solve_gci(sp)
        g = gamma_moments(x, sp)
        ref = gamma_moments_trapezoid(x, sp, n_nodes=4096)
        assert g["gamma1"] == pytest.approx(ref["gamma1"], rel=1e-13, abs=0.0)
        assert g["gamma2"] == pytest.approx(ref["gamma2"], rel=1e-13, abs=0.0)

    def test_quadrature_refinement_invariance(self, medium_solution):
        x, sp = medium_solution
        a = gamma_moments_trapezoid(x, sp, n_nodes=256)
        b = gamma_moments_trapezoid(x, sp, n_nodes=1024)
        assert a["gamma1"] == pytest.approx(b["gamma1"], rel=1e-12, abs=0.0)
        assert a["gamma2"] == pytest.approx(b["gamma2"], rel=1e-12, abs=0.0)

    def test_even_coefficients_give_degenerate_moment(self, unit_model):
        # an even-in-theta psi has vanishing gamma1; the ratio must be refused
        sp = SpectralParams(m=2, n=2, model=unit_model)
        entries = np.zeros((5, 3), dtype=complex)
        entries[2 + 1, 0] = 0.3  # cos-like: C_1 = C_-1 real
        entries[2 - 1, 0] = 0.3
        with pytest.raises(ArithmeticError):
            gamma_moments(CoeffMatrix(entries=entries), sp)


class TestC2:
    def test_reference_value(self, medium_solution):
        x, sp = medium_solution
        assert compute_hydro_coeffs(x, sp).c2 == pytest.approx(0.181306, abs=1e-5)

    def test_truncation_convergence(self, small_solution, medium_solution):
        a = compute_hydro_coeffs(*small_solution).c2
        b = compute_hydro_coeffs(*medium_solution).c2
        assert a == pytest.approx(b, rel=0.01)


class TestComputeHydroCoeffs:
    def test_packaging(self, medium_solution):
        x, sp = medium_solution
        h = compute_hydro_coeffs(x, sp)
        assert h.c1 == pytest.approx(c1_coefficient(sp.model), rel=1e-12)
        assert h.c2 == pytest.approx(h.gamma2 / h.gamma1, rel=1e-12)
        assert h.d == pytest.approx(1.0)


class TestCharacteristicSpeeds:
    def test_axis_aligned_roots(self):
        h = coeffs()
        assert characteristic_speeds(h, 0.0) == pytest.approx((h.c1, h.c2))
        plus, minus = characteristic_speeds(h, math.pi / 2)
        ref = math.sqrt(h.c1 * h.d)
        assert (plus, minus) == pytest.approx((ref, -ref))
        assert characteristic_speeds(h, math.pi) == pytest.approx((-h.c2, -h.c1))

    def test_half_turn_antisymmetry(self):
        h = coeffs(c1=0.6, c2=0.25, d=0.7)
        for th in np.linspace(0.0, 2 * math.pi, 9):
            plus, minus = characteristic_speeds(h, th)
            plus2, minus2 = characteristic_speeds(h, th + math.pi)
            assert (plus2, minus2) == pytest.approx((-minus, -plus))

    def test_degenerate_equal_speeds(self):
        h = coeffs(c1=0.3, c2=0.3)
        plus, minus = characteristic_speeds(h, 1.1)
        assert plus >= minus
        assert np.isfinite([plus, minus]).all()


class TestHyperbolicity:
    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            hyperbolicity_check(coeffs(), 4)

    @pytest.mark.parametrize("samples", [64.5, 64.0, True])
    def test_rejects_a_sample_count_that_is_not_an_integer(self, samples):
        with pytest.raises(ValueError, match="integer"):
            hyperbolicity_check(coeffs(), samples)

    def test_numpy_integer_sample_count(self):
        assert hyperbolicity_check(coeffs(), np.int16(64))

    def test_always_true_for_valid_coeffs(self):
        assert hyperbolicity_check(coeffs(), 64)
        assert hyperbolicity_check(coeffs(c1=0.99, c2=-0.4, d=5.0), 64)

    def test_full_pipeline_small_sweep(self):
        for lam, alpha in [(0.5, 1.0), (1.0, 1.0), (2.0, 0.8)]:
            sp = SpectralParams(m=8, n=17, model=ModelParams(lam, alpha))
            h = compute_hydro_coeffs(solve_gci(sp), sp)
            assert hyperbolicity_check(h, 64)
