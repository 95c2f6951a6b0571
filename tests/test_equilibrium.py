"""Model parameters, equilibrium densities, and the drift coefficient c1."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kinetic_oracle import mu_pdf

from ptwa.equilibrium import (
    ModelParams,
    c1_coefficient,
    c1_quadrature,
    gaussian_pdf,
    von_mises_pdf,
    wrap_angle,
)

positive = st.floats(min_value=0.2, max_value=5.0, allow_nan=False)


class TestModelParams:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ModelParams(lam=0.0, alpha=1.0)
        with pytest.raises(ValueError):
            ModelParams(lam=1.0, alpha=-1.0)

    def test_derived_quantities(self):
        p = ModelParams(lam=2.0, alpha=0.5)
        assert p.concentration == pytest.approx(16.0)
        assert p.kappa_variance == pytest.approx(0.125)
        assert p.pressure == pytest.approx(0.0625)


class TestWrapAngle:
    def test_range(self):
        th = wrap_angle(np.array([-math.pi, math.pi, 3.5 * math.pi, -7.0]))
        assert np.all(th > -math.pi) and np.all(th <= math.pi)

    def test_identity_inside(self):
        assert wrap_angle(1.2345) == pytest.approx(1.2345)
        assert wrap_angle(-3.0) == pytest.approx(-3.0)


class TestDensities:
    def test_von_mises_values(self):
        p = ModelParams(lam=1.0, alpha=1.0)
        assert von_mises_pdf(p, 0.0) == pytest.approx(0.341710, abs=2e-6)
        assert von_mises_pdf(p, math.pi / 2) == pytest.approx(0.1257083, abs=2e-7)

    def test_gaussian_values(self):
        assert gaussian_pdf(ModelParams(1.0, 1.0), 0.0) == pytest.approx(0.3989423, abs=1e-7)
        assert gaussian_pdf(ModelParams(4.0, 1.0), 0.0) == pytest.approx(0.7978845, abs=1e-7)

    def test_mu_product(self):
        p = ModelParams(1.0, 1.0)
        assert mu_pdf(p, 0.0, 0.0) == pytest.approx(0.136324, abs=2e-6)

    @given(lam=positive, alpha=positive, theta=st.floats(-3.1, 3.1), kappa=st.floats(-4, 4))
    @settings(max_examples=50, deadline=None)
    def test_evenness(self, lam, alpha, theta, kappa):
        p = ModelParams(lam, alpha)
        assert von_mises_pdf(p, theta) == pytest.approx(von_mises_pdf(p, -theta), rel=1e-12)
        assert gaussian_pdf(p, kappa) == pytest.approx(gaussian_pdf(p, -kappa), rel=1e-12)
        assert mu_pdf(p, theta, kappa) == pytest.approx(mu_pdf(p, -theta, -kappa), rel=1e-12)

    @given(lam=positive, alpha=positive)
    @settings(max_examples=20, deadline=None)
    def test_normalization(self, lam, alpha):
        p = ModelParams(lam, alpha)
        th = np.linspace(-math.pi, math.pi, 2001)[:-1]
        assert np.sum(von_mises_pdf(p, th)) * (th[1] - th[0]) == pytest.approx(1.0, abs=1e-10)
        sigma = alpha / math.sqrt(lam)
        ka = np.linspace(-12 * sigma, 12 * sigma, 4001)
        assert np.sum(gaussian_pdf(p, ka)) * (ka[1] - ka[0]) == pytest.approx(1.0, abs=1e-10)


class TestC1:
    def test_reference_value(self):
        assert c1_coefficient(ModelParams(1.0, 1.0)) == pytest.approx(0.4463900, abs=1e-6)

    @given(lam=positive, alpha=positive)
    @settings(max_examples=20, deadline=None)
    def test_bessel_ratio_equals_quadrature(self, lam, alpha):
        p = ModelParams(lam, alpha)
        assert c1_coefficient(p) == pytest.approx(c1_quadrature(p), abs=1e-10)

    def test_limits_and_monotonicity(self):
        # c1 -> 0 as concentration -> 0, -> 1 as concentration -> infinity
        assert c1_coefficient(ModelParams(lam=0.05, alpha=2.0)) < 1e-3
        assert c1_coefficient(ModelParams(lam=5.0, alpha=0.6)) > 0.99
        concentrations = np.linspace(0.1, 20.0, 30)
        values = [c1_coefficient(ModelParams(lam=math.sqrt(k), alpha=1.0)) for k in concentrations]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestLargeConcentration:
    """lam^2/alpha^2 up to 1e4, far past where exp(lam^2/alpha^2) overflows a double (~709)."""

    @given(
        k1=st.floats(min_value=1e-2, max_value=1e4, allow_nan=False),
        k2=st.floats(min_value=1e-2, max_value=1e4, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_c1_in_unit_interval_and_nondecreasing(self, k1, k2):
        lo, hi = sorted((k1, k2))
        c_lo = c1_coefficient(ModelParams(lam=math.sqrt(lo), alpha=1.0))
        c_hi = c1_coefficient(ModelParams(lam=math.sqrt(hi), alpha=1.0))
        assert 0.0 < c_lo <= c_hi < 1.0

    def test_c1_approaches_one_like_one_over_twice_the_concentration(self):
        # 1 - I1(k)/I0(k) = 1/(2k) + O(1/k^2)
        gap = 1.0 - c1_coefficient(ModelParams(lam=100.0, alpha=1.0))
        assert gap == pytest.approx(1.0 / (2.0 * 1e4), rel=1e-2)

    def test_c1_finite_past_exp_overflow(self):
        c1 = c1_coefficient(ModelParams(lam=27.0, alpha=1.0))
        assert math.isfinite(c1) and 0.0 < c1 < 1.0

    @pytest.mark.parametrize("lam", [27.0, 100.0])  # concentrations 729 and 1e4
    def test_density_normalized_and_quadrature_matches(self, lam):
        p = ModelParams(lam=lam, alpha=1.0)
        nodes = 8192
        th = np.linspace(-math.pi, math.pi, nodes + 1)[:-1]
        assert np.sum(von_mises_pdf(p, th)) * (2.0 * math.pi / nodes) == pytest.approx(1.0, abs=1e-10)
        assert c1_quadrature(p, nodes) == pytest.approx(c1_coefficient(p), abs=1e-10)
