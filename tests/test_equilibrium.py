"""Model parameters, equilibrium densities, and the drift coefficient c1."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kinetic_oracle import mu_pdf
from scipy.special import ive

from ptwa.equilibrium import (
    ModelParams,
    c1_coefficient,
    c1_quadrature,
    gaussian_pdf,
    seeded_stream,
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

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite(self, bad):
        # c1_coefficient(ModelParams(inf, 1.0)) would be NaN
        with pytest.raises(ValueError, match="finite"):
            ModelParams(lam=bad, alpha=1.0)
        with pytest.raises(ValueError, match="finite"):
            ModelParams(lam=1.0, alpha=bad)

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

    def test_c1_and_density_past_the_ive_range(self):
        # scipy's ive is NaN from about k = 2**30 (lam/alpha = 32768) on; the asymptotic series
        # I1/I0 = 1 - 1/(2k) - 1/(8k^2) and 2 pi e^-k I0 = sqrt(2 pi / k) (1 + 1/(8k)) hold there
        for lam in (32768.0, 32769.0, 1e5):
            p = ModelParams(lam=lam, alpha=1.0)
            k = p.concentration
            assert 1.0 - c1_coefficient(p) == pytest.approx(1.0 / (2.0 * k) + 1.0 / (8.0 * k**2), rel=1e-5)
            peak = math.sqrt(k / (2.0 * math.pi)) / (1.0 + 1.0 / (8.0 * k))
            assert von_mises_pdf(p, 0.0) == pytest.approx(peak, rel=1e-12)
            assert von_mises_pdf(p, math.pi) == 0.0

    def test_c1_is_the_ive_ratio_inside_its_range(self):
        for k in (1.0, 729.0, 2.0**30 - 1.0):
            p = ModelParams(lam=math.sqrt(k), alpha=1.0)
            assert c1_coefficient(p) == ive(1, p.concentration) / ive(0, p.concentration)


class TestSeededStream:
    @pytest.mark.parametrize(
        "seed, stream", [(0, 0), (5, 2**62), (2**64 - 1, 2**64 - 1), (np.int64(5), np.uint64(7))]
    )
    def test_draws_from_the_unsigned_philox_key(self, seed, stream):
        key = np.array([seed, stream], dtype=np.uint64)
        expected = np.random.Generator(np.random.Philox(key=key)).standard_normal(4)
        assert np.array_equal(seeded_stream(seed, stream).standard_normal(4), expected)

    @pytest.mark.parametrize(
        "seed, stream", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64), (1.5, 0), (0, 2.0)]
    )
    def test_rejects_key_words_outside_64_bits(self, seed, stream):
        # a float key word was truncated by the uint64 key array: seed 1.5 ran seed 1
        with pytest.raises(ValueError, match="Philox key"):
            seeded_stream(seed, stream)

    @pytest.mark.parametrize("seed, stream", [(True, 0), (0, False)])
    def test_rejects_a_bool_key_word(self, seed, stream):
        with pytest.raises(ValueError, match="Philox key"):
            seeded_stream(seed, stream)
