"""Normalized Hermite polynomials, checked column by column of hermite_p_row."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptwa.special import hermite_p_row

#: (lam, alpha) pairs across the criterion-3 corners and the map's extremes
MODELS = [(1.0, 1.0), (2.0, 0.5), (0.2, 5.0), (5.0, 0.2), (0.5, 2.0), (3.0, 0.5)]


def loop_hermite_p_row(n_max, lam, alpha, kappa):
    """hermite_p_row as a Python loop over the degrees, one vectorised recurrence step each."""
    kappa = np.asarray(kappa, dtype=float)
    x = math.sqrt(lam) / alpha * kappa
    out = np.empty(kappa.shape + (n_max + 1,))
    out[..., 0] = 1.0
    if n_max >= 1:
        out[..., 1] = x
    for k in range(1, n_max):
        out[..., k + 1] = (x * out[..., k] - math.sqrt(k) * out[..., k - 1]) / math.sqrt(k + 1)
    return out


class TestHermiteP:
    def test_base_cases(self):
        row = hermite_p_row(2, 1.0, 1.0, np.array([0.7, 1.0]))
        assert row.shape == (2, 3)
        assert row[0, 0] == 1.0
        assert row[0, 1] == pytest.approx(0.7)
        assert row[1, 2] == pytest.approx(0.0, abs=1e-14)

    def test_scaling(self):
        # P_1(kappa) = (sqrt(lam)/alpha) kappa
        assert hermite_p_row(1, 4.0, 2.0, 0.7)[1] == pytest.approx(0.7)
        assert hermite_p_row(1, 1.0, 2.0, 1.0)[1] == pytest.approx(0.5)

    @given(
        n=st.integers(min_value=1, max_value=20),
        kappa=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
        lam=st.floats(min_value=0.2, max_value=5.0),
        alpha=st.floats(min_value=0.2, max_value=5.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_three_term_recurrence(self, n, kappa, lam, alpha):
        # kappa P_n = (alpha/sqrt(lam)) (sqrt(n+1) P_{n+1} + sqrt(n) P_{n-1})
        p = hermite_p_row(n + 1, lam, alpha, kappa)
        lhs = kappa * p[n]
        rhs = (alpha / math.sqrt(lam)) * (math.sqrt(n + 1) * p[n + 1] + math.sqrt(n) * p[n - 1])
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("lam,alpha", [(1.0, 1.0), (2.0, 0.7)])
    def test_orthonormality(self, lam, alpha):
        sigma = alpha / math.sqrt(lam)
        kappa = np.linspace(-12.0 * sigma, 12.0 * sigma, 4001)
        weight = np.exp(-(kappa**2) / (2.0 * sigma**2)) / (sigma * math.sqrt(2.0 * math.pi))
        table = hermite_p_row(8, lam, alpha, kappa)
        gram = np.einsum("ki,k,kj->ij", table, weight, table) * (kappa[1] - kappa[0])
        assert np.allclose(gram, np.eye(9), atol=1e-8)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_eigenfunction_of_ou_generator(self, n):
        # -lam kappa P_n' + alpha^2 P_n'' = -lam n P_n
        lam, alpha = 1.3, 0.9
        h = 1e-5
        kappa = np.array([-2.0, -0.3, 0.0, 1.1, 3.0])
        minus, p, plus = (hermite_p_row(n, lam, alpha, kappa + s)[:, n] for s in (-h, 0.0, h))
        d1 = (plus - minus) / (2 * h)
        d2 = (plus - 2 * p + minus) / h**2
        # roundoff in the h^2 divided difference dominates: ~eps * |P| / h^2
        assert -lam * kappa * d1 + alpha**2 * d2 == pytest.approx(-lam * n * p, rel=1e-5, abs=1e-4)

    @pytest.mark.parametrize("n", [1, 2, 25, 61, 121, 241])
    @pytest.mark.parametrize("lam,alpha", MODELS)
    def test_matches_the_per_degree_loop(self, n, lam, alpha):
        # the band solve may fuse a multiply-subtract the loop rounds twice; nothing more moves
        sigma = alpha / math.sqrt(lam)
        for kappa in (np.linspace(-5.0, 5.0, 51), np.linspace(-12.0 * sigma, 12.0 * sigma, 101)):
            want = loop_hermite_p_row(n, lam, alpha, kappa)
            scale = np.max(np.abs(want), axis=-1, keepdims=True)
            assert np.all(np.abs(hermite_p_row(n, lam, alpha, kappa) - want) <= 1e-13 * scale)

    def test_a_row_does_not_depend_on_the_other_kappa(self):
        kappa = np.linspace(-5.0, 5.0, 51)
        table = hermite_p_row(61, 2.0, 0.5, kappa)
        for i in (0, 17, 50):
            assert hermite_p_row(61, 2.0, 0.5, kappa[i]).tobytes() == table[i].tobytes()

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_shape_contract(self, n):
        assert hermite_p_row(n, 1.0, 1.0, 0.3).shape == (n + 1,)
        assert hermite_p_row(n, 1.0, 1.0, np.full((2, 3), 0.3)).shape == (2, 3, n + 1)
        assert hermite_p_row(n, 1.0, 1.0, np.array([])).shape == (0, n + 1)
        want = loop_hermite_p_row(n, 1.0, 1.0, [0.3, -0.4])
        np.testing.assert_allclose(hermite_p_row(n, 1.0, 1.0, [0.3, -0.4]), want, rtol=0.0, atol=1e-15)

    def test_non_finite_kappa_raises(self):
        # the zero band entries between kappa blocks times inf are NaN: kappa = 1 would read NaN
        with pytest.raises(FloatingPointError, match="^reconstruction is not finite.*kappa = inf"):
            hermite_p_row(3, 1.0, 1.0, [math.inf, math.nan, 1.0])
        with pytest.raises(FloatingPointError, match="^reconstruction is not finite.*kappa = nan"):
            hermite_p_row(3, 1.0, 1.0, [1.0, math.nan])

    def test_overflowing_row_raises(self):
        # x^241 / sqrt(241!) passes 1e308 near |x| = 180; without kappa = 200 every row is finite
        kappa = np.array([1.0, 200.0, 3.0])
        assert np.all(np.isfinite(hermite_p_row(241, 1.0, 1.0, kappa[[0, 2]])))
        with pytest.raises(FloatingPointError, match="^reconstruction is not finite.*kappa = 200"):
            hermite_p_row(241, 1.0, 1.0, kappa)
