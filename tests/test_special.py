"""Normalized Hermite polynomials, checked column by column of hermite_p_row."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptwa.special import hermite_p_row


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
