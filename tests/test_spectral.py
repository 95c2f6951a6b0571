"""Fourier x Hermite Galerkin solver for the collisional invariant."""

import cmath
import math

import numpy as np
import pytest
from galerkin_oracle import (
    class_member,
    complex_rhs,
    half_grid_rows,
    stencil_galerkin_matrix,
    stencil_on_class,
    theta_marginal_times_m,
)
from kinetic_oracle import constant_coefficients, mu_mean, mu_pdf
from numpy.polynomial.hermite_e import hermeval

from ptwa import spectral
from ptwa.equilibrium import ModelParams, _scipy, theta_nodes, von_mises_pdf
from ptwa.grid import Grid2D, residual_inf
from ptwa.hydro import compute_hydro_coeffs
from ptwa.spectral import (
    CoeffMatrix,
    SpectralParams,
    assemble_schur_band,
    assemble_rhs,
    psi_on_grid,
    reconstruct_psi,
    sine_moment,
    sine_projection,
    solve_gci,
)

UNIT = ModelParams(1.0, 1.0)
#: criterion 3's (lambda, alpha) grid and the corners of criterion 8's
SYMMETRY_POINTS = [(lam, a) for lam in (0.5, 1.0, 2.0) for a in (0.5, 1.0, 2.0)] + [
    (5.0, 0.2),
    (0.2, 5.0),
]
#: nine log-spaced values over [0.01, 100], for lam and alpha
LOG_LATTICE = np.logspace(-2.0, 2.0, 9)


def reduced_matrix(sp: SpectralParams) -> tuple[np.ndarray, np.ndarray]:
    """L on the real, odd class as a dense matrix, the stencil matrix on one class_member per column.

    Unknowns and rows are r_j^k over j = 0..m, k = 0..n in column-major (j fastest) order,
    without the pinned r_0^k of even k; also returns the Hermite degree of each unknown.
    """
    j, k = np.meshgrid(np.arange(sp.m + 1), np.arange(sp.n_hermite), indexing="ij")
    live = ((j > 0) | (k % 2 == 1)).ravel(order="F")
    stencil = stencil_galerkin_matrix(sp)
    columns = []
    for unknown in np.flatnonzero(live):
        r = np.zeros((sp.m + 1) * sp.n_hermite)
        r[unknown] = 1.0
        y = stencil_on_class(stencil, r.reshape(j.shape, order="F"))
        columns.append(half_grid_rows(y).ravel(order="F")[live])
    return np.array(columns).T, k.ravel(order="F")[live]


def least_norm_oracle(sp: SpectralParams) -> CoeffMatrix:
    """Min-norm least squares on the stencil matrix, then the constant projected out."""
    b = complex_rhs(sp).flatten(order="F")
    vec, *_ = np.linalg.lstsq(stencil_galerkin_matrix(sp), b, rcond=None)
    ones = constant_coefficients(sp).flatten(order="F")
    vec -= np.vdot(ones, vec) / np.vdot(ones, ones) * ones
    return CoeffMatrix(vec.reshape((sp.n_fourier, sp.n_hermite), order="F"))


def dense_from_band(ab: np.ndarray, w: int) -> np.ndarray:
    """The symmetric matrix held in pbtrf lower storage, kd = w (entry i >= c at ab[i - c, c])."""
    assert ab.shape[0] == w + 1
    size = ab.shape[1]
    a = np.zeros((size, size))
    for c in range(size):
        for i in range(c, min(size, c + w + 1)):
            a[i, c] = a[c, i] = ab[i - c, c]
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

    @pytest.mark.parametrize("m, n", [(2.5, 5), (True, 5), (3, 5.5), (3, True), (3.0, 5)])
    def test_rejects_a_count_that_is_not_an_integer(self, m, n):
        # SpectralParams(2.5, 5, ...) was built, then solve_gci failed with a TypeError
        with pytest.raises(ValueError, match="integer"):
            SpectralParams(m, n, UNIT)

    @pytest.mark.parametrize("lam, alpha", [(1e-200, 1.0), (1.0, 1e-200)])
    def test_rejects_a_square_that_underflows(self, lam, alpha):
        # the solve divided by the 0.0 square and failed with "float division by zero"
        with pytest.raises(ValueError, match="underflow"):
            SpectralParams(3, 5, ModelParams(lam, alpha))

    def test_numpy_integers_are_counts(self):
        x = solve_gci(SpectralParams(np.int64(3), np.uint8(5), UNIT))
        assert np.array_equal(x.entries, solve_gci(SpectralParams(3, 5, UNIT)).entries)


class TestAssembleRhs:
    def test_shape_and_sparsity(self):
        # the real half grid j = 0..m, k = 0..n, nonzero only in the Hermite-degree-0 column
        f = assemble_rhs(SpectralParams(m=3, n=4, model=UNIT))
        assert f.shape == (4, 5) and f.dtype == np.float64
        assert np.all(f[:, 1:] == 0.0)

    def test_center_vanishes(self):
        for model in (UNIT, ModelParams(2.0, 0.7)):
            assert assemble_rhs(SpectralParams(m=2, n=2, model=model))[0, 0] == 0.0  # j = 0

    def test_reference_value(self):
        f = assemble_rhs(SpectralParams(m=2, n=2, model=UNIT))
        assert f[1, 0] == pytest.approx(0.458399, abs=1e-6)  # j = 1: -i B_1, B_1 = 0.458399 i

    def test_antisymmetry(self):
        # -sin(q theta) is odd: its projection on phi_0 vanishes and that on phi_-j is minus
        # that on phi_j, so the real half grid j = 0..m holds all of it (test_matches_quadrature)
        sp = SpectralParams(m=4, n=3, model=ModelParams(1.7, 0.9))
        for q in (1, 2):
            t = sine_projection(sp, q)
            assert t.shape == (sp.m + 1,) and t.dtype == np.float64
            assert t[0] == 0.0

    def test_matches_quadrature(self):
        # i sign(j) t_|j| = <-sin(q theta), phi_j P_0>_mu for j = -m..m, t = sine_projection(sp, q)
        sp = SpectralParams(m=3, n=2, model=ModelParams(1.4, 0.8))
        th = theta_nodes(2048)
        w = 2 * math.pi / 2048
        m_pdf = von_mises_pdf(sp.model, th)
        for q in (1, 2):
            t = sine_projection(sp, q)
            for j in sp.fourier_orders():
                phi_j = np.exp(1j * j * th) / np.sqrt(2 * math.pi * m_pdf)
                ref = np.sum(-np.sin(q * th) * np.conj(phi_j) * m_pdf) * w
                assert 1j * np.sign(j) * t[abs(j)] == pytest.approx(ref, abs=1e-10)


class TestAssemblyOracle:
    @pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (3, 4), (5, 6)])
    def test_kron_equals_stencil(self, m, n):
        # the solver's one operator, L on the real half grid of the class, against the stencil
        # matrix of the Kronecker system applied to random members of the class
        for model in (UNIT, ModelParams(2.0, 0.6), ModelParams(0.2, 5.0)):
            sp = SpectralParams(m=m, n=n, model=model)
            r = np.random.default_rng(m).standard_normal((m + 1, n + 1))
            r[0, ::2] = 0.0  # C_0^k = 0 for even k
            want = half_grid_rows(stencil_on_class(stencil_galerkin_matrix(sp), r))
            got = spectral._half_operator(r, sp)
            assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))

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
        b = complex_rhs(sp).flatten(order="F")
        vec = x.entries.flatten(order="F")
        assert np.linalg.norm(a @ vec - b) / np.linalg.norm(b) <= 1e-10

    @pytest.mark.parametrize(
        "m,n,lam,alpha", [(2, 2, 0.02, 50.0), (3, 2, 0.02, 50.0), (6, 12, 0.02, 50.0),
                          (12, 25, 1.0, 1.0)]
    )
    def test_residual_is_that_of_the_complex_system(self, m, n, lam, alpha, monkeypatch):
        # taken on the half grid, where rows j >= 1 stand for C_{+-j}.  The first three points
        # are refined (test_small_odd_pivots_are_refined_away), and their refined residuals,
        # about 1e-12, are round-off that the dense product below puts 1.2 to 3.2 times lower;
        # so the first pass is returned, with the residual of 1e-8 to 1e-7 that triggers
        # refinement
        monkeypatch.setattr(spectral, "SOLVE_RTOL", 1.0)
        sp = SpectralParams(m=m, n=n, model=ModelParams(lam, alpha))
        x = solve_gci(sp)
        b = complex_rhs(sp).flatten(order="F")
        defect = stencil_galerkin_matrix(sp) @ x.entries.flatten(order="F") - b
        exact = np.linalg.norm(defect) / np.linalg.norm(b)
        assert abs(x.residual - exact) <= max(0.01 * exact, 1e-15)

    def test_half_norm_is_the_norm_of_the_complex_coefficients(self):
        # the right-hand side and the defect are measured on the half grid, where a row j >= 1
        # stands for both C_j and C_-j
        sp = SpectralParams(m=5, n=6, model=ModelParams(1.7, 0.9))
        b = np.linalg.norm(complex_rhs(sp))
        assert spectral._half_norm(assemble_rhs(sp)) == pytest.approx(b, rel=1e-15)
        r = np.random.default_rng(3).standard_normal((sp.m + 1, sp.n_hermite))
        r[0, ::2] = 0.0  # C_0^k = 0 for even k
        c = np.linalg.norm(class_member(r))
        assert spectral._half_norm(r) == pytest.approx(c, rel=1e-15)

    def test_one_bessel_column_per_point(self, monkeypatch):
        # the column lives on the SpectralParams: a point's solve and moments compute it once,
        # and nothing is kept across points
        special = _scipy("special")
        ive, calls = special.ive, []

        def counted(order, x):
            if np.ndim(order):
                calls.append(order)
            return ive(order, x)

        monkeypatch.setattr(special, "ive", counted)
        sp = SpectralParams(m=6, n=13, model=ModelParams(1.3, 0.7))
        x = solve_gci(sp)
        compute_hydro_coeffs(x, sp)
        assert len(calls) == 1
        compute_hydro_coeffs(x, sp)
        assert len(calls) == 1
        compute_hydro_coeffs(x, SpectralParams(m=6, n=13, model=ModelParams(1.3, 0.7)))
        assert len(calls) == 2

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_result_raises(self):
        # lambda^2/alpha^2 overflows, so ive(0, inf) = 0 leaves the right-hand side NaN
        with pytest.raises(RuntimeError, match="right-hand side is not finite"):
            solve_gci(SpectralParams(4, 7, ModelParams(1e154, 1e-3)))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_first_residual_stops_refinement(self, monkeypatch):
        # a diagonal of 5e-324 factors, but its solve overflows: no correction can mend that
        band = spectral.assemble_schur_band

        def subnormal_band(sp):
            tiny = np.zeros_like(band(sp))
            tiny[0] = 5e-324  # the diagonal, in lower band storage
            return tiny

        monkeypatch.setattr(spectral, "assemble_schur_band", subnormal_band)
        with pytest.raises(RuntimeError, match="residual (nan|inf) .* after 0 refinement steps"):
            solve_gci(SpectralParams(4, 7, UNIT))

    def test_right_hand_side_past_two_to_the_30(self):
        # ive(0, k) is NaN from k = 2^30; the i0e fallback keeps the right-hand side finite
        sp = SpectralParams(6, 13, ModelParams(40000.0, 1.0))  # k = 1.6e9
        x = solve_gci(sp)
        assert x.residual <= spectral.SOLVE_RTOL
        with pytest.raises(ArithmeticError, match="degenerate moment"):
            compute_hydro_coeffs(x, sp)
        # from k = 2^31 on, ive(n, k/2) is NaN itself
        with pytest.raises(RuntimeError, match="right-hand side is not finite"):
            solve_gci(SpectralParams(6, 13, ModelParams(50000.0, 1.0)))

    def test_singular_band_raises(self, monkeypatch):
        sp = SpectralParams(m=3, n=4, model=UNIT)
        band = assemble_schur_band
        monkeypatch.setattr(spectral, "assemble_schur_band", lambda p: np.zeros_like(band(p)))
        with pytest.raises(RuntimeError, match="not positive definite"):
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
        # L maps the real, odd class into itself, and the Schur band is L on the class with
        # the odd degrees eliminated: for y = L r, S r_even = y_even - L_eo L_oo^-1 y_odd
        for model in (UNIT, ModelParams(2.0, 0.6)):
            sp = SpectralParams(m=m, n=n, model=model)
            r = np.random.default_rng(m + n).standard_normal((m + 1, n + 1))
            r[0, ::2] = 0.0  # C_0^k = 0 for even k
            stencil = stencil_galerkin_matrix(sp)
            y = stencil_on_class(stencil, r)
            scale = np.max(np.abs(y))
            reality, oddness = CoeffMatrix(y).symmetry_defects()
            assert max(reality, oddness) <= 1e-15 * scale
            assert np.max(np.abs(y[m, ::2])) <= 1e-15 * scale
            phase = np.where(np.arange(n + 1) % 2 == 0, 1j, 1.0)
            assert np.max(np.abs((np.conj(phase) * y[m:]).imag)) <= 1e-15 * scale
            reduced = half_grid_rows(y)
            odd = np.zeros_like(r)
            odd[:, 1::2] = reduced[:, 1::2] / (sp.model.lam * np.arange(1, n + 1, 2))
            eliminated = reduced + half_grid_rows(stencil_on_class(stencil, odd))
            band = -dense_from_band(assemble_schur_band(sp), m + 2)
            got = band @ r[1:, ::2].flatten(order="F")
            want = eliminated[1:, ::2].flatten(order="F")
            assert np.max(np.abs(got - want)) <= 1e-14 * scale

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 3), (3, 2), (3, 4), (4, 5), (5, 6)])
    def test_band_is_the_dense_schur_complement(self, m, n):
        # odd degrees couple to each other only through the diagonal -lam k; eliminating them
        # from the dense reduced operator gives the band (m <= 4: two blocks share band rows)
        for model in (UNIT, ModelParams(2.0, 0.6), ModelParams(0.2, 5.0)):
            sp = SpectralParams(m=m, n=n, model=model)
            a, degree = reduced_matrix(sp)
            even, odd = degree % 2 == 0, degree % 2 == 1
            a_oo = a[np.ix_(odd, odd)]
            assert np.array_equal(a_oo, np.diag(-model.lam * degree[odd]))
            schur = a[np.ix_(even, even)] - a[np.ix_(even, odd)] @ np.linalg.solve(
                a_oo, a[np.ix_(odd, even)])
            band = -dense_from_band(assemble_schur_band(sp), m + 2)
            assert np.max(np.abs(band - schur)) <= 1e-13 * np.max(np.abs(schur))

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (1, 4), (2, 3), (3, 2), (3, 4), (4, 5)])
    def test_schur_complement_is_symmetric_negative_definite(self, m, n):
        # the transport part of L is antisymmetric in L^2(mu): on the half grid A_oe = -W A_eo^T,
        # W = 2 on the odd unknowns at j = 0 (r_0 stands for C_0 alone) and 1 elsewhere, so
        # S = -lam E - A_eo (lam O)^-1 W A_eo^T; checked on the dense reduced operator alone
        for lam in LOG_LATTICE:
            for alpha in LOG_LATTICE:
                sp = SpectralParams(m=m, n=n, model=ModelParams(lam, alpha))
                a, degree = reduced_matrix(sp)
                even, odd = degree % 2 == 0, degree % 2 == 1
                a_eo, a_oe = a[np.ix_(even, odd)], a[np.ix_(odd, even)]
                w = np.where(np.arange(np.sum(odd)) % (m + 1) == 0, 2.0, 1.0)  # j = 0..m per degree
                assert np.max(np.abs(a_oe + w[:, None] * a_eo.T)) <= 1e-15 * np.max(np.abs(a_eo))
                schur = a[np.ix_(even, even)] - a_eo @ np.linalg.solve(a[np.ix_(odd, odd)], a_oe)
                assert np.max(np.abs(schur - schur.T)) <= 1e-15 * np.max(np.abs(schur))
                np.linalg.cholesky(-schur)  # raises LinAlgError unless -S is positive definite
                assert np.min(np.linalg.eigvalsh(-schur)) > 0.0

    @pytest.mark.parametrize("m,n", [(6, 13), (12, 25), (30, 61), (60, 121)])
    def test_energy_identity(self, m, n):
        # <psi, L psi>_mu keeps only the Ornstein-Uhlenbeck part, -lam sum k |C_j^k|^2, and
        # <psi, -sin>_mu = -gamma1
        for model in (UNIT, ModelParams(2.0, 0.5), ModelParams(0.5, 2.0), ModelParams(5.0, 0.2),
                      ModelParams(0.2, 5.0)):
            sp = SpectralParams(m=m, n=n, model=model)
            x = solve_gci(sp)
            energy = model.lam * np.sum(np.arange(n + 1) * np.abs(x.entries) ** 2)
            gamma1 = compute_hydro_coeffs(x, sp).gamma1
            assert abs(gamma1 - energy) <= 1e-13 * abs(gamma1)

    @pytest.mark.parametrize(
        "m,n", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (6, 13), (10, 21)]
    )
    def test_matches_dense_least_norm_oracle(self, m, n):
        for model in (UNIT, ModelParams(2.0, 0.6), ModelParams(5.0, 0.2), ModelParams(0.2, 5.0)):
            sp = SpectralParams(m=m, n=n, model=model)
            oracle = least_norm_oracle(sp)
            x = solve_gci(sp)
            assert np.max(np.abs(x.entries - oracle.entries)) < 1e-10
            c2 = compute_hydro_coeffs(x, sp).c2
            assert abs(c2 - compute_hydro_coeffs(oracle, sp).c2) < 1e-12

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (6, 12)])
    def test_small_odd_pivots_are_refined_away(self, m, n, monkeypatch):
        # at small lam and large alpha the odd pivots -lam k are small against the coupling,
        # and at even n the first Schur solve leaves a residual of 1e-8 to 7e-8
        sp = SpectralParams(m=m, n=n, model=ModelParams(0.02, 50.0))
        x = solve_gci(sp)
        assert x.residual <= spectral.SOLVE_RTOL
        oracle = least_norm_oracle(sp).entries
        assert np.max(np.abs(x.entries - oracle)) < 1e-10 * np.max(np.abs(oracle))
        monkeypatch.setattr(spectral, "REFINE_STEPS", 0)
        with pytest.raises(RuntimeError, match="after 0 refinement steps"):
            solve_gci(sp)

    def test_pivot_growth_is_refined_away(self):
        # partial pivoting grew the LU factors of the full half-grid band here (first residual
        # 5e-7, refined away); the Cholesky factor of the even-degree Schur band does not pivot
        # and meets SOLVE_RTOL at its first solve
        sp = SpectralParams(m=120, n=61, model=ModelParams(5.0, 0.2))
        x = solve_gci(sp)
        assert x.residual <= spectral.SOLVE_RTOL
        assert x.symmetry_defects() == (0.0, 0.0)
        assert mu_mean(x, sp) == 0.0
        assert compute_hydro_coeffs(x, sp).c2 == pytest.approx(0.9975996795, rel=1e-9)

    def test_hard_corner_reconstructs_on_the_residual_grid(self):
        # a plain complex LU of the full system left 1.1e-2 imaginary residue here
        sp = SpectralParams(m=30, n=61, model=ModelParams(2.0, 0.5))
        x = solve_gci(sp)
        field = psi_on_grid(x, sp, Grid2D(31, -5.0, 5.0, 51))  # `ptwa residual` at delta 0.2
        assert residual_inf(field, sp.model) == pytest.approx(3.6277, rel=1e-4)


class TestFactored:
    @pytest.mark.parametrize("m,n", [(6, 9), (12, 25), (30, 61)])
    def test_gamma2_is_the_first_moment_of_its_adjoint(self, m, n):
        # L* = R L R in L^2(mu), R: kappa -> -kappa, and R fixes functions of theta; so phi2
        # with L phi2 = -sin cos, whose half grid is sine_projection(sp, 2)/2 in degree 0, has
        # <sin, phi2>_mu = <sin cos, psi>_mu = gamma2 (the adjoint of gamma2, Giles & Suli,
        # Acta Numerica 2002).  On the Galerkin span this is A_oe = -W A_eo^T.
        for lam, alpha in [(1.0, 1.0), (2.0, 0.5), (0.5, 2.0), (0.2, 5.0), (5.0, 0.2),
                           (0.01, 100.0), (3.0, 0.5)]:
            sp = SpectralParams(m=m, n=n, model=ModelParams(lam, alpha))
            f = np.zeros((m + 1, n + 1))
            f[:, 0] = sine_projection(sp, 2) / 2.0
            r, residual = spectral._factored(sp)(f)
            assert residual <= spectral.SOLVE_RTOL
            gamma2 = compute_hydro_coeffs(solve_gci(sp), sp).gamma2
            got = sine_moment(CoeffMatrix(class_member(r)), sp, 1)
            assert got == pytest.approx(gamma2, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("m,n", [(3, 4), (5, 6), (12, 24)])
    def test_right_hand_side_with_odd_degrees(self, m, n):
        # the first solve of assemble_rhs skips the Schur step's odd part; a random class
        # right-hand side takes it.  The solve promises ||L r - f|| <= SOLVE_RTOL ||f|| in
        # _half_norm (max-norm errors reach 4e-10 max|f| at lam = 0.01, alpha = 100); the
        # stencil oracle evaluates L another way, which moves that ratio by about 1e-13
        for seed, model in enumerate((UNIT, ModelParams(2.0, 0.6), ModelParams(0.2, 5.0),
                                      ModelParams(0.01, 100.0))):
            sp = SpectralParams(m=m, n=n, model=model)
            f = np.random.default_rng(seed).standard_normal((m + 1, n + 1))
            f[0, ::2] = 0.0  # not equations: r_0^e = 0 is pinned
            r, residual = spectral._factored(sp)(f)
            assert residual <= spectral.SOLVE_RTOL
            assert np.all(r[0, ::2] == 0.0)
            back = half_grid_rows(stencil_on_class(stencil_galerkin_matrix(sp), r))
            assert spectral._half_norm(back - f) <= 1.01 * spectral.SOLVE_RTOL * spectral._half_norm(f)


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
            (th.reshape(2, 3), ka[:3]),  # (2, 3) x (3,): theta's nodes flattened for the Fourier sum
            (g.theta[:, None], g.kappa),  # (n_theta, 1) x (n_kappa,)
        ]
        for theta, kappa in cases:
            want = reference(theta, kappa)
            got = reconstruct_psi(x, sp, theta, kappa)
            assert np.shape(got) == np.shape(want)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
        assert isinstance(reconstruct_psi(x, sp, 0.7, -1.2), float)
        assert np.array_equal(psi_on_grid(x, sp, g).values, reconstruct_psi(x, sp, *cases[-1]))

    def test_grid_fourier_table_is_model_free_and_read_only(self, small_solution):
        # psi_on_grid takes exp(i j theta) from a table cached per (grid, m); a second model
        # on the same grid must reconstruct bit for bit as the uncached evaluator does
        x, sp = small_solution
        g = Grid2D(16, -3.0, 3.0, 11)
        psi_on_grid(x, sp, g)
        other = SpectralParams(sp.m, sp.n, ModelParams(0.7, 1.3))
        y = solve_gci(other)
        want = reconstruct_psi(y, other, g.theta[:, None], g.kappa)
        assert np.array_equal(psi_on_grid(y, other, g).values, want)
        table = spectral._grid_fourier(g, sp.m)
        assert table.shape == (16, 1, sp.n_fourier) and not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0, 0] = 0.0

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


def test_the_only_caches_are_model_free():
    # one table per truncation (m, n) and one Fourier table per (grid, m); the Bessel column,
    # which depends on lam^2/alpha^2, lives on its SpectralParams and not in a module cache
    cached = {name for name, value in vars(spectral).items()
              if hasattr(value, "cache_info") and value.__module__ == spectral.__name__}
    assert cached == {"_structure", "_grid_fourier"}
    sp = SpectralParams(m=4, n=7, model=UNIT)
    table = spectral._structure(sp.m, sp.n)
    assert spectral._structure(4, 7) is table and not any(a.flags.writeable for a in table)
    assert not sp._bessel_column.flags.writeable
