"""Feynman-Kac Monte-Carlo oracle for the collisional invariant."""

import math
import warnings

import numpy as np
import pytest

from ptwa import montecarlo
from ptwa.equilibrium import ModelParams, seeded_stream
from ptwa.hydro import compute_hydro_coeffs
from ptwa.montecarlo import OracleConfig, _integrate_sin, feynman_kac_psi, mc_c2

UNIT = ModelParams(1.0, 1.0)

# float.hex of (estimate, std_error, tail) recorded from the per-chunk noise
# matrix implementation that the streamed kernel replaced; the kernel keeps
# each element's arithmetic, so these must not move by a bit.
PINNED = {
    # lambda = 0.7 is not a power of two, so (t * -lam) * dt differs from t * (-lam * dt)
    "odd_paths": (
        OracleConfig(model=ModelParams(0.7, 1.3), dt=5e-3, t_final=15.0, paths=201, seed=5),
        0.5, 1.0, 0,
        ("0x1.0cd786e488519p+0", "0x1.508428912fc6cp-3", "0x1.31ab6f108e925p-5"),
    ),
    "remainder_chunk": (
        OracleConfig(model=UNIT, dt=5e-3, t_final=10.0, paths=4101, seed=7), 1.0, -0.5, 0,
        ("0x1.2eed52c1ad0cap-1", "0x1.6b9dc8bdae5dcp-7", "0x1.ce535a94a2904p-10"),
    ),
    "stream_offset": (
        OracleConfig(model=ModelParams(2.0, 0.5), dt=5e-3, t_final=10.0, paths=300, seed=3),
        -2.0, 0.8, 1234,
        ("-0x1.990a4baf00466p+0", "0x1.8c3a05db34f31p-20", "0x1.05ee3d908383dp-14"),
    ),
}


def quick_cfg(paths=2000, dt=5e-3, t_final=20.0, seed=11):
    return OracleConfig(model=UNIT, dt=dt, t_final=t_final, paths=paths, seed=seed)


def simulate_linear_sde(cfg: OracleConfig, theta0: float, kappa0: float, stream=0, sign=1.0):
    """One scalar Euler-Maruyama trajectory, driven by sign * the noise of `stream`.

    The per-path oracle for the fused kernel: returns (t, theta, kappa) arrays
    of length n_steps + 1, theta unwrapped.
    """
    lam, alpha = cfg.model.lam, cfg.model.alpha
    n = cfg.n_steps
    noise = sign * seeded_stream(cfg.seed, stream).standard_normal(n) * math.sqrt(2.0 * cfg.dt) * alpha
    theta = np.empty(n + 1)
    kappa = np.empty(n + 1)
    theta[0], kappa[0] = theta0, kappa0
    for i in range(n):
        theta[i + 1] = theta[i] + kappa[i] * cfg.dt
        kappa[i + 1] = kappa[i] - lam * (math.sin(theta[i]) + kappa[i]) * cfg.dt + noise[i]
    t = cfg.dt * np.arange(n + 1)
    return t, theta, kappa


class TestOracleConfig:
    def test_rejects_coarse_dt(self):
        with pytest.raises(ValueError):
            OracleConfig(model=UNIT, dt=0.05, t_final=40.0, paths=100, seed=0)

    def test_rejects_short_horizon(self):
        with pytest.raises(ValueError):
            OracleConfig(model=UNIT, dt=5e-3, t_final=5.0, paths=100, seed=0)

    @pytest.mark.parametrize("t_final", [math.inf, math.nan])
    def test_rejects_non_finite_horizon(self, t_final):
        with pytest.raises(ValueError, match="finite"):
            OracleConfig(model=UNIT, dt=5e-3, t_final=t_final, paths=100, seed=0)

    def test_rejects_single_path(self):
        with pytest.raises(ValueError):
            OracleConfig(model=UNIT, dt=5e-3, t_final=40.0, paths=1, seed=0)

    @pytest.mark.parametrize("paths", [5.5, 64.0, True])
    def test_rejects_a_path_count_that_is_not_an_integer(self, paths):
        # paths=5.5 was built, then failed with a TypeError inside numpy at the first probe
        with pytest.raises(ValueError, match="integer"):
            OracleConfig(model=UNIT, dt=5e-3, t_final=40.0, paths=paths, seed=0)

    def test_numpy_integer_path_count(self):
        cfg = OracleConfig(model=UNIT, dt=5e-3, t_final=10.0, paths=np.int32(8), seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = feynman_kac_psi(quick_cfg(paths=8, t_final=10.0, seed=4), 1.0, 0.5)
            assert feynman_kac_psi(cfg, 1.0, 0.5) == expected

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
    def test_rejects_seed_outside_the_philox_key(self, seed):
        with pytest.raises(ValueError, match="seed"):
            OracleConfig(model=UNIT, dt=5e-3, t_final=40.0, paths=100, seed=seed)

    def test_n_steps(self):
        assert quick_cfg(dt=5e-3, t_final=20.0).n_steps == 4000


class TestSimulateLinearSde:
    def test_fixed_point_without_noise(self):
        cfg = OracleConfig(
            model=ModelParams(1.0, 1e-12), dt=5e-3, t_final=10.0, paths=2, seed=0
        )
        t, theta, kappa = simulate_linear_sde(cfg, 0.0, 0.0)
        assert np.allclose(theta, 0.0, atol=1e-9)
        assert np.allclose(kappa, 0.0, atol=1e-9)

    def test_damped_relaxation_without_noise(self):
        # starting off-angle with alpha ~ 0, the pendulum decays to the origin mod 2 pi
        cfg = OracleConfig(
            model=ModelParams(1.0, 1e-12), dt=2e-3, t_final=80.0, paths=2, seed=0
        )
        t, theta, kappa = simulate_linear_sde(cfg, 0.0, 1.5)
        assert abs(kappa[-1]) < 1e-3
        assert abs(math.sin(theta[-1])) < 1e-3

    def test_stationary_variance(self):
        cfg = OracleConfig(model=ModelParams(1.0, 1.0), dt=5e-3, t_final=4000.0, paths=2, seed=3)
        _, _, kappa = simulate_linear_sde(cfg, 0.0, 0.0)
        burn = len(kappa) // 10
        assert np.var(kappa[burn:]) == pytest.approx(1.0, rel=0.05)


class TestFusedKernel:
    @pytest.mark.filterwarnings("ignore:horizon")  # the lambda=2 case is short; only its bits matter
    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_pinned_bits(self, case):
        cfg, theta0, kappa0, offset, expected = PINNED[case]
        res = feynman_kac_psi(cfg, theta0, kappa0, stream_offset=offset)
        got = tuple(float.hex(res[k]) for k in ("estimate", "std_error", "tail"))
        assert got == expected

    def test_blocks_change_no_bit(self, monkeypatch):
        cfg = quick_cfg(paths=21, t_final=10.0)  # 10 pairs, 2000 steps
        assert cfg.n_steps % 7 != 0
        ref = feynman_kac_psi(cfg, 0.4, -0.9, stream_offset=5)
        monkeypatch.setattr(montecarlo, "CHUNK_PAIRS", 3)
        monkeypatch.setattr(montecarlo, "NOISE_BLOCK", 7)
        monkeypatch.setattr(montecarlo, "ROW_TILE", 2)
        assert feynman_kac_psi(cfg, 0.4, -0.9, stream_offset=5) == ref

    def test_matches_scalar_oracle(self):
        cfg = OracleConfig(model=ModelParams(2.0, 0.5), dt=5e-3, t_final=10.0, paths=8, seed=4)
        offset, pairs = 17, 4
        integral, tail = _integrate_sin(
            cfg, 0.6, -1.1, [seeded_stream(cfg.seed, offset + p) for p in range(pairs)]
        )
        assert integral.shape == tail.shape == (2 * pairs,)
        for p in range(pairs):
            for half, sign in ((0, 1.0), (pairs, -1.0)):
                _, theta, _ = simulate_linear_sde(cfg, 0.6, -1.1, stream=offset + p, sign=sign)
                s = np.sin(theta)
                trapezoid = cfg.dt * (0.5 * s[0] + s[1:-1].sum() + 0.5 * s[-1])
                assert integral[half + p] == pytest.approx(trapezoid, abs=1e-12)
                assert tail[half + p] == pytest.approx(s[-1], abs=1e-12)


class TestFeynmanKacPsi:
    def test_origin_is_exactly_zero(self):
        res = feynman_kac_psi(quick_cfg(paths=200), 0.0, 0.0)
        # antithetic pairing over the mirror symmetry makes psi(0,0) = 0 exact
        assert res["estimate"] == pytest.approx(0.0, abs=1e-13)

    def test_oddness_is_exact(self):
        cfg = quick_cfg(paths=400)
        plus = feynman_kac_psi(cfg, 0.7, 1.2)
        minus = feynman_kac_psi(cfg, -0.7, -1.2)
        assert minus["estimate"] == pytest.approx(-plus["estimate"], abs=1e-13)
        assert minus["std_error"] == pytest.approx(plus["std_error"], abs=1e-13)

    def test_determinism(self):
        a = feynman_kac_psi(quick_cfg(), 0.5, 1.0)
        b = feynman_kac_psi(quick_cfg(), 0.5, 1.0)
        assert a == b

    @pytest.mark.parametrize("offset", [-1, 2**64, 2**64 - 1])  # the last reaches 2**64 at pair 1
    def test_stream_outside_the_philox_key_raises(self, offset):
        with pytest.raises(ValueError, match="Philox key"):
            feynman_kac_psi(quick_cfg(paths=4, t_final=10.0), 1.0, 0.0, stream_offset=offset)

    def test_stream_offset_decorrelates(self):
        a = feynman_kac_psi(quick_cfg(paths=400), 0.5, 1.0)
        b = feynman_kac_psi(quick_cfg(paths=400), 0.5, 1.0, stream_offset=400)
        assert a["estimate"] != b["estimate"]

    def test_matches_spectral(self, medium_solution):
        from ptwa.spectral import reconstruct_psi

        x, sp = medium_solution
        cfg = quick_cfg(paths=20000, t_final=40.0, seed=21)
        res = feynman_kac_psi(cfg, 0.5, 1.0)
        ref = reconstruct_psi(x, sp, 0.5, 1.0)
        assert abs(res["estimate"] - ref) <= 3.0 * res["std_error"]

    def test_dt_robustness(self):
        coarse = feynman_kac_psi(quick_cfg(paths=4000, dt=1e-2, seed=9), 1.0, 0.0)
        fine = feynman_kac_psi(quick_cfg(paths=4000, dt=5e-3, seed=9), 1.0, 0.0)
        combined = math.hypot(coarse["std_error"], fine["std_error"])
        assert abs(coarse["estimate"] - fine["estimate"]) <= 3.0 * combined

    def test_adequate_horizon_is_quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            feynman_kac_psi(quick_cfg(paths=2000, t_final=40.0), 1.0, 0.0)

    @pytest.mark.parametrize("paths", [2, 3])
    def test_one_pair_is_quiet(self, paths):
        # one antithetic pair has no spread: no standard error and no horizon check
        cfg = OracleConfig(model=ModelParams(1.0, 0.1), dt=5e-3, t_final=10.0, paths=paths, seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = feynman_kac_psi(cfg, 1.0, 0.0)
            mc = mc_c2(cfg, n_grid_theta=6, n_grid_kappa=2)  # with a node at theta = 0
        assert res["std_error"] == math.inf and mc.std_error == math.inf
        assert math.isfinite(res["estimate"]) and math.isfinite(res["tail"])

    def test_short_horizon_warns(self):
        # weak noise mixes slowly: E[sin theta] still oscillates at the minimum horizon
        cfg = OracleConfig(model=ModelParams(1.0, 0.1), dt=5e-3, t_final=10.0, paths=1000, seed=2)
        with pytest.warns(RuntimeWarning, match="horizon"):
            feynman_kac_psi(cfg, 1.0, 0.0)


class TestMcC2:
    def test_gamma1_significant_and_deterministic(self):
        cfg = quick_cfg(paths=600, t_final=30.0, seed=17)
        a = mc_c2(cfg, n_grid_theta=8, n_grid_kappa=4)
        b = mc_c2(cfg, n_grid_theta=8, n_grid_kappa=4)
        assert a == b
        assert float.hex(a.c2) == "0x1.6b00ab92bd674p-3"  # recorded before the streamed kernel
        assert abs(a.gamma1) > 3.0 * a.gamma1_std_error

    @pytest.mark.filterwarnings("ignore:horizon")  # a short horizon; only the calls matter
    @pytest.mark.parametrize("n_grid_theta, n_grid_kappa, calls", [(8, 4, 24), (3, 3, 6)])
    def test_no_path_where_sin_theta_is_zero(self, n_grid_theta, n_grid_kappa, calls, monkeypatch):
        # theta = -pi and theta = 0 weigh psi by sin(theta) = 0 in both sums
        thetas = []

        def counting_psi(cfg, theta0, kappa0, stream_offset=0):
            thetas.append(theta0)
            return feynman_kac_psi(cfg, theta0, kappa0, stream_offset=stream_offset)

        monkeypatch.setattr(montecarlo, "feynman_kac_psi", counting_psi)
        mc_c2(quick_cfg(paths=4, t_final=10.0), n_grid_theta, n_grid_kappa)
        assert len(thetas) == calls
        assert min(abs(math.sin(t)) for t in thetas) > 0.5

    @pytest.mark.slow
    def test_close_to_spectral(self, medium_solution):
        x, sp = medium_solution
        cfg = quick_cfg(paths=2000, t_final=40.0, seed=29)
        res = mc_c2(cfg, n_grid_theta=12, n_grid_kappa=6)
        ref = compute_hydro_coeffs(x, sp).c2
        assert res.c2 == pytest.approx(ref, rel=0.15)

    @pytest.mark.parametrize("n_grid_theta", [1, 2, 4])
    def test_grid_without_sin_cos_nodes_raises_before_any_path(self, n_grid_theta, monkeypatch):
        # the nodes are multiples of pi/2, where the gamma2 weight sin cos vanishes
        def no_paths(*args, **kwargs):
            raise AssertionError("feynman_kac_psi ran")

        monkeypatch.setattr(montecarlo, "feynman_kac_psi", no_paths)
        with pytest.raises(ValueError, match="sin cos"):
            mc_c2(quick_cfg(paths=10), n_grid_theta=n_grid_theta, n_grid_kappa=4)

    @pytest.mark.parametrize("n_grid_theta, n_grid_kappa", [(0, 4), (-3, 4), (6.0, 4), (6, 0),
                                                            (6, 2.5)])
    def test_grid_sizes_must_be_positive_integers(self, n_grid_theta, n_grid_kappa, monkeypatch):
        # n_grid_theta = 0 raised ZeroDivisionError from the pi/2 node check
        def no_paths(*args, **kwargs):
            raise AssertionError("feynman_kac_psi ran")

        monkeypatch.setattr(montecarlo, "feynman_kac_psi", no_paths)
        with pytest.raises(ValueError, match="positive integers"):
            mc_c2(quick_cfg(paths=10), n_grid_theta=n_grid_theta, n_grid_kappa=n_grid_kappa)

    def test_underflowing_noise_square_is_a_value_error(self, monkeypatch):
        # the Von Mises weights divided by alpha^2 = 0.0 and raised ZeroDivisionError
        def no_paths(*args, **kwargs):
            raise AssertionError("feynman_kac_psi ran")

        monkeypatch.setattr(montecarlo, "feynman_kac_psi", no_paths)
        cfg = OracleConfig(model=ModelParams(1.0, 1e-200), dt=5e-3, t_final=10.0, paths=4, seed=0)
        with pytest.raises(ValueError, match="underflow"):
            mc_c2(cfg, n_grid_theta=3, n_grid_kappa=3)

    def test_vanishing_gamma1_raises(self, monkeypatch):
        # psi = 0 at every node leaves nothing to divide gamma2 by
        def zero_psi(cfg, theta0, kappa0, stream_offset=0):
            return {"estimate": 0.0, "std_error": 0.01}

        monkeypatch.setattr(montecarlo, "feynman_kac_psi", zero_psi)
        with pytest.raises(ZeroDivisionError, match="gamma1 vanished"):
            mc_c2(quick_cfg(paths=10), n_grid_theta=3, n_grid_kappa=3)

    def test_numpy_integer_grid_sizes(self, monkeypatch):
        def fake_psi(cfg, theta0, kappa0, stream_offset=0):
            return {"estimate": math.sin(theta0) + kappa0, "std_error": 0.01}

        monkeypatch.setattr(montecarlo, "feynman_kac_psi", fake_psi)
        cfg = quick_cfg(paths=10)
        assert mc_c2(cfg, np.int64(8), np.uint64(4)) == mc_c2(cfg, 8, 4)

    def test_std_error_carries_the_covariance_of_the_two_sums(self, monkeypatch):
        # gamma1 and gamma2 weigh the same psi estimates, so the error of c2 is the
        # gradient of c2 in each point's psi (central differences) times that point's error
        bump, errors = {}, {}

        def fake_psi(cfg, theta0, kappa0, stream_offset=0):
            point = stream_offset // cfg.paths
            errors[point] = 0.01 * (1.0 + theta0**2 + kappa0**2)
            estimate = math.sin(theta0) * (1.0 + 0.5 * math.cos(theta0)) + 0.2 * kappa0
            return {"estimate": estimate + bump.get(point, 0.0), "std_error": errors[point]}

        monkeypatch.setattr(montecarlo, "feynman_kac_psi", fake_psi)
        cfg, h = quick_cfg(paths=10), 1e-4
        res = mc_c2(cfg, n_grid_theta=8, n_grid_kappa=4)
        variance = 0.0
        for point in list(errors):  # every point mc_c2 estimates
            bump[point] = h
            up = mc_c2(cfg, n_grid_theta=8, n_grid_kappa=4).c2
            bump[point] = -h
            down = mc_c2(cfg, n_grid_theta=8, n_grid_kappa=4).c2
            del bump[point]
            variance += ((up - down) / (2.0 * h) * errors[point]) ** 2
        assert res.std_error == pytest.approx(math.sqrt(variance), rel=1e-6)
