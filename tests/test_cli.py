"""Command-line interface: emitted files, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ptwa
from ptwa.cli import _value_list, main
from ptwa.equilibrium import ModelParams, kappa_cutoff
from ptwa.grid import Grid2D
from ptwa.spectral import SpectralParams, psi_on_grid, solve_gci


def read_lines(path):
    return path.read_text().splitlines()


class TestUsageErrors:
    def test_negative_lambda(self, capsys):
        assert main(["gci", "--lambda", "-1"]) == 1

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_empty_alpha_range(self):
        assert main(["coeffs", "--alpha-range", ""]) == 1

    def test_bad_range_spec(self):
        assert main(["residual", "--lambda", "1:2"]) == 1

    def test_non_numeric_range(self):
        assert main(["residual", "--lambda", "a:b:c"]) == 1

    @pytest.mark.filterwarnings("error")
    def test_gci_rejects_non_finite(self, tmp_path):
        for flags in (["--alpha", "inf"], ["--lambda", "nan"], ["--delta", "inf"]):
            assert main(["gci", *flags, "-m", "4", "-n", "9", "--out", str(tmp_path / "g")]) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    def test_residual_rejects_non_finite(self, tmp_path):
        for flags in (["--alpha", "1,inf"], ["--lambda", "nan,1"], ["--delta", "inf"]):
            argv = ["residual", *flags, "-m", "4", "-n", "9", "--out", str(tmp_path / "r.csv")]
            assert main(argv) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    def test_coeffs_rejects_non_finite(self, tmp_path):
        for flags in (["--alpha-range", "1,inf"], ["--alpha-range", "1", "--lambda", "inf"],
                      ["--alpha-range", "1", "--mc-check", "--mc-tfinal", "inf"]):
            argv = ["coeffs", *flags, "-m", "4", "-n", "9", "--out", str(tmp_path / "c.csv")]
            assert main(argv) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command",
        [["gci"], ["residual", "--lambda", "1", "--alpha", "1"], ["coeffs", "--alpha-range", "1"]],
    )
    def test_unwritable_output_is_a_one_line_error(self, command, tmp_path, capsys):
        missing = tmp_path / "no" / "such"
        assert main([*command, "-m", "4", "-n", "9", "--out", str(missing / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cannot write output") and str(missing) in err
        assert len(err.splitlines()) == 1


def test_range_values_are_the_decimal_ones():
    # stepped in binary floating point this range held 0.6000000000000001
    assert _value_list("0.4:1.0:0.2") == [0.4, 0.6, 0.8, 1.0]


class TestGci:
    def test_writes_files_and_reports(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            ["gci", "--lambda", "1", "--alpha", "1", "-m", "6", "-n", "13", "--out", str(out)]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "algebraic residual" in captured
        tail = [line for line in captured.splitlines() if line.startswith("spectral tail:")]
        assert len(tail) == 1
        norms = [float(word.rstrip(",")) for word in tail[0].split() if word[0].isdigit()]
        assert len(norms) == 2 and all(math.isfinite(v) for v in norms)
        coeffs = read_lines(tmp_path / "run_coeffs.csv")
        psi = read_lines(tmp_path / "run_psi.csv")
        assert coeffs[0].startswith("# config:") and coeffs[1] == "j,k,re,im"
        assert psi[0].startswith("# config:") and psi[1] == "theta,kappa,value"
        # rows with |kappa| beyond the cutoff are not psi; the header says where that is
        fields = dict(item.split("=") for item in psi[0].removeprefix("# config: ").split(","))
        assert float(fields["kappa_cutoff"]) == kappa_cutoff(ModelParams(1.0, 1.0))
        assert len(coeffs) == 2 + 13 * 14  # (2m+1)(n+1) coefficient rows

    @pytest.mark.filterwarnings("error")
    def test_non_finite_psi_exits_numerical(self, tmp_path, capsys):
        # lambda^2/alpha^2 = 625: the psi dump would hold NaN near theta = pi
        out = tmp_path / "run"
        assert main(["gci", "--lambda", "5", "--alpha", "0.2", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure: reconstruction is not finite")
        assert not (tmp_path / "run_psi.csv").exists()
        assert not (tmp_path / "run_coeffs.csv").exists()

    @pytest.mark.parametrize("command", ["gci", "residual"])
    def test_non_real_psi_exits_numerical(self, command, tmp_path, capsys):
        # at lambda = 3, alpha = 0.5 1/sqrt(M) amplifies coefficient round-off near theta = pi
        out = tmp_path / "run"
        argv = [command, "--lambda", "3", "--alpha", "0.5", "-m", "12", "-n", "25"]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure: reconstruction has non-real")
        assert list(tmp_path.iterdir()) == []

    def test_files_hold_the_solved_values(self, tmp_path):
        out = tmp_path / "run"
        argv = ["gci", "--lambda", "1.5", "--alpha", "0.8", "-m", "6", "-n", "13", "--delta", "0.5"]
        assert main([*argv, "--out", str(out)]) == 0
        sp = SpectralParams(m=6, n=13, model=ModelParams(1.5, 0.8))
        x = solve_gci(sp)
        coeffs = np.loadtxt(tmp_path / "run_coeffs.csv", delimiter=",", skiprows=2)
        j, k = np.meshgrid(sp.fourier_orders(), np.arange(sp.n_hermite), indexing="ij")
        assert np.array_equal(coeffs[:, :2], np.column_stack([j.ravel(), k.ravel()]))
        shape = x.entries.shape
        assert coeffs[:, 2].reshape(shape).tobytes() == x.entries.real.tobytes()
        assert coeffs[:, 3].reshape(shape).tobytes() == x.entries.imag.tobytes()
        grid = Grid2D(n_theta=13, kappa_min=-5.0, kappa_max=5.0, n_kappa=21)  # delta 0.5
        psi = np.loadtxt(tmp_path / "run_psi.csv", delimiter=",", skiprows=2)
        assert psi[:, 2].reshape(13, 21).tobytes() == psi_on_grid(x, sp, grid).values.tobytes()
        assert np.array_equal(psi[:, :2], np.column_stack([a.ravel() for a in grid.meshgrid()]))

    def test_even_m_accepted(self, tmp_path):
        # even truncation widths are legitimate (the reference resolutions are even)
        assert main(["gci", "-m", "4", "-n", "9", "--out", str(tmp_path / "x")]) == 0


class TestResidual:
    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "res.csv"
        code = main(
            ["residual", "--lambda", "0.5,1", "--alpha", "1,2", "-m", "6", "-n", "13",
             "--out", str(out)]
        )
        assert code == 0
        lines = read_lines(out)
        assert lines[1] == "lambda,alpha,residual_inf"
        assert len(lines) == 2 + 4

    def test_range_syntax(self, tmp_path):
        out = tmp_path / "res.csv"
        code = main(
            ["residual", "--lambda", "1", "--alpha", "0.5:1.5:0.5", "-m", "6", "-n", "13",
             "--out", str(out)]
        )
        assert code == 0
        assert len(read_lines(out)) == 2 + 3

    # at (12, 25) the residuals of these points match the (30, 61) ones to 3 digits
    def test_check_passes_on_the_verifier_trend(self, tmp_path, capsys):
        code = main(
            ["residual", "--lambda", "1,2", "--alpha", "1,2", "-m", "12", "-n", "25", "--check",
             "--out", str(tmp_path / "res.csv")]
        )
        assert code == 0
        assert "check passed: residual increases with lambda and decreases with alpha" in (
            capsys.readouterr().out
        )

    def test_check_fails_when_lambda_runs_backwards(self, tmp_path, capsys):
        code = main(
            ["residual", "--lambda", "2,1", "--alpha", "1,2", "-m", "12", "-n", "25", "--check",
             "--out", str(tmp_path / "res.csv")]
        )
        assert code == 2
        assert "residual not increasing in lambda" in capsys.readouterr().out


class TestCoeffs:
    def test_sweep_and_c1_column(self, tmp_path):
        from ptwa.equilibrium import ModelParams, c1_coefficient

        out = tmp_path / "c.csv"
        code = main(
            ["coeffs", "--lambda", "1", "--alpha-range", "0.8:1.2:0.2", "-m", "6", "-n", "13",
             "--out", str(out)]
        )
        assert code == 0
        lines = read_lines(out)
        assert lines[1] == "lambda,alpha,c1,c2,gamma1,gamma2,d"
        assert len(lines) == 2 + 3
        for row in lines[2:]:
            lam, alpha, c1, c2, g1, g2, d = (float(v) for v in row.split(","))
            assert c1 == pytest.approx(c1_coefficient(ModelParams(lam, alpha)), rel=1e-12)
            assert d == pytest.approx(alpha**2 / lam**2)
            assert c2 == pytest.approx(g2 / g1, rel=1e-12)

    def test_d_column_away_from_unit_lambda(self, tmp_path):
        # at lambda = 2 the pressure alpha^2/lambda^2 differs from the curvature variance alpha^2/lambda
        out = tmp_path / "c.csv"
        code = main(
            ["coeffs", "--lambda", "2", "--alpha-range", "0.5,1", "-m", "6", "-n", "13",
             "--out", str(out)]
        )
        assert code == 0
        for row in read_lines(out)[2:]:
            lam, alpha, *_, d = (float(v) for v in row.split(","))
            assert d == alpha**2 / lam**2

    def test_degenerate_point_row(self, tmp_path, capsys):
        # at lambda = 200, alpha = 1 the (6, 13) solve has gamma1 = 0: the moments are NaN
        from ptwa.equilibrium import c1_coefficient

        out = tmp_path / "c.csv"
        code = main(
            ["coeffs", "--lambda", "200", "--alpha-range", "1", "-m", "6", "-n", "13",
             "--out", str(out)]
        )
        assert code == 0
        assert "degenerate point" in capsys.readouterr().err
        lam, alpha, c1, c2, g1, g2, d = (float(v) for v in read_lines(out)[2].split(","))
        assert c1 == c1_coefficient(ModelParams(lam, alpha))
        assert all(math.isnan(v) for v in (c2, g1, g2))
        assert d == alpha**2 / lam**2

    def test_singular_band_writes_nan_row(self, tmp_path, capsys, monkeypatch):
        from ptwa import spectral

        band = spectral.assemble_band
        monkeypatch.setattr(spectral, "assemble_band", lambda sp: np.zeros_like(band(sp)))
        out = tmp_path / "c.csv"
        code = main(["coeffs", "--alpha-range", "1", "-m", "4", "-n", "7", "--out", str(out)])
        assert code == 0
        assert "banded LU is singular" in capsys.readouterr().err
        _, _, _, c2, g1, g2, d = (float(v) for v in read_lines(out)[2].split(","))
        assert all(math.isnan(v) for v in (c2, g1, g2)) and d == 1.0

    def test_pivot_growth_point_is_solved(self, tmp_path):
        # the (120, 61) band at lambda = 5, alpha = 0.2 needs one refinement step
        out = tmp_path / "c.csv"
        code = main(["coeffs", "--lambda", "5", "--alpha-range", "0.2", "-m", "120",
                     "--out", str(out)])
        assert code == 0
        _, _, _, c2, g1, g2, _ = (float(v) for v in read_lines(out)[2].split(","))
        assert c2 == pytest.approx(0.9975996795, rel=1e-9)
        assert c2 == g2 / g1

    def test_prints_spectral_tail_per_point(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code = main(["coeffs", "--lambda", "1.5", "--alpha-range", "0.5,2", "-m", "6", "-n", "13",
                     "--out", str(out)])
        assert code == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if "spectral tail:" in ln]
        assert [ln.split(":")[0] for ln in lines] == ["alpha=0.5", "alpha=2.0"]
        for line, alpha in zip(lines, (0.5, 2.0)):
            x = solve_gci(SpectralParams(6, 13, ModelParams(1.5, alpha)))
            expect = "spectral tail: |j|=m shells {:.6e}, k=n column {:.6e}".format(*x.tail_norms())
            assert line == f"alpha={alpha}: {expect}"
        assert len(read_lines(out)[1].split(",")) == 7  # no column was added

    def test_mc_check_columns(self, tmp_path):
        from ptwa.montecarlo import OracleConfig, mc_c2

        out = tmp_path / "c.csv"
        mc_flags = ["--mc-check", "--mc-paths", "200", "--mc-tfinal", "15", "--mc-grid", "3",
                    "--seed", "5"]
        code = main(
            ["coeffs", "--lambda", "0.7", "--alpha-range", "0.6,1.3", "-m", "6", "-n", "13",
             *mc_flags, "--out", str(out)]
        )
        assert code == 0
        lines = read_lines(out)
        assert lines[1] == "lambda,alpha,c1,c2,gamma1,gamma2,d,mc_c2,mc_stderr"
        for row in lines[2:]:
            lam, alpha, *_, c2_mc, se_mc = (float(v) for v in row.split(","))
            cfg = OracleConfig(ModelParams(lam, alpha), dt=5e-3, t_final=15.0, paths=200, seed=5)
            mc = mc_c2(cfg, n_grid_theta=3, n_grid_kappa=3)
            assert (c2_mc, se_mc) == (mc.c2, mc.std_error)
        # an invalid Monte-Carlo setting is a configuration error
        code = main(["coeffs", "--alpha-range", "1", "--mc-check", "--mc-dt", "0.5",
                     "--out", str(tmp_path / "bad.csv")])
        assert code == 1

    @pytest.mark.parametrize("grid", ["1", "2", "4"])
    def test_mc_grid_without_sin_cos_nodes_is_a_config_error(
        self, grid, tmp_path, capsys, monkeypatch
    ):
        # every theta node is a multiple of pi/2, so the Monte-Carlo c2 would be round-off
        def no_solve(sp):
            raise AssertionError("solved before the Monte-Carlo setting was checked")

        monkeypatch.setattr("ptwa.cli.solve_gci", no_solve)
        out = tmp_path / "c.csv"
        code = main(["coeffs", "--alpha-range", "1", "-m", "6", "-n", "13", "--mc-check",
                     "--mc-paths", "100", "--mc-tfinal", "10", "--mc-grid", grid, "--out", str(out)])
        assert code == 1
        assert "invalid configuration" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-2", str(2**64)])
    def test_seed_outside_the_philox_key_is_a_config_error(
        self, seed, tmp_path, capsys, monkeypatch
    ):
        # a seed the Philox key cannot hold would otherwise give NaN Monte-Carlo columns
        def no_solve(sp):
            raise AssertionError("solved before the seed was checked")

        monkeypatch.setattr("ptwa.cli.solve_gci", no_solve)
        out = tmp_path / "c.csv"
        code = main(["coeffs", "--alpha-range", "1", "-m", "4", "-n", "9", "--mc-check",
                     "--mc-paths", "4", "--mc-tfinal", "10", "--mc-grid", "3", "--seed", seed,
                     "--out", str(out)])
        assert code == 1
        assert "seed" in capsys.readouterr().err
        assert not out.exists()


class TestSimulate:
    def write_config(self, tmp_path, **overrides):
        cfg = dict(
            n_agents=20, box=5.0, radius=10.0, dt=0.05, t_final=2.0, seed=3, stride=10,
            include_self=True,
        )
        cfg["lambda"] = 1.0
        cfg["alpha"] = 1.0
        cfg.update(overrides)
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_stats_and_trajectory(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "stats.csv"
        traj = tmp_path / "traj.csv"
        code = main(["simulate", "--config", str(cfg), "--out", str(out), "--traj", str(traj)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "order parameter" in captured and "curvature variance" in captured
        stats = read_lines(out)
        assert stats[1] == "t,order_parameter,mean_direction,curvature_variance"
        rows = read_lines(traj)
        assert rows[1] == "t,agent_id,x1,x2,theta,kappa"
        assert len(rows) == 2 + 4 * 20  # 40 steps / stride 10 dumps x 20 agents

    def test_single_agent_order_parameter(self, tmp_path):
        cfg = self.write_config(tmp_path, n_agents=1)
        out = tmp_path / "stats.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        for row in read_lines(out)[2:]:
            assert float(row.split(",")[1]) == pytest.approx(1.0)

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "sim.json"
        bad.write_text("{not json")
        assert main(["simulate", "--config", str(bad)]) == 1

    @pytest.mark.parametrize("content", ["[1, 2]", "3", '"seed"', "null"])
    def test_config_that_is_not_an_object(self, content, tmp_path, capsys):
        bad = tmp_path / "sim.json"
        bad.write_text(content)
        assert main(["simulate", "--config", str(bad)]) == 1
        assert "bad config" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--out", "--traj"])
    def test_unwritable_output_is_a_one_line_error(self, flag, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        missing = tmp_path / "no" / "such"
        argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "stats.csv")]
        assert main([*argv, flag, str(missing / "x.csv")]) == 1  # a repeated --out wins
        err = capsys.readouterr().err
        assert err.startswith("cannot write output") and str(missing) in err

    def test_missing_field(self, tmp_path):
        bad = tmp_path / "sim.json"
        bad.write_text(json.dumps({"n_agents": 5}))
        assert main(["simulate", "--config", str(bad)]) == 1

    @pytest.mark.filterwarnings("error")
    def test_non_finite_field(self, tmp_path):
        out = tmp_path / "stats.csv"
        for field in ("box", "alpha", "t_final"):
            cfg = self.write_config(tmp_path, **{field: math.inf})  # written as Infinity
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()

    def test_t_final_below_half_a_step(self, tmp_path, capsys):
        # round(t_final / dt) = 0 steps would leave no final snapshot to report
        out = tmp_path / "stats.csv"
        for t_final in (0.01, 0.025):
            cfg = self.write_config(tmp_path, dt=0.05, t_final=t_final)
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
            assert "bad config" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value",
        [("n_agents", 2.7), ("seed", 1.9), ("stride", 2.5), ("n_agents", True), ("seed", False),
         ("stride", True), ("include_self", "false"), ("include_self", 1), ("seed", -1),
         ("seed", 2**64)],
    )
    def test_config_is_what_runs(self, field, value, tmp_path, capsys):
        # int() and bool() would run 2 agents, seed 1, stride 2 or include_self=True instead
        out = tmp_path / "stats.csv"
        cfg = self.write_config(tmp_path, **{field: value})
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_local_radius_run(self, tmp_path):
        # radius 1 in a box of 6 takes the cell-list neighbour search, not global coupling
        box = 6.0
        cfg = self.write_config(tmp_path, n_agents=60, box=box, radius=1.0, t_final=1.0, stride=5)
        files = []
        for run in ("a", "b"):
            out, traj = tmp_path / f"{run}_stats.csv", tmp_path / f"{run}_traj.csv"
            argv = ["simulate", "--config", str(cfg), "--out", str(out), "--traj", str(traj)]
            assert main(argv) == 0
            files.append((out.read_bytes(), traj.read_bytes()))
        assert files[0] == files[1]
        rows = read_lines(tmp_path / "a_traj.csv")[2:]
        assert len(rows) == 4 * 60  # 20 steps / stride 5 snapshots x 60 agents
        x = np.array([[float(v) for v in row.split(",")[2:4]] for row in rows])
        assert np.all((x >= 0.0) & (x < box))


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv_builder",
        [
            lambda d: ["gci", "-m", "5", "-n", "9", "--out", str(d / "g")],
            lambda d: ["residual", "--lambda", "1", "--alpha", "1", "-m", "5", "-n", "9",
                       "--out", str(d / "r.csv")],
            lambda d: ["coeffs", "--lambda", "1", "--alpha-range", "1.0:1.0:1.0", "-m", "5",
                       "-n", "9", "--out", str(d / "c.csv")],
        ],
    )
    def test_rerun_is_bit_identical(self, tmp_path, argv_builder):
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        d1.mkdir()
        d2.mkdir()
        assert main(argv_builder(d1)) == 0
        assert main(argv_builder(d2)) == 0
        for f1 in sorted(d1.iterdir()):
            f2 = d2 / f1.name
            assert f1.read_bytes() == f2.read_bytes()

    def test_simulate_deterministic(self, tmp_path):
        cfg = dict(
            n_agents=15, box=5.0, radius=10.0, dt=0.05, t_final=1.0, seed=3, stride=5
        )
        cfg["lambda"] = 1.0
        cfg["alpha"] = 1.0
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        outs = []
        for name in ("s1.csv", "s2.csv"):
            out = tmp_path / name
            assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


#: prints the thread count of numpy's bundled OpenBLAS after ``import ptwa.cli``
BLAS_POOL_PROBE = """
import ctypes, glob, os
import ptwa.cli
import numpy

libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
         "openblas_get_num_threads64_", "openblas_get_num_threads")
for path in sorted(libs):
    lib = ctypes.CDLL(path)
    for name in names:
        if hasattr(lib, name):
            getter = getattr(lib, name)
            getter.argtypes = []
            getter.restype = ctypes.c_int
            print(getter())
            raise SystemExit(0)
print("no-symbol")
"""


class TestThreadPin:
    def test_ptwa_num_threads_sizes_the_blas_pool(self):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        env["PTWA_NUM_THREADS"] = "1"
        src = str(Path(ptwa.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", BLAS_POOL_PROBE], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        out = proc.stdout.strip()
        if out == "no-symbol":
            pytest.skip("numpy's bundled OpenBLAS exports no thread-count getter")
        assert int(out) == 1
