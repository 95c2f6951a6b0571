"""Command-line interface: emitted files, determinism, exit codes."""

import argparse
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


def config_record(path) -> dict:
    """The '# config:' line of a CSV as a dict; fails unless it is key=value items with unique keys."""
    line = read_lines(path)[0]
    assert line.startswith("# config: ")
    items = [item.split("=") for item in line.removeprefix("# config: ").split(",")]
    assert all(len(item) == 2 for item in items), line
    assert len({key for key, _ in items}) == len(items), line
    return dict(items)


class TestConfigRecord:
    # every setting flag, under its name (--lambda is lambda), lists joined by ';'
    def test_gci(self, tmp_path):
        argv = ["gci", "--lambda", "1.5", "-m", "6", "-n", "9", "--delta", "0.5"]
        assert main([*argv, "--out", str(tmp_path / "g")]) == 0
        want = {"lambda": "1.5", "alpha": "1.0", "m": "6", "n": "9", "delta": "0.5"}
        assert config_record(tmp_path / "g_coeffs.csv") == want
        psi = config_record(tmp_path / "g_psi.csv")
        assert psi == {**want, "kappa_cutoff": str(kappa_cutoff(ModelParams(1.5, 1.0)))}

    def test_residual(self, tmp_path):
        argv = ["residual", "--lambda", "0.5,1", "--alpha", "1:2:0.5", "-m", "6", "-n", "9"]
        assert main([*argv, "--out", str(tmp_path / "r.csv")]) == 0
        assert config_record(tmp_path / "r.csv") == {
            "lambda": "0.5;1.0", "alpha": "1.0;1.5;2.0", "m": "6", "n": "9", "delta": "0.2",
            "check": "False"}

    def test_coeffs_mc_check(self, tmp_path):
        # mc_check=True alone could not reproduce the mc_c2 column
        argv = ["coeffs", "--alpha-range", "0.8,1.2", "-m", "6", "-n", "9", "--mc-check",
                "--mc-paths", "20", "--mc-tfinal", "10", "--mc-grid", "3"]
        assert main([*argv, "--out", str(tmp_path / "c.csv")]) == 0
        assert config_record(tmp_path / "c.csv") == {
            "lambda": "1.0", "alpha": "0.8;1.2", "m": "6", "n": "9", "mc_check": "True",
            "mc_paths": "20", "mc_dt": "0.005", "mc_tfinal": "10.0", "mc_grid": "3", "seed": "0"}


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [["gci", "-m", "0"], ["gci", "-n", "0"], ["gci", "--delta", "0"],
         ["gci", "--delta", "5e-324"], ["residual", "--lambda", "1,-1"],
         ["coeffs", "--alpha-range", "0.5,nan"],
         ["coeffs", "--alpha-range", "1", "--mc-check", "--mc-paths", "1"],
         ["coeffs", "--alpha-range", "1", "--mc-check", "--mc-dt", "1"],
         ["coeffs", "--alpha-range", "1", "--mc-check", "--mc-grid", "4"],
         ["residual", "--lambda", "1", "--alpha", "1e-200"], ["gci", "--lambda", "1e-200"]],
        ids=" ".join,
    )
    def test_setting_error_exits_before_any_solve(self, argv, tmp_path, capsys, monkeypatch):
        # the rule lives in the type that runs the setting; the CLI only maps its ValueError
        solved = []
        monkeypatch.setattr("ptwa.cli.solve_gci", solved.append)
        assert main([*argv, "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err.startswith("invalid configuration: ")
        assert solved == [] and list(tmp_path.iterdir()) == []

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: ptwa")

    def test_flag_that_does_not_parse_is_a_usage_error(self, capsys):
        assert main(["gci", "-m", "1.5"]) == 1
        assert "invalid int value: '1.5'" in capsys.readouterr().err

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

    @pytest.mark.parametrize("text", ["1:2:0", "2:1:-0.5"])
    def test_range_step_must_be_positive(self, text, capsys):
        with pytest.raises(argparse.ArgumentTypeError, match="range step must be positive"):
            _value_list(text)
        assert main(["residual", "--lambda", text]) == 1
        assert "range step must be positive" in capsys.readouterr().err

    def test_range_of_more_than_a_million_values(self, capsys):
        # the values were listed before any check, 10^15 of them for the second range
        with pytest.raises(argparse.ArgumentTypeError, match="has 1000001 values"):
            _value_list("1:1000001:1")
        assert main(["residual", "--lambda", "1:1e15:1"]) == 1
        assert "has 1000000000000000 values, more than 1000000" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["residual", "--lambda", "1,1,2", "--alpha", "1,2", "-m", "12", "-n", "25", "--check"],
         ["coeffs", "--alpha-range", "1,1"]],
        ids=" ".join,
    )
    def test_repeated_value_is_a_usage_error(self, argv, tmp_path, capsys):
        # the residual check wrote 6 rows and failed its trend on the repeated lambda;
        # coeffs wrote two identical rows
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 1
        assert f"repeated value in '{argv[2]}'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(argparse.ArgumentTypeError, match="repeated value"):
            _value_list("0.5,1,1.0")

    @pytest.mark.parametrize("command", [["gci"], ["residual", "--lambda", "1", "--alpha", "1"]])
    def test_grid_of_more_than_a_million_nodes(self, command, tmp_path, capsys, monkeypatch):
        # delta 0.0005 asked for 2.5e8 nodes and died in numpy after the solve
        solved = []
        monkeypatch.setattr("ptwa.cli.solve_gci", solved.append)
        argv = [*command, "-m", "4", "-n", "5", "--delta", "0.0005", "--out", str(tmp_path / "x")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == ("invalid configuration: --delta 0.0005 gives a grid of "
                       "12566 x 20001 = 251332566 nodes, more than 1000000\n")
        assert solved == [] and list(tmp_path.iterdir()) == []

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
        "flags, field",
        [(["--mc-paths", "1"], "paths"), (["--mc-dt", "1"], "dt"), (["--mc-tfinal", "1"], "t_final"),
         (["--seed", "-1"], "seed")],
        ids=["mc-paths", "mc-dt", "mc-tfinal", "seed"],
    )
    def test_monte_carlo_setting_is_checked_before_the_output_opens(
        self, flags, field, tmp_path, capsys, monkeypatch
    ):
        # the Monte-Carlo settings were checked at the first point, after the output opened,
        # so a path in a missing directory was reported in place of the bad setting
        called = []
        monkeypatch.setattr("ptwa.cli.solve_gci", called.append)
        monkeypatch.setattr("ptwa.cli.mc_c2", lambda *args, **kwargs: called.append(args))
        argv = ["coeffs", "--alpha-range", "1", "-m", "4", "-n", "9", "--mc-check", *flags]
        assert main([*argv, "--out", str(tmp_path / "missing" / "c.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration: ") and field in err
        existing = tmp_path / "c.csv"
        existing.write_bytes(b"# earlier run\nlambda\n1.0\n")
        assert main([*argv, "--out", str(existing)]) == 1
        assert existing.read_bytes() == b"# earlier run\nlambda\n1.0\n"
        assert called == [] and list(tmp_path.iterdir()) == [existing]

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

    @pytest.mark.parametrize(
        "command",
        [["gci"], ["residual", "--lambda", "1", "--alpha", "0.5,1"],
         ["coeffs", "--alpha-range", "0.5:1:0.5"]],
    )
    def test_unwritable_output_fails_before_the_first_solve(
        self, command, tmp_path, capsys, monkeypatch
    ):
        solved = []
        monkeypatch.setattr("ptwa.cli.solve_gci", solved.append)
        missing = tmp_path / "no" / "such"
        assert main([*command, "-m", "8", "-n", "17", "--out", str(missing / "x")]) == 1
        assert solved == [] and capsys.readouterr().out == ""


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

    def test_failed_run_keeps_an_existing_output(self, tmp_path):
        # outputs are opened before the solve; a failure removes only the files it created
        (tmp_path / "run_coeffs.csv").write_text("earlier run\n")
        assert main(["gci", "--lambda", "5", "--alpha", "0.2", "--out", str(tmp_path / "run")]) == 2
        assert (tmp_path / "run_coeffs.csv").read_text() == "earlier run\n"
        assert not (tmp_path / "run_psi.csv").exists()

    def test_interrupt_removes_the_files_it_created(self, tmp_path, monkeypatch):
        # an interrupt is a BaseException, not an Exception; the outputs are cleaned up all the same
        def interrupt(sp):
            raise KeyboardInterrupt

        monkeypatch.setattr("ptwa.cli.solve_gci", interrupt)
        with pytest.raises(KeyboardInterrupt):
            main(["gci", "-m", "4", "-n", "9", "--out", str(tmp_path / "run")])
        assert list(tmp_path.iterdir()) == []

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

    def test_check_fails_when_alpha_runs_backwards(self, tmp_path, capsys):
        code = main(
            ["residual", "--lambda", "1", "--alpha", "1,0.5", "-m", "12", "-n", "25", "--check",
             "--out", str(tmp_path / "res.csv")]
        )
        assert code == 2
        out = capsys.readouterr().out.splitlines()
        assert out[1:] == ["check failed: residual not decreasing in alpha at lambda=1.0"]


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

        band = spectral.assemble_schur_band
        monkeypatch.setattr(spectral, "assemble_schur_band", lambda sp: np.zeros_like(band(sp)))
        out = tmp_path / "c.csv"
        code = main(["coeffs", "--alpha-range", "1", "-m", "4", "-n", "7", "--out", str(out)])
        assert code == 0
        assert "Schur band is not positive definite" in capsys.readouterr().err
        _, _, _, c2, g1, g2, d = (float(v) for v in read_lines(out)[2].split(","))
        assert all(math.isnan(v) for v in (c2, g1, g2)) and d == 1.0

    def test_right_hand_side_past_two_to_the_30(self, tmp_path, capsys):
        # ive(0, k) is NaN at k = 1.6e9; the i0e fallback leaves a finite, degenerate moment
        out = tmp_path / "c.csv"
        code = main(["coeffs", "--lambda", "40000", "--alpha-range", "1", "-m", "6", "-n", "13",
                     "--out", str(out)])
        assert code == 0
        err = capsys.readouterr().err
        assert "degenerate point (degenerate moment" in err and "nan" not in err

    def test_pivot_growth_point_is_solved(self, tmp_path):
        # partial pivoting grew the LU factors of the (120, 61) full band at lambda = 5,
        # alpha = 0.2; the Cholesky factor of the even-degree Schur band solves it at once
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

    def test_failed_mc_check_writes_nan_columns(self, tmp_path, capsys, monkeypatch):
        def vanished(cfg, n_grid_theta, n_grid_kappa):
            raise ZeroDivisionError("Monte-Carlo gamma1 vanished; cannot form c2")

        monkeypatch.setattr("ptwa.cli.mc_c2", vanished)
        out = tmp_path / "c.csv"
        code = main(["coeffs", "--alpha-range", "1", "-m", "4", "-n", "9", "--mc-check",
                     "--mc-paths", "4", "--mc-tfinal", "10", "--mc-grid", "3", "--out", str(out)])
        assert code == 0
        assert "alpha=1.0: MC check failed (Monte-Carlo gamma1 vanished" in capsys.readouterr().err
        *spectral_cols, c2_mc, se_mc = (float(v) for v in read_lines(out)[2].split(","))
        assert math.isnan(c2_mc) and math.isnan(se_mc)
        assert all(math.isfinite(v) for v in spectral_cols)

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

    def test_trajectory_and_stats_must_be_different_files(self, tmp_path, capsys):
        # two handles on one file would overwrite each other's rows
        cfg = self.write_config(tmp_path)
        out = tmp_path / "same.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--traj", str(out)]) == 1
        assert "different file" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_trajectory_leaves_no_stats_file(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "stats.csv"
        traj = tmp_path / "no" / "such" / "traj.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--traj", str(traj)]) == 1
        assert capsys.readouterr().err.startswith("cannot write output")
        assert not out.exists()

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

    @pytest.mark.parametrize("field, value", [("strde", 5), ("include_slef", False)])
    def test_unknown_field_is_rejected(self, field, value, tmp_path, capsys):
        # a misspelt optional key ran with the default it meant to change: stride 100 or
        # include_self=True, while the record showed the misspelt key
        out = tmp_path / "stats.csv"
        cfg = self.write_config(tmp_path, **{field: value})
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("bad config") and field in err[0]
        assert not out.exists()

    def test_record_holds_the_defaults_that_ran(self, tmp_path):
        out = tmp_path / "stats.csv"
        cfg = json.loads(self.write_config(tmp_path).read_text())
        del cfg["stride"], cfg["include_self"]
        (tmp_path / "sim.json").write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(tmp_path / "sim.json"), "--out", str(out)]) == 0
        record = config_record(out)
        assert record["stride"] == "100" and record["include_self"] == "True"
        assert len(read_lines(out)) == 2 + 1  # 40 steps: stride 100 keeps only the last

    def test_underflowing_noise_square_runs(self, tmp_path, capsys):
        # the particle scheme never divides by alpha^2; the closing line's c1 did and exited 2
        out = tmp_path / "stats.csv"
        cfg = self.write_config(tmp_path, alpha=1e-200)
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert "(equilibrium alpha^2/lambda = 0.000000)" in capsys.readouterr().out
        assert len(read_lines(out)) == 2 + 4

    def test_closing_lines(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2].startswith("final order parameter: ") and "c1" not in lines[-2]
        assert lines[-1].startswith("final curvature variance: ")

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


#: prints the thread count of the first OpenBLAS in ``libs`` that exports a getter
POOL_GETTER = """
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
#: prints the thread count of numpy's bundled OpenBLAS after ``import ptwa.cli``
BLAS_POOL_PROBE = """
import ctypes, glob, os
import ptwa.cli
import numpy

libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))""" + POOL_GETTER
#: prints the thread count of scipy's own OpenBLAS, which loads with the first solve
SCIPY_BLAS_POOL_PROBE = """
import ctypes, glob, os
from ptwa.equilibrium import ModelParams
from ptwa.spectral import SpectralParams, solve_gci
import scipy

solve_gci(SpectralParams(12, 25, ModelParams(1.0, 1.0)))
libs = glob.glob(os.path.join(os.path.dirname(scipy.__file__), os.pardir, "scipy.libs", "*openblas*"))""" + POOL_GETTER


def blas_pool_size(probe: str, ptwa_threads: str | None) -> str:
    """Run a pool probe in a fresh process with no other thread variable set; its output."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PTWA_NUM_THREADS")}
    if ptwa_threads is not None:
        env["PTWA_NUM_THREADS"] = ptwa_threads
    src = str(Path(ptwa.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


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

    def test_ptwa_num_threads_sizes_scipys_own_blas_pool(self):
        # scipy.linalg loads with the first solve, after import ptwa applied the cap
        out = blas_pool_size(SCIPY_BLAS_POOL_PROBE, "1")
        if out == "no-symbol":
            pytest.skip("scipy's bundled OpenBLAS exports no thread-count getter")
        assert int(out) == 1
        if len(os.sched_getaffinity(0)) > 1:  # the probe reads the pool: uncapped, it is wider
            assert int(blas_pool_size(SCIPY_BLAS_POOL_PROBE, None)) > 1
