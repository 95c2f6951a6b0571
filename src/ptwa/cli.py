"""Command-line front end for the alignment-model toolkit.

Subcommands expose each pipeline stage with reproducible configuration:

* ``gci``       -- solve the generalized collisional invariant and dump its
                   coefficients plus a grid reconstruction.
* ``residual``  -- sweep (lambda, alpha) and report the finite-difference
                   residual of the reconstructed invariant.
* ``coeffs``    -- sweep alpha at fixed lambda and tabulate the macroscopic
                   coefficients c1, c2, d with their ingredient moments.
* ``simulate``  -- run the interacting-particle scheme from a JSON config and
                   dump summary statistics (and optionally trajectories).

Every subcommand is deterministic given its flags and seed, and every CSV
starts with a ``#`` comment line recording the full configuration.  Exit
codes: 0 success, 1 usage, config or file error, 2 numerical failure.  Set
``PTWA_NUM_THREADS`` to cap the BLAS thread pool (``ptwa/__init__.py`` applies
it before the numerical libraries start their threads).

This module only turns text into values and exceptions into exit codes.  Each
range rule on a setting lives in the type that runs it (``ModelParams``,
``SpectralParams``, ``OracleConfig``, ``mc_c2``, ``SimConfig``), and the
``ValueError`` it raises is exit 1.  ``gci``, ``residual`` and ``coeffs`` build
the ``SpectralParams`` and, with ``--mc-check``, the ``OracleConfig`` of every
point before they open a file, so a bad value anywhere in a list exits 1 before
any file opens or any solve runs.  Only ``--mc-grid`` waits for ``mc_c2`` at the
first point, after the output opens and before any path or solve.

scipy loads on first use, not at start-up: ``gci``, ``residual`` and
``coeffs`` load ``scipy.special`` and ``scipy.linalg`` with their first solve.
``simulate`` runs without scipy.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from decimal import Decimal

import numpy as np

from .equilibrium import ModelParams, c1_coefficient, kappa_cutoff
from .grid import Grid2D, residual_inf
from .hydro import compute_hydro_coeffs
from .montecarlo import OracleConfig, mc_c2
from .particles import SimConfig, collect_stats, run_simulation
from .spectral import SpectralParams, psi_on_grid, solve_gci

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
#: the most values a start:stop:step range may expand to
MAX_RANGE_VALUES = 10**6
#: the most nodes a --delta grid may have; each array over it takes 8 bytes a node
MAX_GRID_NODES = 10**6
TAIL_LINE = "spectral tail: |j|=m shells {:.6e}, k=n column {:.6e}"


def _value_list(text: str) -> list[float]:
    """Parse '0.5,1,2' or 'start:stop:step' into an ordered list of values.

    A range is stepped in exact decimal arithmetic on the flag text, so
    0.4:1.0:0.2 gives 0.4, 0.6, 0.8, 1.0 and not 0.6000000000000001.
    """
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"range must be start:stop:step, got {text!r}")
        try:
            start, stop, step = (Decimal(p) for p in parts)
            if step <= 0:
                raise argparse.ArgumentTypeError(f"range step must be positive, got {step}")
            count = math.floor((stop - start) / step) + 1
        except (ArithmeticError, ValueError):  # a non-numeric, NaN or infinite part
            raise argparse.ArgumentTypeError(f"range needs finite numbers, got {text!r}") from None
        if count > MAX_RANGE_VALUES:
            raise argparse.ArgumentTypeError(
                f"range {text!r} has {count} values, more than {MAX_RANGE_VALUES}")
        values = [float(start + i * step) for i in range(count)]
    else:
        values = [float(p) for p in text.split(",") if p]
    if not values:
        raise argparse.ArgumentTypeError(f"empty value list: {text!r}")
    return values


def _residual_grid(delta: float) -> Grid2D:
    """[-pi, pi) x [-5, 5] with spacing as close to delta as the topology allows.

    Raises ValueError, a usage error, unless delta is positive and finite with 2 pi/delta
    finite, or for more than MAX_GRID_NODES nodes.
    """
    if not (0.0 < delta < math.inf and 2.0 * math.pi / delta < math.inf):
        raise ValueError(f"--delta must be positive and finite, and 2 pi/delta finite, got {delta}")
    n_theta = max(8, int(round(2.0 * math.pi / delta)))
    n_kappa = max(8, int(round(10.0 / delta)) + 1)
    if n_theta * n_kappa > MAX_GRID_NODES:
        raise ValueError(
            f"--delta {delta:g} gives a grid of {n_theta} x {n_kappa} = {n_theta * n_kappa} nodes, "
            f"more than {MAX_GRID_NODES}")
    return Grid2D(n_theta=n_theta, kappa_min=-5.0, kappa_max=5.0, n_kappa=n_kappa)


@contextlib.contextmanager
def _open_outputs(*paths: str):
    """Open every output before any solve or step, so an unwritable path fails at once.

    A file is emptied only when _write_csv writes it.  If the run fails or is interrupted,
    the files close, those that did not exist before are removed and the others keep their
    old content.  Two handles on one file would overwrite each other's rows, so the paths
    must differ.
    """
    if len({os.path.realpath(path) for path in paths}) < len(paths):
        raise ValueError("every output must be a different file")
    with contextlib.ExitStack() as created, contextlib.ExitStack() as files:
        for path in paths:
            if not os.path.exists(path):
                created.callback(_remove_quietly, path)
        yield [files.enter_context(open(path, "a", encoding="utf-8")) for path in paths]
        created.pop_all()  # the run succeeded: keep the files it created


def _remove_quietly(path: str) -> None:
    with contextlib.suppress(OSError):  # an open that failed created nothing
        os.remove(path)


def _write_csv(fh, header: str, rows, config: dict) -> None:
    """Write fh afresh as CSV: a '# config: key=value,...' line, a header row, repr-exact floats.

    The config items are sorted by key, and a list value is joined by ';', not ','.
    """
    items = ",".join(f"{k}={';'.join(map(str, v)) if isinstance(v, list) else v}"
                     for k, v in sorted(config.items()))
    fh.truncate(0)
    fh.write(f"# config: {items}\n{header}\n")
    for row in rows:
        fh.write(",".join(_format(v) for v in row) + "\n")


def _flag_config(args) -> dict:
    """The setting flags of a parsed subcommand, all but its output, for _write_csv (lam is lambda)."""
    return {"lambda" if key == "lam" else key: value for key, value in vars(args).items()
            if key not in ("command", "func", "out")}


def _format(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _integer(raw: dict, key: str, default=None) -> int:
    """int(raw.get(key, default)); a bool or a fractional number is a ValueError, not rounded."""
    value = raw.get(key, default)
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def cmd_gci(args) -> int:
    grid = _residual_grid(args.delta)
    sp = SpectralParams(m=args.m, n=args.n, model=ModelParams(lam=args.lam, alpha=args.alpha))
    coeff_path = f"{args.out}_coeffs.csv"
    psi_path = f"{args.out}_psi.csv"
    with _open_outputs(coeff_path, psi_path) as (coeff_fh, psi_fh):
        x = solve_gci(sp)
        field = psi_on_grid(x, sp, grid)
        config = _flag_config(args)
        coeff_rows = [[j - sp.m, k, c.real, c.imag] for (j, k), c in np.ndenumerate(x.entries)]
        _write_csv(coeff_fh, "j,k,re,im", coeff_rows, config)
        th, ka = grid.meshgrid()
        psi_rows = zip(th.ravel(), ka.ravel(), field.values.ravel())
        # the dump is psi only where |kappa| <= kappa_cutoff; see psi_on_grid
        config["kappa_cutoff"] = kappa_cutoff(sp.model)
        _write_csv(psi_fh, "theta,kappa,value", psi_rows, config)
    print(f"algebraic residual: {x.residual:.6e}")
    print(TAIL_LINE.format(*x.tail_norms()))
    print(f"wrote {coeff_path} and {psi_path}")
    return EXIT_OK


def cmd_residual(args) -> int:
    grid = _residual_grid(args.delta)
    points = [SpectralParams(m=args.m, n=args.n, model=ModelParams(lam=lam, alpha=alpha))
              for lam in args.lam for alpha in args.alpha]
    with _open_outputs(args.out) as (fh,):
        rows = [[sp.model.lam, sp.model.alpha,
                 residual_inf(psi_on_grid(solve_gci(sp), sp, grid), sp.model)] for sp in points]
        _write_csv(fh, "lambda,alpha,residual_inf", rows, _flag_config(args))
    print(f"wrote {args.out} ({len(rows)} rows)")
    if args.check:  # one row of res per lambda, one column per alpha
        res = np.reshape([row[2] for row in rows], (len(args.lam), len(args.alpha)))
        failed = [f"check failed: residual not increasing in lambda at alpha={alpha}"
                  for alpha, line in zip(args.alpha, res.T) if not np.all(line[:-1] < line[1:])]
        failed += [f"check failed: residual not decreasing in alpha at lambda={lam}"
                   for lam, line in zip(args.lam, res) if not np.all(line[:-1] > line[1:])]
        if failed:
            print(*failed, sep="\n")
            return EXIT_NUMERICAL
        print("check passed: residual increases with lambda and decreases with alpha")
    return EXIT_OK


def _coeffs_row(args, sp: SpectralParams, cfg: OracleConfig | None) -> list:
    """One `coeffs` row; a failed Monte-Carlo check or solve gives NaN columns, noted on stderr."""
    model, alpha = sp.model, sp.model.alpha
    mc_cols = []
    if cfg is not None:  # run first, so a bad --mc-grid fails before any solve
        try:
            mc = mc_c2(cfg, n_grid_theta=args.mc_grid, n_grid_kappa=args.mc_grid)
            mc_cols = [mc.c2, mc.std_error]
        except (RuntimeError, ArithmeticError) as exc:
            print(f"alpha={alpha}: MC check failed ({exc}); emitting NaN", file=sys.stderr)
            mc_cols = [math.nan, math.nan]
    row = [args.lam, alpha, c1_coefficient(model)]
    try:
        x = solve_gci(sp)
        print(f"alpha={alpha}: " + TAIL_LINE.format(*x.tail_norms()))
        h = compute_hydro_coeffs(x, sp)
        row += [h.c2, h.gamma1, h.gamma2, h.d]
    except (RuntimeError, ArithmeticError) as exc:
        print(f"alpha={alpha}: degenerate point ({exc}); emitting NaN", file=sys.stderr)
        row += [math.nan, math.nan, math.nan, model.pressure]
    return row + mc_cols


def cmd_coeffs(args) -> int:
    header = "lambda,alpha,c1,c2,gamma1,gamma2,d"
    if args.mc_check:
        header += ",mc_c2,mc_stderr"
    points = [SpectralParams(m=args.m, n=args.n, model=ModelParams(lam=args.lam, alpha=alpha))
              for alpha in args.alpha]
    oracles = [OracleConfig(sp.model, args.mc_dt, args.mc_tfinal, args.mc_paths, args.seed)
               if args.mc_check else None for sp in points]
    with _open_outputs(args.out) as (fh,):
        rows = [_coeffs_row(args, sp, cfg) for sp, cfg in zip(points, oracles)]
        _write_csv(fh, header, rows, _flag_config(args))
    print(f"wrote {args.out} ({len(rows)} rows)")
    return EXIT_OK


def cmd_simulate(args) -> int:
    required = {"n_agents", "box", "radius", "lambda", "alpha", "dt", "t_final", "seed"}
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("it must hold a JSON object")
        missing = required - raw.keys()
        unknown = raw.keys() - required - {"stride", "include_self"}
        if missing or unknown:  # a misspelt optional key would otherwise run with its default
            raise ValueError(f"missing fields {sorted(missing)}, unknown fields {sorted(unknown)}")
        cfg = SimConfig(
            n_agents=_integer(raw, "n_agents"),
            box_size=float(raw["box"]),
            radius=float(raw["radius"]),
            model=ModelParams(lam=float(raw["lambda"]), alpha=float(raw["alpha"])),
            dt=float(raw["dt"]),
            seed=_integer(raw, "seed"),
            include_self=raw.get("include_self", True),
        )
        stride = _integer(raw, "stride", 100)
        snapshots = run_simulation(cfg, float(raw["t_final"]), stride)
    except (OSError, ValueError, TypeError) as exc:  # a JSONDecodeError is a ValueError
        print(f"bad config {args.config}: {exc}", file=sys.stderr)
        return EXIT_USAGE

    with _open_outputs(args.out, *([args.traj] if args.traj else [])) as handles:
        stats_rows, traj_rows = [], []
        for t, agents in snapshots:
            stats = collect_stats(agents)
            stats_rows.append(
                [t, stats.order_parameter, stats.mean_direction, stats.curvature_variance]
            )
            if args.traj:
                x, theta, kappa = agents.x, agents.theta, agents.kappa
                traj_rows += ([t, i, *x[i], theta[i], kappa[i]] for i in range(len(agents)))
        config = {**raw, "stride": stride, "include_self": cfg.include_self}
        header = "t,order_parameter,mean_direction,curvature_variance"
        _write_csv(handles[0], header, stats_rows, config)
        if args.traj:
            _write_csv(handles[1], "t,agent_id,x1,x2,theta,kappa", traj_rows, config)
    print(f"wrote {args.out} ({len(stats_rows)} rows)")
    if args.traj:
        print(f"wrote {args.traj} ({len(traj_rows)} rows)")
    # stats holds the last snapshot, taken at the final step
    print(f"final order parameter: {stats.order_parameter:.6f}")
    print(
        f"final curvature variance: {stats.curvature_variance:.6f} "
        f"(equilibrium alpha^2/lambda = {cfg.model.kappa_variance:.6f})"
    )
    return EXIT_OK


def _add_truncation_flags(parser) -> None:
    parser.add_argument("-m", type=int, default=30,
                        help="Fourier half-width of the truncation")
    parser.add_argument("-n", type=int, default=61,
                        help="Hermite degree of the truncation")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ptwa", description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gci", help="solve the generalized collisional invariant")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0,
                   help="relaxation rate (positive)")
    p.add_argument("--alpha", type=float, default=1.0, help="noise intensity (positive)")
    _add_truncation_flags(p)
    p.add_argument("--delta", type=float, default=0.2, help="grid spacing for the psi dump")
    p.add_argument("--out", default="gci", help="output prefix (<out>_coeffs.csv, <out>_psi.csv)")
    p.set_defaults(func=cmd_gci)

    p = sub.add_parser("residual", help="finite-difference residual sweep over (lambda, alpha)")
    p.add_argument("--lambda", dest="lam", type=_value_list, default=[0.5, 1.0, 2.0],
                   help="comma list or start:stop:step range of lambda values")
    p.add_argument("--alpha", type=_value_list, default=[0.5, 1.0, 2.0],
                   help="comma list or start:stop:step range of alpha values")
    _add_truncation_flags(p)
    p.add_argument("--delta", type=float, default=0.2, help="finite-difference spacing")
    p.add_argument("--check", action="store_true",
                   help="exit 2 unless the residual increases with lambda and decreases with alpha")
    p.add_argument("--out", default="residual.csv")
    p.set_defaults(func=cmd_residual)

    p = sub.add_parser("coeffs", help="macroscopic coefficients over an alpha sweep")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--alpha-range", dest="alpha", type=_value_list, required=True,
                   help="start:stop:step range (or comma list) of alpha values")
    _add_truncation_flags(p)
    p.add_argument("--mc-check", action="store_true",
                   help="append Monte-Carlo c2 and its standard error to each row")
    p.add_argument("--mc-paths", type=int, default=20000)
    p.add_argument("--mc-dt", type=float, default=5e-3)
    p.add_argument("--mc-tfinal", type=float, default=40.0)
    p.add_argument("--mc-grid", type=int, default=16,
                   help="quadrature nodes per axis for the Monte-Carlo moments")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="coeffs.csv")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("simulate", help="run the interacting-particle scheme")
    p.add_argument("--config", required=True, help="JSON file with the simulation parameters")
    p.add_argument("--out", default="sim_stats.csv", help="summary-statistics CSV path")
    p.add_argument("--traj", default=None, help="optional trajectory CSV path")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
