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
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from decimal import Decimal

import numpy as np

from .equilibrium import ModelParams, c1_coefficient, kappa_cutoff
from .grid import Grid2D, residual_inf
from .hydro import compute_hydro_coeffs
from .montecarlo import OracleConfig, mc_c2
from .particles import SimConfig, collect_stats, run_simulation
from .spectral import CoeffMatrix, SpectralParams, psi_on_grid, solve_gci

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
TAIL_LINE = "spectral tail: |j|=m shells {:.6e}, k=n column {:.6e}"


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 1 (argparse default is 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _positive(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


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
        values = [float(start + i * step) for i in range(count)]
    else:
        values = [float(p) for p in text.split(",") if p]
    if not values:
        raise argparse.ArgumentTypeError(f"empty value list: {text!r}")
    if not all(0.0 < v < math.inf for v in values):
        raise argparse.ArgumentTypeError(f"all values must be positive and finite: {text!r}")
    return values


def _residual_grid(delta: float) -> Grid2D:
    """[-pi, pi) x [-5, 5] with spacing as close to delta as the topology allows."""
    n_theta = max(8, int(round(2.0 * math.pi / delta)))
    n_kappa = max(8, int(round(10.0 / delta)) + 1)
    return Grid2D(n_theta=n_theta, kappa_min=-5.0, kappa_max=5.0, n_kappa=n_kappa)


def _write_csv(path: str, header: str, rows, *configs: dict) -> None:
    """CSV with a '# config: key=value,...' line, a header row, and repr-exact floats.

    The config line holds each dict's items sorted by key, the dicts in order.
    """
    items = ",".join(f"{k}={v}" for config in configs for k, v in sorted(config.items()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# config: {items}\n{header}\n")
        for row in rows:
            fh.write(",".join(_format(v) for v in row) + "\n")


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


def _solve(lam: float, alpha: float, m: int, n: int) -> tuple[CoeffMatrix, SpectralParams]:
    sp = SpectralParams(m=m, n=n, model=ModelParams(lam=lam, alpha=alpha))
    return solve_gci(sp), sp


def cmd_gci(args) -> int:
    x, sp = _solve(args.lam, args.alpha, args.m, args.n)
    grid = _residual_grid(args.delta)
    # reconstruct before opening either file, so a numerical failure writes nothing
    field = psi_on_grid(x, sp, grid)
    config = {"lambda": args.lam, "alpha": args.alpha, "m": args.m, "n": args.n}
    coeff_path = f"{args.out}_coeffs.csv"
    psi_path = f"{args.out}_psi.csv"
    coeff_rows = [[j - sp.m, k, c.real, c.imag] for (j, k), c in np.ndenumerate(x.entries)]
    _write_csv(coeff_path, "j,k,re,im", coeff_rows, config)
    th, ka = grid.meshgrid()
    psi_rows = zip(th.ravel(), ka.ravel(), field.values.ravel())
    # the dump is psi only where |kappa| <= kappa_cutoff; see psi_on_grid
    grid_config = {"delta": args.delta, "kappa_cutoff": kappa_cutoff(sp.model)}
    _write_csv(psi_path, "theta,kappa,value", psi_rows, config, grid_config)
    print(f"algebraic residual: {x.residual:.6e}")
    print(TAIL_LINE.format(*x.tail_norms()))
    print(f"wrote {coeff_path} and {psi_path}")
    return EXIT_OK


def cmd_residual(args) -> int:
    grid = _residual_grid(args.delta)
    rows = []
    for lam in args.lam:
        for alpha in args.alpha:
            x, sp = _solve(lam, alpha, args.m, args.n)
            rows.append([lam, alpha, residual_inf(psi_on_grid(x, sp, grid), sp.model)])
    config = {
        "lambda": ",".join(str(v) for v in args.lam),
        "alpha": ",".join(str(v) for v in args.alpha),
        "m": args.m,
        "n": args.n,
        "delta": args.delta,
    }
    _write_csv(args.out, "lambda,alpha,residual_inf", rows, config)
    print(f"wrote {args.out} ({len(rows)} rows)")
    if args.check:
        table = {(r[0], r[1]): r[2] for r in rows}
        ok = True
        for alpha in args.alpha:
            line = [table[(lam, alpha)] for lam in args.lam]
            if not all(a < b for a, b in zip(line, line[1:])):
                print(f"check failed: residual not increasing in lambda at alpha={alpha}")
                ok = False
        for lam in args.lam:
            line = [table[(lam, a)] for a in args.alpha]
            if not all(a > b for a, b in zip(line, line[1:])):
                print(f"check failed: residual not decreasing in alpha at lambda={lam}")
                ok = False
        if not ok:
            return EXIT_NUMERICAL
        print("check passed: residual increases with lambda and decreases with alpha")
    return EXIT_OK


def cmd_coeffs(args) -> int:
    rows = []
    for alpha in args.alpha:
        model = ModelParams(lam=args.lam, alpha=alpha)
        mc_cols = []
        if args.mc_check:  # run first, so a bad Monte-Carlo setting fails before any solve
            cfg = OracleConfig(model, args.mc_dt, args.mc_tfinal, args.mc_paths, args.seed)
            try:
                mc = mc_c2(cfg, n_grid_theta=args.mc_grid, n_grid_kappa=args.mc_grid)
                mc_cols = [mc.c2, mc.std_error]
            except (RuntimeError, ArithmeticError) as exc:
                print(f"alpha={alpha}: MC check failed ({exc}); emitting NaN", file=sys.stderr)
                mc_cols = [math.nan, math.nan]
        row = [args.lam, alpha, c1_coefficient(model)]
        try:
            x, sp = _solve(args.lam, alpha, args.m, args.n)
            print(f"alpha={alpha}: " + TAIL_LINE.format(*x.tail_norms()))
            h = compute_hydro_coeffs(x, sp)
            row += [h.c2, h.gamma1, h.gamma2, h.d]
        except (RuntimeError, ArithmeticError) as exc:
            print(f"alpha={alpha}: degenerate point ({exc}); emitting NaN", file=sys.stderr)
            row += [math.nan, math.nan, math.nan, model.pressure]
        rows.append(row + mc_cols)
    header = "lambda,alpha,c1,c2,gamma1,gamma2,d"
    if args.mc_check:
        header += ",mc_c2,mc_stderr"
    config = {
        "lambda": args.lam,
        "alpha": ",".join(str(v) for v in args.alpha),
        "m": args.m,
        "n": args.n,
        "mc_check": args.mc_check,
        "seed": args.seed,
    }
    _write_csv(args.out, header, rows, config)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return EXIT_OK


def cmd_simulate(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read config {args.config}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not isinstance(raw, dict):
        print(f"bad config: {args.config} must hold a JSON object", file=sys.stderr)
        return EXIT_USAGE
    required = {"n_agents", "box", "radius", "lambda", "alpha", "dt", "t_final", "seed"}
    missing = required - raw.keys()
    if missing:
        print(f"config missing fields: {sorted(missing)}", file=sys.stderr)
        return EXIT_USAGE
    include_self = raw.get("include_self", True)
    try:
        if not isinstance(include_self, bool):
            raise ValueError(f"include_self must be true or false, got {include_self!r}")
        cfg = SimConfig(
            n_agents=_integer(raw, "n_agents"),
            box_size=float(raw["box"]),
            radius=float(raw["radius"]),
            model=ModelParams(lam=float(raw["lambda"]), alpha=float(raw["alpha"])),
            dt=float(raw["dt"]),
            seed=_integer(raw, "seed"),
            include_self=include_self,
        )
        snapshots = run_simulation(cfg, float(raw["t_final"]), _integer(raw, "stride", 100))
    except (ValueError, TypeError) as exc:
        print(f"bad config: {exc}", file=sys.stderr)
        return EXIT_USAGE

    stats_rows, traj_rows = [], []
    for t, agents in snapshots:
        stats = collect_stats(agents)
        stats_rows.append([t, stats.order_parameter, stats.mean_direction, stats.curvature_variance])
        if args.traj:
            x, theta, kappa = agents.x, agents.theta, agents.kappa
            traj_rows += ([t, i, *x[i], theta[i], kappa[i]] for i in range(len(agents)))
    config = dict(raw)
    _write_csv(args.out, "t,order_parameter,mean_direction,curvature_variance", stats_rows, config)
    print(f"wrote {args.out} ({len(stats_rows)} rows)")
    if args.traj:
        _write_csv(args.traj, "t,agent_id,x1,x2,theta,kappa", traj_rows, config)
        print(f"wrote {args.traj} ({len(traj_rows)} rows)")
    c1 = c1_coefficient(cfg.model)  # stats holds the last snapshot, taken at the final step
    print(f"final order parameter: {stats.order_parameter:.6f} (equilibrium c1 = {c1:.6f})")
    print(
        f"final curvature variance: {stats.curvature_variance:.6f} "
        f"(equilibrium alpha^2/lambda = {cfg.model.kappa_variance:.6f})"
    )
    return EXIT_OK


def _add_truncation_flags(parser) -> None:
    parser.add_argument("-m", type=_positive_int, default=30,
                        help="Fourier half-width of the truncation")
    parser.add_argument("-n", type=_positive_int, default=61,
                        help="Hermite degree of the truncation")


def build_parser() -> _Parser:
    parser = _Parser(prog="ptwa", description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gci", help="solve the generalized collisional invariant")
    p.add_argument("--lambda", dest="lam", type=_positive, default=1.0,
                   help="relaxation rate (positive)")
    p.add_argument("--alpha", type=_positive, default=1.0, help="noise intensity (positive)")
    _add_truncation_flags(p)
    p.add_argument("--delta", type=_positive, default=0.2, help="grid spacing for the psi dump")
    p.add_argument("--out", default="gci", help="output prefix (<out>_coeffs.csv, <out>_psi.csv)")
    p.set_defaults(func=cmd_gci)

    p = sub.add_parser("residual", help="finite-difference residual sweep over (lambda, alpha)")
    p.add_argument("--lambda", dest="lam", type=_value_list, default=[0.5, 1.0, 2.0],
                   help="comma list or start:stop:step range of lambda values")
    p.add_argument("--alpha", type=_value_list, default=[0.5, 1.0, 2.0],
                   help="comma list or start:stop:step range of alpha values")
    _add_truncation_flags(p)
    p.add_argument("--delta", type=_positive, default=0.2, help="finite-difference spacing")
    p.add_argument("--check", action="store_true",
                   help="exit 2 unless the residual increases with lambda and decreases with alpha")
    p.add_argument("--out", default="residual.csv")
    p.set_defaults(func=cmd_residual)

    p = sub.add_parser("coeffs", help="macroscopic coefficients over an alpha sweep")
    p.add_argument("--lambda", dest="lam", type=_positive, default=1.0)
    p.add_argument("--alpha-range", dest="alpha", type=_value_list, required=True,
                   help="start:stop:step range (or comma list) of alpha values")
    _add_truncation_flags(p)
    p.add_argument("--mc-check", action="store_true",
                   help="append Monte-Carlo c2 and its standard error to each row")
    p.add_argument("--mc-paths", type=_positive_int, default=20000)
    p.add_argument("--mc-dt", type=_positive, default=5e-3)
    p.add_argument("--mc-tfinal", type=_positive, default=40.0)
    p.add_argument("--mc-grid", type=_positive_int, default=16,
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
    except SystemExit as exc:
        return int(exc.code or 0)
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
