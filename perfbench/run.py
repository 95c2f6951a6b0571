"""Benchmark of the ptwa toolkit: one workload, one seed, one run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload gci_sweep --seed 1 --seconds 28 --trace 0

Workloads: gci_sweep, coeff_map, mc_oracle, swarm_local (see README.md).
Each measurement runs ``bench.py`` in a process of its own, one after the
other; ``bench.py`` pins every BLAS/OpenMP pool to one thread.  With ``--trace 0``
it prints the end-to-end metrics named in BENCHMARK.json; set-up is repeated
in extra processes and its median reported.  With ``--trace 1`` every second
item runs traced, the others untraced, in one process; the per-layer metrics
and the tracing overhead are printed.  The
last line of output is one JSON object; the exit code is 0 only when a
result was printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE / "bench.py"
#: set-up-only processes per untraced run; with the measuring process, three set-up samples
SETUP_PROBES = 2
#: the whole run, children included, must end within this many seconds
TIME_LIMIT_S = 170.0
WORK_UNIT = {
    "gci_sweep": "solves_per_s",
    "coeff_map": "solves_per_s",
    "mc_oracle": "path_steps_per_s",
    "swarm_local": "agent_steps_per_s",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def run_child(args, deadline: float, setup_only: bool) -> dict:
    cmd = [
        sys.executable, str(BENCH),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before the workload process started")
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process exceeded the {TIME_LIMIT_S:.0f} s limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(child: dict, setups: list[float]) -> dict:
    m = child["untraced"]
    return {
        "setup_s": statistics.median(setups),
        "work_per_s": m["work_per_s"],
        "peak_rss_mb": child["peak_rss_mb"],
    }


def report(args, spec: dict, child: dict, values: dict, setups: list[float]) -> tuple[dict, int, int]:
    """Print the readable summary; return the metrics of the result line, attempted and failed."""
    env = child["env"]
    m = child["untraced"]
    print(f"ptwa benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"environment: nproc {env['nproc']}, threads {env['threads']}, python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}")
    phases = [("untraced", m)] + ([("traced", child["traced"])] if args.trace else [])
    attempted = sum(p["items"] for _, p in phases)
    failed = sum(p["failed"] for _, p in phases)
    for name, p in phases:
        p90 = f"{p['item_s_p90']:.6g} s" if p["item_s_p90"] is not None else "- (needs >= 100 items)"
        print(f"{name}: {p['items']} items, {p['failed']} failed (error_rate {p['failed'] / p['items']:.4g}), "
              f"{WORK_UNIT[args.workload]} {p['work_per_s']:.6g}, item_s_p50 {p['item_s_p50']:.6g} s, "
              f"item_s_p90 {p90}, fastest item {p['item_s_min']:.6g} s, busy {p['busy_s']:.1f} s")
        for err in p["errors"]:
            print(f"  failure: {err}")
    if args.trace:
        metrics = spec["per_layer"]
        print(f"spans: {child['span_count']} recorded, absent: {child['absent_spans'] or 'none'}")
        for v in child["span_violations"]:
            print(f"  tracer fault: {v}")
    else:
        metrics = spec["end_to_end"]
        print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    out = {}
    for metric in metrics:
        name, unit = metric["name"], metric["unit"]
        if name not in values:
            raise BenchError(f"the workload process produced no value for {name}")
        out[name] = {"value": values[name], "unit": unit}
        print(f"  {name:42s} {values[name]:<14.7g} {unit}")
    return out, attempted, failed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(WORK_UNIT))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds positive")
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if not Path("src/ptwa/__init__.py").is_file():
            raise BenchError("no ptwa sources under src/; run from the root of a checkout")
        spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
        setups = []
        if not args.trace:
            setups = [run_child(args, deadline, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
        child = run_child(args, deadline, setup_only=False)
        setups.append(child["setup_s"])
        values = child["layers"] if args.trace else end_to_end(child, setups)
        metrics, attempted, failed = report(args, spec, child, values, setups)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    correct = failed == 0 and not (args.trace and child["span_violations"])
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
