"""Workload process of the ptwa benchmark.

``run.py`` starts this file once per measurement, in its own process, from the
root of a source checkout.  It imports ``ptwa`` from ``src/``, builds the
workload's inputs from the seed, sets up, then runs items until the time is
up.  Every item is checked against references stored in ``refs.json`` (made
by ``make_refs.py``), so the checks do not depend on the code under test.
The last line of standard output is one JSON object for ``run.py``.

The thread pins below must come before the first numpy import: the thread
count changes the round-off of the dense LU.
"""

from __future__ import annotations

import os

THREAD_VARS = ("PTWA_NUM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

HERE = Path(__file__).resolve().parent
REFS_PATH = HERE / "refs.json"
SRC = Path.cwd() / "src"


def import_ptwa():
    """Import the package from ``src/`` of the current directory, never from elsewhere."""
    if not (SRC / "ptwa" / "__init__.py").is_file():
        raise SystemExit(f"no ptwa sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import ptwa

    if Path(ptwa.__file__).resolve().parent != (SRC / "ptwa").resolve():
        raise SystemExit(f"imported ptwa from {ptwa.__file__}, not from {SRC}")


import_ptwa()

from ptwa import equilibrium, grid, hydro, montecarlo, particles, spectral  # noqa: E402
from ptwa.equilibrium import ModelParams  # noqa: E402

from tracer import Tracer  # noqa: E402

# ---------------------------------------------------------------- workloads
#: CLI default truncation of ``ptwa gci``/``residual``/``coeffs``
GCI_TRUNCATION = (30, 61)
#: criterion-3 parameter grid; the hard corner is always the first point
GCI_AXIS = (0.5, 1.0, 2.0)
HARD_CORNER = (2.0, 0.5)
#: the delta = 0.2 grid of ``ptwa residual``: [-pi, pi) x [-5, 5]
RESIDUAL_GRID = grid.Grid2D(
    n_theta=round(2.0 * math.pi / 0.2), kappa_min=-5.0, kappa_max=5.0, n_kappa=round(10.0 / 0.2) + 1
)
MAP_TRUNCATION = (12, 25)
#: dense (lambda, alpha) map over [0.2, 5]^2, step 0.2
MAP_AXIS = tuple(round(0.2 * i, 10) for i in range(1, 26))
HYPERBOLICITY_SAMPLES = 64
#: ``coeffs --mc-check`` integrator settings at lambda = alpha = 1
MC_MODEL = ModelParams(lam=1.0, alpha=1.0)
MC_DT = 5e-3
MC_T_FINAL = 40.0
MC_PATHS = 8192
MC_PROBES = tuple((th, ka) for th in (-2.0, -1.0, 0.0, 1.0, 2.0) for ka in (-1.0, 0.0, 1.0))
#: cell-list regime, about 17 neighbours per agent
SWARM = dict(n_agents=500, box_size=10.0, radius=1.0, dt=0.05)
SWARM_MODEL = ModelParams(lam=1.0, alpha=1.0)

# --------------------------------------------------------------- tolerances
C2_TOL = 1e-10
GAMMA1_TOL = 1e-10
C1_TOL = 1e-10
SYMMETRY_TOL = 1e-10
#: |z| beyond 5 has probability 6e-7 per probe under the null
MC_Z_MAX = 5.0
#: the (0, 0) probe is exactly zero by the antithetic mirror symmetry
MC_ZERO_TOL = 1e-12
#: library step against the all-pairs reference (summation order differs)
SWARM_TOL = 1e-12

# ------------------------------------------------------------------ tracing
#: per-layer metric -> (span, field); times and counts are per traced item
SPAN_METRICS = {
    "spectral.solve_gci.self_s": ("spectral.solve_gci", "self_s"),
    "spectral.assemble_kron_matrix.s": ("spectral.assemble_kron_matrix", "total_s"),
    "special.bessel_i.calls": ("special.bessel_i", "calls"),
    "special.bessel_i.s": ("special.bessel_i", "total_s"),
    "spectral.psi_on_grid.s": ("spectral.psi_on_grid", "total_s"),
    "grid.residual_inf.s": ("grid.residual_inf", "total_s"),
    "hydro.gamma_moments.s": ("hydro.gamma_moments", "total_s"),
    "hydro.hyperbolicity_check.s": ("hydro.hyperbolicity_check", "total_s"),
    "montecarlo.feynman_kac_psi.self_s": ("montecarlo.feynman_kac_psi", "self_s"),
    "montecarlo.euler.s": ("montecarlo._integrate_sin", "total_s"),
    "montecarlo.path_rng.s": ("montecarlo._path_rng", "total_s"),
    "particles.neighbor_mean_direction.s": ("particles.neighbor_mean_direction", "total_s"),
    "particles.neighbor_mean_direction.calls": ("particles.neighbor_mean_direction", "calls"),
    "particles.step.self_s": ("particles.step", "self_s"),
    "particles.collect_stats.s": ("particles.collect_stats", "total_s"),
}
#: spans that only carve their time out of a parent's self time
CHILD_SPANS = (
    "special.hermite_p_row",
    "equilibrium.c1_coefficient",
    "equilibrium.von_mises_pdf",
    "spectral.assemble_rhs",
    "spectral._constant_coefficients",
    "hydro.compute_hydro_coeffs",
    "grid.apply_L",
    "particles.initial_state",
    "particles._kappa_bar_all",
    "particles.neighbor_indices_cell",
)
TRACED = tuple(sorted({span for span, _ in SPAN_METRICS.values()} | set(CHILD_SPANS)))
#: per-layer values the workloads compute themselves; 0 where a workload has none
COUNTERS = (
    "spectral.system_size",
    "spectral.operator_bytes",
    "spectral.residual_max",
    "grid.residual_inf_max",
    "montecarlo.noise_bytes",
    "montecarlo.path_steps",
    "montecarlo.horizon_warnings",
    "particles.neighbors_per_agent",
)


class CheckFailed(Exception):
    """An output disagrees with its reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_close(name: str, value: float, ref: float, tol: float) -> None:
    """|value - ref| <= tol, relative once |ref| > 1."""
    require(
        abs(value - ref) <= tol * max(1.0, abs(ref)),
        f"{name} = {value!r} but reference is {ref!r} (tolerance {tol:g})",
    )


def check_spectral_point(x, sp, gamma1: float, gamma2: float, ref: dict) -> None:
    """Checks shared by both spectral workloads."""
    reality, oddness = x.symmetry_defects()
    require(
        max(reality, oddness) <= SYMMETRY_TOL,
        f"symmetry defects {reality:.3e}, {oddness:.3e} exceed {SYMMETRY_TOL:g}",
    )
    check_close("c2", gamma2 / gamma1, ref["c2"], C2_TOL)
    check_close("gamma1", gamma1, ref["gamma1"], GAMMA1_TOL)
    check_close(
        "gamma1 against the projection identity",
        gamma1, hydro.gamma_moments_spectral(x, sp), GAMMA1_TOL,
    )
    check_close(
        "c1 against its quadrature",
        equilibrium.c1_coefficient(sp.model), equilibrium.c1_quadrature(sp.model), C1_TOL,
    )


def check_mc_probe(est: dict, ref_psi: float) -> None:
    if est["std_error"] < MC_ZERO_TOL:
        check_close("psi at a zero-variance probe", est["estimate"], ref_psi, MC_ZERO_TOL)
        return
    z = (est["estimate"] - ref_psi) / est["std_error"]
    require(abs(z) <= MC_Z_MAX, f"psi estimate {est['estimate']!r} vs {ref_psi!r}: |z| = {abs(z):.2f}")


def _angle_gap(a, b):
    return np.abs(np.angle(np.exp(1j * (np.asarray(a) - np.asarray(b)))))


def reference_step(agents, cfg, step_index: int):
    """One step with an all-pairs neighbour search.

    Returns (x, theta, kappa, neighbour count, |J|) per agent, where J is the
    sum of the neighbours' headings.  Same update as ``particles.step``:
    targets from the pre-step headings, then curvature, heading and position,
    with the noise stream keyed by (seed, step).
    """
    x, theta = agents.x, agents.theta
    box, n = cfg.box_size, len(theta)
    d = x[None, :, :] - x[:, None, :]
    d -= box * np.round(d / box)
    within = np.einsum("ijk,ijk->ij", d, d) < cfg.radius**2
    if not cfg.include_self:
        np.fill_diagonal(within, False)
    jx = within.astype(float) @ np.cos(theta)
    jy = within.astype(float) @ np.sin(theta)
    target = np.sin(np.arctan2(jy, jx) - theta)
    kb = np.where(np.hypot(jx, jy) > particles.J_TOL, target, 0.0)
    key = np.array([cfg.seed, step_index], dtype=np.uint64)
    xi = np.random.Generator(np.random.Philox(key=key)).standard_normal(n)
    lam, alpha, dt = cfg.model.lam, cfg.model.alpha, cfg.dt
    kappa = agents.kappa + lam * (kb - agents.kappa) * dt + math.sqrt(2.0 * dt) * alpha * xi
    theta_new = np.angle(np.exp(1j * (theta + kappa * dt)))
    x_new = np.mod(x + np.column_stack([np.cos(theta_new), np.sin(theta_new)]) * dt, box)
    return x_new, theta_new, kappa, within.sum(axis=1), np.hypot(jx, jy)


def check_swarm_step(before, after, cfg, step_index: int) -> float:
    """Compare a library step with the all-pairs reference; returns mean neighbours per agent."""
    x, theta, kappa, counts, jnorm = reference_step(before, cfg, step_index)
    box = cfg.box_size
    require(np.all(np.isfinite(after.x)) and np.all((after.x >= 0) & (after.x < box)),
            "positions left the periodic box")
    dx = after.x - x
    dx -= box * np.round(dx / box)
    # the target direction is atan2 of a sum of `counts` unit vectors: its
    # round-off grows as counts / |J| when the neighbours' headings cancel
    tol = SWARM_TOL * np.maximum(1.0, counts / jnorm)
    errors = {
        "kappa": np.abs(after.kappa - kappa) / tol,
        "theta": _angle_gap(after.theta, theta) / tol,
        "x": np.max(np.abs(dx), axis=1) / tol,
    }
    for name, ratio in errors.items():
        agent = int(np.argmax(ratio))
        require(ratio[agent] <= 1.0,
                f"step {step_index}: {name} of agent {agent} is {ratio[agent]:.3g} tolerances "
                f"away from the all-pairs reference")
    return float(np.mean(counts))


def check_swarm_stats(agents, stats) -> None:
    order = math.hypot(float(np.mean(np.cos(agents.theta))), float(np.mean(np.sin(agents.theta))))
    check_close("order parameter", stats.order_parameter, order, 1e-12)
    require(int(stats.relative_angle_histogram.sum()) == len(agents), "angle histogram lost agents")
    check_close("curvature variance", stats.curvature_variance, float(np.var(agents.kappa)), 1e-12)


class Workload:
    """Inputs, timed item, checks and layer counters of one workload."""

    work_per_item = 1.0

    def __init__(self, seed: int, refs: dict):
        self.seed = seed
        self.counters: dict[str, float] = {}

    def warm_up(self) -> None:
        raise NotImplementedError

    def start(self) -> None:
        """Reset state and counters before a measured phase."""
        self.counters = {}

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> None:
        raise NotImplementedError

    def _count_max(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0.0), value)


class GciSweep(Workload):
    """Criterion-3 points at (30, 61): solve, c2, psi on the residual grid, residual."""

    def __init__(self, seed, refs):
        super().__init__(seed, refs)
        self.ref = {(p["lam"], p["alpha"]): p for p in refs["gci_sweep"]["points"]}
        others = [(lam, a) for lam in GCI_AXIS for a in GCI_AXIS if (lam, a) != HARD_CORNER]
        order = np.random.default_rng(seed).permutation(len(others))
        self.points = [HARD_CORNER] + [others[k] for k in order]

    def warm_up(self):
        sp = spectral.SpectralParams(*MAP_TRUNCATION, ModelParams(lam=1.0, alpha=1.0))
        x = spectral.solve_gci(sp)
        hydro.gamma_moments(x, sp)
        grid.residual_inf(spectral.psi_on_grid(x, sp, RESIDUAL_GRID), sp.model)

    def run(self, i):
        lam, alpha = self.points[i % len(self.points)]
        sp = spectral.SpectralParams(*GCI_TRUNCATION, ModelParams(lam=lam, alpha=alpha))
        x = spectral.solve_gci(sp)
        g = hydro.gamma_moments(x, sp)
        res = grid.residual_inf(spectral.psi_on_grid(x, sp, RESIDUAL_GRID), sp.model)
        return sp, x, g, res

    def check(self, i, out):
        sp, x, g, res = out
        check_spectral_point(x, sp, g["gamma1"], g["gamma2"], self.ref[(sp.model.lam, sp.model.alpha)])
        require(math.isfinite(res), f"residual_inf is {res}")
        self.counters["spectral.system_size"] = sp.size
        self.counters["spectral.operator_bytes"] = sp.size**2 * 16
        self._count_max("spectral.residual_max", x.residual)
        self._count_max("grid.residual_inf_max", res)


class CoeffMap(Workload):
    """Dense (lambda, alpha) map at (12, 25): solve, (c1, c2, d), hyperbolicity."""

    def __init__(self, seed, refs):
        super().__init__(seed, refs)
        self.ref = {(p["lam"], p["alpha"]): p for p in refs["coeff_map"]["points"]}
        lattice = [(lam, a) for lam in MAP_AXIS for a in MAP_AXIS]
        order = np.random.default_rng(seed).permutation(len(lattice))
        self.points = [lattice[k] for k in order]

    def warm_up(self):
        self.check(0, self.run(0))

    def run(self, i):
        lam, alpha = self.points[i % len(self.points)]
        sp = spectral.SpectralParams(*MAP_TRUNCATION, ModelParams(lam=lam, alpha=alpha))
        x = spectral.solve_gci(sp)
        h = hydro.compute_hydro_coeffs(x, sp)
        return sp, x, h, hydro.hyperbolicity_check(h, HYPERBOLICITY_SAMPLES)

    def check(self, i, out):
        sp, x, h, hyperbolic = out
        check_spectral_point(x, sp, h.gamma1, h.gamma2, self.ref[(sp.model.lam, sp.model.alpha)])
        require(hyperbolic is True, "hyperbolicity_check returned False")
        self.counters["spectral.system_size"] = sp.size
        self.counters["spectral.operator_bytes"] = sp.size**2 * 16
        self._count_max("spectral.residual_max", x.residual)


class McOracle(Workload):
    """Feynman-Kac probes at lambda = alpha = 1 against stored spectral psi."""

    def __init__(self, seed, refs):
        super().__init__(seed, refs)
        self.ref = {(p["theta0"], p["kappa0"]): p["psi"] for p in refs["mc_oracle"]["probes"]}
        # each probe keeps its own path streams, whatever the order
        order = np.random.default_rng(seed).permutation(len(MC_PROBES))
        self.probes = [(*MC_PROBES[k], k * MC_PATHS) for k in order]
        self.cfg = montecarlo.OracleConfig(
            model=MC_MODEL, dt=MC_DT, t_final=MC_T_FINAL, paths=MC_PATHS, seed=seed
        )
        self.work_per_item = float(MC_PATHS * self.cfg.n_steps)

    def warm_up(self):
        cfg = montecarlo.OracleConfig(model=MC_MODEL, dt=MC_DT, t_final=10.0, paths=64, seed=self.seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            montecarlo.feynman_kac_psi(cfg, 1.0, 0.0)

    def run(self, i):
        theta0, kappa0, offset = self.probes[i % len(self.probes)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            est = montecarlo.feynman_kac_psi(self.cfg, theta0, kappa0, stream_offset=offset)
        return (theta0, kappa0), est, len(caught)

    def check(self, i, out):
        probe, est, n_warnings = out
        check_mc_probe(est, self.ref[probe])
        n_steps = self.cfg.n_steps
        chunk = getattr(montecarlo, "CHUNK_PAIRS", None)
        if chunk is not None:
            self.counters["montecarlo.noise_bytes"] = min(chunk, MC_PATHS // 2) * n_steps * 8
        self.counters["montecarlo.path_steps"] = self.work_per_item
        self.counters["montecarlo.horizon_warnings"] = (
            self.counters.get("montecarlo.horizon_warnings", 0) + n_warnings
        )


class SwarmLocal(Workload):
    """Finite-radius particle steps, each checked against an all-pairs reference."""

    def __init__(self, seed, refs):
        super().__init__(seed, refs)
        self.cfg = particles.SimConfig(model=SWARM_MODEL, seed=seed, **SWARM)
        self.work_per_item = float(self.cfg.n_agents)
        self.agents = None

    def warm_up(self):
        self.start()
        self.check(0, self.run(0))

    def start(self):
        super().start()
        self.agents = particles.initial_state(self.cfg)
        self._neighbours = []

    def run(self, i):
        before = self.agents
        after = particles.step(before, self.cfg, step_index=i)
        stats = particles.collect_stats(after)
        self.agents = after
        return before, after, stats

    def check(self, i, out):
        before, after, stats = out
        self._neighbours.append(check_swarm_step(before, after, self.cfg, i))
        check_swarm_stats(after, stats)
        self.counters["particles.neighbors_per_agent"] = statistics.fmean(self._neighbours)


WORKLOADS = {
    "gci_sweep": GciSweep,
    "coeff_map": CoeffMap,
    "mc_oracle": McOracle,
    "swarm_local": SwarmLocal,
}


# ----------------------------------------------------------------- measuring
def measure(wl: Workload, seconds: float, tracer: Tracer | None = None) -> list[dict]:
    """Run items until ``seconds`` have passed; latency covers the library calls, not the checks.

    With a tracer, odd items run traced and even items untraced, so that
    drift in the host's speed falls on both alike.  An item that raises or
    fails a check counts as failed.  The loop stops early when the next item
    would likely end past the deadline.
    """
    wl.start()
    items = []
    min_items = 1 if tracer is None else 2
    begin = time.perf_counter()
    while True:
        i = len(items)
        traced = tracer is not None and i % 2 == 1
        item = {"traced": traced, "work": 0.0, "error": None}
        t0 = time.perf_counter()
        try:
            if traced:
                tracer.enabled = True
            try:
                out = wl.run(i)
            finally:
                t1 = time.perf_counter()
                if traced:
                    tracer.enabled = False
            wl.check(i, out)
            item["work"] = wl.work_per_item
        except Exception as exc:  # a failed item is counted, not fatal
            item["error"] = f"item {i}: {type(exc).__name__}: {exc}"
        item["latency"] = t1 - t0
        items.append(item)
        elapsed = time.perf_counter() - begin
        if len(items) >= min_items and elapsed + elapsed / len(items) > seconds:
            return items


def summarize(items: list[dict]) -> dict:
    """Throughput (passed work per busy second), latency quantiles and failures of measured items."""
    latencies = [it["latency"] for it in items]
    errors = [it["error"] for it in items if it["error"]]
    return {
        "items": len(items),
        "failed": len(errors),
        "errors": errors[:5],
        "work_per_s": sum(it["work"] for it in items) / sum(latencies),
        "item_s_p50": statistics.median(latencies),
        "item_s_min": min(latencies),
        "item_s_p90": statistics.quantiles(latencies, n=10)[-1] if len(latencies) >= 100 else None,
        "busy_s": sum(latencies),
    }


def layer_metrics(tracer: Tracer, wl: Workload, items: int) -> dict:
    summary = tracer.summary()
    out = {metric: summary[span][field] / items for metric, (span, field) in SPAN_METRICS.items()}
    out.update({name: wl.counters.get(name, 0.0) for name in COUNTERS})
    return out


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True, help="time.monotonic() when the process was started")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    refs = json.loads(REFS_PATH.read_text(encoding="utf-8"))
    wl = WORKLOADS[args.workload](args.seed, refs)
    wl.warm_up()
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "env": environment()}
    if not args.setup_only:
        if not args.trace:
            result["untraced"] = summarize(measure(wl, args.seconds))
        else:
            tracer = Tracer(TRACED)
            tracer.install()
            items = measure(wl, args.seconds, tracer)
            tracer.uninstall()
            result["untraced"] = summarize([it for it in items if not it["traced"]])
            traced = summarize([it for it in items if it["traced"]])
            layers = layer_metrics(tracer, wl, traced["items"])
            base = result["untraced"]["work_per_s"]
            layers["trace.overhead_pct"] = 100.0 * (base - traced["work_per_s"]) / base
            result.update(traced=traced, layers=layers, absent_spans=tracer.absent,
                          span_count=len(tracer.spans), span_violations=tracer.violations()[:5])
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
