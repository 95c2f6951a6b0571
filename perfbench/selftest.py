"""Self-test of the benchmark at tiny sizes; runs in a few seconds.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It shows that every check of ``bench.py`` passes on a right answer and fails
on a wrong one, that a failing item is counted rather than fatal, and that
traced self times are non-negative and never exceed their parent span.
Exits 0 when all cases behave, 1 otherwise.
"""

from __future__ import annotations

import sys
import time

import bench
from bench import CheckFailed
from ptwa import equilibrium, hydro, montecarlo, particles, spectral
from ptwa.equilibrium import ModelParams
from tracer import Tracer

RESULTS: list[tuple[str, bool]] = []


def case(name: str, ok: bool) -> None:
    RESULTS.append((name, ok))
    print(f"{'ok  ' if ok else 'FAIL'} {name}")


def passes(fn, *args) -> bool:
    try:
        fn(*args)
    except CheckFailed as exc:
        print(f"     unexpected failure: {exc}")
        return False
    return True


def fails(fn, *args) -> bool:
    try:
        fn(*args)
    except CheckFailed:
        return True
    return False


def spectral_cases() -> None:
    sp = spectral.SpectralParams(8, 15, ModelParams(lam=1.0, alpha=1.0))
    x = spectral.solve_gci(sp)
    g = hydro.gamma_moments(x, sp)
    g1, g2 = g["gamma1"], g["gamma2"]
    ref = {"c2": g2 / g1, "gamma1": g1}
    check = bench.check_spectral_point
    case("spectral point passes against its own reference", passes(check, x, sp, g1, g2, ref))
    case("perturbed c2 reference fails", fails(check, x, sp, g1, g2, dict(ref, c2=ref["c2"] + 1e-8)))
    case("perturbed gamma1 reference fails", fails(check, x, sp, g1, g2, dict(ref, gamma1=g1 * (1 + 1e-8))))
    scale = 1 + 1e-8  # keeps c2, moves gamma1 off the projection identity
    case("gamma1 off the projection identity fails",
         fails(check, x, sp, g1 * scale, g2 * scale, dict(ref, gamma1=g1 * scale)))
    broken = x.entries.copy()
    broken[0, 0] += 1e-6
    case("coefficients that break the symmetries fail",
         fails(check, spectral.CoeffMatrix(broken), sp, g1, g2, ref))
    original = equilibrium.c1_coefficient
    equilibrium.c1_coefficient = lambda model: original(model) + 1e-8
    try:
        case("c1 that disagrees with its quadrature fails", fails(check, x, sp, g1, g2, ref))
    finally:
        equilibrium.c1_coefficient = original

    wl = bench.CoeffMap(0, {"coeff_map": {"points": []}})
    h = hydro.compute_hydro_coeffs(x, sp)
    wl.ref = {(1.0, 1.0): ref}
    case("coeff_map item passes", passes(wl.check, 0, (sp, x, h, True)))
    case("hyperbolicity_check returning False fails", fails(wl.check, 0, (sp, x, h, False)))


def mc_cases() -> None:
    cfg = montecarlo.OracleConfig(model=bench.MC_MODEL, dt=5e-3, t_final=10.0, paths=64, seed=3)
    est = montecarlo.feynman_kac_psi(cfg, 1.0, 0.5)
    case("MC probe passes at z = 0", passes(bench.check_mc_probe, est, est["estimate"]))
    far = est["estimate"] + 1.5 * bench.MC_Z_MAX * est["std_error"]
    case("MC reference beyond the z bound fails", fails(bench.check_mc_probe, est, far))
    zero = montecarlo.feynman_kac_psi(cfg, 0.0, 0.0)
    case("(0, 0) probe returns exactly 0 with SE 0",
         zero["estimate"] == 0.0 and zero["std_error"] == 0.0)
    case("(0, 0) probe passes against 0", passes(bench.check_mc_probe, zero, 0.0))
    case("(0, 0) probe fails against 1e-9", fails(bench.check_mc_probe, zero, 1e-9))


def swarm_cases() -> None:
    cfg = particles.SimConfig(n_agents=60, box_size=5.0, radius=1.0, model=bench.SWARM_MODEL,
                              dt=0.05, seed=4)
    before = particles.initial_state(cfg)
    after = particles.step(before, cfg, step_index=7)
    check = bench.check_swarm_step
    case("library step matches the all-pairs reference", passes(check, before, after, cfg, 7))
    shifted = particles.Agents(x=after.x.copy(), theta=after.theta, kappa=after.kappa)
    shifted.x[3, 0] = (shifted.x[3, 0] + 1e-6) % cfg.box_size
    case("shifted particle position fails", fails(check, before, shifted, cfg, 7))
    case("step compared under the wrong noise stream fails", fails(check, before, after, cfg, 8))
    original = particles.neighbor_indices_cell

    def drop_last(x, i, radius, box):
        idx = original(x, i, radius, box)
        return idx[:-1] if len(idx) > 1 else idx

    particles.neighbor_indices_cell = drop_last
    try:
        wrong = particles.step(before, cfg, step_index=7)
    finally:
        particles.neighbor_indices_cell = original
    case("neighbour search that drops a neighbour fails", fails(check, before, wrong, cfg, 7))
    stats = particles.collect_stats(after)
    case("collect_stats passes", passes(bench.check_swarm_stats, after, stats))
    bad = particles.SimStats(**dict(vars(stats), order_parameter=stats.order_parameter + 1e-9))
    case("wrong order parameter fails", fails(bench.check_swarm_stats, after, bad))


class _Flaky(bench.Workload):
    """Every third item raises; every other third fails its check."""

    def warm_up(self):
        pass

    def run(self, i):
        if i % 3 == 1:
            raise ArithmeticError("raised by the item")
        time.sleep(0.001)
        return i

    def check(self, i, out):
        bench.require(out % 3 != 2, "wrong answer")


def measure_cases() -> None:
    m = bench.summarize(bench.measure(_Flaky(0, {}), seconds=0.2))
    traced = bench.measure(_Flaky(0, {}), seconds=0.2, tracer=Tracer([]))
    case("raised and wrong items count as failures, not as fatal errors",
         m["items"] >= 6 and m["failed"] == len([i for i in range(m["items"]) if i % 3]))
    case("a traced run alternates untraced and traced items",
         [it["traced"] for it in traced[:4]] == [False, True, False, True])


def tracer_cases() -> None:
    tracer = Tracer(bench.TRACED + ("spectral.no_such_function",))
    tracer.install()
    tracer.enabled = True
    try:
        sp = spectral.SpectralParams(6, 11, ModelParams(lam=1.5, alpha=0.8))
        x = spectral.solve_gci(sp)
        h = hydro.compute_hydro_coeffs(x, sp)
        hydro.hyperbolicity_check(h, 16)
        cfg = particles.SimConfig(n_agents=40, box_size=5.0, radius=1.0, model=bench.SWARM_MODEL,
                                  dt=0.05, seed=5)
        particles.collect_stats(particles.step(particles.initial_state(cfg), cfg))
    finally:
        tracer.enabled = False
        tracer.uninstall()
    summary = tracer.summary()
    case("calls made inside the library are traced (bessel_i under solve_gci)",
         summary["special.bessel_i"]["calls"] > 0 and summary["particles.neighbor_mean_direction"]["calls"] == 40)
    case("a name the library lacks is reported absent", tracer.absent == ["spectral.no_such_function"])
    case("uninstall restores the library functions", not hasattr(spectral.solve_gci, "__wrapped__"))
    selfs = tracer.self_times()
    nonneg = all(s >= 0.0 for s in selfs)
    within = all(
        s <= tracer.spans[p][3] - tracer.spans[p][2]
        for (_, p, _, _), s in zip(tracer.spans, selfs) if p >= 0
    )
    case(f"{len(selfs)} traced self times are non-negative and within their parent span",
         nonneg and within and not tracer.violations())
    fake = Tracer(["a", "b"])
    fake.spans[:] = [["a", -1, 0.0, 1.0], ["b", 0, 0.5, 1.5], ["b", 0, 0.2, 0.9]]
    case("a child span that outlasts its parent is reported", len(fake.violations()) >= 2)


def main() -> int:
    spectral_cases()
    mc_cases()
    swarm_cases()
    measure_cases()
    tracer_cases()
    bad = [name for name, ok in RESULTS if not ok]
    print(f"{len(RESULTS) - len(bad)} of {len(RESULTS)} self-test cases behave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
