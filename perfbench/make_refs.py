"""Write refs.json: the stored answers that the benchmark's checks compare against.

Run once from the root of a checkout, on the solver the references should
come from:

    python3 perfbench/make_refs.py

It stores c2 and gamma1 for every point of ``gci_sweep`` (truncation 30, 61)
and ``coeff_map`` (12, 25), and psi at every ``mc_oracle`` probe from a
(30, 61) solve at lambda = alpha = 1.  Importing ``bench`` pins one BLAS
thread, as in the benchmark.
"""

from __future__ import annotations

import json
import time

import bench
from ptwa import __version__, hydro, spectral
from ptwa.equilibrium import ModelParams


def spectral_points(truncation, points) -> list[dict]:
    out = []
    for lam, alpha in points:
        sp = spectral.SpectralParams(*truncation, ModelParams(lam=lam, alpha=alpha))
        g = hydro.gamma_moments(spectral.solve_gci(sp), sp)
        out.append({"lam": lam, "alpha": alpha, "c2": g["gamma2"] / g["gamma1"], "gamma1": g["gamma1"]})
    return out


def main() -> None:
    t0 = time.perf_counter()
    axis = bench.GCI_AXIS
    refs = {
        "command": "python3 perfbench/make_refs.py",
        "ptwa_version": __version__,
        "env": bench.environment(),
        "gci_sweep": {
            "m_n": bench.GCI_TRUNCATION,
            "points": spectral_points(bench.GCI_TRUNCATION, [(lam, a) for lam in axis for a in axis]),
        },
        "coeff_map": {
            "m_n": bench.MAP_TRUNCATION,
            "points": spectral_points(
                bench.MAP_TRUNCATION, [(lam, a) for lam in bench.MAP_AXIS for a in bench.MAP_AXIS]
            ),
        },
    }
    sp = spectral.SpectralParams(*bench.GCI_TRUNCATION, bench.MC_MODEL)
    x = spectral.solve_gci(sp)
    refs["mc_oracle"] = {
        "m_n": bench.GCI_TRUNCATION,
        "lam": sp.model.lam,
        "alpha": sp.model.alpha,
        "probes": [
            {"theta0": th, "kappa0": ka, "psi": spectral.reconstruct_psi(x, sp, th, ka)}
            for th, ka in bench.MC_PROBES
        ],
    }
    bench.REFS_PATH.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {bench.REFS_PATH.name} in {time.perf_counter() - t0:.0f} s")


if __name__ == "__main__":
    main()
