"""scipy loads only on the solver paths: the particle and Monte-Carlo paths run without it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import ptwa

#: imports every ptwa module, runs one particle step, one Monte-Carlo probe and one
#: `ptwa simulate`, then one solve, and prints which scipy submodules were loaded before and
#: after the solve
NO_SCIPY_PROBE = """
import importlib, json, os, pkgutil, sys, tempfile, warnings
import ptwa, ptwa.cli
for info in pkgutil.iter_modules(ptwa.__path__):
    importlib.import_module("ptwa." + info.name)
from ptwa import montecarlo, particles
from ptwa.equilibrium import ModelParams

def loaded():
    return [name for name in ("scipy.special", "scipy.linalg") if name in sys.modules]

out = {"imported": loaded()}
unit = ModelParams(1.0, 1.0)
cfg = particles.SimConfig(n_agents=50, box_size=5.0, radius=1.0, model=unit, dt=0.05, seed=1)
particles.collect_stats(particles.step(particles.initial_state(cfg), cfg, step_index=0))
oracle = montecarlo.OracleConfig(model=unit, dt=5e-3, t_final=10.0, paths=64, seed=1)
with warnings.catch_warnings():
    warnings.simplefilter("ignore", RuntimeWarning)
    montecarlo.feynman_kac_psi(oracle, 1.0, 0.0)
with tempfile.TemporaryDirectory() as tmp:
    sim = {"n_agents": 20, "box": 5.0, "radius": 1.0, "lambda": 1.0, "alpha": 1.0, "dt": 0.05,
           "t_final": 1.0, "seed": 3, "stride": 5}
    config = os.path.join(tmp, "sim.json")
    with open(config, "w") as fh:
        json.dump(sim, fh)
    argv = ["simulate", "--config", config, "--out", os.path.join(tmp, "stats.csv")]
    assert ptwa.cli.main(argv) == 0
out["simulated"] = loaded()
from ptwa.hydro import compute_hydro_coeffs
from ptwa.spectral import SpectralParams, solve_gci
sp = SpectralParams(12, 25, unit)
h = compute_hydro_coeffs(solve_gci(sp), sp)
out["solved"] = loaded()
out["coeffs"] = [v.hex() for v in (h.c1, h.c2, h.gamma1, h.gamma2)]
print(json.dumps(out))
"""

#: float.hex of (c1, c2, gamma1, gamma2) at (12,25), lam = alpha = 1, recorded with scipy
#: imported by every module at load
PINNED_COEFFS = ["0x1.c91a738327165p-2", "0x1.7350a61c4c16dp-3",
                 "0x1.08e010841e0b6p-1", "0x1.803029d332c58p-4"]


def test_particle_and_monte_carlo_paths_load_no_scipy():
    env = dict(os.environ)
    src = str(Path(ptwa.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["imported"] == [] and out["simulated"] == []
    assert out["solved"] == ["scipy.special", "scipy.linalg"]
    assert out["coeffs"] == PINNED_COEFFS
