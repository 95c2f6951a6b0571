"""The demo scripts run to completion against the public ptwa API.

Each demo imports from ``ptwa.*``, so a renamed or deleted public function
fails here.  ``monte_carlo_oracle.py`` is left out: it takes over a minute.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo",
    [
        "equilibrium_and_order_parameter",
        "spectral_gci_solve",
        "hydrodynamic_coefficients",
        "particle_swarm",
    ],
)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(REPO / "demos" / f"{demo}.py")], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
