"""The runtime needs numpy and SciPy only, and not SciPy's optimizer.

networkx is a test-only reference oracle (``tests/test_graph_dag.py``):
importing the package and the CLI, building a topology and running a
simulated system must never load it.  Tier 1 is solved with numpy alone,
so neither the bootstrap solve nor a ``ResilientTier1`` re-solve may
load ``scipy.optimize``.
"""

import os
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

_PROBE = """
import sys

import numpy as np

import repro.cli
from repro import AcesPolicy, SimulatedSystem, SystemConfig, generate_topology
from repro.core.resilience import ResilientTier1
from repro.graph.topology import paper_calibration_spec

topology = generate_topology(
    paper_calibration_spec(), np.random.default_rng(0)
)
system = SimulatedSystem(
    topology, AcesPolicy(), config=SystemConfig(seed=0, warmup=0.0)
)
system.run(0.2)
result = ResilientTier1().solve(
    topology.graph, topology.placement, topology.source_rates
)
assert result.converged, result.messages
assert "networkx" not in sys.modules, "the runtime imported networkx"
assert "scipy.optimize" not in sys.modules, "Tier 1 imported scipy.optimize"
print("ok")
"""


def test_runtime_never_loads_networkx():
    result = subprocess.run(
        [sys.executable, "-c", _PROBE],
        cwd=REPO_ROOT,
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
