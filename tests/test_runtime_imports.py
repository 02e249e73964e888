"""The runtime needs numpy only.

networkx is a test-only reference oracle (``tests/test_graph_dag.py``),
and SciPy is a test-only oracle too (the HiGHS certificate in
``tests/test_global_opt.py``, ``solve_discrete_are`` in
``tests/test_core_lqr.py``).  Importing the package, the CLI and the
experiment modules, building a topology, running a simulated system, a
``ResilientTier1`` re-solve and a threaded ``SPCRuntime`` run must never
load either of them.
"""

import os
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

_PROBE = """
import importlib
import pkgutil
import sys

import numpy as np

import repro.cli
import repro.experiments
from repro import (
    AcesPolicy,
    RuntimeConfig,
    SimulatedSystem,
    SystemConfig,
    generate_topology,
)
from repro.core.resilience import ResilientTier1
from repro.graph.topology import TopologySpec, paper_calibration_spec
from repro.runtime import SPCRuntime


def check(stage):
    assert "networkx" not in sys.modules, f"{stage} imported networkx"
    scipy = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
    assert not scipy, f"{stage} imported {sorted(scipy)[:5]}"


for module in pkgutil.iter_modules(repro.experiments.__path__):
    importlib.import_module(f"repro.experiments.{module.name}")
check("importing the experiment modules")

topology = generate_topology(
    paper_calibration_spec(), np.random.default_rng(0)
)
system = SimulatedSystem(
    topology, AcesPolicy(), config=SystemConfig(seed=0, warmup=0.0)
)
system.run(0.2)
check("a simulated run")
result = ResilientTier1().solve(
    topology.graph, topology.placement, topology.source_rates
)
assert result.converged, result.messages
check("a ResilientTier1 re-solve")

small = generate_topology(
    TopologySpec(num_nodes=2, num_ingress=1, num_egress=1,
                 num_intermediate=3, calibrate_rates=False),
    np.random.default_rng(0),
)
runtime = SPCRuntime(
    small, AcesPolicy(), config=RuntimeConfig(seed=0, warmup=0.0, dilation=0.1)
)
runtime.run(duration=1.0)
check("an SPCRuntime run")
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
