"""Benchmark outputs are byte-identical across consecutive seeded runs.

The ``BENCH_*.json`` artifacts the benchmark suite writes are diffed
across commits to spot regressions, which only works if two runs of the
same code at the same seed produce the same bytes — no wall-clock
fields, no dict-ordering drift, no hidden global RNG state leaking
between runs.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from benchmarks.conftest import experiment_scale
from repro.experiments import admission, elasticity, forecast
from repro.experiments.config import smoke_experiment
from repro.experiments.figures import figure3_latency
from repro.experiments.matrix import write_bench
from repro.experiments.reporting import format_table
from repro.experiments.resilience import run_chaos_matrix
from repro.graph.topology import TopologySpec

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def small_spec():
    return TopologySpec(
        num_nodes=2,
        num_ingress=1,
        num_egress=1,
        num_intermediate=3,
    )


#: suite -> (tiny matrix run on a caller-owned spec, expected cell modes).
TINY_MATRICES = {
    "resilience": (
        lambda spec: run_chaos_matrix(
            spec,
            policies=["udp"],
            scenarios=["node-slowdown"],
            duration=2.0,
            warmup=0.5,
            seed=11,
        ),
        None,
    ),
    "admission": (
        lambda spec: admission.run_admission_matrix(
            workloads=("squarewave",),
            lambdas=(8.0,),
            duration=3.0,
            warmup=0.5,
            seed=11,
            spec=spec,
        ),
        admission.MODES,
    ),
    "elasticity": (
        lambda spec: elasticity.run_elasticity_matrix(
            policies=("udp",), duration=6.0, warmup=0.5, seed=11
        ),
        elasticity.MODES,
    ),
    "forecast": (
        lambda spec: forecast.run_forecast_matrix(
            scenarios=("flashcrowd",), duration=6.0, warmup=0.5, seed=11
        ),
        forecast.MODES,
    ),
}


def schema(payload):
    """Every key name a BENCH file carries, independent of matrix size."""
    return {
        "header": set(payload),
        "summary": set(payload.get("summary", ())),
        "cell": {frozenset(cell) for cell in payload["cells"]},
        "config": {
            key: set(block)
            for key, block in payload.items()
            if key.endswith("_config")
        },
    }


@pytest.mark.parametrize("suite", sorted(TINY_MATRICES))
def test_matrix_bench_bytes_identical_and_schema_pinned(suite, tmp_path):
    run, modes = TINY_MATRICES[suite]
    spec = small_spec()
    paths = []
    for name in ("first.json", "second.json"):
        path = tmp_path / name
        write_bench(run(spec), str(path))
        paths.append(path)
    first, second = (path.read_bytes() for path in paths)
    assert first == second
    # A matrix never mutates the spec it was handed (the admission suite
    # once wrote each cell's lambda_s into it).
    assert spec == small_spec()

    # Sanity: the file actually carries measurements.
    payload = json.loads(first)
    assert payload["suite"] == suite
    if modes is None:
        assert payload["cells"][0]["policy"] == "udp"
    else:
        # One baseline and one armed cell per key.
        assert [c["mode"] for c in payload["cells"]] == list(modes)
        assert payload["summary"]["errors"] == 0
        assert payload["summary"]["total_violations"] == 0

    # A dropped or renamed field fails here, in seconds, not only when
    # the full matrix is regenerated against the checked-in file.
    checked_in = json.loads(
        (REPO_ROOT / f"BENCH_{suite}.json").read_text()
    )
    assert schema(payload) == schema(checked_in)


def test_fig3_percentile_table_bytes_identical():
    """The Fig. 3 latency table — now carrying p50/p95/p99 columns from
    the streaming histograms — renders byte-identically across runs."""
    config = smoke_experiment(
        name="fig3-determinism",
        spec=small_spec(),
        duration=1.5,
        replications=2,
    )
    tables = []
    for _ in range(2):
        rows = figure3_latency(config=config, buffer_sizes=(5, 10))
        tables.append(format_table(rows, precision=3).encode())
    assert tables[0] == tables[1]
    # Sanity: the percentile columns are present and ordered.
    rows = figure3_latency(config=config, buffer_sizes=(5,))
    row = rows[0]
    for name in ("aces", "lockstep"):
        assert (
            row[f"{name}_latency_p50_ms"]
            <= row[f"{name}_latency_p95_ms"]
            <= row[f"{name}_latency_p99_ms"]
        )


def test_experiment_scale_is_stable():
    """The shared bench configuration itself is deterministic: two calls
    yield the same experiment cell (same seeds, durations, topology)."""
    first = experiment_scale()
    second = experiment_scale()
    assert first.name == second.name
    assert first.system == second.system
    assert first.duration == second.duration
    assert first.replications == second.replications


_HASHSEED_PROBE = """
import numpy as np
from repro.core.policies import policy_by_name
from repro.graph.topology import TopologySpec, generate_topology
from repro.systems.simulated import SystemConfig, run_system

topology = generate_topology(
    TopologySpec(num_nodes=3, num_ingress=3, num_egress=6,
                 num_intermediate=6),
    np.random.default_rng(4),
)
report = run_system(
    topology, policy_by_name("aces"), duration=1.5,
    config=SystemConfig(seed=4, warmup=0.5),
)
print(repr(report.latency.mean))
print(repr(report.weighted_throughput))
print(repr(report.weighted_utility))
print(list(report.egress_detail))
"""


def test_report_independent_of_hash_seed():
    # Egress records are registered in graph order, not set order: the
    # float sums over them (and egress_detail's key order) must not
    # move with PYTHONHASHSEED from one process to the next.
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [path for path in sys.path if path]
        )
        outputs.append(
            subprocess.run(
                [sys.executable, "-c", _HASHSEED_PROBE],
                env=env, capture_output=True, text=True, check=True,
                timeout=120,
            ).stdout
        )
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 4
