"""CALIB — simulator-vs-runtime calibration (paper Section VI-C).

Runs the same topology and Tier-1 targets through the discrete-event
simulator and the threaded SPC-analogue runtime, comparing weighted
throughput per policy.  The paper calibrated C-SIM against the real SPC
the same way.  Because the threaded runtime emulates CPU with sleeps, we
assert a throughput ratio in a band around one rather than identity.
"""

import numpy as np

from repro.experiments.calibration import calibration_spec, run_calibration
from repro.graph.topology import generate_topology


def test_calibration(benchmark, record_table):
    # A reduced calibration topology keeps the threaded run short; the
    # structure (ratio of ingress/egress/intermediate, contention) matches
    # the paper's 60 PE / 10 node setup.
    topology = generate_topology(
        calibration_spec(scale=0.4), np.random.default_rng(0)
    )

    rows = benchmark.pedantic(
        run_calibration,
        kwargs=dict(
            topology=topology, sim_duration=6.0, runtime_duration=3.0
        ),
        rounds=1,
        iterations=1,
    )
    table_rows = [
        {
            "policy": row.policy,
            "sim_throughput": row.simulator_throughput,
            "runtime_throughput": row.runtime_throughput,
            "ratio": row.throughput_ratio,
            "sim_latency_ms": row.simulator_latency_ms,
            "runtime_latency_ms": row.runtime_latency_ms,
        }
        for row in rows
    ]
    record_table("calibration", table_rows, precision=2)

    # Both substrates must deliver work for every policy, and the
    # runtime/simulator throughput ratio stays in a band around one for
    # each: the workers serve at the controller's live CPU share, as
    # the simulator's PEs do.
    for row in rows:
        assert row.simulator_throughput > 0
        assert row.runtime_throughput > 0
        assert 0.6 <= row.throughput_ratio < 1.5
