"""Microbenchmarks of the substrate components.

Not a paper figure: these track the raw performance of the simulation
kernel, the Tier-1 solvers, and the flow controller, so regressions in the
substrate are visible independently of experiment results.
"""

import numpy as np

from repro.core.flow_control import FlowController
from repro.core.global_opt import solve_global_allocation
from repro.core.lqr import design_gains
from repro.graph.topology import generate_topology, paper_calibration_spec
from repro.sim import Environment


def test_sim_kernel_event_throughput(benchmark):
    """Timeout-chain churn: events scheduled/processed per call."""

    def run():
        env = Environment()

        def ticker(env):
            for _ in range(2000):
                yield env.timeout(1.0)

        for _ in range(5):
            env.process(ticker(env))
        env.run()
        return env.now

    result = benchmark(run)
    assert result == 2000.0


def test_global_opt_slsqp(benchmark):
    topology = generate_topology(
        paper_calibration_spec(calibrate_rates=False),
        np.random.default_rng(0),
    )
    result = benchmark.pedantic(
        solve_global_allocation,
        args=(topology.graph, topology.placement, topology.source_rates),
        kwargs=dict(solver="slsqp"),
        rounds=1,
        iterations=1,
    )
    assert result.converged


def test_global_opt_projected_gradient(benchmark):
    topology = generate_topology(
        paper_calibration_spec(calibrate_rates=False),
        np.random.default_rng(0),
    )
    result = benchmark.pedantic(
        solve_global_allocation,
        args=(topology.graph, topology.placement, topology.source_rates),
        kwargs=dict(solver="projected_gradient"),
        rounds=1,
        iterations=1,
    )
    assert result.max_violation < 1e-3


def test_flow_controller_update_rate(benchmark):
    """Eq. 7 updates per second — this runs once per PE per dt."""
    controller = FlowController(
        design_gains(0.01), target_occupancy=25.0, buffer_capacity=50.0
    )

    def run():
        total = 0.0
        for i in range(10000):
            total += controller.update(float(i % 50), 100.0)
        return total

    assert benchmark(run) > 0
