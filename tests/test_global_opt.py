"""Tests for the Tier-1 global weighted-throughput optimization."""

import numpy as np
import pytest

from repro.core import global_opt
from repro.core.global_opt import _Program, solve_global_allocation
from repro.core.resilience import ResilientTier1, validate_targets
from repro.graph.dag import ProcessingGraph
from repro.graph.topology import (
    TopologySpec,
    generate_topology,
    paper_calibration_spec,
    scaled_main_spec,
)
from repro.model.params import PEProfile


SMALL_SPEC = TopologySpec(
    num_nodes=4,
    num_ingress=3,
    num_egress=3,
    num_intermediate=8,
    calibrate_rates=False,
)


def two_stage_pipeline(weight=1.0, t=0.01):
    """src (node 0) -> sink (node 1), deterministic service times."""
    graph = ProcessingGraph()
    graph.add_pe(PEProfile(pe_id="src", weight=0.0, t0=t, t1=t, lambda_s=0.0))
    graph.add_pe(
        PEProfile(pe_id="sink", weight=weight, t0=t, t1=t, lambda_s=0.0)
    )
    graph.add_edge("src", "sink")
    placement = {"src": 0, "sink": 1}
    return graph, placement


class TestSimpleInstances:
    def test_single_pipeline_saturates_bottleneck(self):
        graph, placement = two_stage_pipeline()
        result = solve_global_allocation(graph, placement, {"src": 1000.0})
        # Both PEs alone on their nodes: full CPU each, rate 100 SDO/s.
        assert result.targets.cpu["src"] == pytest.approx(1.0, abs=0.01)
        assert result.targets.rate_out["sink"] == pytest.approx(100.0, rel=0.02)

    def test_source_rate_caps_ingress(self):
        graph, placement = two_stage_pipeline()
        result = solve_global_allocation(graph, placement, {"src": 30.0})
        assert result.targets.rate_in["src"] <= 30.0 + 1e-6
        # Downstream never exceeds upstream output (Eq. 5).
        assert (
            result.targets.rate_in["sink"]
            <= result.targets.rate_out["src"] + 1e-6
        )

    def test_flow_constraint_binds_consumer(self):
        """A slow producer limits a fast consumer's useful allocation."""
        graph = ProcessingGraph()
        graph.add_pe(
            PEProfile(pe_id="slow", weight=0.0, t0=0.1, t1=0.1, lambda_s=0.0)
        )
        graph.add_pe(
            PEProfile(
                pe_id="fast", weight=1.0, t0=0.001, t1=0.001, lambda_s=0.0
            )
        )
        graph.add_edge("slow", "fast")
        placement = {"slow": 0, "fast": 1}
        result = solve_global_allocation(graph, placement, {"slow": 1e9})
        # Producer at full CPU makes 10 SDO/s; consumer needs only 1% CPU.
        assert result.targets.rate_out["fast"] == pytest.approx(10.0, rel=0.05)
        assert result.targets.cpu["fast"] < 0.05

    def test_weights_steer_shared_node_allocation(self):
        """Two independent pipelines sharing one node: the heavier-weighted
        egress gets more CPU under the log utility."""
        graph = ProcessingGraph()
        for pe_id, weight in (("a", 4.0), ("b", 1.0)):
            graph.add_pe(
                PEProfile(
                    pe_id=pe_id, weight=weight, t0=0.01, t1=0.01, lambda_s=0.0
                )
            )
        placement = {"a": 0, "b": 0}
        result = solve_global_allocation(
            graph, placement, {"a": 1e9, "b": 1e9}
        )
        assert result.targets.cpu["a"] > result.targets.cpu["b"]
        total = result.targets.cpu["a"] + result.targets.cpu["b"]
        assert total == pytest.approx(1.0, abs=0.01)


class TestConstraintsOnRandomInstances:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_feasibility(self, seed):
        spec = TopologySpec(
            num_nodes=5,
            num_ingress=4,
            num_egress=4,
            num_intermediate=10,
            calibrate_rates=False,
        )
        topology = generate_topology(spec, np.random.default_rng(seed))
        result = solve_global_allocation(
            topology.graph, topology.placement, topology.source_rates
        )
        assert result.max_violation < 1e-4
        result.targets.validate(topology.placement, tolerance=1e-4)
        # Flow constraint per consumer (merged-buffer form of Eq. 5).
        for dst in topology.graph.pe_ids:
            upstream = topology.graph.upstream(dst)
            if not upstream:
                continue
            supply = sum(result.targets.rate_out[u] for u in upstream)
            assert result.targets.rate_in[dst] <= supply + 1e-4
        # Ingress caps.
        for pe_id, rate in topology.source_rates.items():
            assert result.targets.rate_in[pe_id] <= rate + 1e-4

    def test_objective_improves_on_fair_share(self):
        """The optimizer beats fair-share on its own (log) objective,
        comparing against a *flow-feasible* version of fair share."""
        import math

        from repro.core.targets import fair_share_targets

        topology = generate_topology(SMALL_SPEC, np.random.default_rng(4))
        graph = topology.graph
        optimized = solve_global_allocation(
            graph, topology.placement, topology.source_rates
        )

        fair = fair_share_targets(graph, topology.placement)
        # Make fair-share rates flow-feasible with a topological sweep.
        rate_out = {}
        for pe_id in graph.topological_order():
            profile = graph.profile(pe_id)
            rate = profile.rate_at(fair.cpu[pe_id])
            if graph.upstream(pe_id):
                rate = min(
                    rate,
                    sum(rate_out[u] for u in graph.upstream(pe_id)),
                )
            else:
                rate = min(rate, topology.source_rates[pe_id])
            rate_out[pe_id] = profile.lambda_m * rate

        def log_objective(rates):
            return sum(
                graph.profile(p).weight * math.log1p(max(0.0, rates[p]))
                for p in graph.pe_ids
            )

        assert optimized.objective >= log_objective(rate_out) - 1e-6

    def test_diagnostics_populated(self):
        graph, placement = two_stage_pipeline()
        result = solve_global_allocation(graph, placement, {"src": 100.0})
        assert result.solver == "interior-point"
        assert result.iterations > 0
        assert result.converged


# -- exact constraint Jacobians -------------------------------------------


def calibration_program(seed):
    """The calibration topology, its first ingress left without a rate
    (an all-zero ingress row)."""
    topology = generate_topology(
        paper_calibration_spec(), np.random.default_rng(seed)
    )
    rates = dict(topology.source_rates)
    rates.pop(topology.graph.ingress_ids[0])
    return _Program(topology.graph, topology.placement, rates)


@pytest.mark.parametrize("seed", [0, 4])
def test_constraint_matrices_are_exact_jacobians(seed):
    """Each block's matrix equals a central difference of its residual
    function at random in-box points (seed 4 has 3-producer consumers)."""
    program = calibration_program(seed)
    if seed == 4:
        assert max(len(p) for p in program.producer_sets) == 3
    assert not program.ingress_matrix[0].any()
    rng = np.random.default_rng(seed)
    step = 1e-6
    blocks = (
        (program.node_matrix, program.node_residuals),
        (program.flow_matrix, program.flow_residuals),
        (program.ingress_matrix, program.ingress_residuals),
    )
    for _ in range(3):
        c = rng.uniform(program.lower, program.upper)
        for matrix, residuals in blocks:
            central = np.column_stack([
                (residuals(c + step * e) - residuals(c - step * e))
                / (2 * step)
                for e in np.eye(len(c))
            ])
            np.testing.assert_allclose(matrix, central, rtol=0, atol=1e-7)


# -- an optimality certificate for the interior point -----------------------


def certified_gap(topology, result, capacities=None, source_rates=None):
    """An upper bound on how far ``result`` lies below the true optimum.

    The objective f is concave on the polytope P, so for every c in P
    ``f(c) <= f(c*) + grad f(c*) . (c - c*)``; one LP over the program's
    own constraint matrices and box maximizes the right-hand side.
    """
    from scipy.optimize import linprog

    program = _Program(
        topology.graph, topology.placement,
        topology.source_rates if source_rates is None else source_rates,
        capacities,
    )
    point = np.array([result.targets.cpu[p] for p in program.pe_ids])
    # grad f = w U'(r_out) m a, with U'(r) = 1 / (1 + r) (LogUtility).
    rates = np.maximum(program.rate_out(point), 0.0)
    gradient = program.weight * program.mult * program.slope / (1.0 + rates)
    lp = linprog(
        -gradient,
        A_ub=np.vstack(
            [program.node_matrix, program.flow_matrix, program.ingress_matrix]
        ),
        b_ub=np.concatenate(
            [program.node_bound, program.flow_bound, program.ingress_bound]
        ),
        bounds=np.column_stack([program.lower, program.upper]),
        method="highs",
    )
    assert lp.status == 0, lp.message
    return -lp.fun - gradient @ point


#: Calibration nodes 0 and 1 at half and one-and-a-half capacity.
UNEQUAL_CAPACITIES = (0.5, 1.5) + (1.0,) * 8


@pytest.mark.parametrize(
    "spec, seed, capacities",
    [(paper_calibration_spec(), seed, None) for seed in range(4)]
    + [(SMALL_SPEC, seed, None) for seed in range(3)]
    + [(paper_calibration_spec(), 0, UNEQUAL_CAPACITIES)],
    ids=[f"calibration-{seed}" for seed in range(4)]
    + [f"small-{seed}" for seed in range(3)]
    + ["calibration-0-unequal-capacities"],
)
def test_interior_point_is_certified_optimal(spec, seed, capacities):
    """The solver's point is within 1e-9 relative of the true optimum
    (and, by ``max_violation``, within every node's own capacity)."""
    topology = generate_topology(spec, np.random.default_rng(seed))
    result = solve_global_allocation(
        topology.graph, topology.placement, topology.source_rates,
        capacities=capacities,
    )
    assert result.converged and result.max_violation <= 1e-9
    assert certified_gap(topology, result, capacities) <= 1e-9 * abs(
        result.objective
    )


def test_interior_point_converges_at_main_scale():
    """The paper's 200 PE / 80 node scale, topology seed 0: the solve
    converges, and its point is certified."""
    topology = generate_topology(
        scaled_main_spec(1), np.random.default_rng(0)
    )
    result = solve_global_allocation(
        topology.graph, topology.placement, topology.source_rates
    )
    assert result.solver == "interior-point"
    assert result.converged
    assert result.objective >= 244.20
    assert certified_gap(topology, result) <= 1e-9 * result.objective


# -- degenerate programs ----------------------------------------------------


def calibration(seed=0):
    return generate_topology(
        paper_calibration_spec(), np.random.default_rng(seed)
    )


def assert_certified(topology, result, source_rates=None, capacities=None):
    assert result.converged, result.messages
    assert result.max_violation <= 1e-12
    assert validate_targets(
        result.targets, topology.placement, capacities
    ) == []
    assert certified_gap(
        topology, result, capacities, source_rates
    ) <= 1e-9 * abs(result.objective)


def test_zero_rate_source_has_no_interior_yet_converges():
    """A zero-rate source pins its PE (ingress cap = lower box), so the
    feasible set has no interior; the optimum is SLSQP's 50.689234.  The
    pinned shares come back exactly 0, never a round-off negative that
    validation would reject."""
    topology = calibration()
    rates = dict(topology.source_rates)
    rates[topology.graph.ingress_ids[0]] = 0.0
    result = solve_global_allocation(
        topology.graph, topology.placement, rates
    )
    assert_certified(topology, result, rates)
    assert result.objective == pytest.approx(50.689234, abs=1e-6)
    assert result.targets.rate_in[topology.graph.ingress_ids[0]] <= 1e-12
    assert min(result.targets.cpu.values()) >= 0.0
    # A source outage re-solves with a measured rate of 0: the wrapper
    # installs that solve instead of falling back or raising.
    tier1 = ResilientTier1()
    installed = tier1.solve(topology.graph, topology.placement, rates)
    assert installed.solver == "interior-point" and tier1.fallbacks == 0


def test_unlimited_ingress_gives_the_zero_row():
    """A source with no rate (``inf``) leaves an all-zero ingress row,
    which the solve drops; the point is still certified."""
    topology = calibration()
    rates = dict(topology.source_rates)
    rates[topology.graph.ingress_ids[0]] = float("inf")
    program = _Program(topology.graph, topology.placement, rates)
    assert not program.ingress_matrix[0].any()
    result = solve_global_allocation(
        topology.graph, topology.placement, rates
    )
    assert_certified(topology, result, rates)


def test_node_at_a_twentieth_of_capacity():
    topology = calibration()
    capacities = (0.05,) + (1.0,) * 9
    result = solve_global_allocation(
        topology.graph, topology.placement, topology.source_rates,
        capacities=capacities,
    )
    assert_certified(topology, result, capacities=capacities)
    residents = [p for p, node in topology.placement.items() if node == 0]
    assert sum(result.targets.cpu[p] for p in residents) <= 0.05 + 1e-12


def test_one_pe_program():
    graph = ProcessingGraph()
    graph.add_pe(
        PEProfile(pe_id="only", weight=1.0, t0=0.01, t1=0.01, lambda_s=0.0)
    )
    result = solve_global_allocation(graph, {"only": 0}, {"only": 30.0})
    assert result.converged and result.max_violation <= 1e-12
    assert result.targets.rate_in["only"] == pytest.approx(30.0, rel=1e-9)


def test_sensor_network_example_is_certified():
    """The sensor-network example's query drives the reduced Newton
    matrix singular in floating point (condition ~2e19 at the twelfth
    step); the jittered retry of that one solve still reaches a certified
    optimum."""
    from examples.sensor_network_query import build_query

    topology = build_query()
    result = solve_global_allocation(
        topology.graph, topology.placement, topology.source_rates
    )
    assert_certified(topology, result)
    assert result.objective == pytest.approx(8.0956256086, abs=1e-9)


def test_iteration_cap_returns_unconverged_and_is_never_installed_invalid(
    monkeypatch,
):
    """Two Newton steps cannot converge: the solve says so and returns
    its last iterate, and ResilientTier1 installs that iterate only if
    it passes validation (else it keeps the last good targets)."""
    topology = calibration()
    good = ResilientTier1().solve(
        topology.graph, topology.placement, topology.source_rates
    )
    monkeypatch.setattr(global_opt, "_MAX_ITERATIONS", 2)
    result = solve_global_allocation(
        topology.graph, topology.placement, topology.source_rates
    )
    assert not result.converged
    assert result.iterations == 2
    assert "iteration cap" in result.messages[0]
    tier1 = ResilientTier1()
    tier1.last_good = good
    installed = tier1.solve(
        topology.graph, topology.placement, topology.source_rates
    )
    assert not installed.converged
    assert validate_targets(installed.targets, topology.placement) == []
    assert tier1.last_good.targets == installed.targets


def sweep_program(rng):
    """One program from the degenerate mix: calibration, small or
    uncalibrated topology, source rates scaled x1/4 to x4, sometimes a
    zero-rate source, sometimes node capacities drawn from 0.3-1.5."""
    kind = rng.integers(3)
    spec = (
        paper_calibration_spec(),
        SMALL_SPEC,
        paper_calibration_spec(calibrate_rates=False),
    )[kind]
    topology = generate_topology(
        spec, np.random.default_rng(int(rng.integers(1 << 30)))
    )
    factor = float(rng.choice([0.25, 0.5, 1.0, 2.0, 4.0]))
    rates = {p: r * factor for p, r in topology.source_rates.items()}
    if rng.random() < 0.3:
        ingress = topology.graph.ingress_ids
        rates[ingress[int(rng.integers(len(ingress)))]] = 0.0
    capacities = None
    if rng.random() < 0.3:
        capacities = tuple(rng.uniform(0.3, 1.5, size=spec.num_nodes))
    return topology, rates, capacities


def test_seeded_sweep_converges_feasible_and_certified():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        topology, rates, capacities = sweep_program(rng)
        result = solve_global_allocation(
            topology.graph, topology.placement, rates, capacities=capacities
        )
        assert_certified(topology, result, rates, capacities)


# -- BLAS threads ------------------------------------------------------------


_TARGET_HASHES = """
import hashlib

import numpy as np

from repro.core.global_opt import solve_global_allocation
from repro.graph.topology import generate_topology, paper_calibration_spec

for seed in range(6):
    topology = generate_topology(
        paper_calibration_spec(), np.random.default_rng(seed)
    )
    result = solve_global_allocation(
        topology.graph, topology.placement, topology.source_rates
    )
    cpu = np.array([result.targets.cpu[p] for p in sorted(result.targets.cpu)])
    print(hashlib.sha256(cpu.tobytes()).hexdigest())
"""


def test_calibration_targets_do_not_depend_on_blas_threads():
    """At calibration scale the targets are the same bytes at one, two
    and four OpenBLAS threads (the reduced system is below numpy's
    threaded LAPACK sizes)."""
    import os
    import pathlib
    import subprocess
    import sys

    root = pathlib.Path(__file__).resolve().parent.parent
    hashes = []
    for threads in ("1", "2", "4"):
        run = subprocess.run(
            [sys.executable, "-c", _TARGET_HASHES],
            cwd=root,
            env=dict(
                os.environ,
                PYTHONPATH=str(root / "src"),
                OPENBLAS_NUM_THREADS=threads,
            ),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert run.returncode == 0, run.stderr
        hashes.append(run.stdout.split())
    assert len(hashes[0]) == 6
    assert hashes[0] == hashes[1] == hashes[2]
