"""Tests for the Tier-1 global weighted-throughput optimization."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.global_opt import (
    _Program,
    _project_node_capacity,
    solve_global_allocation,
)
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
        assert result.solver == "slsqp"
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


def test_slsqp_finite_differences_nothing(monkeypatch):
    import scipy.optimize._slsqp_py as slsqp_py

    def refuse(*args, **kwargs):
        raise AssertionError("SLSQP finite-differenced a derivative")

    monkeypatch.setattr(slsqp_py, "approx_derivative", refuse)
    topology = generate_topology(
        paper_calibration_spec(), np.random.default_rng(0)
    )
    result = solve_global_allocation(
        topology.graph, topology.placement, topology.source_rates
    )
    assert result.converged


# -- the exact capacity projection ------------------------------------------


def bisection_projection(program, c, steps=200):
    """The reference: bisection on the shifted-simplex dual variable."""
    projected = np.clip(c, program.lower, program.upper)
    for members, bound in zip(program.node_members, program.node_bound):
        if projected[members].sum() <= bound:
            continue
        values = c[members]
        low, high = program.lower[members], program.upper[members]
        lo, hi = 0.0, float(values.max() - low.min()) + 1.0
        for _ in range(steps):
            mid = 0.5 * (lo + hi)
            if np.clip(values - mid, low, high).sum() > bound:
                lo = mid
            else:
                hi = mid
        projected[members] = np.clip(values - hi, low, high)
    return projected


@st.composite
def capacity_rows(draw):
    """Nodes of 1-6 members with drawn capacities, boxes and values:
    repeated values (ties), values outside the box (active bounds) and,
    when ``excess`` is drawn, node sums a hair above the capacity."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    capacity = np.array(
        draw(st.lists(
            st.sampled_from([1.0, 0.5, 1.5]),
            min_size=len(sizes), max_size=len(sizes),
        ))
    )
    n = sum(sizes)
    scale = np.repeat(capacity, sizes)
    unit = st.floats(0.0, 1.0)
    lower = np.array(draw(st.lists(unit, min_size=n, max_size=n))) * 0.15
    upper = np.maximum(
        lower,
        np.array(draw(st.lists(unit, min_size=n, max_size=n))) * 0.6 + 0.4,
    )
    lower, upper = lower * scale, upper * scale
    pool = draw(st.lists(st.floats(-0.3, 1.3), min_size=1, max_size=4))
    c = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    bounds = np.cumsum([0] + sizes)
    members = [np.arange(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    excess = draw(st.sampled_from([None, 1e-15, 1e-12, 1e-9, 1e-4]))
    if excess is not None:
        for index, bound in zip(members, capacity):
            inside = np.clip(c[index], lower[index], upper[index])
            c[index] = inside + (bound + excess - inside.sum()) / len(index)
    return SimpleNamespace(
        lower=lower, upper=upper, node_members=members, node_bound=capacity
    ), c


@settings(max_examples=300, deadline=None)
@given(capacity_rows())
def test_capacity_projection_is_exact(case):
    program, c = case
    projected = _project_node_capacity(program, c)
    assert np.all(program.lower <= projected)
    assert np.all(projected <= program.upper)
    for members, bound in zip(program.node_members, program.node_bound):
        assert projected[members].sum() <= bound + 1e-12
    np.testing.assert_allclose(
        _project_node_capacity(program, projected), projected,
        rtol=0, atol=1e-12,
    )
    np.testing.assert_allclose(
        projected, bisection_projection(program, c), rtol=0, atol=1e-12
    )


# -- how SLSQP's stop is judged --------------------------------------------


def test_feasible_status_8_stop_is_converged(monkeypatch):
    """SLSQP's "positive directional derivative" exit at a feasible point
    is accepted; any other failure is not, yet still returns a feasible
    point."""
    import scipy.optimize

    graph, placement = two_stage_pipeline()
    status = {}

    def stop(fun, x0, **kwargs):
        return scipy.optimize.OptimizeResult(
            x=x0, status=status["code"], success=False, nit=7,
            message=f"exit {status['code']}",
        )

    monkeypatch.setattr(scipy.optimize, "minimize", stop)
    status["code"] = 8
    result = solve_global_allocation(graph, placement, {"src": 30.0})
    assert result.converged and result.max_violation <= 1e-9
    assert any("status 8" in message for message in result.messages)
    status["code"] = 9
    result = solve_global_allocation(graph, placement, {"src": 30.0})
    assert not result.converged
    assert result.messages == ["exit 9"]
    assert result.solver == "slsqp"
    assert result.max_violation <= 1e-9


# -- an optimality certificate for SLSQP's point ----------------------------


def certified_gap(topology, result, capacities=None):
    """An upper bound on how far ``result`` lies below the true optimum.

    The objective f is concave on the polytope P, so for every c in P
    ``f(c) <= f(c*) + grad f(c*) . (c - c*)``; one LP over the program's
    own constraint matrices and box maximizes the right-hand side.
    """
    from scipy.optimize import linprog

    program = _Program(
        topology.graph, topology.placement, topology.source_rates,
        capacities,
    )
    point = np.array([result.targets.cpu[p] for p in program.pe_ids])
    gradient = program.objective_gradient(point)
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
def test_slsqp_point_is_certified_optimal(spec, seed, capacities):
    """SLSQP's point is within 1e-6 relative of the true optimum (and,
    by ``max_violation``, within every node's own capacity)."""
    topology = generate_topology(spec, np.random.default_rng(seed))
    result = solve_global_allocation(
        topology.graph, topology.placement, topology.source_rates,
        capacities=capacities,
    )
    assert result.converged and result.max_violation <= 1e-9
    assert certified_gap(topology, result, capacities) <= 1e-6 * abs(
        result.objective
    )


def test_slsqp_converges_at_main_scale():
    """The paper's 200 PE / 80 node scale, topology seed 0: a feasible
    status-8 stop counts as converged, and its point is certified."""
    topology = generate_topology(
        scaled_main_spec(1), np.random.default_rng(0)
    )
    result = solve_global_allocation(
        topology.graph, topology.placement, topology.source_rates
    )
    assert result.solver == "slsqp"
    assert result.converged
    assert result.objective >= 244.20
    assert certified_gap(topology, result) <= 1e-6 * result.objective
