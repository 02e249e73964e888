"""ABLATION — placement strategies and Tier-1 placement optimization.

The paper's first tier owns the PE-to-PN assignment.  This bench compares
the admissible weighted-throughput optimum (the Tier-1 objective) under
round-robin, random, and load-balanced placement, and then lets the
local-search optimizer improve the load-balanced one.
"""

import numpy as np

from repro.core.global_opt import solve_global_allocation
from repro.graph.placement import (
    load_balanced_placement,
    random_placement,
    round_robin_placement,
)
from repro.graph.placement_opt import optimize_placement
from repro.graph.topology import TopologySpec, generate_topology


def run_comparison():
    spec = TopologySpec(
        num_nodes=6,
        num_ingress=5,
        num_egress=5,
        num_intermediate=14,
        service_heterogeneity=3.0,
    )
    rng = np.random.default_rng(0)
    topology = generate_topology(spec, rng)
    graph = topology.graph
    rates = topology.source_rates

    placements = {
        "round_robin": round_robin_placement(graph, spec.num_nodes),
        "random": random_placement(graph, spec.num_nodes, rng),
        "load_balanced": load_balanced_placement(graph, spec.num_nodes),
    }
    rows = []
    for name, placement in placements.items():
        objective = solve_global_allocation(graph, placement, rates).objective
        rows.append({"placement": name, "tier1_objective": objective})

    search = optimize_placement(
        graph,
        placements["load_balanced"],
        rates,
        num_nodes=spec.num_nodes,
        max_evaluations=40,
    )
    rows.append(
        {
            "placement": "optimized (local search)",
            "tier1_objective": search.objective,
        }
    )
    rows.sort(key=lambda row: row["tier1_objective"])
    return rows, search


def test_placement_strategies(benchmark, record_table):
    rows, search = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    record_table("placement", rows, precision=3)
    by_name = {row["placement"]: row["tier1_objective"] for row in rows}
    # Load balancing beats blind strategies; the optimizer never regresses.
    assert by_name["load_balanced"] >= 0.95 * by_name["round_robin"]
    assert (
        by_name["optimized (local search)"]
        >= by_name["load_balanced"] - 1e-9
    )
    assert search.evaluations <= 40
