"""The placement-search score cache changes cost, never the answer.

``optimize_placement`` scores candidates by solving the Tier-1 concave
program; the greedy search revisits placements (rejected moves retried
from the same incumbent on later sweeps), so scores are memoized by
placement signature for the duration of one call.  These tests pin the
contract: the cached search returns *exactly* what the uncached search
returns — same placement, objective, evaluation count, improvement
trace — while invoking the solver strictly fewer times.
"""

import typing as _t

import numpy as np

import repro.graph.placement_opt as placement_opt
from repro.graph.placement_opt import PlacementSearchResult, optimize_placement
from repro.graph.topology import TopologySpec, generate_topology


def _topology():
    spec = TopologySpec(
        num_nodes=3, num_ingress=2, num_egress=1, num_intermediate=5
    )
    return generate_topology(spec, np.random.default_rng(13))


def _reference_optimize(
    graph, initial, source_rates, num_nodes, max_evaluations
) -> PlacementSearchResult:
    """The pre-cache search loop, verbatim: every candidate re-solved."""
    rng = np.random.default_rng(0)
    current = dict(initial)
    evaluations = 1
    current_score = placement_opt._score(graph, current, source_rates, None)
    initial_score = current_score
    improvements: _t.List[_t.Tuple[str, float]] = []
    pe_ids = list(graph.pe_ids)
    improved = True
    while improved and evaluations < max_evaluations:
        improved = False
        order = list(pe_ids)
        rng.shuffle(order)
        for pe_id in order:
            if evaluations >= max_evaluations:
                break
            home = current[pe_id]
            targets = [n for n in range(num_nodes) if n != home]
            rng.shuffle(targets)
            for node in targets[: max(1, num_nodes // 4)]:
                if evaluations >= max_evaluations:
                    break
                candidate = dict(current)
                candidate[pe_id] = node
                evaluations += 1
                score = placement_opt._score(
                    graph, candidate, source_rates, None
                )
                if score > current_score * (1 + 1e-6):
                    current = candidate
                    current_score = score
                    improvements.append(
                        (f"move {pe_id} -> node {node}", score)
                    )
                    improved = True
                    break
    return PlacementSearchResult(
        placement=current,
        objective=current_score,
        initial_objective=initial_score,
        evaluations=evaluations,
        improvements=improvements,
    )


def test_cached_search_equals_uncached_search():
    topology = _topology()
    result = optimize_placement(
        topology.graph,
        dict(topology.placement),
        topology.source_rates,
        topology.num_nodes,
        max_evaluations=24,
    )
    reference = _reference_optimize(
        topology.graph,
        dict(topology.placement),
        topology.source_rates,
        topology.num_nodes,
        max_evaluations=24,
    )
    assert result.placement == reference.placement
    assert result.objective == reference.objective
    assert result.initial_objective == reference.initial_objective
    assert result.evaluations == reference.evaluations
    assert result.improvements == reference.improvements


def test_cache_skips_repeat_solves(monkeypatch):
    topology = _topology()
    signatures = []
    real_score = placement_opt._score

    def counting_score(graph, placement, source_rates, capacities):
        signatures.append(tuple(sorted(placement.items())))
        return real_score(graph, placement, source_rates, capacities)

    monkeypatch.setattr(placement_opt, "_score", counting_score)
    result = optimize_placement(
        topology.graph,
        dict(topology.placement),
        topology.source_rates,
        topology.num_nodes,
        max_evaluations=24,
    )
    # Every signature solved at most once...
    assert len(signatures) == len(set(signatures))
    # ...and the budget still counted cache hits, so the search made
    # strictly fewer solver calls than evaluations.
    assert len(signatures) < result.evaluations
