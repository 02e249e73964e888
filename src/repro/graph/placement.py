"""PE-to-node placement strategies.

Tier 1 of ACES assumes a placement is given (the paper's topology tool emits
one); these strategies produce it.  All return a dict ``pe_id -> node_index``
and are deterministic given their RNG.
"""

from __future__ import annotations

import heapq
import typing as _t

import numpy as np

from repro.graph.dag import ProcessingGraph

Placement = _t.Dict[str, int]


def _check(graph: ProcessingGraph, num_nodes: int) -> None:
    if num_nodes <= 0:
        raise ValueError(f"num_nodes must be positive, got {num_nodes}")
    if len(graph) == 0:
        raise ValueError("cannot place an empty graph")


def round_robin_placement(graph: ProcessingGraph, num_nodes: int) -> Placement:
    """Assign PEs to nodes cyclically in topological order.

    Topological order keeps pipeline neighbours on different nodes, which is
    the worst case for co-location coupling and therefore a good stress
    placement for the controller.
    """
    _check(graph, num_nodes)
    order = graph.topological_order()
    return {pe_id: index % num_nodes for index, pe_id in enumerate(order)}


def random_placement(
    graph: ProcessingGraph, num_nodes: int, rng: np.random.Generator
) -> Placement:
    """Uniform random placement (used by the randomized experiments)."""
    _check(graph, num_nodes)
    return {
        pe_id: int(rng.integers(0, num_nodes)) for pe_id in graph.pe_ids
    }


def load_balanced_placement(graph: ProcessingGraph, num_nodes: int) -> Placement:
    """Greedy longest-processing-time bin packing on expected per-SDO work.

    Sorts PEs by mean service time (the only load proxy available before the
    global optimization runs) and repeatedly assigns the heaviest unplaced
    PE to the least-loaded node.
    """
    _check(graph, num_nodes)
    placement: Placement = {}
    by_weight = sorted(
        graph.pe_ids,
        key=lambda pe_id: (-graph.profile(pe_id).mean_service_time, pe_id),
    )
    # (load, node) pairs: the heap's root is the least-loaded node, ties
    # going to the lowest index.
    loads = [(0.0, node) for node in range(num_nodes)]
    for pe_id in by_weight:
        load, target = loads[0]
        placement[pe_id] = target
        heapq.heapreplace(
            loads, (load + graph.profile(pe_id).mean_service_time, target)
        )
    return placement


def residents_by_node(
    order: _t.Iterable[str], placement: _t.Mapping[str, int], num_nodes: int
) -> _t.List[_t.List[str]]:
    """The PEs of ``order`` resident on each node, in ``order``'s order.

    Fed the topological order it yields each node's intra-node execution
    order (producers before consumers), which is also the layout of the
    control plane's index registry and of the Tier-1 variables.
    """
    residents: _t.List[_t.List[str]] = [[] for _ in range(num_nodes)]
    for pe_id in order:
        residents[placement[pe_id]].append(pe_id)
    return residents


def placement_load(
    graph: ProcessingGraph, placement: Placement, num_nodes: int
) -> _t.List[float]:
    """Per-node sum of mean service times, for diagnostics."""
    loads = [0.0] * num_nodes
    for pe_id, node in placement.items():
        loads[node] += graph.profile(pe_id).mean_service_time
    return loads
