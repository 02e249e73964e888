"""Placement optimization: the assignment half of Tier 1.

The paper's first tier "determines the assignment of PEs to PNs"
(Section I) alongside the fractional allocations; re-running it "when PEs
are deployed or terminate and periodically" adapts placement to workload.
:func:`optimize_placement` implements that step as a local search over
single-PE moves and pairwise swaps, scoring each candidate placement by
the Tier-1 optimum it admits (the weighted-throughput objective of
:func:`repro.core.global_opt.solve_global_allocation`).

Scoring a candidate requires solving the concave program, so the search
budget is expressed in *evaluations*; a greedy first-improvement strategy
with a move neighbourhood keeps the count low.  For large systems, seed
the search with :func:`repro.graph.placement.load_balanced_placement`.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field

import numpy as np

from repro.graph.dag import ProcessingGraph
from repro.graph.placement import Placement


@dataclass
class PlacementSearchResult:
    """Outcome of a placement local search."""

    placement: Placement
    objective: float
    initial_objective: float
    evaluations: int
    improvements: _t.List[_t.Tuple[str, float]] = field(default_factory=list)

    @property
    def gain(self) -> float:
        """Relative objective improvement over the initial placement."""
        if self.initial_objective == 0:
            return 0.0
        return self.objective / self.initial_objective - 1.0


def _score(
    graph: ProcessingGraph,
    placement: Placement,
    source_rates: _t.Mapping[str, float],
    capacities: _t.Optional[_t.Sequence[float]],
) -> float:
    # Imported lazily: repro.core depends on repro.graph for its data
    # structures, so importing the solver at module load would be cyclic.
    from repro.core.global_opt import solve_global_allocation

    return solve_global_allocation(
        graph, placement, source_rates, capacities=capacities,
    ).objective


def optimize_placement(
    graph: ProcessingGraph,
    initial: Placement,
    source_rates: _t.Mapping[str, float],
    num_nodes: int,
    max_evaluations: int = 60,
    rng: _t.Optional[np.random.Generator] = None,
    capacities: _t.Optional[_t.Sequence[float]] = None,
) -> PlacementSearchResult:
    """Greedy local search over PE moves, scored by the Tier-1 optimum.

    Parameters
    ----------
    graph, source_rates:
        The processing graph and offered ingress rates.
    initial:
        Starting placement (e.g. load-balanced).
    num_nodes:
        Number of processing nodes available.
    max_evaluations:
        Budget of Tier-1 solves (each candidate costs one).
    rng:
        Randomizes the order in which candidate moves are tried; defaults
        to a fixed seed for reproducibility.
    capacities:
        Nominal CPU capacity of each node by index, which every scoring
        solve plans within; None means every node has capacity 1.0.

    Returns
    -------
    PlacementSearchResult
        Best placement found, its objective, and the search trace.
    """
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    if max_evaluations < 1:
        raise ValueError("max_evaluations must be >= 1")
    if rng is None:
        rng = np.random.default_rng(0)

    current = dict(initial)

    # The local search revisits placements: a candidate differs from the
    # incumbent by a single PE, and rejected moves are retried from the
    # same incumbent on later sweeps.  Each solve is an interior-point
    # run over the whole system, so memoize scores by placement signature for the
    # duration of this call.  The ``evaluations`` budget still counts
    # cache hits — the search trajectory (and therefore the result) is
    # identical to the uncached search, just cheaper.
    cache: _t.Dict[_t.Tuple[_t.Tuple[str, int], ...], float] = {}

    def scored(placement: Placement) -> float:
        signature = tuple(sorted(placement.items()))
        hit = cache.get(signature)
        if hit is None:
            hit = _score(graph, placement, source_rates, capacities)
            cache[signature] = hit
        return hit

    evaluations = 1
    current_score = scored(current)
    initial_score = current_score
    improvements: _t.List[_t.Tuple[str, float]] = []

    # Candidate moves: relocate one PE to another node.  Prioritize PEs on
    # the most-loaded nodes (they are the likeliest bottlenecks).
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
                score = scored(candidate)
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
