"""The processing graph: a DAG of PE profiles.

Mirrors the paper's Section V-A notation: ``U(p_j)`` (upstream set),
``D(p_j)`` (downstream set), ingress PEs (fed by system input streams) and
egress PEs (``D(p_j)`` empty, their output is a system output stream).
"""

from __future__ import annotations

import heapq
import typing as _t

from repro.model.params import PEProfile


class GraphValidationError(Exception):
    """The processing graph violates a structural constraint."""


class ProcessingGraph:
    """A directed acyclic graph of :class:`~repro.model.params.PEProfile`.

    Edges point in the direction of data flow (producer -> consumer).
    The structure is two insertion-ordered adjacency maps, ``_succ`` and
    ``_pred`` (PE id -> neighbours, as dict keys), so every neighbour
    list and the edge list come out in the order they were added.
    """

    def __init__(self) -> None:
        self._profiles: _t.Dict[str, PEProfile] = {}
        self._succ: _t.Dict[str, _t.Dict[str, None]] = {}
        self._pred: _t.Dict[str, _t.Dict[str, None]] = {}

    # -- construction --------------------------------------------------------

    def add_pe(self, profile: PEProfile) -> None:
        """Register a PE; id must be unique."""
        if profile.pe_id in self._profiles:
            raise GraphValidationError(f"duplicate PE id {profile.pe_id!r}")
        self._profiles[profile.pe_id] = profile
        self._succ[profile.pe_id] = {}
        self._pred[profile.pe_id] = {}

    def add_edge(self, producer: str, consumer: str) -> None:
        """Connect ``producer``'s output stream to ``consumer``'s input.

        Rejects an unknown id, a self-loop, a duplicate edge and an edge
        that would close a cycle, each with :class:`GraphValidationError`
        and without touching the graph.  The graph is acyclic before
        every call, so the new edge closes a cycle exactly when
        ``consumer`` already reaches ``producer``: the check searches
        ``consumer``'s descendants only, and the whole-graph acyclicity
        check is left to :meth:`validate`.
        """
        for pe_id in (producer, consumer):
            if pe_id not in self._profiles:
                raise GraphValidationError(f"unknown PE id {pe_id!r}")
        if producer == consumer:
            raise GraphValidationError(f"self-loop on {producer!r}")
        if consumer in self._succ[producer]:
            raise GraphValidationError(
                f"duplicate edge {producer!r} -> {consumer!r}"
            )
        if producer in self._closure(consumer, self._succ):
            raise GraphValidationError(
                f"edge {producer!r} -> {consumer!r} would create a cycle"
            )
        self._succ[producer][consumer] = None
        self._pred[consumer][producer] = None

    @staticmethod
    def _closure(
        start: str, adjacency: _t.Dict[str, _t.Dict[str, None]]
    ) -> _t.Set[str]:
        """Every PE reachable from ``start`` over ``adjacency``, itself
        excluded unless a cycle leads back to it."""
        seen: _t.Set[str] = set()
        stack = [start]
        while stack:
            for pe_id in adjacency[stack.pop()]:
                if pe_id not in seen:
                    seen.add(pe_id)
                    stack.append(pe_id)
        return seen

    # -- lookup ------------------------------------------------------------

    def profile(self, pe_id: str) -> PEProfile:
        return self._profiles[pe_id]

    @property
    def pe_ids(self) -> _t.List[str]:
        return list(self._profiles)

    @property
    def profiles(self) -> _t.Dict[str, PEProfile]:
        return dict(self._profiles)

    def __len__(self) -> int:
        return len(self._profiles)

    def __contains__(self, pe_id: str) -> bool:
        return pe_id in self._profiles

    # -- structure ---------------------------------------------------------

    def upstream(self, pe_id: str) -> _t.List[str]:
        """The paper's ``U(p_j)``: PEs feeding data to ``pe_id``."""
        return list(self._pred[pe_id])

    def downstream(self, pe_id: str) -> _t.List[str]:
        """The paper's ``D(p_j)``: PEs fed by ``pe_id``."""
        return list(self._succ[pe_id])

    def fan_in(self, pe_id: str) -> int:
        return len(self._pred[pe_id])

    def fan_out(self, pe_id: str) -> int:
        return len(self._succ[pe_id])

    @property
    def ingress_ids(self) -> _t.List[str]:
        """PEs with no upstream PEs (fed by system input streams)."""
        return [p for p, feeds in self._pred.items() if not feeds]

    @property
    def egress_ids(self) -> _t.List[str]:
        """PEs with no downstream PEs (their output leaves the system)."""
        return [p for p, fed in self._succ.items() if not fed]

    @property
    def intermediate_ids(self) -> _t.List[str]:
        return [p for p in self._profiles if self._pred[p] and self._succ[p]]

    def edges(self) -> _t.List[_t.Tuple[str, str]]:
        return [(p, c) for p, fed in self._succ.items() for c in fed]

    def topological_order(self) -> _t.List[str]:
        """PE ids ordered so producers precede their consumers.

        Kahn's algorithm with a heap of ready ids: ties are broken
        lexicographically so the order is deterministic.  Raises
        :class:`GraphValidationError` if the graph has a cycle.
        """
        indegree = {p: len(feeds) for p, feeds in self._pred.items()}
        ready = [p for p, n in indegree.items() if n == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            pe_id = heapq.heappop(ready)
            order.append(pe_id)
            for child in self._succ[pe_id]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    heapq.heappush(ready, child)
        if len(order) < len(indegree):
            raise GraphValidationError("graph has a cycle")
        return order

    def reverse_topological_order(self) -> _t.List[str]:
        """Consumers before producers — the feedback propagation order."""
        return list(reversed(self.topological_order()))

    def connected_components(self) -> _t.List[_t.Set[str]]:
        """Weakly connected components (paper Section III-B), in the
        order of each component's first-added PE."""
        seen: _t.Set[str] = set()
        components = []
        for root in self._profiles:
            if root in seen:
                continue
            component = {root}
            stack = [root]
            while stack:
                pe_id = stack.pop()
                for other in (*self._succ[pe_id], *self._pred[pe_id]):
                    if other not in component:
                        component.add(other)
                        stack.append(other)
            seen |= component
            components.append(component)
        return components

    def depth(self) -> int:
        """Longest path length (number of edges) in the DAG."""
        longest: _t.Dict[str, int] = {}
        for pe_id in self.topological_order():
            longest[pe_id] = max(
                (longest[p] + 1 for p in self._pred[pe_id]), default=0
            )
        return max(longest.values(), default=0)

    def descendants(self, pe_id: str) -> _t.Set[str]:
        return self._closure(pe_id, self._succ)

    def ancestors(self, pe_id: str) -> _t.Set[str]:
        return self._closure(pe_id, self._pred)

    # -- validation --------------------------------------------------------

    def validate(
        self,
        max_fan_in: _t.Optional[int] = None,
        max_fan_out: _t.Optional[int] = None,
        expected_ingress: _t.Optional[_t.Set[str]] = None,
        expected_egress: _t.Optional[_t.Set[str]] = None,
    ) -> None:
        """Check structural invariants; raises GraphValidationError.

        * the graph is a non-empty DAG — one whole-graph pass,
          independent of the per-edge reachability check in
          :meth:`add_edge`;
        * optional fan-in / fan-out caps (the paper uses 3 / 4);
        * when the intended ingress/egress roles are given (e.g. by the
          topology generator's layering), every intended ingress PE must
          actually have no upstream, every intended egress PE no
          downstream, and no other PE may accidentally take such a role —
          which also guarantees every PE lies on an ingress -> egress path.
        """
        if not self._profiles:
            raise GraphValidationError("graph has no PEs")
        self.topological_order()
        for pe_id in self._profiles:
            if max_fan_in is not None and self.fan_in(pe_id) > max_fan_in:
                raise GraphValidationError(
                    f"{pe_id!r} fan-in {self.fan_in(pe_id)} > {max_fan_in}"
                )
            if max_fan_out is not None and self.fan_out(pe_id) > max_fan_out:
                raise GraphValidationError(
                    f"{pe_id!r} fan-out {self.fan_out(pe_id)} > {max_fan_out}"
                )
        if expected_ingress is not None:
            actual = set(self.ingress_ids)
            if actual != expected_ingress:
                raise GraphValidationError(
                    "ingress role mismatch: "
                    f"unexpected {sorted(actual - expected_ingress)}, "
                    f"missing {sorted(expected_ingress - actual)}"
                )
        if expected_egress is not None:
            actual = set(self.egress_ids)
            if actual != expected_egress:
                raise GraphValidationError(
                    "egress role mismatch: "
                    f"unexpected {sorted(actual - expected_egress)}, "
                    f"missing {sorted(expected_egress - actual)}"
                )

    def __repr__(self) -> str:
        return (
            f"ProcessingGraph(pes={len(self._profiles)}, "
            f"edges={sum(map(len, self._succ.values()))})"
        )
