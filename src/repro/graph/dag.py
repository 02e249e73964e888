"""The processing graph: a DAG of PE profiles.

Mirrors the paper's Section V-A notation: ``U(p_j)`` (upstream set),
``D(p_j)`` (downstream set), ingress PEs (fed by system input streams) and
egress PEs (``D(p_j)`` empty, their output is a system output stream).
"""

from __future__ import annotations

import typing as _t

import networkx as nx

from repro.model.params import PEProfile


class GraphValidationError(Exception):
    """The processing graph violates a structural constraint."""


class ProcessingGraph:
    """A directed acyclic graph of :class:`~repro.model.params.PEProfile`.

    Edges point in the direction of data flow (producer -> consumer).
    """

    def __init__(self) -> None:
        self._graph = nx.DiGraph()
        self._profiles: _t.Dict[str, PEProfile] = {}

    # -- construction --------------------------------------------------------

    def add_pe(self, profile: PEProfile) -> None:
        """Register a PE; id must be unique."""
        if profile.pe_id in self._profiles:
            raise GraphValidationError(f"duplicate PE id {profile.pe_id!r}")
        self._profiles[profile.pe_id] = profile
        self._graph.add_node(profile.pe_id)

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
        if self._graph.has_edge(producer, consumer):
            raise GraphValidationError(
                f"duplicate edge {producer!r} -> {consumer!r}"
            )
        if self._reaches(consumer, producer):
            raise GraphValidationError(
                f"edge {producer!r} -> {consumer!r} would create a cycle"
            )
        self._graph.add_edge(producer, consumer)

    def _reaches(self, start: str, goal: str) -> bool:
        """Whether a directed path leads from ``start`` to ``goal``."""
        successors = self._graph.successors
        seen = {start}
        stack = [start]
        while stack:
            for pe_id in successors(stack.pop()):
                if pe_id == goal:
                    return True
                if pe_id not in seen:
                    seen.add(pe_id)
                    stack.append(pe_id)
        return False

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
        return list(self._graph.predecessors(pe_id))

    def downstream(self, pe_id: str) -> _t.List[str]:
        """The paper's ``D(p_j)``: PEs fed by ``pe_id``."""
        return list(self._graph.successors(pe_id))

    def fan_in(self, pe_id: str) -> int:
        return self._graph.in_degree(pe_id)

    def fan_out(self, pe_id: str) -> int:
        return self._graph.out_degree(pe_id)

    @property
    def ingress_ids(self) -> _t.List[str]:
        """PEs with no upstream PEs (fed by system input streams)."""
        return [p for p in self._profiles if self._graph.in_degree(p) == 0]

    @property
    def egress_ids(self) -> _t.List[str]:
        """PEs with no downstream PEs (their output leaves the system)."""
        return [p for p in self._profiles if self._graph.out_degree(p) == 0]

    @property
    def intermediate_ids(self) -> _t.List[str]:
        return [
            p
            for p in self._profiles
            if self._graph.in_degree(p) > 0 and self._graph.out_degree(p) > 0
        ]

    def edges(self) -> _t.List[_t.Tuple[str, str]]:
        return list(self._graph.edges())

    def topological_order(self) -> _t.List[str]:
        """PE ids ordered so producers precede their consumers.

        Ties are broken lexicographically so the order is deterministic.
        """
        return list(nx.lexicographical_topological_sort(self._graph))

    def reverse_topological_order(self) -> _t.List[str]:
        """Consumers before producers — the feedback propagation order."""
        return list(reversed(self.topological_order()))

    def connected_components(self) -> _t.List[_t.Set[str]]:
        """Weakly connected components (paper Section III-B)."""
        return [set(c) for c in nx.weakly_connected_components(self._graph)]

    def depth(self) -> int:
        """Longest path length (number of edges) in the DAG."""
        if not self._profiles:
            return 0
        return nx.dag_longest_path_length(self._graph)

    def descendants(self, pe_id: str) -> _t.Set[str]:
        return set(nx.descendants(self._graph, pe_id))

    def ancestors(self, pe_id: str) -> _t.Set[str]:
        return set(nx.ancestors(self._graph, pe_id))

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
        if not nx.is_directed_acyclic_graph(self._graph):
            raise GraphValidationError("graph has a cycle")
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
            f"edges={self._graph.number_of_edges()})"
        )
