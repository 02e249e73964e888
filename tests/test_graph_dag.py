"""Tests for the processing-graph DAG structure."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.dag import GraphValidationError, ProcessingGraph
from repro.model.params import PEProfile


def build_diamond():
    """src -> (a, b) -> sink."""
    graph = ProcessingGraph()
    for pe_id in ("src", "a", "b", "sink"):
        graph.add_pe(PEProfile(pe_id=pe_id))
    graph.add_edge("src", "a")
    graph.add_edge("src", "b")
    graph.add_edge("a", "sink")
    graph.add_edge("b", "sink")
    return graph


class TestConstruction:
    def test_duplicate_pe_rejected(self):
        graph = ProcessingGraph()
        graph.add_pe(PEProfile(pe_id="x"))
        with pytest.raises(GraphValidationError):
            graph.add_pe(PEProfile(pe_id="x"))

    def test_edge_unknown_pe_rejected(self):
        graph = ProcessingGraph()
        graph.add_pe(PEProfile(pe_id="x"))
        with pytest.raises(GraphValidationError):
            graph.add_edge("x", "y")

    def test_self_loop_rejected(self):
        graph = ProcessingGraph()
        graph.add_pe(PEProfile(pe_id="x"))
        with pytest.raises(GraphValidationError):
            graph.add_edge("x", "x")

    def test_duplicate_edge_rejected(self):
        graph = build_diamond()
        with pytest.raises(GraphValidationError):
            graph.add_edge("src", "a")

    def test_cycle_rejected_and_rolled_back(self):
        graph = build_diamond()
        with pytest.raises(GraphValidationError):
            graph.add_edge("sink", "src")
        assert ("sink", "src") not in graph.edges()

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=60
        )
    )
    def test_add_edge_agrees_with_whole_graph_check(self, pairs):
        """``add_edge`` searches only the consumer's descendants; the
        reference inserts into a copy and checks the whole graph.  Edges
        run forward, backward and repeat, so every rejection is drawn."""
        graph = ProcessingGraph()
        for i in range(12):
            graph.add_pe(PEProfile(pe_id=f"pe-{i}"))
        reference = nx.DiGraph()
        reference.add_nodes_from(graph.pe_ids)
        for producer, consumer in (
            (f"pe-{a}", f"pe-{b}") for a, b in pairs
        ):
            if producer == consumer:
                expected = f"self-loop on {producer!r}"
            elif reference.has_edge(producer, consumer):
                expected = f"duplicate edge {producer!r} -> {consumer!r}"
            else:
                trial = reference.copy()
                trial.add_edge(producer, consumer)
                if nx.is_directed_acyclic_graph(trial):
                    expected = None
                    reference = trial
                else:
                    expected = (
                        f"edge {producer!r} -> {consumer!r} "
                        "would create a cycle"
                    )
            if expected is None:
                graph.add_edge(producer, consumer)
            else:
                with pytest.raises(GraphValidationError) as raised:
                    graph.add_edge(producer, consumer)
                assert str(raised.value) == expected
            # Accepted edges are in; a rejected call left no trace.
            assert graph.edges() == list(reference.edges())
        graph.validate()

    def test_len_and_contains(self):
        graph = build_diamond()
        assert len(graph) == 4
        assert "src" in graph
        assert "nope" not in graph


class TestAgainstNetworkx:
    """The adjacency maps answer every structural question the way a
    networkx graph holding the same accepted edges does, in the same
    order where order is part of the answer."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.permutations([f"pe-{i}" for i in range(14)]),
        st.lists(
            st.tuples(st.integers(0, 13), st.integers(0, 13)), max_size=50
        ),
    )
    def test_structure_matches(self, ids, pairs):
        graph = ProcessingGraph()
        reference = nx.DiGraph()
        for pe_id in ids:
            graph.add_pe(PEProfile(pe_id=pe_id))
            reference.add_node(pe_id)
        for a, b in pairs:
            try:
                graph.add_edge(ids[a], ids[b])
            except GraphValidationError:
                continue
            reference.add_edge(ids[a], ids[b])
        assert nx.is_directed_acyclic_graph(reference)
        order = list(nx.lexicographical_topological_sort(reference))
        assert graph.topological_order() == order
        assert graph.reverse_topological_order() == order[::-1]
        assert graph.edges() == list(reference.edges())
        for pe_id in ids:
            assert graph.upstream(pe_id) == list(reference.predecessors(pe_id))
            assert graph.downstream(pe_id) == list(reference.successors(pe_id))
            assert graph.fan_in(pe_id) == reference.in_degree(pe_id)
            assert graph.fan_out(pe_id) == reference.out_degree(pe_id)
            assert graph.ancestors(pe_id) == nx.ancestors(reference, pe_id)
            assert graph.descendants(pe_id) == nx.descendants(
                reference, pe_id
            )
        assert graph.ingress_ids == [
            p for p in reference if reference.in_degree(p) == 0
        ]
        assert graph.egress_ids == [
            p for p in reference if reference.out_degree(p) == 0
        ]
        assert graph.connected_components() == [
            set(c) for c in nx.weakly_connected_components(reference)
        ]
        assert graph.depth() == nx.dag_longest_path_length(reference)
        graph.validate()

    def test_empty_graph_depth(self):
        assert ProcessingGraph().depth() == 0
        assert ProcessingGraph().connected_components() == []


class TestStructure:
    def test_upstream_downstream(self):
        graph = build_diamond()
        assert set(graph.upstream("sink")) == {"a", "b"}
        assert set(graph.downstream("src")) == {"a", "b"}
        assert graph.upstream("src") == []
        assert graph.downstream("sink") == []

    def test_fan_degrees(self):
        graph = build_diamond()
        assert graph.fan_out("src") == 2
        assert graph.fan_in("sink") == 2
        assert graph.fan_in("a") == 1

    def test_ingress_egress_intermediate(self):
        graph = build_diamond()
        assert graph.ingress_ids == ["src"]
        assert graph.egress_ids == ["sink"]
        assert set(graph.intermediate_ids) == {"a", "b"}

    def test_topological_order_respects_edges(self):
        graph = build_diamond()
        order = graph.topological_order()
        assert order.index("src") < order.index("a")
        assert order.index("a") < order.index("sink")
        assert order.index("b") < order.index("sink")

    def test_topological_order_deterministic(self):
        assert (
            build_diamond().topological_order()
            == build_diamond().topological_order()
        )

    def test_reverse_topological_order(self):
        graph = build_diamond()
        assert graph.reverse_topological_order() == list(
            reversed(graph.topological_order())
        )

    def test_depth(self):
        assert build_diamond().depth() == 2

    def test_ancestors_descendants(self):
        graph = build_diamond()
        assert graph.descendants("src") == {"a", "b", "sink"}
        assert graph.ancestors("sink") == {"src", "a", "b"}

    def test_connected_components(self):
        graph = build_diamond()
        graph.add_pe(PEProfile(pe_id="lonely-src"))
        graph.add_pe(PEProfile(pe_id="lonely-sink"))
        graph.add_edge("lonely-src", "lonely-sink")
        components = graph.connected_components()
        assert len(components) == 2
        assert {"lonely-src", "lonely-sink"} in components


class TestValidation:
    def test_valid_graph_passes(self):
        build_diamond().validate(max_fan_in=3, max_fan_out=4)

    def test_empty_graph_fails(self):
        with pytest.raises(GraphValidationError):
            ProcessingGraph().validate()

    def test_cycle_fails(self):
        """``validate`` checks acyclicity itself — on a cycle slipped in
        behind ``add_edge`` — rather than trusting the per-edge check."""
        graph = build_diamond()
        graph._succ["sink"]["src"] = None
        graph._pred["src"]["sink"] = None
        with pytest.raises(GraphValidationError, match="cycle"):
            graph.validate()

    def test_unexpected_role_fails(self):
        graph = build_diamond()
        graph.add_pe(PEProfile(pe_id="orphan"))
        with pytest.raises(GraphValidationError, match="orphan"):
            graph.validate(
                expected_ingress={"src"}, expected_egress={"sink"}
            )

    def test_expected_roles_pass(self):
        build_diamond().validate(
            expected_ingress={"src"}, expected_egress={"sink"}
        )

    def test_missing_expected_ingress_fails(self):
        graph = build_diamond()
        with pytest.raises(GraphValidationError, match="missing"):
            graph.validate(expected_ingress={"src", "ghost"})

    def test_fan_in_cap_enforced(self):
        graph = build_diamond()
        with pytest.raises(GraphValidationError, match="fan-in"):
            graph.validate(max_fan_in=1)

    def test_fan_out_cap_enforced(self):
        graph = build_diamond()
        with pytest.raises(GraphValidationError, match="fan-out"):
            graph.validate(max_fan_out=1)

    def test_profile_lookup(self):
        graph = build_diamond()
        assert graph.profile("src").pe_id == "src"
        assert set(graph.profiles) == {"src", "a", "b", "sink"}
