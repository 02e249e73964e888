"""Tests for PE-to-node placement strategies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.dag import ProcessingGraph
from repro.graph.placement import (
    load_balanced_placement,
    placement_load,
    random_placement,
    residents_by_node,
    round_robin_placement,
)
from repro.model.params import PEProfile


def chain_graph(n=6, heterogeneous=False):
    graph = ProcessingGraph()
    for i in range(n):
        scale = (i + 1) if heterogeneous else 1
        graph.add_pe(
            PEProfile(pe_id=f"pe-{i}", t0=0.002 * scale, t1=0.020 * scale)
        )
    for i in range(n - 1):
        graph.add_edge(f"pe-{i}", f"pe-{i+1}")
    return graph


class TestRoundRobin:
    def test_cycles_through_nodes(self):
        placement = round_robin_placement(chain_graph(6), 3)
        counts = [0, 0, 0]
        for node in placement.values():
            counts[node] += 1
        assert counts == [2, 2, 2]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            round_robin_placement(chain_graph(), 0)
        with pytest.raises(ValueError):
            round_robin_placement(ProcessingGraph(), 2)


class TestRandomPlacement:
    def test_deterministic_given_rng(self):
        graph = chain_graph(10)
        a = random_placement(graph, 4, np.random.default_rng(1))
        b = random_placement(graph, 4, np.random.default_rng(1))
        assert a == b

    def test_all_nodes_in_range(self):
        placement = random_placement(
            chain_graph(20), 5, np.random.default_rng(2)
        )
        assert all(0 <= n < 5 for n in placement.values())


class TestLoadBalanced:
    def test_balances_heterogeneous_load(self):
        graph = chain_graph(8, heterogeneous=True)
        placement = load_balanced_placement(graph, 2)
        loads = placement_load(graph, placement, 2)
        assert max(loads) / min(loads) < 1.5

    def test_single_node_takes_all(self):
        graph = chain_graph(4)
        placement = load_balanced_placement(graph, 1)
        assert set(placement.values()) == {0}

    def test_deterministic(self):
        graph = chain_graph(9, heterogeneous=True)
        assert load_balanced_placement(graph, 3) == load_balanced_placement(
            graph, 3
        )

    def test_more_nodes_than_pes(self):
        graph = chain_graph(2)
        placement = load_balanced_placement(graph, 10)
        assert len(set(placement.values())) == 2


def scan_load_balanced_placement(graph, num_nodes):
    """Reference: the least-loaded node found by scanning every node
    for every PE."""
    loads = [0.0] * num_nodes
    placement = {}
    by_weight = sorted(
        graph.pe_ids,
        key=lambda pe_id: (-graph.profile(pe_id).mean_service_time, pe_id),
    )
    for pe_id in by_weight:
        target = min(range(num_nodes), key=lambda n: (loads[n], n))
        placement[pe_id] = target
        loads[target] += graph.profile(pe_id).mean_service_time
    return placement


@settings(max_examples=100, deadline=None)
@given(
    # Few distinct costs, so node loads tie and the tie-break matters.
    scales=st.lists(
        st.sampled_from([1.0, 1.5, 2.0, 3.0]), min_size=1, max_size=40
    ),
    num_nodes=st.integers(min_value=1, max_value=12),
)
def test_load_balanced_matches_the_scan(scales, num_nodes):
    graph = ProcessingGraph()
    for i, scale in enumerate(scales):
        graph.add_pe(
            PEProfile(pe_id=f"pe-{i}", t0=0.002 * scale, t1=0.020 * scale)
        )
    placement = load_balanced_placement(graph, num_nodes)
    reference = scan_load_balanced_placement(graph, num_nodes)
    assert list(placement.items()) == list(reference.items())


@settings(max_examples=100, deadline=None)
@given(
    nodes=st.lists(st.integers(min_value=0, max_value=5), max_size=30),
    data=st.data(),
)
def test_residents_by_node_matches_the_per_node_scan(nodes, data):
    placement = {f"pe-{i}": node for i, node in enumerate(nodes)}
    order = data.draw(st.permutations(list(placement)))
    assert residents_by_node(order, placement, 6) == [
        [pe_id for pe_id in order if placement[pe_id] == node]
        for node in range(6)
    ]


def test_placement_load_sums_service_times():
    graph = chain_graph(3)
    placement = {"pe-0": 0, "pe-1": 0, "pe-2": 1}
    loads = placement_load(graph, placement, 2)
    service = graph.profile("pe-0").mean_service_time
    assert loads[0] == pytest.approx(2 * service)
    assert loads[1] == pytest.approx(service)
