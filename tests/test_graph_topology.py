"""Tests for the random topology generator (the paper's tool)."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.topology import (
    TopologySpec,
    generate_topology,
    paper_calibration_spec,
    paper_main_spec,
    scaled_main_spec,
)


def small_spec(**overrides):
    params = dict(
        num_nodes=4,
        num_ingress=3,
        num_egress=3,
        num_intermediate=8,
        calibrate_rates=False,  # keep unit tests fast
    )
    params.update(overrides)
    return TopologySpec(**params)


class TestSpecValidation:
    def test_positive_counts_required(self):
        with pytest.raises(ValueError):
            small_spec(num_nodes=0)
        with pytest.raises(ValueError):
            small_spec(num_ingress=0)
        with pytest.raises(ValueError):
            small_spec(num_intermediate=-1)

    def test_fan_caps_positive(self):
        with pytest.raises(ValueError):
            small_spec(max_fan_in=0)

    def test_multi_io_fraction_range(self):
        with pytest.raises(ValueError):
            small_spec(multi_io_fraction=1.5)

    def test_load_factor_positive(self):
        with pytest.raises(ValueError):
            small_spec(load_factor=0.0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("placement_strategy", "round_robin"),
            ("service_heterogeneity", 0.5),
            ("weight_range", (2.0, 0.5)),
            ("avg_degree", -1.0),
        ],
    )
    def test_rejected_before_any_work(self, field, value):
        """Each of these used to surface only inside (or after)
        ``generate_topology`` — or never."""
        with pytest.raises(ValueError, match=field.replace("_", ".")):
            small_spec(**{field: value})

    def test_num_pes(self):
        assert small_spec().num_pes == 14

    def test_paper_specs_match_paper_scale(self):
        calib = paper_calibration_spec()
        assert calib.num_pes == 60
        assert calib.num_nodes == 10
        main = paper_main_spec()
        assert main.num_pes == 200
        assert main.num_nodes == 80


class TestGeneratedStructure:
    def test_pe_and_node_counts(self):
        topo = generate_topology(small_spec(), np.random.default_rng(0))
        assert len(topo.graph) == 14
        assert topo.num_nodes == 4
        assert len(topo.graph.ingress_ids) == 3
        assert len(topo.graph.egress_ids) == 3

    def test_graph_validates(self):
        topo = generate_topology(small_spec(), np.random.default_rng(1))
        topo.graph.validate()

    def test_fan_caps_respected(self):
        spec = small_spec(num_intermediate=30, num_nodes=8)
        topo = generate_topology(spec, np.random.default_rng(2))
        for pe_id in topo.graph.pe_ids:
            assert topo.graph.fan_in(pe_id) <= spec.max_fan_in
            assert topo.graph.fan_out(pe_id) <= spec.max_fan_out

    def test_multi_io_fraction_near_target(self):
        spec = paper_main_spec(calibrate_rates=False)
        topo = generate_topology(spec, np.random.default_rng(3))
        graph = topo.graph
        multi = sum(
            1
            for pe in graph.pe_ids
            if graph.fan_in(pe) > 1 or graph.fan_out(pe) > 1
        )
        assert multi / len(graph) == pytest.approx(0.20, abs=0.05)

    def test_every_pe_placed(self):
        topo = generate_topology(small_spec(), np.random.default_rng(4))
        assert set(topo.placement) == set(topo.graph.pe_ids)
        assert all(0 <= n < topo.num_nodes for n in topo.placement.values())

    def test_source_rates_cover_ingress(self):
        topo = generate_topology(small_spec(), np.random.default_rng(5))
        assert set(topo.source_rates) == set(topo.graph.ingress_ids)
        assert all(rate > 0 for rate in topo.source_rates.values())

    def test_only_egress_pes_weighted(self):
        topo = generate_topology(small_spec(), np.random.default_rng(6))
        graph = topo.graph
        egress = set(graph.egress_ids)
        for pe_id in graph.pe_ids:
            weight = graph.profile(pe_id).weight
            if pe_id in egress:
                assert 0.5 <= weight <= 2.0
            else:
                assert weight == 0.0

    def test_deterministic_given_rng_seed(self):
        a = generate_topology(small_spec(), np.random.default_rng(7))
        b = generate_topology(small_spec(), np.random.default_rng(7))
        assert a.graph.edges() == b.graph.edges()
        assert a.placement == b.placement
        assert a.source_rates == b.source_rates

    def test_different_seeds_differ(self):
        a = generate_topology(small_spec(), np.random.default_rng(8))
        b = generate_topology(small_spec(), np.random.default_rng(9))
        assert a.graph.edges() != b.graph.edges()

    def test_heterogeneity_spreads_service_times(self):
        spec = small_spec(service_heterogeneity=3.0, num_intermediate=30)
        topo = generate_topology(spec, np.random.default_rng(10))
        t0s = [topo.graph.profile(p).t0 for p in topo.graph.pe_ids]
        assert max(t0s) / min(t0s) > 1.5

    def test_heterogeneity_one_is_uniform(self):
        spec = small_spec(service_heterogeneity=1.0)
        topo = generate_topology(spec, np.random.default_rng(11))
        t0s = {topo.graph.profile(p).t0 for p in topo.graph.pe_ids}
        assert t0s == {spec.t0}

    def test_avg_degree_honoured_when_set(self):
        spec = small_spec(avg_degree=1.6, num_intermediate=30)
        topo = generate_topology(spec, np.random.default_rng(12))
        degree = len(topo.graph.edges()) / len(topo.graph)
        assert degree == pytest.approx(1.6, abs=0.2)

    def test_unknown_placement_strategy_rejected(self):
        with pytest.raises(ValueError, match="placement strategy"):
            small_spec(placement_strategy="nope")

    def test_calibrated_profiles_have_slopes(self):
        spec = small_spec(calibrate_rates=True)
        topo = generate_topology(spec, np.random.default_rng(13))
        for pe_id in topo.graph.pe_ids:
            assert topo.graph.profile(pe_id).calibrated_rate_slope is not None

    def test_pes_on_node_matches_placement(self):
        topo = generate_topology(small_spec(), np.random.default_rng(14))
        for node in range(topo.num_nodes):
            for pe_id in topo.pes_on_node(node):
                assert topo.placement[pe_id] == node


@pytest.mark.parametrize(
    "spec",
    [
        paper_calibration_spec(calibrate_rates=False),
        paper_main_spec(calibrate_rates=False),
        scaled_main_spec(10),
    ],
    ids=["calibration", "main", "x10"],
)
@pytest.mark.parametrize("seed", range(3))
def test_fan_caps_hold_on_the_paper_specs(spec, seed):
    """``generate_topology`` may relax a cap to keep every PE reachable
    (see its docstring); on the specs the experiments use it never has
    to."""
    graph = generate_topology(spec, np.random.default_rng(seed)).graph
    graph.validate(
        max_fan_in=spec.max_fan_in, max_fan_out=spec.max_fan_out
    )


def test_generation_time_grows_linearly():
    """Growth, not speed: 4x the PEs must cost well under 16x the time,
    so a per-element scan of the whole graph cannot come back unnoticed
    (linear reads ~4; one quadratic scan reads > 16)."""

    def best_of_three(multiplier):
        spec = scaled_main_spec(multiplier)
        walls = []
        for seed in range(3):
            start = time.perf_counter()
            generate_topology(spec, np.random.default_rng(seed))
            walls.append(time.perf_counter() - start)
        return min(walls)

    assert best_of_three(8) / best_of_three(2) < 8


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=1000),
    intermediates=st.integers(min_value=0, max_value=25),
    nodes=st.integers(min_value=1, max_value=10),
)
def test_property_generator_always_valid(seed, intermediates, nodes):
    spec = TopologySpec(
        num_nodes=nodes,
        num_ingress=2,
        num_egress=2,
        num_intermediate=intermediates,
        calibrate_rates=False,
    )
    topo = generate_topology(spec, np.random.default_rng(seed))
    topo.graph.validate()
    assert set(topo.placement) == set(topo.graph.pe_ids)
