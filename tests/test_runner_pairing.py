"""Additional coverage: runner pairing, seeds, and report invariants."""

import numpy as np
import pytest

from repro.core.policies import AcesPolicy
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import prepare_replication
from repro.graph.topology import TopologySpec, generate_topology
from repro.systems.simulated import SystemConfig, run_system


def tiny_experiment(**overrides):
    params = dict(
        name="tiny",
        spec=TopologySpec(
            num_nodes=2,
            num_ingress=2,
            num_egress=2,
            num_intermediate=2,
            calibrate_rates=False,
        ),
        duration=2.0,
        replications=1,
    )
    params.update(overrides)
    return ExperimentConfig(**params).with_system(warmup=1.0)


class TestPairedDesign:
    def test_same_replication_same_topology(self):
        """Two separate calls with the same replication index generate
        identical topologies — the paired design is reproducible."""
        config = tiny_experiment()
        topo_a, *_ = prepare_replication(config, replication=0)
        topo_b, *_ = prepare_replication(config, replication=0)
        assert topo_a.graph.edges() == topo_b.graph.edges()
        assert topo_a.placement == topo_b.placement

    def test_different_replications_different_topologies(self):
        config = tiny_experiment()
        topo_a, *_ = prepare_replication(config, replication=0)
        topo_b, *_ = prepare_replication(config, replication=1)
        assert topo_a.graph.edges() != topo_b.graph.edges() or (
            topo_a.source_rates != topo_b.source_rates
        )


class TestReportInvariants:
    @pytest.fixture(scope="class")
    def report(self):
        spec = TopologySpec(
            num_nodes=3,
            num_ingress=2,
            num_egress=2,
            num_intermediate=4,
            calibrate_rates=False,
        )
        topology = generate_topology(spec, np.random.default_rng(0))
        return run_system(
            topology, AcesPolicy(), duration=5.0,
            config=SystemConfig(seed=2, warmup=2.0),
        )

    def test_latency_stats_consistent(self, report):
        assert report.latency.minimum <= report.latency.mean
        assert report.latency.mean <= report.latency.maximum
        assert report.latency.std >= 0.0

    def test_throughput_consistent_with_counts(self, report):
        # weighted throughput uses per-egress weights; with weights in
        # [0.5, 2] it must bracket count/duration scaled by those bounds.
        rate = report.total_output_sdos / report.duration
        assert 0.4 * rate <= report.weighted_throughput <= 2.1 * rate

    def test_egress_detail_counts_sum(self, report):
        total = sum(count for _, count, _ in report.egress_detail.values())
        assert total == report.total_output_sdos

    def test_loss_rate_in_unit_interval(self, report):
        assert 0.0 <= report.input_loss_rate <= 1.0

    def test_wasted_work_in_unit_interval(self, report):
        assert 0.0 <= report.wasted_work_fraction <= 1.0
