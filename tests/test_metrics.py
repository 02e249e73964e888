"""Tests for metrics: collectors, weighted throughput, summary stats."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.policies import AcesPolicy
from repro.graph.topology import TopologySpec, generate_topology
from repro.metrics.collectors import EgressCollector, MetricsReport
from repro.metrics.stats import StreamingMoments, SummaryStats, summarize
from repro.model.sdo import SDO
from repro.runtime.spc import RuntimeConfig, SPCRuntime
from repro.systems.simulated import SimulatedSystem, SystemConfig


class TestSummarize:
    def test_empty(self):
        stats = summarize([])
        assert stats == SummaryStats.empty()

    def test_single_value(self):
        stats = summarize([5.0])
        assert stats.mean == 5.0
        assert stats.std == 0.0
        assert stats.count == 1

    def test_known_values(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0])
        assert stats.mean == pytest.approx(2.5)
        assert stats.std == pytest.approx(math.sqrt(1.25))
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0


class TestStreamingMoments:
    def test_matches_batch_summary(self):
        rng = np.random.default_rng(0)
        values = rng.normal(10.0, 3.0, size=1000).tolist()
        moments = StreamingMoments()
        for value in values:
            moments.add(value)
        batch = summarize(values)
        assert moments.mean == pytest.approx(batch.mean)
        assert moments.std == pytest.approx(batch.std)
        assert moments.minimum == batch.minimum
        assert moments.maximum == batch.maximum

    def test_empty_moments(self):
        moments = StreamingMoments()
        assert moments.mean == 0.0
        assert moments.variance == 0.0
        assert moments.summary() == SummaryStats.empty()


class TestStreamingMomentsMerge:
    def filled(self, values):
        moments = StreamingMoments()
        for value in values:
            moments.add(value)
        return moments

    def test_merge_matches_batch(self):
        rng = np.random.default_rng(3)
        left = rng.normal(2.0, 1.0, size=300).tolist()
        right = rng.normal(9.0, 4.0, size=40).tolist()
        merged = self.filled(left).merge(self.filled(right))
        batch = summarize(left + right)
        assert merged.count == 340
        assert merged.mean == pytest.approx(batch.mean)
        assert merged.std == pytest.approx(batch.std)
        assert merged.minimum == batch.minimum
        assert merged.maximum == batch.maximum

    def test_merge_returns_self(self):
        moments = self.filled([1.0])
        assert moments.merge(self.filled([2.0])) is moments

    def test_merge_empty_other_is_noop(self):
        moments = self.filled([1.0, 2.0])
        before = moments.summary()
        moments.merge(StreamingMoments())
        assert moments.summary() == before

    def test_merge_into_empty_copies_other(self):
        other = self.filled([3.0, 5.0, 7.0])
        moments = StreamingMoments()
        moments.merge(other)
        assert moments.summary() == other.summary()

    def test_merge_does_not_mutate_other(self):
        other = self.filled([1.0, 4.0])
        before = other.summary()
        self.filled([2.0]).merge(other)
        assert other.summary() == before


class TestEgressCollector:
    def sdo(self, origin):
        return SDO(stream_id="s", origin_time=origin)

    def test_duplicate_registration_rejected(self):
        collector = EgressCollector()
        collector.register("e1", 1.0)
        with pytest.raises(ValueError):
            collector.register("e1", 1.0)

    def test_weighted_throughput(self):
        collector = EgressCollector()
        collector.register("e1", 2.0)
        collector.register("e2", 0.5)
        for _ in range(10):
            collector.record("e1", self.sdo(0.0), 1.0)
        for _ in range(4):
            collector.record("e2", self.sdo(0.0), 1.0)
        # Window [0, 2]: (2.0 * 10 + 0.5 * 4) / 2 = 11.
        assert collector.weighted_throughput(2.0) == pytest.approx(11.0)

    def test_zero_window(self):
        collector = EgressCollector()
        collector.register("e1", 1.0)
        assert collector.weighted_throughput(0.0) == 0.0

    def test_latency_pooled_over_egress(self):
        collector = EgressCollector()
        collector.register("e1", 1.0)
        collector.register("e2", 1.0)
        collector.record("e1", self.sdo(0.0), 1.0)  # latency 1
        collector.record("e2", self.sdo(0.0), 3.0)  # latency 3
        stats = collector.latency_summary()
        assert stats.count == 2
        assert stats.mean == pytest.approx(2.0)
        assert stats.std == pytest.approx(1.0)

    def test_pooled_variance_matches_direct(self):
        rng = np.random.default_rng(1)
        collector = EgressCollector()
        collector.register("e1", 1.0)
        collector.register("e2", 1.0)
        all_latencies = []
        for pe_id, loc in (("e1", 1.0), ("e2", 5.0)):
            for _ in range(200):
                latency = float(rng.exponential(loc))
                collector.record(pe_id, self.sdo(0.0), latency)
                all_latencies.append(latency)
        stats = collector.latency_summary()
        batch = summarize(all_latencies)
        assert stats.mean == pytest.approx(batch.mean)
        assert stats.std == pytest.approx(batch.std)

    def test_weighted_utility_log(self):
        collector = EgressCollector()
        collector.register("e1", 2.0)
        collector.register("e2", 0.5)
        for _ in range(10):
            collector.record("e1", self.sdo(0.0), 1.0)
        for _ in range(4):
            collector.record("e2", self.sdo(0.0), 1.0)
        # Window [0, 2]: rates 5 and 2 -> 2*log(6) + 0.5*log(3).
        expected = 2.0 * math.log(6.0) + 0.5 * math.log(3.0)
        assert collector.weighted_utility(2.0) == pytest.approx(expected)

    def test_weighted_utility_zero_window(self):
        collector = EgressCollector()
        collector.register("e1", 1.0)
        assert collector.weighted_utility(0.0) == 0.0

    def test_reset_discards_warmup(self):
        collector = EgressCollector()
        collector.register("e1", 1.0)
        for _ in range(100):
            collector.record("e1", self.sdo(0.0), 1.0)
        collector.reset(5.0)
        assert collector.total_output() == 0
        collector.record("e1", self.sdo(5.0), 6.0)
        # Window starts at 5; one SDO over 5 seconds of window at t=10.
        assert collector.weighted_throughput(10.0) == pytest.approx(0.2)


class TestMetricsReport:
    def make_report(self, **overrides):
        params = dict(
            policy="aces",
            duration=10.0,
            weighted_throughput=100.0,
            total_output_sdos=1000,
            latency=summarize([0.1, 0.2]),
            buffer_drops=5,
            source_rejections=10,
            source_generated=100,
            mean_buffer_occupancy=12.0,
        )
        params.update(overrides)
        return MetricsReport(**params)

    def test_input_loss_rate(self):
        assert self.make_report().input_loss_rate == pytest.approx(0.1)

    def test_input_loss_rate_no_input(self):
        report = self.make_report(source_generated=0, source_rejections=0)
        assert report.input_loss_rate == 0.0

    def test_one_line_contains_key_numbers(self):
        line = self.make_report().one_line()
        assert "aces" in line
        assert "100.00" in line

    def test_one_line_reports_weighted_utility(self):
        line = self.make_report(weighted_utility=12.34).one_line()
        assert "wutil=" in line
        assert "12.34" in line

    def test_weighted_utility_defaults_to_zero(self):
        assert self.make_report().weighted_utility == 0.0


def window_system(substrate):
    """One small system on either substrate, on the same topology; the
    first SDO needs ~3 model seconds to cross it."""
    spec = TopologySpec(
        num_nodes=2, num_ingress=2, num_egress=2, num_intermediate=3,
        calibrate_rates=False,
    )
    topology = generate_topology(spec, np.random.default_rng(0))
    if substrate == "sim":
        config = SystemConfig(seed=3, warmup=0.5, dt=0.05)
        return SimulatedSystem(topology, AcesPolicy(), config=config)
    config = RuntimeConfig(seed=3, warmup=0.5, dt=0.05, dilation=0.5)
    return SPCRuntime(topology, AcesPolicy(), config=config)


class TestMeasuredWindow:
    """The one measured window, run on both substrates."""

    @pytest.mark.parametrize("substrate", ["sim", "threaded"])
    def test_report_contract(self, substrate):
        report = window_system(substrate).run(4.0)
        assert isinstance(report, MetricsReport)
        kinds = report.drops_by_kind
        assert report.buffer_drops == (
            kinds["buffer_overflow"] + kinds["flushed"] + kinds["shed"]
        )
        refused = kinds["admission_shed"] + kinds["admission_rejected"]
        assert refused <= report.source_rejections
        assert report.source_rejections <= report.source_generated
        assert report.source_generated > 0
        assert report.total_output_sdos > 0
        assert report.weighted_utility > 0

    @pytest.mark.parametrize("substrate", ["sim", "threaded"])
    @pytest.mark.parametrize("duration, interval", [(1.0, 0.4), (0.5, 1.0)])
    def test_observer_sees_every_step_and_the_window_end(
        self, substrate, duration, interval
    ):
        system = window_system(substrate)
        seen = []
        system.run(
            duration,
            observer=lambda live: seen.append(live.env.now),
            observe_interval=interval,
        )
        assert len(seen) == math.ceil(duration / interval)
        assert seen[-1] >= system.collector.window_start + duration


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1))
def test_property_streaming_equals_batch(values):
    moments = StreamingMoments()
    for value in values:
        moments.add(value)
    batch = summarize(values)
    assert moments.mean == pytest.approx(batch.mean, rel=1e-6, abs=1e-6)
    assert moments.std == pytest.approx(batch.std, rel=1e-6, abs=1e-3)
