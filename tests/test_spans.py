"""Latency spans: exact closure in sim, disarmed no-op, threaded smoke.

The tentpole invariant: for every egress SDO, the accumulated
queue-wait + service + transit segments telescope to exactly
``now - origin_time``.  In the simulated substrate every segment is a
difference of consecutive stamps from one clock, so the identity holds
to float rounding; the :class:`SpanTracker` records any breach as a
violation and :func:`check_conservation` lifts it into the oracle
report.
"""

import numpy as np
import pytest

from repro.check import check_conservation
from repro.core.policies import AcesPolicy, policy_by_name
from repro.graph.topology import TopologySpec, generate_topology
from repro.model.sdo import SDO
from repro.obs import MemoryRecorder, SpanTracker
from repro.obs.spans import (
    SPAN_EMITTED,
    SPAN_ENQUEUED,
    SPAN_QUEUE,
    SPAN_SERVICE,
    SPAN_TRANSIT,
)
from repro.runtime.spc import RuntimeConfig, SPCRuntime
from repro.systems.simulated import SimulatedSystem, SystemConfig


def small_topology(seed=1, load=2.0):
    spec = TopologySpec(
        num_nodes=2, num_ingress=2, num_egress=2, num_intermediate=4,
        load_factor=load, calibrate_rates=False,
    )
    return generate_topology(spec, np.random.default_rng(seed))


def armed_run(policy="aces", duration=2.0, warmup=0.0, **config):
    recorder = MemoryRecorder()
    spans = SpanTracker(recorder=recorder)
    system = SimulatedSystem(
        small_topology(),
        policy_by_name(policy),
        config=SystemConfig(seed=3, warmup=warmup, buffer_size=10, **config),
        recorder=recorder,
        spans=spans,
    )
    report = system.run(duration)
    return system, recorder, spans, report


class TestSimClosure:
    @pytest.mark.parametrize("policy", ["aces", "udp", "lockstep"])
    def test_closure_exact_all_policies(self, policy):
        system, recorder, spans, report = armed_run(policy=policy)
        assert report.total_output_sdos > 0
        assert spans.violations == []
        # Every egress SDO produced exactly one span observation.
        assert spans.egress_spans == system.collector.total_output()
        assert recorder.counts["span"] == spans.egress_spans

    def test_span_events_telescope(self):
        _, recorder, _, _ = armed_run()
        events = recorder.by_kind("span")
        assert events
        for event in events:
            total = event["queue"] + event["service"] + event["transit"]
            assert total == pytest.approx(event["e2e"], abs=1e-9)
            assert event["queue"] >= 0.0
            assert event["service"] >= 0.0
            assert event["transit"] >= 0.0
            assert event["hops"] >= 1
            assert event["pe"]
            assert event["stream"]

    def test_conservation_checker_is_clean(self):
        system, _, _, _ = armed_run()
        assert check_conservation(system) == []

    def test_segment_histograms_populated(self):
        system, _, spans, _ = armed_run()
        assert spans.queue_wait
        assert spans.service
        assert spans.transit
        # Service time was observed for every SDO a PE consumed after
        # the (zero-length) warmup window.
        observed = sum(h.count for h in spans.service.values())
        popped = sum(
            r.buffer.telemetry.popped for r in system.runtimes.values()
        )
        assert 0 < observed <= popped
        rows = spans.hop_rows()
        assert {row["segment"] for row in rows} >= {
            "queue", "service", "transit",
        }
        for row in rows:
            assert row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"]

    def test_warmup_reset_keeps_accounting_aligned(self):
        """Span and collector windows reset together, so the egress span
        count still matches total_output for a nonzero warmup."""
        system, _, spans, _ = armed_run(warmup=0.5)
        assert spans.violations == []
        assert spans.egress_spans == system.collector.total_output()
        assert check_conservation(system) == []

    def test_injected_broken_span_is_lifted(self):
        """A hand-broken span trips span_closure and the checker sees it."""
        system, _, spans, _ = armed_run(duration=1.0)
        sdo = SDO(
            stream_id="s-0", origin_time=0.0,
            span=[1.0, 1.0, 1.0, 0.0, 0.0],
        )
        spans.observe_egress("pe-x", sdo, now=1.0)  # 3.0 claimed vs 1.0 e2e
        assert any(
            v["invariant"] == "span_closure" for v in spans.violations
        )
        names = {v.invariant for v in check_conservation(system)}
        assert "span_closure" in names


class TestDisarmed:
    def test_no_span_state_without_tracker(self):
        recorder = MemoryRecorder()
        system = SimulatedSystem(
            small_topology(),
            AcesPolicy(),
            config=SystemConfig(seed=3, warmup=0.0, buffer_size=10),
            recorder=recorder,
        )
        report = system.run(1.5)
        assert report.total_output_sdos > 0
        assert "span" not in recorder.counts
        # The in-flight SDOs never grew a span record.
        for runtime in system.runtimes.values():
            head = runtime.buffer.peek()
            if head is not None:
                assert head.span is None

    def test_disarmed_report_still_has_percentiles(self):
        """e2e percentiles ride the always-on egress histogram and don't
        require arming spans."""
        system = SimulatedSystem(
            small_topology(),
            AcesPolicy(),
            config=SystemConfig(seed=3, warmup=0.0, buffer_size=10),
        )
        report = system.run(1.5)
        pct = report.latency_percentiles
        assert set(pct) == {"p50", "p95", "p99"}
        assert 0 < pct["p50"] <= pct["p95"] <= pct["p99"]


class TestFanout:
    def test_fanout_copy_is_independent(self):
        sdo = SDO(
            stream_id="s-1", origin_time=0.5, hops=3,
            span=[0.1, 0.2, 0.3, 1.0, 1.1],
        )
        clone = sdo.fanout_copy()
        assert clone.stream_id == sdo.stream_id
        assert clone.origin_time == sdo.origin_time
        assert clone.hops == sdo.hops
        assert clone.span == sdo.span
        assert clone.span is not sdo.span
        clone.span[SPAN_QUEUE] += 9.0
        assert sdo.span[SPAN_QUEUE] == 0.1

    def test_fanout_copy_disarmed(self):
        assert SDO(stream_id="s", origin_time=0.0).fanout_copy().span is None


class TestTrackerUnits:
    def test_arrival_then_queue_then_egress(self):
        spans = SpanTracker()
        sdo = SDO(stream_id="s-1", origin_time=1.0)
        spans.observe_arrival("pe-1", sdo, now=1.25)  # transit 0.25
        assert sdo.span[SPAN_TRANSIT] == pytest.approx(0.25)
        assert sdo.span[SPAN_ENQUEUED] == 1.25
        spans.observe_queue("pe-1", sdo, wall=1.75)  # queue 0.5
        assert sdo.span[SPAN_QUEUE] == pytest.approx(0.5)
        spans.observe_service("pe-1", sdo, segment=0.1)
        assert sdo.span[SPAN_SERVICE] == pytest.approx(0.1)
        sdo.span[SPAN_EMITTED] = 1.85
        spans.observe_egress("pe-1", sdo, now=1.85)  # final transit 0
        assert spans.violations == []
        assert spans.egress_spans == 1

    def test_egress_ignores_unarmed_lineage(self):
        """SDOs born before arming (span None) are skipped, not crashed."""
        spans = SpanTracker()
        spans.observe_egress("pe-1", SDO(stream_id="s", origin_time=0.0), 1.0)
        assert spans.egress_spans == 0
        assert spans.violations == []

    def test_reset_clears_everything(self):
        spans = SpanTracker()
        sdo = SDO(stream_id="s-1", origin_time=0.0)
        spans.observe_arrival("pe-1", sdo, now=0.5)
        spans.observe_queue("pe-1", sdo, wall=0.6)
        spans.reset()
        assert not spans.queue_wait
        assert not spans.transit
        assert spans.egress_spans == 0


class TestThreaded:
    @pytest.fixture(scope="class")
    def topology(self):
        spec = TopologySpec(
            num_nodes=2, num_ingress=1, num_egress=1, num_intermediate=3,
            calibrate_rates=False,
        )
        return generate_topology(spec, np.random.default_rng(0))

    def test_threaded_spans_close(self, topology):
        recorder = MemoryRecorder()
        spans = SpanTracker(recorder=recorder)
        runtime = SPCRuntime(
            topology,
            AcesPolicy(),
            config=RuntimeConfig(seed=3, warmup=0.3, dt=0.05, dilation=0.5),
            recorder=recorder,
            spans=spans,
        )
        # ~2.7 model-s until the first SDO crosses this graph.
        report = runtime.run(duration=4.0)
        assert report.total_output_sdos > 0
        # Real wall clocks: segments are stamped from the same monotonic
        # reading at hand-offs, so the identity still telescopes exactly.
        assert spans.violations == []
        assert spans.egress_spans > 0
        events = recorder.by_kind("span")
        assert events
        for event in events:
            total = event["queue"] + event["service"] + event["transit"]
            assert total == pytest.approx(event["e2e"], rel=1e-6, abs=1e-6)
        # Report percentiles come from the same always-on histograms.
        pct = report.latency_percentiles
        assert 0 < pct["p50"] <= pct["p95"] <= pct["p99"]
