"""Tests for the r_max feedback bus (Eq. 8 aggregation)."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.feedback import FeedbackBus
from repro.obs.recorder import MemoryRecorder


class TestPublication:
    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            FeedbackBus(delay=-1.0)

    def test_negative_rate_rejected(self):
        bus = FeedbackBus()
        with pytest.raises(ValueError):
            bus.publish("pe-1", -5.0, 0.0)

    def test_immediate_visibility_without_delay(self):
        bus = FeedbackBus(delay=0.0)
        bus.publish("pe-1", 42.0, now=0.0)
        assert bus.latest("pe-1", now=0.0) == 42.0

    def test_unknown_pe_is_none(self):
        assert FeedbackBus().latest("ghost", 0.0) is None

    def test_delay_hides_fresh_values(self):
        bus = FeedbackBus(delay=0.5)
        bus.publish("pe-1", 10.0, now=0.0)
        assert bus.latest("pe-1", now=0.2) is None
        assert bus.latest("pe-1", now=0.5) == 10.0

    def test_latest_visible_wins(self):
        bus = FeedbackBus(delay=0.1)
        bus.publish("pe-1", 10.0, now=0.0)
        bus.publish("pe-1", 20.0, now=0.05)
        assert bus.latest("pe-1", now=0.12) == 10.0
        assert bus.latest("pe-1", now=0.16) == 20.0

    def test_pending_values_drain(self):
        bus = FeedbackBus(delay=0.1)
        for i in range(5):
            bus.publish("pe-1", float(i), now=i * 0.01)
        assert bus.latest("pe-1", now=1.0) == 4.0

    def test_publish_counter(self):
        bus = FeedbackBus()
        bus.publish("a", 1.0, 0.0)
        bus.publish("b", 2.0, 0.0)
        assert bus.publishes == 2


class TestAggregation:
    def test_max_downstream_rate(self):
        bus = FeedbackBus()
        bus.publish("c1", 10.0, 0.0)
        bus.publish("c2", 30.0, 0.0)
        bus.publish("c3", 20.0, 0.0)
        assert bus.max_downstream_rate(["c1", "c2", "c3"], 0.0) == 30.0

    def test_min_downstream_rate(self):
        bus = FeedbackBus()
        bus.publish("c1", 10.0, 0.0)
        bus.publish("c2", 30.0, 0.0)
        assert bus.min_downstream_rate(["c1", "c2"], 0.0) == 10.0

    def test_egress_unconstrained(self):
        bus = FeedbackBus()
        assert bus.max_downstream_rate([], 0.0) == float("inf")
        assert bus.min_downstream_rate([], 0.0) == float("inf")

    def test_unheard_consumer_is_optimistic(self):
        bus = FeedbackBus()
        bus.publish("c1", 10.0, 0.0)
        assert bus.max_downstream_rate(["c1", "silent"], 0.0) == float("inf")

    def test_min_with_unheard_consumer(self):
        bus = FeedbackBus()
        bus.publish("c1", 10.0, 0.0)
        assert bus.min_downstream_rate(["c1", "silent"], 0.0) == 10.0

    def test_max_flow_vs_min_flow_difference(self):
        """The Figure-2 point: max-flow follows the fastest consumer."""
        bus = FeedbackBus()
        for pe_id, rate in (("c1", 10.0), ("c2", 20.0), ("c3", 30.0)):
            bus.publish(pe_id, rate, 0.0)
        consumers = ["c1", "c2", "c3"]
        assert bus.max_downstream_rate(consumers, 0.0) == 30.0
        assert bus.min_downstream_rate(consumers, 0.0) == 10.0


class TestDelayEdgeCases:
    def test_visible_exactly_at_boundary(self):
        """A value published with delay d is visible at now + d inclusive."""
        bus = FeedbackBus(delay=0.5)
        bus.publish("c", 10.0, 1.0)  # visible_at == 1.5
        assert bus.latest("c", 1.4999) is None
        assert bus.latest("c", 1.5) == 10.0

    def test_multiple_ripe_entries_collapse_to_newest(self):
        bus = FeedbackBus(delay=0.1)
        bus.publish("c", 10.0, 0.0)
        bus.publish("c", 20.0, 0.05)
        bus.publish("c", 30.0, 0.10)
        # All three ripe at 0.25; the newest wins and the queue drains.
        assert bus.latest("c", 0.25) == 30.0
        assert bus._pending["c"] == []

    def test_an_unread_pe_keeps_only_what_a_read_could_return(self):
        """Ingress PEs publish every tick and nobody reads them: their
        in-flight list stays at the last ripe entry plus the messages
        still in flight, on both entry points, and a read still folds
        to the newest visible value."""
        dt = 0.25  # binary fractions: visibility ties are exact
        bus = FeedbackBus(delay=2 * dt)
        for tick in range(100):
            now = tick * dt
            bus.publish_rows(["ingress"], [float(tick)], now)
            bus.publish("jittered", float(tick), now, extra_delay=dt / 2)
        # Ripe at the last publish: tick 97 (ingress), tick 96 (jittered).
        assert [v for _, v in bus._pending["ingress"]] == [97.0, 98.0, 99.0]
        assert [v for _, v in bus._pending["jittered"]] == [
            96.0, 97.0, 98.0, 99.0
        ]
        assert bus.latest("ingress", 99 * dt) == 97.0
        assert bus._freshened_at["ingress"] == 99 * dt
        assert bus.latest("jittered", 99 * dt) == 96.0
        assert bus.latest("jittered", 102 * dt) == 99.0
        assert bus.publishes == 200

    def test_jittered_publication_keeps_order(self):
        """A later publication with big extra delay must not bury an
        earlier-visible one (insort keeps the ripe-prefix scan valid)."""
        bus = FeedbackBus(delay=0.1)
        bus.publish("c", 10.0, 0.0, extra_delay=1.0)  # visible at 1.1
        bus.publish("c", 20.0, 0.01)  # visible at 0.11 — overtakes
        assert bus.latest("c", 0.5) == 20.0
        assert bus.latest("c", 1.2) == 10.0

    def test_min_downstream_with_partially_published_consumers(self):
        """Consumers whose values are still in flight count as unheard."""
        bus = FeedbackBus(delay=0.2)
        bus.publish("c1", 10.0, 0.0)  # visible at 0.2
        bus.publish("c2", 5.0, 0.15)  # visible at 0.35
        # c2 still in flight: min skips it, max is unconstrained.
        assert bus.min_downstream_rate(["c1", "c2"], 0.25) == 10.0
        assert bus.max_downstream_rate(["c1", "c2"], 0.25) == float("inf")
        assert bus.min_downstream_rate(["c1", "c2"], 0.35) == 5.0
        assert bus.max_downstream_rate(["c1", "c2"], 0.35) == 10.0


class TestStalenessTTL:
    def test_validation(self):
        with pytest.raises(ValueError):
            FeedbackBus(staleness_ttl=0.0)

    def test_fresh_value_trusted_within_ttl(self):
        bus = FeedbackBus(staleness_ttl=1.0)
        bus.publish("c", 10.0, 0.0)
        assert bus.latest("c", 1.0) == 10.0  # age == ttl: still fresh

    def test_stale_value_decays_to_bound(self):
        # The bound is 0: a silent consumer is assumed to absorb nothing.
        bus = FeedbackBus(staleness_ttl=1.0)
        bus.publish("c", 10.0, 0.0)
        assert bus.latest("c", 1.5) == 0.0
        assert bus.stale_reads == 1

    def test_fresh_publication_ends_stale_episode(self):
        bus = FeedbackBus(staleness_ttl=1.0)
        bus.publish("c", 10.0, 0.0)
        assert bus.latest("c", 2.0) == 0.0
        bus.publish("c", 7.0, 2.0)
        assert bus.latest("c", 2.0) == 7.0

    def test_decay_applies_to_aggregates(self):
        bus = FeedbackBus(staleness_ttl=1.0)
        bus.publish("fast", 30.0, 0.0)
        bus.publish("slow", 10.0, 1.9)
        # At 2.5 'fast' is stale (decays to 0), 'slow' is fresh.
        assert bus.max_downstream_rate(["fast", "slow"], 2.5) == 10.0
        assert bus.min_downstream_rate(["fast", "slow"], 2.5) == 0.0

    def test_stale_event_fires_once_per_episode(self):
        recorder = MemoryRecorder()
        bus = FeedbackBus(staleness_ttl=1.0, recorder=recorder)
        bus.publish("c", 10.0, 0.0)
        for now in (1.5, 1.6, 1.7):
            assert bus.latest("c", now) == 0.0
        assert recorder.counts.get("feedback_stale", 0) == 1
        assert bus.stale_reads == 3
        # A fresh publication arms a new episode.
        bus.publish("c", 8.0, 2.0)
        assert bus.latest("c", 3.5) == 0.0
        assert recorder.counts.get("feedback_stale", 0) == 2

    def test_delayed_publication_freshness_dates_from_visibility(self):
        """Staleness age counts from when the value became *visible*."""
        bus = FeedbackBus(delay=0.5, staleness_ttl=1.0)
        bus.publish("c", 10.0, 0.0)  # visible at 0.5
        assert bus.latest("c", 1.4) == 10.0  # age 0.9 < ttl
        assert bus.latest("c", 1.6) == 0.0  # age 1.1 > ttl


# -- the batch entry points against the one-PE API ---------------------------

CONSUMERS = ["c0", "c1", "c2", "c3", "never"]
INF = float("inf")

_steps = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.4),  # time advance
        st.lists(  # one tick's publications: (consumer, r_max, jitter)
            st.tuples(
                st.sampled_from(CONSUMERS[:-1]),
                st.floats(min_value=0.0, max_value=100.0),
                st.sampled_from([0.0, 0.0, 0.05, 0.3]),
            ),
            max_size=4,
        ),
        st.lists(  # the reading node's downstream groups
            st.lists(st.sampled_from(CONSUMERS), max_size=3).map(tuple),
            max_size=4,
        ),
    ),
    max_size=12,
)


@settings(
    max_examples=200, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    delay=st.sampled_from([0.0, 0.1]),
    ttl=st.sampled_from([None, 0.25]),
    aggregate_max=st.booleans(),
    steps=_steps,
)
def test_property_batch_bus_equals_the_one_pe_api(
    delay, ttl, aggregate_max, steps
):
    """read_bounds / publish_rows leave the bus in the state, and return
    the bounds, of per-PE publish / latest calls aggregated as before
    the batch entry points existed — delayed, jittered (overtaking) and
    stale messages included."""

    def reference_bound(bus, downstream_ids, now):
        # The Eq. 8 reads as they were written over latest().
        if aggregate_max:
            bound = -INF
            for pe_id in downstream_ids:
                value = bus.latest(pe_id, now)
                if value is None:
                    return INF
                if value > bound:
                    bound = value
            return bound if downstream_ids else INF
        bound = INF
        for pe_id in downstream_ids:
            value = bus.latest(pe_id, now)
            if value is None:
                continue
            if value < bound:
                bound = value
        return bound

    recorders = MemoryRecorder(), MemoryRecorder()
    batch, one_pe = (
        FeedbackBus(delay=delay, staleness_ttl=ttl, recorder=recorder)
        for recorder in recorders
    )
    now = 0.0
    for advance, publications, groups in steps:
        now += advance
        jittered = [p for p in publications if p[2]]
        plain = [p for p in publications if not p[2]]
        # Jittered messages only exist on the one-PE API (the lossy
        # wrapper's path); both buses take them the same way.
        for bus in (batch, one_pe):
            for pe_id, r_max, jitter in jittered:
                bus.publish(pe_id, r_max, now, extra_delay=jitter)
        batch.publish_rows(
            [p[0] for p in plain], [p[1] for p in plain], now
        )
        for pe_id, r_max, _ in plain:
            one_pe.publish(pe_id, r_max, now)
        assert batch.read_bounds(groups, now, aggregate_max) == [
            reference_bound(one_pe, group, now) for group in groups
        ]
        assert batch._current == one_pe._current
        assert batch._freshened_at == one_pe._freshened_at
        assert {k: v for k, v in batch._pending.items() if v} == {
            k: v for k, v in one_pe._pending.items() if v
        }
    assert batch.publishes == one_pe.publishes
    assert batch.stale_reads == one_pe.stale_reads
    assert recorders[0].events == recorders[1].events


def test_publish_rows_rejects_a_negative_r_max_where_publish_does():
    bus = FeedbackBus()
    with pytest.raises(ValueError, match="c1: r_max must be >= 0"):
        bus.publish_rows(["c0", "c1", "c2"], [1.0, -2.0, 3.0], 0.0)
    # Message by message: the one before the bad one went out.
    assert bus.latest("c0", 0.0) == 1.0
    assert bus.latest("c2", 0.0) is None
