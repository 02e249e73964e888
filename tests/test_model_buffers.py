"""Tests for bounded input buffers and their telemetry."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.model.buffers import InputBuffer
from repro.model.sdo import SDO


def sdo(i=0):
    return SDO(stream_id="s", origin_time=float(i))


class TestBasics:
    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            InputBuffer(0)

    def test_offer_accepts_until_full(self):
        buffer = InputBuffer(2)
        assert buffer.offer(sdo(), 0.0)
        assert buffer.offer(sdo(), 0.0)
        assert not buffer.offer(sdo(), 0.0)
        assert buffer.occupancy == 2
        assert buffer.is_full

    def test_pop_fifo_order(self):
        buffer = InputBuffer(10)
        items = [sdo(i) for i in range(4)]
        for item in items:
            buffer.offer(item, 0.0)
        popped = [buffer.pop(1.0) for _ in range(4)]
        assert all(p is i for p, i in zip(popped, items, strict=True))

    def test_pop_empty_raises(self):
        buffer = InputBuffer(2)
        with pytest.raises(IndexError):
            buffer.pop(0.0)

    def test_peek_does_not_remove(self):
        buffer = InputBuffer(2)
        assert buffer.peek() is None
        item = sdo()
        buffer.offer(item, 0.0)
        assert buffer.peek() is item
        assert buffer.occupancy == 1

    def test_free_tracks_occupancy(self):
        buffer = InputBuffer(5)
        buffer.offer(sdo(), 0.0)
        assert buffer.free == 4
        assert not buffer.is_empty

    def test_len(self):
        buffer = InputBuffer(5)
        buffer.offer(sdo(), 0.0)
        assert len(buffer) == 1


class TestTelemetry:
    def test_drop_counting(self):
        buffer = InputBuffer(1)
        buffer.offer(sdo(), 0.0)
        buffer.offer(sdo(), 0.0)
        assert buffer.telemetry.offered == 2
        assert buffer.telemetry.accepted == 1
        assert buffer.telemetry.dropped == 1
        assert buffer.telemetry.drop_rate() == pytest.approx(0.5)

    def test_drop_rate_empty(self):
        assert InputBuffer(1).telemetry.drop_rate() == 0.0

    def test_high_water_mark(self):
        buffer = InputBuffer(10)
        for i in range(4):
            buffer.offer(sdo(i), 0.0)
        buffer.pop(0.0)
        buffer.pop(0.0)
        assert buffer.telemetry.high_water == 4

    def test_occupancy_integral(self):
        buffer = InputBuffer(10)
        buffer.offer(sdo(), 0.0)  # occupancy 1 from t=0
        buffer.offer(sdo(), 2.0)  # integral += 1 * 2
        buffer.pop(4.0)  # integral += 2 * 2
        buffer.sample(10.0)  # integral += 1 * 6
        assert buffer.telemetry.occupancy_integral == pytest.approx(12.0)
        assert buffer.telemetry.mean_occupancy(10.0) == pytest.approx(1.2)

    def test_time_going_backwards_rejected(self):
        buffer = InputBuffer(10)
        buffer.offer(sdo(), 5.0)
        with pytest.raises(ValueError):
            buffer.offer(sdo(), 4.0)

    def test_popped_counter(self):
        buffer = InputBuffer(10)
        buffer.offer(sdo(), 0.0)
        buffer.pop(0.0)
        assert buffer.telemetry.popped == 1


@given(st.lists(st.booleans(), min_size=1, max_size=200))
def test_property_occupancy_invariants(operations):
    """Random offer/pop sequences keep 0 <= occupancy <= capacity and
    conservation: accepted == popped + occupancy."""
    buffer = InputBuffer(7)
    now = 0.0
    for is_offer in operations:
        now += 1.0
        if is_offer:
            buffer.offer(sdo(), now)
        elif not buffer.is_empty:
            buffer.pop(now)
        assert 0 <= buffer.occupancy <= buffer.capacity
    telemetry = buffer.telemetry
    assert telemetry.accepted == telemetry.popped + buffer.occupancy
    assert telemetry.offered == telemetry.accepted + telemetry.dropped


class TestFlushAccounting:
    """Occupancy/drop accounting stays consistent across flush cycles.

    A crash-flush discards *accepted* SDOs, which is a different loss
    class than an overflow rejection (never accepted): the ``flushed``
    counter carries the difference so both conservation identities hold
    after any flush + re-enqueue sequence.
    """

    def test_flush_empties_and_counts(self):
        buffer = InputBuffer(5)
        for i in range(3):
            buffer.offer(sdo(i), 0.0)
        assert buffer.flush(1.0) == 3
        assert buffer.occupancy == 0
        assert buffer.telemetry.flushed == 3
        # dropped stays the all-losses counter (drop metrics include
        # crash losses), flushed carves out the accepted-loss component.
        assert buffer.telemetry.dropped == 3

    def test_identities_after_flush_and_reenqueue(self):
        buffer = InputBuffer(2)
        buffer.offer(sdo(0), 0.0)
        buffer.offer(sdo(1), 0.0)
        buffer.offer(sdo(2), 0.0)  # overflow drop
        buffer.flush(1.0)
        # Re-enqueue after the flush: the buffer must accept again and
        # every counter identity must close.
        assert buffer.offer(sdo(3), 2.0)
        buffer.pop(3.0)
        assert buffer.offer(sdo(4), 4.0)
        telemetry = buffer.telemetry
        assert telemetry.offered == 5
        assert telemetry.dropped == 3  # 1 overflow + 2 flushed
        assert telemetry.flushed == 2
        assert telemetry.offered == telemetry.accepted + (
            telemetry.dropped - telemetry.flushed
        )
        assert telemetry.accepted == (
            telemetry.popped + telemetry.flushed + buffer.occupancy
        )

    def test_flush_empty_buffer_is_free(self):
        buffer = InputBuffer(3)
        assert buffer.flush(0.0) == 0
        assert buffer.telemetry.flushed == 0
        assert buffer.telemetry.dropped == 0

    @given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=200))
    def test_property_identities_with_flushes(self, operations):
        """Random offer/pop/flush sequences keep both identities closed."""
        buffer = InputBuffer(4)
        now = 0.0
        for operation in operations:
            now += 1.0
            if operation == 0:
                buffer.offer(sdo(), now)
            elif operation == 1 and not buffer.is_empty:
                buffer.pop(now)
            elif operation == 2:
                buffer.flush(now)
        telemetry = buffer.telemetry
        assert telemetry.offered == telemetry.accepted + (
            telemetry.dropped - telemetry.flushed
        )
        assert telemetry.accepted == (
            telemetry.popped + telemetry.flushed + buffer.occupancy
        )
