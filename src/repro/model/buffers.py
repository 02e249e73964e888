"""Bounded PE input buffers with occupancy telemetry.

The input buffer is where the three transmission policies differ:

* **UDP** offers an SDO and drops it when the buffer is full;
* **Lock-Step** never offers to a full buffer (the sender blocks);
* **ACES** offers like UDP but its controller keeps occupancy near ``b0``
  so overflow drops are rare.

The buffer therefore exposes a single non-blocking :meth:`offer` plus
telemetry rich enough for every metric the paper reports: drop counts, the
time-integral of occupancy (for mean queue length and Little's-law checks),
and a high-water mark.
"""

from __future__ import annotations

import typing as _t
from collections import deque
from dataclasses import dataclass

from repro.model.sdo import SDO
from repro.obs.recorder import NULL_RECORDER, TraceRecorder

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.spans import SpanTracker


@dataclass
class BufferTelemetry:
    """Counters accumulated over a buffer's lifetime."""

    offered: int = 0
    accepted: int = 0
    #: Total SDOs lost at this buffer: overflow rejections *plus* items
    #: discarded by :meth:`InputBuffer.flush` (e.g. a PE crash).  Kept as
    #: the all-losses counter every drop metric reports.
    dropped: int = 0
    #: The flush-loss component of :attr:`dropped`.  Flushed items were
    #: *accepted* first, so without this counter the conservation
    #: identity ``offered == accepted + dropped`` double-counts them
    #: after a flush + re-enqueue; the corrected identities are
    #: ``offered == accepted + (dropped - flushed)`` and
    #: ``accepted == popped + flushed + occupancy``.
    flushed: int = 0
    popped: int = 0
    high_water: int = 0
    #: Integral of occupancy over time, for time-averaged queue length.
    occupancy_integral: float = 0.0
    #: Time of the last occupancy-integral update.
    last_update: float = 0.0

    def drop_rate(self) -> float:
        """Fraction of offered SDOs that were dropped."""
        if self.offered == 0:
            return 0.0
        return self.dropped / self.offered

    def mean_occupancy(self, now: float) -> float:
        """Time-averaged occupancy up to ``now`` (requires integrate calls)."""
        if now <= 0.0:
            return 0.0
        return self.occupancy_integral / now


class InputBuffer:
    """A bounded FIFO of SDOs belonging to one PE input.

    Parameters
    ----------
    capacity:
        Maximum number of SDOs held (the paper's ``B``).
    name:
        Identifier used in diagnostics, typically ``"<pe_id>:in"``.
    """

    #: Trace bus + owning-PE identity; see :meth:`attach_recorder`.
    recorder: TraceRecorder = NULL_RECORDER
    pe_id: _t.Optional[str] = None
    #: Cached ``recorder.enabled`` so the offer fast path pays a single
    #: attribute load (set by :meth:`attach_recorder`).
    _recording: bool = False
    #: Armed span tracker; None (the default) keeps the offer fast path
    #: at one attribute load + branch (see :meth:`attach_spans`).
    spans: _t.Optional["SpanTracker"] = None

    def __init__(self, capacity: int, name: str = "buffer"):
        if capacity <= 0:
            raise ValueError(f"{name}: capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self.name = name
        self._items: _t.Deque[SDO] = deque()
        self.telemetry = BufferTelemetry()

    def attach_recorder(
        self, recorder: TraceRecorder, pe_id: _t.Optional[str] = None
    ) -> None:
        """Publish ``drop`` events for this buffer under the given PE
        identity.  (``buffer_occupancy`` samples are published in
        batches by whoever calls :meth:`sample`.)"""
        self.recorder = recorder
        self.pe_id = pe_id if pe_id is not None else self.name
        self._recording = recorder.enabled

    def attach_spans(
        self, tracker: "SpanTracker", pe_id: _t.Optional[str] = None
    ) -> None:
        """Arm per-SDO span tracking on the accept path."""
        self.spans = tracker
        if pe_id is not None:
            self.pe_id = pe_id
        elif self.pe_id is None:
            self.pe_id = self.name

    # -- state -----------------------------------------------------------

    @property
    def occupancy(self) -> int:
        """Number of SDOs currently buffered."""
        return len(self._items)

    @property
    def free(self) -> int:
        """Remaining slots."""
        return self.capacity - len(self._items)

    @property
    def is_full(self) -> bool:
        return len(self._items) >= self.capacity

    @property
    def is_empty(self) -> bool:
        return not self._items

    # -- operations --------------------------------------------------------

    def offer(self, sdo: SDO, now: float) -> bool:
        """Try to enqueue ``sdo``; return False (drop) when full."""
        items = self._items
        telemetry = self.telemetry
        elapsed = now - telemetry.last_update
        if elapsed < 0:
            raise ValueError(
                f"{self.name}: time went backwards "
                f"({telemetry.last_update} -> {now})"
            )
        telemetry.occupancy_integral += elapsed * len(items)
        telemetry.last_update = now
        telemetry.offered += 1
        if len(items) >= self.capacity:
            telemetry.dropped += 1
            if self._recording:
                self.recorder.emit(
                    "drop",
                    pe=self.pe_id,
                    cause="buffer_full",
                    occupancy=len(items),
                    capacity=self.capacity,
                )
            return False
        items.append(sdo)
        telemetry.accepted += 1
        if len(items) > telemetry.high_water:
            telemetry.high_water = len(items)
        spans = self.spans
        if spans is not None:
            spans.observe_arrival(self.pe_id, sdo, now)
        return True

    def pop(self, now: float) -> SDO:
        """Dequeue the oldest SDO; raises IndexError when empty."""
        telemetry = self.telemetry
        elapsed = now - telemetry.last_update
        if elapsed < 0:
            raise ValueError(
                f"{self.name}: time went backwards "
                f"({telemetry.last_update} -> {now})"
            )
        telemetry.occupancy_integral += elapsed * len(self._items)
        telemetry.last_update = now
        sdo = self._items.popleft()
        telemetry.popped += 1
        return sdo

    def peek(self) -> _t.Optional[SDO]:
        """The oldest SDO without removing it, or None when empty."""
        return self._items[0] if self._items else None

    def flush(self, now: float, cause: str = "flush") -> int:
        """Discard every buffered SDO, counting each as a drop.

        Models state loss (a PE crash takes its input buffer with it);
        returns the number of SDOs lost.
        """
        self._integrate(now)
        lost = len(self._items)
        self._items.clear()
        # Flush losses are *accepted* SDOs, unlike overflow drops which
        # were never enqueued; track them separately so occupancy/drop
        # accounting stays consistent after a flush + re-enqueue.
        self.telemetry.dropped += lost
        self.telemetry.flushed += lost
        if lost and self._recording:
            self.recorder.emit(
                "drop",
                pe=self.pe_id,
                cause=cause,
                occupancy=0,
                capacity=self.capacity,
                count=lost,
            )
        return lost

    def handoff(self, now: float) -> _t.List[SDO]:
        """Remove and return every buffered SDO *without* counting drops.

        The migration path: the elastic tier lifts a draining PE's
        buffered work out before re-wiring and puts it back with
        :meth:`restore` at the same instant.  No telemetry counter moves
        — the SDOs were accepted and will still be popped or flushed
        later — so the conservation identities
        ``offered == accepted + (dropped - flushed)`` and
        ``accepted == popped + flushed + occupancy`` hold exactly across
        the handoff.
        """
        self._integrate(now)
        held = list(self._items)
        self._items.clear()
        return held

    def restore(self, items: _t.Iterable[SDO]) -> None:
        """Re-enqueue SDOs lifted by :meth:`handoff` (same instant).

        Order is preserved; the occupancy integral is unaffected because
        handoff and restore happen at one timestamp.
        """
        self._items.extend(items)

    # -- telemetry ---------------------------------------------------------

    def _integrate(self, now: float) -> None:
        elapsed = now - self.telemetry.last_update
        if elapsed < 0:
            raise ValueError(
                f"{self.name}: time went backwards "
                f"({self.telemetry.last_update} -> {now})"
            )
        self.telemetry.occupancy_integral += elapsed * len(self._items)
        self.telemetry.last_update = now

    def sample(self, now: float) -> int:
        """Update the occupancy integral and return current occupancy."""
        self._integrate(now)
        return len(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        return (
            f"InputBuffer({self.name}, {len(self._items)}/{self.capacity})"
        )
