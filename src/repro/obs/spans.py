"""Per-SDO causal spans: queue-wait / service / link-transit decomposition.

Every SDO already carries ``origin_time``, so egress collectors can
measure end-to-end latency — but not *where* that time went.  When a
:class:`SpanTracker` is armed, each SDO additionally carries a mutable
5-slot span record (see the ``SPAN_*`` index constants) that the model
layer updates at every hop:

* buffer ``offer`` closes a **transit** segment (emission -> arrival) and
  stamps the enqueue time;
* PE dequeue closes a **queue-wait** segment (arrival -> interpolated
  dequeue wall time);
* SDO completion closes a **service** segment (dequeue -> completion) and
  seeds each derived child with the parent's accumulated segments;
* the egress collector closes the final transit segment and checks the
  telescoping identity ``queue + service + transit == now - origin_time``,
  which holds *exactly* (to float rounding) in the simulated substrate
  because every segment is a difference of consecutive stamps from the
  same clock.

Segments accumulate into per-PE / per-stream / per-link
:class:`~repro.obs.hist.LogHistogram` instances (no sample retention),
and each egress SDO publishes one ``span`` trace event with the full
decomposition.  Disarmed (``tracker is None`` at every call site) the
model layer pays one attribute load and one branch per hop — the same
pattern as the cached ``recorder.enabled`` guard.
"""

from __future__ import annotations

import threading
import typing as _t
from collections import defaultdict

from repro.obs.hist import LogHistogram
from repro.obs.recorder import NULL_RECORDER, TraceRecorder

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.sdo import SDO

__all__ = [
    "SPAN_QUEUE",
    "SPAN_SERVICE",
    "SPAN_TRANSIT",
    "SPAN_ENQUEUED",
    "SPAN_EMITTED",
    "SpanTracker",
]

#: Indices into the 5-slot span list an armed SDO carries.  A plain list
#: (not a dataclass) keeps the armed per-hop cost to index arithmetic.
SPAN_QUEUE = 0  # accumulated queue-wait seconds
SPAN_SERVICE = 1  # accumulated service seconds
SPAN_TRANSIT = 2  # accumulated link/transport transit seconds
SPAN_ENQUEUED = 3  # stamp: when this SDO entered its current buffer
SPAN_EMITTED = 4  # stamp: when this SDO was emitted by its producer


class SpanTracker:
    """Accumulates span segments into streaming histograms.

    Parameters
    ----------
    recorder:
        Trace bus for the per-egress ``span`` events; the null default
        keeps histogram accumulation without event emission.
    """

    #: Relative float tolerance of the closure check
    #: ``queue + service + transit == e2e``.
    TOLERANCE = 1e-9

    def __init__(self, recorder: TraceRecorder = NULL_RECORDER):
        self.recorder = recorder
        self._recording = recorder.enabled
        #: Armed by :meth:`ensure_locked` on the threaded substrate, where
        #: worker threads update the shared histograms concurrently.
        self._lock: _t.Optional[threading.Lock] = None

        # Tables create a key's histogram on first touch, so the hot
        # hooks below are one subscript and one ``add`` each.
        #: pe_id -> queue-wait / service histograms (seconds).
        self.queue_wait: _t.Dict[str, LogHistogram] = defaultdict(LogHistogram)
        self.service: _t.Dict[str, LogHistogram] = defaultdict(LogHistogram)
        #: stream_id -> transit histogram (seconds, per delivery hop).
        self.transit: _t.Dict[str, LogHistogram] = defaultdict(LogHistogram)
        #: link name -> full link delay histogram (queue+serialize+propagate).
        self.link: _t.Dict[str, LogHistogram] = defaultdict(LogHistogram)
        #: Egress SDOs whose closure identity failed (plain dicts so the
        #: conservation checker can lift them into InvariantViolations
        #: without an import cycle).
        self.violations: _t.List[_t.Dict[str, object]] = []
        #: Egress SDOs observed (should equal the collector's output count
        #: over the same window).
        self.egress_spans = 0

    def ensure_locked(self) -> None:
        """Arm thread-safety after construction (threaded substrate)."""
        if self._lock is None:
            self._lock = threading.Lock()

    # -- hot observation hooks ---------------------------------------------

    def observe_arrival(self, pe_id: _t.Optional[str], sdo: "SDO", now: float) -> None:
        """Buffer offer accepted: close the transit segment, stamp enqueue."""
        lock = self._lock
        if lock is None:
            self._arrival(pe_id, sdo, now)
        else:
            with lock:
                self._arrival(pe_id, sdo, now)

    def _arrival(self, pe_id: _t.Optional[str], sdo: "SDO", now: float) -> None:
        span = sdo.span
        if span is None:
            # First observation of this lineage: emitted at origin_time.
            span = sdo.span = [0.0, 0.0, 0.0, 0.0, sdo.origin_time]
        segment = now - span[SPAN_EMITTED]
        span[SPAN_TRANSIT] += segment
        span[SPAN_ENQUEUED] = now
        self.transit[sdo.stream_id].add(segment)

    def observe_queue(self, pe_id: str, sdo: "SDO", wall: float) -> None:
        """PE dequeued the SDO at (interpolated) ``wall``."""
        lock = self._lock
        if lock is None:
            self._queue(pe_id, sdo, wall)
        else:
            with lock:
                self._queue(pe_id, sdo, wall)

    def _queue(self, pe_id: str, sdo: "SDO", wall: float) -> None:
        span = sdo.span
        if span is None:
            span = sdo.span = [0.0, 0.0, 0.0, wall, sdo.origin_time]
        segment = wall - span[SPAN_ENQUEUED]
        span[SPAN_QUEUE] += segment
        self.queue_wait[pe_id].add(segment)

    def observe_service(self, pe_id: str, sdo: "SDO", segment: float) -> None:
        """SDO completed after ``segment`` seconds of (dequeue->done) time."""
        lock = self._lock
        if lock is None:
            self._service(pe_id, sdo, segment)
        else:
            with lock:
                self._service(pe_id, sdo, segment)

    def _service(self, pe_id: str, sdo: "SDO", segment: float) -> None:
        span = sdo.span
        if span is None:
            span = sdo.span = [0.0, 0.0, 0.0, 0.0, sdo.origin_time]
        span[SPAN_SERVICE] += segment
        self.service[pe_id].add(segment)

    def observe_link(self, name: str, delay: float) -> None:
        """A link transfer was scheduled with total ``delay`` seconds."""
        lock = self._lock
        if lock is None:
            self.link[name].add(delay)
        else:
            with lock:
                self.link[name].add(delay)

    def observe_egress(self, pe_id: str, sdo: "SDO", now: float) -> None:
        """SDO left the system: close the span and check the identity."""
        lock = self._lock
        if lock is None:
            self._egress(pe_id, sdo, now)
        else:
            with lock:
                self._egress(pe_id, sdo, now)

    def _egress(self, pe_id: str, sdo: "SDO", now: float) -> None:
        span = sdo.span
        if span is None:
            return  # lineage predates arming (e.g. buffered pre-reset)
        final_transit = now - span[SPAN_EMITTED]
        self.transit[sdo.stream_id].add(final_transit)
        queue = span[SPAN_QUEUE]
        service = span[SPAN_SERVICE]
        transit = span[SPAN_TRANSIT] + final_transit
        e2e = now - sdo.origin_time
        self.egress_spans += 1

        error = (queue + service + transit) - e2e
        bound = self.TOLERANCE * max(1.0, abs(e2e))
        if error > bound or -error > bound:
            self.violations.append(
                {
                    "invariant": "span_closure",
                    "t": now,
                    "pe": pe_id,
                    "detail": (
                        f"queue={queue!r} + service={service!r} + "
                        f"transit={transit!r} != e2e={e2e!r} "
                        f"(error={error!r})"
                    ),
                }
            )
        if self._recording:
            self.recorder.emit(
                "span",
                pe=pe_id,
                stream=sdo.stream_id,
                queue=queue,
                service=service,
                transit=transit,
                e2e=e2e,
                hops=sdo.hops,
            )

    # -- lifecycle / reporting ---------------------------------------------

    def reset(self) -> None:
        """Drop warm-up accumulation; the measured window starts now."""
        lock = self._lock
        if lock is not None:
            with lock:
                self._reset()
        else:
            self._reset()

    def _reset(self) -> None:
        self.queue_wait.clear()
        self.service.clear()
        self.transit.clear()
        self.link.clear()
        self.violations.clear()
        self.egress_spans = 0

    def segment_tables(
        self,
    ) -> _t.Dict[str, _t.Dict[str, LogHistogram]]:
        """All histogram tables keyed by segment kind."""
        return {
            "queue": self.queue_wait,
            "service": self.service,
            "transit": self.transit,
            "link": self.link,
        }

    def hop_rows(self) -> _t.List[_t.Dict[str, object]]:
        """Per-hop percentile rows (milliseconds), export/render ready."""
        rows: _t.List[_t.Dict[str, object]] = []
        for segment, table in self.segment_tables().items():
            for key in sorted(table):
                hist = table[key]
                rows.append(
                    {
                        "segment": segment,
                        "where": key,
                        "count": hist.count,
                        "mean_ms": hist.mean * 1000.0,
                        "p50_ms": hist.percentile(0.50) * 1000.0,
                        "p95_ms": hist.percentile(0.95) * 1000.0,
                        "p99_ms": hist.percentile(0.99) * 1000.0,
                    }
                )
        return rows

    def __repr__(self) -> str:
        return (
            f"SpanTracker(egress={self.egress_spans}, "
            f"violations={len(self.violations)})"
        )
