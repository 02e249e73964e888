"""Stream Data Objects — the fundamental unit of a data stream.

Every SDO carries provenance needed for the paper's metrics:

* ``origin_time`` — the virtual time the *original* system-input SDO entered
  the system.  A PE consumes one SDO at a time, and every SDO it emits
  inherits that SDO's origin time (:meth:`SDO.derive`), so the end-to-end
  latency measured at an egress PE spans the whole processing chain.
* ``hops`` — number of PEs that have processed ancestors of this SDO, used
  as a sanity check on the processing-graph depth.

SDOs are fixed-size: the paper measures rates in SDOs per second, so an
SDO carries no size or payload, and a link serializes each one in
``1 / bandwidth`` seconds.
"""

from __future__ import annotations

import typing as _t


class SDO:
    """One Stream Data Object.

    A ``__slots__`` class rather than a dataclass: SDOs are created on
    every source arrival and every PE emission, so the per-instance dict
    is measurable overhead at simulation scale.

    Parameters
    ----------
    stream_id:
        Identifier of the stream (source or producing PE) this SDO belongs to.
    origin_time:
        Virtual time at which the ancestral system-input SDO was created.
    hops:
        Number of PE processing steps applied to this SDO's lineage.
    span:
        Latency-span accumulator, ``None`` unless a
        :class:`~repro.obs.spans.SpanTracker` is armed; then a 5-slot
        list indexed by the ``SPAN_*`` constants (queue, service,
        transit, enqueued-at, emitted-at).  A bare list keeps the armed
        per-hop cost to index arithmetic and the disarmed cost to one
        default slot.
    """

    __slots__ = ("stream_id", "origin_time", "hops", "span")

    def __init__(
        self,
        stream_id: str,
        origin_time: float,
        hops: int = 0,
        span: _t.Optional[_t.List[float]] = None,
    ):
        self.stream_id = stream_id
        self.origin_time = origin_time
        self.hops = hops
        self.span = span

    def __repr__(self) -> str:
        return (
            f"SDO(stream_id={self.stream_id!r}, "
            f"origin_time={self.origin_time!r}, hops={self.hops!r})"
        )

    def derive(self, stream_id: str) -> "SDO":
        """Create an output SDO descended from this one.

        The derived SDO inherits the origin time (for end-to-end latency)
        and increments the hop count.
        """
        return SDO(
            stream_id=stream_id,
            origin_time=self.origin_time,
            hops=self.hops + 1,
        )

    def fanout_copy(self) -> "SDO":
        """Per-consumer copy for multi-consumer fan-out under span tracking.

        Both substrates deliver one emitted SDO object to *every*
        downstream consumer; with spans armed each consumer path mutates
        the span record, so consumers beyond the first get a copy with
        an independent span list.  Disarmed call sites never call this.
        """
        span = self.span
        return SDO(
            stream_id=self.stream_id,
            origin_time=self.origin_time,
            hops=self.hops,
            span=None if span is None else list(span),
        )

    def age(self, now: float) -> float:
        """End-to-end latency of this SDO's lineage as of ``now``."""
        return now - self.origin_time
