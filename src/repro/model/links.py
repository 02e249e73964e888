"""Network links between PEs: finite bandwidth and propagation delay.

The paper manages "processor and network" resources; its evaluation is
intra-cluster, where transfer cost is small but not zero.  This module
models each producer->consumer stream as a serializing link.  SDOs are
fixed-size, so ``bandwidth`` is in SDOs per second: each SDO occupies the
link for ``1 / bandwidth`` seconds (FIFO, one SDO at a time), then arrives
after a further fixed ``latency``.

Links are optional: :class:`~repro.systems.simulated.SystemConfig` keeps
``link_bandwidth = None`` (infinite) by default, matching the paper's
evaluation; setting a finite value turns every inter-node edge into a
:class:`Link` (co-located PEs communicate through memory and stay
instantaneous).
"""

from __future__ import annotations

import typing as _t

from repro.model.sdo import SDO

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.spans import SpanTracker


class Link:
    """A FIFO serializing link with bandwidth and propagation delay.

    The link does not buffer beyond the in-flight serialization: admission
    control stays at the consumer's input buffer (the paper's model).  A
    transfer requested while the link is busy queues behind the current
    ones — :meth:`transfer_completion` returns when the SDO will arrive.
    """

    #: Armed span tracker; records each transfer's full delay (queue
    #: behind the serializer + serialization + propagation).
    spans: _t.Optional["SpanTracker"] = None

    def __init__(
        self,
        name: str,
        bandwidth: float,
        latency: float = 0.0,
    ):
        if bandwidth <= 0:
            raise ValueError(f"{name}: bandwidth must be positive")
        if latency < 0:
            raise ValueError(f"{name}: latency must be >= 0")
        self.name = name
        self.bandwidth = bandwidth
        self.latency = latency
        self._busy_until = 0.0

    def transfer_completion(self, sdo: SDO, now: float) -> float:
        """Reserve the link for ``sdo`` and return its arrival time.

        Serialization starts when the link frees (FIFO); the SDO arrives
        after serialization plus the propagation latency.
        """
        if now < 0:
            raise ValueError("now must be >= 0")
        start = max(now, self._busy_until)
        self._busy_until = start + 1.0 / self.bandwidth
        arrival = self._busy_until + self.latency
        spans = self.spans
        if spans is not None:
            spans.observe_link(self.name, arrival - now)
        return arrival

    def __repr__(self) -> str:
        return (
            f"Link({self.name}, bw={self.bandwidth}, "
            f"busy_until={self._busy_until:.3f})"
        )
