"""Simulated data plane: SDO emission, delivery, and admission.

:class:`SimDataPlane` owns everything that moves SDOs between PEs —
timed delivery with same-instant batching, link serialization, egress
collection, and the policy admission path (which is where load shedding
drops).  :class:`SimAdapter` is the simulator's implementation of the
:class:`~repro.control.adapter.SystemAdapter` protocol: it lets the
substrate-agnostic :class:`~repro.control.node.NodeController` read
occupancies and apply CPU grants (executing PEs against the data plane's
``emit``).
"""

from __future__ import annotations

import typing as _t

from repro.metrics.collectors import EgressCollector
from repro.model.links import Link
from repro.model.pe import PERuntime
from repro.model.sdo import SDO
from repro.obs.recorder import (
    BUFFER_OCCUPANCY,
    NULL_RECORDER,
    TraceRecorder,
)
from repro.sim.engine import Environment

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.control.node import ControlRecord
    from repro.obs.spans import SpanTracker


class SimDataPlane:
    """SDO movement between PEs of one simulated system.

    The admission-filter mapping is shared with (and owned by) the
    control plane — the policy's shed filters are resolved there once,
    and the data plane reads the live dict so dynamic filter updates
    take effect without re-wiring.
    """

    def __init__(
        self,
        env: Environment,
        links: _t.Mapping[_t.Tuple[str, str], Link],
        collector: EgressCollector,
        admission_filters: _t.Mapping[str, _t.Optional[_t.Callable]],
        recorder: TraceRecorder,
        spans: _t.Optional["SpanTracker"] = None,
    ):
        self.env = env
        self.links = links
        self.collector = collector
        self.admission_filters = admission_filters
        self.recorder = recorder
        self.spans = spans

        self.emit_attempts = 0
        self.emit_drops = 0
        self.shed_drops = 0
        #: Same-timestamp delivery batches: arrival time -> list of
        #: (consumer-or-None, producer, sdo); one engine event per distinct
        #: arrival instant instead of one per SDO.
        self.delivery_batches: _t.Dict[
            float, _t.List[_t.Tuple[_t.Optional[PERuntime], PERuntime, SDO]]
        ] = {}

    def emit(self, pe: PERuntime, sdo: SDO, completion: float) -> None:
        """Schedule delivery of an output SDO at its completion time.

        Completion times are interpolated inside the current control
        interval; delivering through a timed event (rather than touching
        the consumer's buffer immediately) keeps cross-node causality: the
        consumer sees the SDO only when the clock actually reaches the
        completion (plus any link-transfer) instant.  Deliveries landing
        at the same instant share one engine event (see
        :meth:`_enqueue_delivery`).
        """
        if pe.is_egress:
            self._enqueue_delivery(completion, None, pe, sdo)
            return
        links_get = self.links.get
        pe_id = pe.pe_id
        if self.spans is None:
            for consumer in pe.downstream:
                link = links_get((pe_id, consumer.pe_id))
                if link is None:
                    arrival = completion
                else:
                    arrival = link.transfer_completion(sdo, completion)
                self._enqueue_delivery(arrival, consumer, pe, sdo)
            return
        # Spans armed: every consumer path mutates the delivered SDO's
        # span record, so fan-out beyond the first consumer gets an
        # independent copy (same lineage, own span accumulators).
        first = True
        for consumer in pe.downstream:
            link = links_get((pe_id, consumer.pe_id))
            if link is None:
                arrival = completion
            else:
                arrival = link.transfer_completion(sdo, completion)
            payload = sdo if first else sdo.fanout_copy()
            first = False
            self._enqueue_delivery(arrival, consumer, pe, payload)

    def _enqueue_delivery(
        self,
        at: float,
        consumer: _t.Optional[PERuntime],
        pe: PERuntime,
        sdo: SDO,
    ) -> None:
        """Batch deliveries by exact arrival instant.

        PEs executing a control interval interpolate many completions onto
        the same timestamps, so keying a batch dict by the exact arrival
        float and scheduling one :meth:`Environment.call_at` flush per
        distinct instant replaces the per-SDO event/callback pair.  A
        ``None`` consumer means the SDO exits through the egress collector.
        """
        if at < self.env.now:
            at = self.env.now
        batches = self.delivery_batches
        batch = batches.get(at)
        if batch is None:
            batch = batches[at] = []
            self.env.call_at(at, self._flush_deliveries, value=at)
        batch.append((consumer, pe, sdo))

    def _flush_deliveries(self, event: _t.Any) -> None:
        """Deliver every SDO batched for this event's arrival instant."""
        batch = self.delivery_batches.pop(event._value)
        now = self.env.now
        collector_record = self.collector.record
        admit = self.admit
        for consumer, pe, sdo in batch:
            if consumer is None:
                collector_record(pe.pe_id, sdo, now)
            else:
                self.emit_attempts += 1
                if not admit(consumer, sdo, now):
                    self.emit_drops += 1

    def admit(self, runtime: PERuntime, sdo: SDO, now: float) -> bool:
        """Offer an SDO to a PE's buffer, via the policy's shed filter."""
        admission = self.admission_filters[runtime.pe_id]
        if admission is not None and not admission(runtime, sdo):
            self.shed_drops += 1
            if self.recorder.enabled:
                self.recorder.emit(
                    "drop",
                    pe=runtime.pe_id,
                    cause="shed",
                    occupancy=runtime.buffer.occupancy,
                    capacity=runtime.buffer.capacity,
                )
            return False
        return runtime.ingest(sdo, now)


def sample_buffers(
    pes: _t.Iterable[PERuntime], now: float, recorder: TraceRecorder
) -> _t.List[_t.Tuple[str, int, int]]:
    """Sample every PE's input buffer; returns ``(pe_id, occupancy,
    capacity)`` rows in ``pes`` order, published as one
    ``buffer_occupancy`` batch when tracing."""
    rows = [
        (pe.pe_id, pe.buffer.sample(now), pe.buffer.capacity) for pe in pes
    ]
    if recorder.enabled:
        recorder.emit_rows(BUFFER_OCCUPANCY, None, rows)
    return rows


class SimAdapter:
    """:class:`SystemAdapter` implementation for the discrete-event
    simulator.

    Constructed before the control plane (which needs an adapter) but
    acting through the data plane (which needs the control plane's
    admission filters) — hence the late :meth:`bind`.
    """

    def __init__(self) -> None:
        self.dataplane: _t.Optional[SimDataPlane] = None
        #: The data plane's trace bus (the controller publishes this
        #: adapter's occupancy samples on it).
        self.recorder: TraceRecorder = NULL_RECORDER

    def bind(self, dataplane: SimDataPlane) -> None:
        """Attach the data plane PE execution emits through."""
        self.dataplane = dataplane
        self.recorder = dataplane.recorder

    def snapshot(
        self,
        node_index: int,
        records: _t.Sequence["ControlRecord"],
        now: float,
    ) -> _t.List[int]:
        """Sampled occupancies (folds the read into the simulator's
        occupancy-integral telemetry; idempotent at a fixed ``now``)."""
        return [record.pe.buffer.sample(now) for record in records]

    #: The name the observatory's frozen trace targets patch.
    snapshot_list = snapshot

    def apply_grants(
        self,
        node_index: int,
        records: _t.Sequence["ControlRecord"],
        fractions: _t.Sequence[float],
        now: float,
        dt: float,
    ) -> _t.List[float]:
        """Execute every resident PE for one interval under its grant;
        returns the CPU-seconds each consumed."""
        emit = self.dataplane.emit
        return [
            record.pe.execute(now, dt, cpu, emit, record.gate)
            for record, cpu in zip(records, fractions)
        ]
