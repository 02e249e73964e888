"""End-to-end SDO conservation ledgers for both substrates.

Every SDO that enters a :class:`~repro.systems.simulated.SimulatedSystem`
must be accounted for somewhere: delivered to the egress collector,
dropped (overflow, shed, or crash-flush), still buffered, in execution,
or in flight on a link.  :func:`check_conservation` closes that ledger
after a run from the system's lifetime counters:

per input buffer
    ``offered == accepted + (dropped - flushed)`` and
    ``accepted == popped + flushed + occupancy`` — flush losses are
    *accepted* SDOs, so they are carried by the ``flushed`` counter, not
    double-counted against ``offered``.

per PE
    ``popped == consumed + in_progress`` and ``cpu_used <= cpu_granted``.

globally
    ``sum(offered) == sum(generated) + emit_attempts - shed_drops -
    admission_shed - admission_rejected``
    (the only entry points are workload sources and upstream emissions;
    a shed SDO never reaches a buffer, and SDOs the admission front end
    turns away never reach the data plane at all);
    ``sum(emitted * fan_out) over non-egress PEs ==
    emit_attempts + in-flight non-egress deliveries``; and
    ``sum(emitted) over egress PEs ==
    collector total + in-flight egress deliveries`` (checked only when
    the collector window covers the whole run, i.e. ``warmup == 0``).

The checker reads counters only — it never advances the system — so it
can be run repeatedly and composes with the online oracles in
:mod:`repro.check.oracles`.

:func:`check_spc_conservation` closes the part of the ledger a
threaded :class:`~repro.runtime.spc.SPCRuntime` can count exactly once
its workers have stopped: the same per-channel identities, and per
input stream ``generated == admitted + rejected`` with the ingress
channel accepting exactly the source's admitted SDOs and the admission
front end deciding every generated one.

Each substrate binds its own ledger as ``check_conservation()`` (see
:class:`~repro.systems.substrate.Substrate`), so a caller closes the
books of whichever system it holds without asking which one it is.
"""

from __future__ import annotations

import typing as _t

from repro.check.oracles import InvariantViolation

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.spc import SPCRuntime
    from repro.systems.simulated import SimulatedSystem


Violate = _t.Callable[..., None]


def _ledger(
    now: float,
) -> _t.Tuple[_t.List[InvariantViolation], Violate]:
    """An empty violation list and ``violate(invariant, detail, pe=None)``
    appending to it, stamped ``now``."""
    violations: _t.List[InvariantViolation] = []

    def violate(invariant: str, detail: str, pe: _t.Optional[str] = None) -> None:
        violations.append(
            InvariantViolation(
                invariant=invariant,
                equation="Section IV (conservation)",
                t=float(now),
                pe=pe,
                node=None,
                detail=detail,
            )
        )

    return violations, violate


def _check_buffer(
    violate: Violate, pe_id: str, stats: _t.Any, occupancy: int
) -> None:
    """The two per-buffer identities, over a simulator buffer's
    ``telemetry`` or a runtime channel's ``stats`` (the same counters)."""
    if stats.offered != stats.accepted + (stats.dropped - stats.flushed):
        violate(
            "buffer_offer_conservation",
            f"offered={stats.offered} != accepted={stats.accepted}"
            f" + (dropped={stats.dropped} - flushed={stats.flushed})",
            pe=pe_id,
        )
    if stats.accepted != stats.popped + stats.flushed + occupancy:
        violate(
            "buffer_occupancy_conservation",
            f"accepted={stats.accepted} != popped={stats.popped}"
            f" + flushed={stats.flushed} + occupancy={occupancy}",
            pe=pe_id,
        )


def _check_source(
    violate: Violate, source: _t.Any, admission: _t.Optional[_t.Any]
) -> None:
    """Every SDO a source generated was admitted or rejected, and got
    exactly one verdict from an armed admission front end."""
    stats = source.stats
    pe_id = source.stream_id.split(":", 1)[1]
    if stats.generated != stats.admitted + stats.rejected:
        violate(
            "source_conservation",
            f"{source.stream_id}: generated={stats.generated} != "
            f"admitted={stats.admitted} + rejected={stats.rejected}",
            pe=pe_id,
        )
    stream = admission.streams.get(pe_id) if admission is not None else None
    if stream is not None and stream.decisions != stats.generated:
        violate(
            "admission_decision_conservation",
            f"decisions={stream.decisions} (admitted={stream.admitted}"
            f" + shed={stream.shed} + rejected={stream.rejected})"
            f" != generated={stats.generated}",
            pe=pe_id,
        )


def check_conservation(
    system: "SimulatedSystem", tolerance: float = 1e-9
) -> _t.List[InvariantViolation]:
    """Close the SDO ledger of a finished (or paused) simulated run."""
    violations, violate = _ledger(system.env.now)

    total_offered = 0
    egress_emitted = 0
    fanout_emissions = 0
    for pe_id, runtime in sorted(system.runtimes.items()):
        telemetry = runtime.buffer.telemetry
        total_offered += telemetry.offered
        _check_buffer(violate, pe_id, telemetry, runtime.buffer.occupancy)
        if telemetry.high_water > runtime.buffer.capacity:
            violate(
                "buffer_high_water",
                f"high_water={telemetry.high_water} exceeds "
                f"capacity={runtime.buffer.capacity}",
                pe=pe_id,
            )

        counters = runtime.counters
        in_progress = 1 if runtime._current is not None else 0
        if telemetry.popped != counters.consumed + in_progress:
            violate(
                "pe_consumption_conservation",
                f"popped={telemetry.popped} != consumed={counters.consumed}"
                f" + in_progress={in_progress}",
                pe=pe_id,
            )
        if counters.cpu_used > counters.cpu_granted + tolerance * max(
            1.0, counters.cpu_granted
        ):
            violate(
                "cpu_budget",
                f"cpu_used={counters.cpu_used} exceeds "
                f"cpu_granted={counters.cpu_granted}",
                pe=pe_id,
            )

        if runtime.is_egress:
            egress_emitted += counters.emitted
        else:
            fanout_emissions += counters.emitted * len(runtime.downstream)

    dataplane = system.dataplane
    pending_egress = 0
    pending_internal = 0
    for batch in dataplane.delivery_batches.values():
        for consumer, _producer, _sdo in batch:
            if consumer is None:
                pending_egress += 1
            else:
                pending_internal += 1

    total_generated = sum(source.stats.generated for source in system.sources)
    admission = system.admission
    admission_shed = admission.total_shed if admission is not None else 0
    admission_rejected = (
        admission.total_rejected if admission is not None else 0
    )
    expected_offered = (
        total_generated
        + dataplane.emit_attempts
        - dataplane.shed_drops
        - admission_shed
        - admission_rejected
    )
    if total_offered != expected_offered:
        violate(
            "global_offer_conservation",
            f"sum(offered)={total_offered} != generated={total_generated}"
            f" + emit_attempts={dataplane.emit_attempts}"
            f" - shed_drops={dataplane.shed_drops}"
            f" - admission_shed={admission_shed}"
            f" - admission_rejected={admission_rejected}",
        )

    if admission is not None:
        # The per-stream verdicts sum exactly to the totals and to what
        # the sources generated (each stream is checked per source).
        decisions = sum(
            stream.decisions for stream in admission.streams.values()
        )
        expected_totals = (
            admission.total_admitted + admission_shed + admission_rejected
        )
        if decisions != expected_totals or decisions != total_generated:
            violate(
                "admission_breakdown_conservation",
                f"sum(per-stream decisions)={decisions} != "
                f"admitted={admission.total_admitted}"
                f" + shed={admission_shed}"
                f" + rejected={admission_rejected}"
                f" (= {expected_totals}), generated={total_generated}",
            )

    if fanout_emissions != dataplane.emit_attempts + pending_internal:
        violate(
            "emission_delivery_conservation",
            f"sum(emitted * fan_out)={fanout_emissions} != "
            f"emit_attempts={dataplane.emit_attempts}"
            f" + in_flight={pending_internal}",
        )

    # The collector only sees its measurement window; the egress identity
    # is exact when that window spans the whole run (warmup == 0).
    collector = system.collector
    if collector.window_start == 0.0:
        delivered = collector.total_output()
        if egress_emitted != delivered + pending_egress:
            violate(
                "egress_conservation",
                f"sum(egress emitted)={egress_emitted} != "
                f"delivered={delivered} + in_flight={pending_egress}",
            )

    for source in system.sources:
        _check_source(violate, source, admission)

    # Per-egress histogram/moments identity: the streaming latency
    # histogram sees exactly the SDOs the moment accumulator sees.
    for pe_id, record in sorted(collector.records().items()):
        if not (record.hist.count == record.count == record.latency.count):
            violate(
                "latency_histogram_conservation",
                f"hist.count={record.hist.count}, record.count="
                f"{record.count}, moments.count={record.latency.count} "
                "disagree",
                pe=pe_id,
            )

    # Armed span tracker: lift its closure violations into the shared
    # violation type and close the span/egress ledger.
    spans = system.spans
    if spans is not None:
        for entry in spans.violations:
            violations.append(
                InvariantViolation(
                    invariant=str(entry["invariant"]),
                    equation="span telescoping (queue+service+transit==e2e)",
                    t=float(entry["t"]),  # type: ignore[arg-type]
                    pe=_t.cast(_t.Optional[str], entry.get("pe")),
                    node=None,
                    detail=str(entry["detail"]),
                )
            )
        delivered = collector.total_output()
        if spans.egress_spans != delivered:
            violate(
                "span_egress_conservation",
                f"egress spans={spans.egress_spans} != collector "
                f"output={delivered} over the measured window",
            )

    return violations


def check_spc_conservation(
    runtime: "SPCRuntime",
) -> _t.List[InvariantViolation]:
    """Close the SDO ledger of a stopped threaded run."""
    violations, violate = _ledger(runtime.now())

    for pe_id, pe in sorted(runtime.pes.items()):
        _check_buffer(violate, pe_id, pe.channel.stats, pe.channel.occupancy)

    for source in runtime.sources:
        _check_source(violate, source, runtime.admission)
        pe_id = source.stream_id.split(":", 1)[1]
        accepted = runtime.pes[pe_id].channel.stats.accepted
        if accepted != source.stats.admitted:
            violate(
                "ingress_conservation",
                f"channel accepted={accepted} != source "
                f"admitted={source.stats.admitted}",
                pe=pe_id,
            )
    return violations
