"""The live metrics surface: snapshots, ``repro top`` rendering, and
Prometheus text exposition.

A :class:`MetricsSnapshot` is a plain, substrate-independent view of one
running system at one instant: per-egress-stream streaming percentiles
(from the always-on :class:`~repro.obs.hist.LogHistogram` per egress
record), per-PE occupancy, controller gauges (``r_max``), drop counters,
and — when a :class:`~repro.obs.spans.SpanTracker` is armed — the per-hop
queue/service/transit percentile rows.

Two renderers consume it:

* :func:`render_top` — the aligned ASCII view behind ``repro top``
  (one-shot and watch mode);
* :func:`render_prometheus` — Prometheus text exposition (format 0.0.4)
  with one cumulative-``le`` histogram per egress stream, suitable for a
  textfile collector or a scrape endpoint.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field

__all__ = [
    "MetricsSnapshot",
    "PERow",
    "StreamRow",
    "render_prometheus",
    "render_top",
    "snapshot",
]


@dataclass
class StreamRow:
    """One egress stream's latency/throughput state."""

    pe_id: str
    weight: float
    count: int
    mean_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    #: Total latency seconds observed (Prometheus ``_sum``).
    sum_s: float
    #: Cumulative histogram buckets as (upper_edge_seconds, cumulative).
    buckets: _t.List[_t.Tuple[float, int]] = field(default_factory=list)


@dataclass
class PERow:
    """One PE's instantaneous buffer/controller state."""

    pe_id: str
    occupancy: int
    capacity: int
    r_max: _t.Optional[float] = None


@dataclass
class MetricsSnapshot:
    """Substrate-independent view of one running system at one instant."""

    substrate: str  # "sim" | "threaded"
    policy: str
    t: float  # model time of the snapshot
    window: float  # seconds since the measured window started
    weighted_throughput: float
    total_output: int
    buffer_drops: int
    source_rejections: int
    streams: _t.List[StreamRow] = field(default_factory=list)
    pes: _t.List[PERow] = field(default_factory=list)
    #: Per-hop span decomposition rows (``SpanTracker.hop_rows``);
    #: empty when spans are disarmed.
    span_rows: _t.List[_t.Dict[str, object]] = field(default_factory=list)
    #: Egress span-closure violations observed so far (should stay 0).
    span_violations: int = 0
    #: Effective admission ladder level name (``None`` when no admission
    #: front end is armed).
    admission_level: _t.Optional[str] = None
    #: Last unitless admission pressure (1.0 == SLO boundary).
    admission_pressure: _t.Optional[float] = None
    #: SDOs shed at the admission front end (lifetime).
    admission_shed: int = 0
    #: SDOs rejected with retry-after at the admission front end (lifetime).
    admission_rejected: int = 0
    #: Ladder transitions observed so far.
    admission_transitions: int = 0
    #: Per-ingress-stream admission ledger rows
    #: (``{"pe": ..., "admitted": ..., "shed": ..., "rejected": ...}``).
    admission_streams: _t.List[_t.Dict[str, object]] = field(
        default_factory=list
    )

    @property
    def drop_rate(self) -> float:
        """Drops per measured second (0 before the window opens)."""
        if self.window <= 0:
            return 0.0
        return self.buffer_drops / self.window


def _stream_rows(records: _t.Mapping[str, _t.Any]) -> _t.List[StreamRow]:
    rows = []
    for pe_id in sorted(records):
        record = records[pe_id]
        hist = record.hist
        pct = hist.percentiles((0.50, 0.95, 0.99))
        rows.append(
            StreamRow(
                pe_id=pe_id,
                weight=record.weight,
                count=record.count,
                mean_s=record.latency.mean,
                p50_s=pct["p50"],
                p95_s=pct["p95"],
                p99_s=pct["p99"],
                sum_s=hist.total,
                buckets=hist.cumulative_buckets(),
            )
        )
    return rows


def _admission_state(admission: _t.Optional[_t.Any]) -> _t.Dict[str, _t.Any]:
    """Admission-front-end fields for a snapshot (empty when disarmed)."""
    if admission is None:
        return {}
    return {
        "admission_level": admission.effective_level.name,
        "admission_pressure": admission.last_pressure,
        "admission_shed": admission.total_shed,
        "admission_rejected": admission.total_rejected,
        "admission_transitions": admission.ladder.transitions,
        "admission_streams": [
            {
                "pe": pe_id,
                "admitted": stream.admitted,
                "shed": stream.shed,
                "rejected": stream.rejected,
            }
            for pe_id, stream in sorted(admission.streams.items())
        ],
    }


def snapshot(system: _t.Any) -> MetricsSnapshot:
    """Snapshot a paused or finished simulated system, or a live threaded
    runtime: the collector (read under ``system.collector_lock``), the
    plane's PEs and flow controllers, the sources, spans, admission."""
    collector = system.collector
    now = system.env.now
    with system.collector_lock:
        window = now - collector.window_start
        throughput = collector.weighted_throughput(now)
        total = collector.total_output()
        streams = _stream_rows(collector.records())
    controllers = system.plane.controllers
    pes = sorted(
        (pe for group in system.plane.groups for pe in group.pes),
        key=lambda pe: pe.pe_id,
    )
    spans = system.spans
    return MetricsSnapshot(
        substrate=system.substrate,
        policy=system.policy.name,
        t=now,
        window=window,
        weighted_throughput=throughput,
        total_output=total,
        buffer_drops=system.shed_drops + sum(
            pe.buffer.telemetry.dropped for pe in pes
        ),
        source_rejections=sum(s.stats.rejected for s in system.sources),
        streams=streams,
        pes=[
            PERow(
                pe_id=pe.pe_id,
                occupancy=pe.buffer.occupancy,
                capacity=pe.buffer.capacity,
                r_max=(
                    controllers[pe.pe_id].last_r_max
                    if pe.pe_id in controllers
                    else None
                ),
            )
            for pe in pes
        ],
        span_rows=spans.hop_rows() if spans is not None else [],
        span_violations=len(spans.violations) if spans is not None else 0,
        **_admission_state(system.admission),
    )


def render_top(snapshot: MetricsSnapshot) -> str:
    """Render the ``repro top`` view: header, streams, PEs, span hops."""
    # Deferred import: repro.experiments pulls in repro.core, which
    # imports repro.obs — a top-level import here would close the cycle.
    from repro.experiments.reporting import format_table

    header = (
        f"repro top  [{snapshot.substrate}/{snapshot.policy}]  "
        f"t={snapshot.t:.2f}s  window={snapshot.window:.2f}s  "
        f"wthr={snapshot.weighted_throughput:.2f}/s  "
        f"out={snapshot.total_output}  drops={snapshot.buffer_drops}  "
        f"rej={snapshot.source_rejections}"
    )
    if snapshot.admission_level is not None:
        pressure = (
            "-"
            if snapshot.admission_pressure is None
            else f"{snapshot.admission_pressure:.2f}"
        )
        header += (
            f"\nadmission: level={snapshot.admission_level}  "
            f"pressure={pressure}  shed={snapshot.admission_shed}  "
            f"rejected={snapshot.admission_rejected}  "
            f"transitions={snapshot.admission_transitions}"
        )
    sections = [header]

    if snapshot.streams:
        stream_rows = [
            {
                "stream": row.pe_id,
                "weight": row.weight,
                "count": row.count,
                "mean_ms": row.mean_s * 1000.0,
                "p50_ms": row.p50_s * 1000.0,
                "p95_ms": row.p95_s * 1000.0,
                "p99_ms": row.p99_s * 1000.0,
            }
            for row in snapshot.streams
        ]
        sections.append("-- egress streams --\n" + format_table(stream_rows))

    if snapshot.pes:
        pe_rows = [
            {
                "pe": row.pe_id,
                "occupancy": row.occupancy,
                "capacity": row.capacity,
                "r_max": "-" if row.r_max is None else f"{row.r_max:.2f}",
            }
            for row in snapshot.pes
        ]
        sections.append("-- PEs --\n" + format_table(pe_rows))

    if snapshot.admission_streams:
        sections.append(
            "-- admission (per ingress stream) --\n"
            + format_table(snapshot.admission_streams)
        )

    if snapshot.span_rows:
        sections.append(
            f"-- latency spans (closure violations: "
            f"{snapshot.span_violations}) --\n"
            + format_table(snapshot.span_rows)
        )
    return "\n\n".join(sections) + "\n"


def _prom_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def _prom_float(value: float) -> str:
    return repr(float(value))


def render_prometheus(snapshot: MetricsSnapshot) -> str:
    """Prometheus text exposition (0.0.4) of one snapshot."""
    common = (
        f'substrate="{_prom_label(snapshot.substrate)}",'
        f'policy="{_prom_label(snapshot.policy)}"'
    )
    lines: _t.List[str] = []

    lines.append(
        "# HELP repro_weighted_throughput Weighted egress SDO rate "
        "over the measured window."
    )
    lines.append("# TYPE repro_weighted_throughput gauge")
    lines.append(
        f"repro_weighted_throughput{{{common}}} "
        f"{_prom_float(snapshot.weighted_throughput)}"
    )

    lines.append("# HELP repro_output_sdos_total Egress SDOs collected.")
    lines.append("# TYPE repro_output_sdos_total counter")
    lines.append(
        f"repro_output_sdos_total{{{common}}} {snapshot.total_output}"
    )

    lines.append("# HELP repro_drops_total SDOs dropped (buffer + shed).")
    lines.append("# TYPE repro_drops_total counter")
    lines.append(f"repro_drops_total{{{common}}} {snapshot.buffer_drops}")

    lines.append(
        "# HELP repro_source_rejections_total SDOs rejected at ingress."
    )
    lines.append("# TYPE repro_source_rejections_total counter")
    lines.append(
        f"repro_source_rejections_total{{{common}}} "
        f"{snapshot.source_rejections}"
    )

    if snapshot.admission_level is not None:
        lines.append(
            "# HELP repro_admission_level Effective degradation ladder "
            "level (0=NORMAL..4=KILL)."
        )
        lines.append("# TYPE repro_admission_level gauge")
        level_rank = {
            "NORMAL": 0,
            "SHED_LOW": 1,
            "SHED_HIGH": 2,
            "REJECT": 3,
            "KILL": 4,
        }[snapshot.admission_level]
        lines.append(f"repro_admission_level{{{common}}} {level_rank}")
        lines.append(
            "# HELP repro_admission_shed_total SDOs shed at the "
            "admission front end."
        )
        lines.append("# TYPE repro_admission_shed_total counter")
        lines.append(
            f"repro_admission_shed_total{{{common}}} "
            f"{snapshot.admission_shed}"
        )
        lines.append(
            "# HELP repro_admission_rejected_total SDOs rejected with "
            "retry-after at the admission front end."
        )
        lines.append("# TYPE repro_admission_rejected_total counter")
        lines.append(
            f"repro_admission_rejected_total{{{common}}} "
            f"{snapshot.admission_rejected}"
        )
        lines.append(
            "# HELP repro_admission_transitions_total Degradation "
            "ladder transitions."
        )
        lines.append("# TYPE repro_admission_transitions_total counter")
        lines.append(
            f"repro_admission_transitions_total{{{common}}} "
            f"{snapshot.admission_transitions}"
        )

    lines.append("# HELP repro_pe_occupancy Input-buffer occupancy per PE.")
    lines.append("# TYPE repro_pe_occupancy gauge")
    for row in snapshot.pes:
        lines.append(
            f'repro_pe_occupancy{{{common},pe="{_prom_label(row.pe_id)}"}} '
            f"{row.occupancy}"
        )

    lines.append(
        "# HELP repro_pe_r_max Last advertised flow-control rate bound."
    )
    lines.append("# TYPE repro_pe_r_max gauge")
    for row in snapshot.pes:
        if row.r_max is None:
            continue
        lines.append(
            f'repro_pe_r_max{{{common},pe="{_prom_label(row.pe_id)}"}} '
            f"{_prom_float(row.r_max)}"
        )

    lines.append(
        "# HELP repro_stream_latency_seconds End-to-end latency per "
        "egress stream."
    )
    lines.append("# TYPE repro_stream_latency_seconds histogram")
    for row in snapshot.streams:
        labels = f'{common},stream="{_prom_label(row.pe_id)}"'
        for upper, cumulative in row.buckets:
            lines.append(
                f'repro_stream_latency_seconds_bucket{{{labels},'
                f'le="{_prom_float(upper)}"}} {cumulative}'
            )
        lines.append(
            f'repro_stream_latency_seconds_bucket{{{labels},le="+Inf"}} '
            f"{row.count}"
        )
        lines.append(
            f"repro_stream_latency_seconds_sum{{{labels}}} "
            f"{_prom_float(row.sum_s)}"
        )
        lines.append(
            f"repro_stream_latency_seconds_count{{{labels}}} {row.count}"
        )
    return "\n".join(lines) + "\n"
