"""Egress collection and the consolidated per-run metrics report.

The :class:`EgressCollector` sits behind every egress PE; each SDO leaving
the system records one weighted completion and one end-to-end latency
sample.  Warm-up is handled with :meth:`EgressCollector.reset`: the system
runs the transient period, resets, and the measured window starts clean.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field

from repro.core.utility import LogUtility, UtilityFunction
from repro.metrics.stats import StreamingMoments, SummaryStats
from repro.model.sdo import SDO
from repro.obs.hist import LogHistogram

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.spans import SpanTracker

#: Quantiles every latency report carries (seconds).
LATENCY_QUANTILES = (0.50, 0.95, 0.99)


@dataclass
class EgressRecord:
    """Accumulated output of one egress PE."""

    pe_id: str
    weight: float
    count: int = 0
    latency: StreamingMoments = field(default_factory=StreamingMoments)
    #: Streaming end-to-end latency histogram (always on; one log-bucket
    #: update per egress SDO buys p50/p95/p99 for every run).
    hist: LogHistogram = field(default_factory=LogHistogram)

    def record(self, sdo: SDO, now: float) -> None:
        self.count += 1
        age = sdo.age(now)
        self.latency.add(age)
        self.hist.add(age)


class EgressCollector:
    """Collects weighted throughput and latency at the system outputs."""

    def __init__(self) -> None:
        self._records: _t.Dict[str, EgressRecord] = {}
        self._window_start = 0.0
        self._spans: _t.Optional["SpanTracker"] = None

    def register(self, pe_id: str, weight: float) -> None:
        if pe_id in self._records:
            raise ValueError(f"egress PE {pe_id!r} already registered")
        self._records[pe_id] = EgressRecord(pe_id=pe_id, weight=weight)

    def attach_spans(self, tracker: "SpanTracker") -> None:
        """Close each egress SDO's span (and check the closure identity)."""
        self._spans = tracker

    def record(self, pe_id: str, sdo: SDO, now: float) -> None:
        self._records[pe_id].record(sdo, now)
        spans = self._spans
        if spans is not None:
            spans.observe_egress(pe_id, sdo, now)

    def reset(self, now: float) -> None:
        """Discard warm-up samples; the measured window starts at ``now``."""
        for record in self._records.values():
            record.count = 0
            record.latency = StreamingMoments()
            record.hist = LogHistogram()
        self._window_start = now

    # -- results -----------------------------------------------------------

    @property
    def window_start(self) -> float:
        return self._window_start

    def records(self) -> _t.Dict[str, EgressRecord]:
        return dict(self._records)

    def weighted_throughput(self, now: float) -> float:
        """sum_j w_j * (egress SDO rate) over the measured window."""
        duration = now - self._window_start
        if duration <= 0:
            return 0.0
        return (
            sum(r.weight * r.count for r in self._records.values()) / duration
        )

    def total_output(self) -> int:
        return sum(r.count for r in self._records.values())

    def weighted_utility(
        self, now: float, utility: _t.Optional[UtilityFunction] = None
    ) -> float:
        """sum_j w_j U(rate_j) over the measured window.

        The concave counterpart of :meth:`weighted_throughput`, evaluated
        with the same utility Tier 1 optimizes (``log(x + 1)`` by default)
        so measured outcomes are comparable to the Tier-1 objective.
        """
        duration = now - self._window_start
        if duration <= 0:
            return 0.0
        if utility is None:
            utility = LogUtility()
        return sum(
            r.weight * utility.value(r.count / duration)
            for r in self._records.values()
        )

    def latency_summary(self) -> SummaryStats:
        """Pooled end-to-end latency over all egress streams."""
        pooled = StreamingMoments()
        for record in self._records.values():
            pooled.merge(record.latency)
        return pooled.summary()

    def latency_histogram(self) -> LogHistogram:
        """Pooled end-to-end latency histogram over all egress streams."""
        pooled = LogHistogram()
        for record in self._records.values():
            pooled.merge(record.hist)
        return pooled

    def latency_percentiles(self) -> _t.Dict[str, float]:
        """Pooled p50/p95/p99 end-to-end latency (seconds)."""
        return self.latency_histogram().percentiles(LATENCY_QUANTILES)

    def stream_percentiles(self) -> _t.Dict[str, _t.Dict[str, float]]:
        """Per-egress-stream p50/p95/p99 (seconds), sorted by stream id."""
        return {
            pe_id: self._records[pe_id].hist.percentiles(LATENCY_QUANTILES)
            for pe_id in sorted(self._records)
        }


@dataclass
class MetricsReport:
    """Everything one simulation run reports (over the measured window)."""

    policy: str
    duration: float
    weighted_throughput: float
    total_output_sdos: int
    latency: SummaryStats
    #: SDOs dropped at full input buffers inside the graph.
    buffer_drops: int
    #: SDOs rejected at the system input (sources found ingress full).
    source_rejections: int
    source_generated: int
    #: Mean (over PEs) time-averaged buffer occupancy, in SDOs.
    mean_buffer_occupancy: float
    #: Per-egress detail: pe_id -> (weight, count, mean latency).
    egress_detail: _t.Dict[str, _t.Tuple[float, int, float]] = field(
        default_factory=dict
    )
    #: CPU seconds actually used across PEs / wall duration / node count.
    cpu_utilization: float = 0.0
    #: Fraction of emitted SDOs dropped downstream (wasted processing).
    wasted_work_fraction: float = 0.0
    #: Weighted utility throughput sum_j w_j U(rate_j) for the log utility
    #: (the Tier-1 objective, from ``core/utility.py``), reported alongside
    #: the linear weighted throughput.
    weighted_utility: float = 0.0
    #: Pooled end-to-end latency quantiles in seconds
    #: (``{"p50": ..., "p95": ..., "p99": ...}``; empty when the run
    #: predates histogram collection).
    latency_percentiles: _t.Dict[str, float] = field(default_factory=dict)
    #: Per-kind drop breakdown over the measured window.  The in-graph
    #: kinds (``buffer_overflow``, ``flushed``, ``shed``) sum exactly to
    #: :attr:`buffer_drops`; the admission-front-end refusals
    #: (``admission_shed``, ``admission_rejected``) happen before any
    #: buffer and are a subset of :attr:`source_rejections`.  Empty for
    #: runs that predate the breakdown.
    drops_by_kind: _t.Dict[str, int] = field(default_factory=dict)

    @property
    def input_loss_rate(self) -> float:
        if self.source_generated == 0:
            return 0.0
        return self.source_rejections / self.source_generated

    def one_line(self) -> str:
        pct = self.latency_percentiles
        return (
            f"{self.policy:9s} wthr={self.weighted_throughput:8.2f} "
            f"wutil={self.weighted_utility:7.2f} "
            f"lat={self.latency.mean * 1000:7.1f}ms "
            f"(std {self.latency.std * 1000:6.1f}) "
            f"p50/p95/p99={pct.get('p50', 0.0) * 1000:.1f}/"
            f"{pct.get('p95', 0.0) * 1000:.1f}/"
            f"{pct.get('p99', 0.0) * 1000:.1f}ms "
            f"out={self.total_output_sdos:7d} drops={self.buffer_drops:6d} "
            f"rej={self.source_rejections:6d}"
        )
