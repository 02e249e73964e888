"""Egress collection, the measured window and the per-run metrics report.

The :class:`EgressCollector` sits behind every egress PE; each SDO leaving
the system records one weighted completion and one end-to-end latency
sample.  :func:`measure_window` runs the measured window of either
substrate: it runs the warm-up, resets the collector so the window
starts clean, and builds the one :class:`MetricsReport`.
"""

from __future__ import annotations

import math
import typing as _t
from dataclasses import dataclass, field

from repro.core.utility import LogUtility
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

    def weighted_utility(self, now: float) -> float:
        """sum_j w_j U(rate_j) over the measured window.

        The concave counterpart of :meth:`weighted_throughput`, evaluated
        with the utility Tier 1 optimizes (``log(x + 1)``) so measured
        outcomes are comparable to the Tier-1 objective.
        """
        duration = now - self._window_start
        if duration <= 0:
            return 0.0
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
    """Everything one run reports over its measured window, on either
    substrate."""

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
    #: Mean (over PEs) time-averaged buffer occupancy, in SDOs; ``nan``
    #: on the threaded runtime, whose channels keep no occupancy integral.
    mean_buffer_occupancy: float
    #: Per-egress detail: pe_id -> (weight, count, mean latency).
    egress_detail: _t.Dict[str, _t.Tuple[float, int, float]] = field(
        default_factory=dict
    )
    #: CPU seconds actually used across PEs / window / node count.
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
    #: Dead workers the threaded runtime's supervisor revived, and
    #: workers that exhausted their restart budget (0 on the simulator).
    worker_restarts: int = 0
    workers_abandoned: int = 0

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


@dataclass
class WindowCounters:
    """Lifetime counters a substrate's ``window_counters()`` reads at
    each end of the measured window; the report carries the deltas."""

    buffer_drops: int
    buffer_flushed: int
    source_generated: int
    source_rejected: int
    shed_drops: int
    admission_shed: int
    admission_rejected: int
    cpu_used: float
    emit_attempts: int
    emit_drops: int
    #: pe_id -> time-integrated buffer occupancy; ``None`` where the
    #: substrate keeps no integral.
    occupancy_integrals: _t.Optional[_t.Dict[str, float]] = None

    @classmethod
    def read(
        cls, system: _t.Any, buffers: _t.Sequence[_t.Any], **substrate: _t.Any
    ) -> "WindowCounters":
        """The counters both substrates keep alike, from ``system`` and
        its PEs' buffer counters; the substrate passes the rest."""
        admission = system.admission
        return cls(
            buffer_drops=sum(buffer.dropped for buffer in buffers),
            buffer_flushed=sum(buffer.flushed for buffer in buffers),
            source_generated=sum(s.stats.generated for s in system.sources),
            source_rejected=sum(s.stats.rejected for s in system.sources),
            shed_drops=system.shed_drops,
            admission_shed=(
                admission.total_shed if admission is not None else 0
            ),
            admission_rejected=(
                admission.total_rejected if admission is not None else 0
            ),
            **substrate,
        )


def measure_window(
    system: _t.Any,
    duration: float,
    observer: _t.Optional[_t.Callable[[_t.Any], None]] = None,
    observe_interval: float = 1.0,
) -> MetricsReport:
    """Warm ``system`` up, run ``duration`` model seconds and report them.

    Either substrate: ``system.env.run(until=...)`` drives it and
    ``system.env.now`` reads its clock, its egress collector is read
    under ``system.collector_lock``, and ``system.window_counters()``
    supplies the counters the report takes deltas of.  When
    ``observer`` is given the window runs in steps of
    ``observe_interval`` and the observer is called with the system
    after each, the last included (the ``repro top --watch`` hook); on
    the simulator stepping only adds until-events, so the report is the
    unobserved run's.  A ``duration`` or ``observe_interval`` that is not
    finite and positive raises :class:`ValueError` before anything runs.
    """
    for name, value in (
        ("duration", duration), ("observe_interval", observe_interval)
    ):
        # ``not > 0`` refuses NaN too.
        if not value > 0 or not math.isfinite(value):
            raise ValueError(f"{name} must be finite and positive: {value}")
    env, collector = system.env, system.collector
    if system.config.warmup > 0:
        env.run(until=system.config.warmup)
    with system.collector_lock:
        started = env.now
        collector.reset(started)
    if system.spans is not None:
        system.spans.reset()
    start = system.window_counters()

    stop = started + duration
    if observer is None:
        env.run(until=stop)
    else:
        while env.now < stop:
            env.run(until=min(env.now + observe_interval, stop))
            observer(system)

    # The window closes here, under the lock a threaded egress sink
    # records under: what it delivers during teardown is not reported.
    with system.collector_lock:
        ended = env.now
        end = system.window_counters()

        def delta(name: str) -> _t.Any:
            return getattr(end, name) - getattr(start, name)

        # A threaded clock passes ``stop`` by its wake-up latency; the
        # simulator's stops on it, and the window is ``duration`` exactly.
        window = duration + (ended - stop)
        if system.elasticity is None and len(system.elastic.timeline) == 1:
            # Membership never moved: node-seconds is window * num_nodes.
            node_seconds = window * len(system.plane.groups)
        else:
            node_seconds = system.elastic.node_seconds(started, ended)
        if end.occupancy_integrals is None:
            mean_occupancy = math.nan
        else:
            means = [
                (integral - start.occupancy_integrals[pe_id]) / window
                for pe_id, integral in end.occupancy_integrals.items()
            ]
            mean_occupancy = sum(means) / len(means) if means else 0.0
        # The in-graph kinds sum to buffer_drops; admission refusals
        # happen before any buffer (a subset of source_rejections).
        drops_by_kind = {
            "buffer_overflow": delta("buffer_drops") - delta("buffer_flushed"),
            "flushed": delta("buffer_flushed"),
            "shed": delta("shed_drops"),
            "admission_shed": delta("admission_shed"),
            "admission_rejected": delta("admission_rejected"),
        }
        emit_attempts = delta("emit_attempts")
        return MetricsReport(
            policy=system.policy.name,
            duration=window,
            weighted_throughput=collector.weighted_throughput(ended),
            total_output_sdos=collector.total_output(),
            latency=collector.latency_summary(),
            buffer_drops=delta("buffer_drops") + delta("shed_drops"),
            drops_by_kind=drops_by_kind,
            source_rejections=delta("source_rejected"),
            source_generated=delta("source_generated"),
            mean_buffer_occupancy=mean_occupancy,
            egress_detail={
                pe_id: (rec.weight, rec.count, rec.latency.mean)
                for pe_id, rec in collector.records().items()
            },
            cpu_utilization=(
                delta("cpu_used") / node_seconds if node_seconds else 0.0
            ),
            wasted_work_fraction=(
                delta("emit_drops") / emit_attempts if emit_attempts else 0.0
            ),
            weighted_utility=collector.weighted_utility(ended),
            latency_percentiles=collector.latency_percentiles(),
            worker_restarts=system.worker_restarts,
            workers_abandoned=system.workers_abandoned,
        )
