"""Time-series probes: throughput and latency sampled over a run.

The scalar :class:`~repro.metrics.collectors.MetricsReport` summarizes a
whole measured window; for transient questions — how fast does the system
recover from a fault? does throughput oscillate? — attach a
:class:`ThroughputProbe` before running and read the per-window series
afterwards.  The plain :class:`TimeSeries` container underneath is shared
with the gauge sampler in :mod:`repro.obs.gauges`.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

from repro.metrics.stats import SummaryStats, summarize

if _t.TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from repro.systems.simulated import SimulatedSystem


class TimeSeries:
    """An append-only ``(time, value)`` series.

    The storage behind every sampled gauge: appends are O(1), times are
    required to be non-decreasing (virtual time only moves forward), and
    the summary statistics are provided so consumers do not reimplement
    them.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.times: _t.List[float] = []
        self.values: _t.List[float] = []

    def append(self, t: float, value: float) -> None:
        if self.times and t < self.times[-1]:
            raise ValueError(
                f"{self.name or 'series'}: time went backwards "
                f"({self.times[-1]} -> {t})"
            )
        self.times.append(t)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> _t.Iterator[_t.Tuple[float, float]]:
        return iter(zip(self.times, self.values))

    def summary(self) -> SummaryStats:
        return summarize(self.values)

    def last(self) -> _t.Optional[_t.Tuple[float, float]]:
        if not self.times:
            return None
        return self.times[-1], self.values[-1]

    def __repr__(self) -> str:
        return f"TimeSeries({self.name!r}, n={len(self)})"


@dataclass
class WindowSample:
    """Aggregates for one sampling window."""

    start: float
    end: float
    weighted_throughput: float
    output_sdos: int
    mean_latency: float

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.start + self.end)


class ThroughputProbe:
    """Samples egress output per fixed-size window during a run.

    Attach before ``system.run`` / ``env.run``::

        probe = ThroughputProbe(system, window=0.5)
        system.run(duration)
        series = probe.samples
    """

    def __init__(self, system: SimulatedSystem, window: float = 0.5):
        if window <= 0:
            raise ValueError("window must be positive")
        self.system = system
        self.window = window
        self.samples: _t.List[WindowSample] = []
        self._last_counts: _t.Dict[str, int] = {}
        self._last_latency_totals: _t.Dict[str, _t.Tuple[int, float]] = {}
        system.env.process(self._run())

    def _snapshot(self) -> _t.Tuple[_t.Dict[str, int], _t.Dict[str, _t.Tuple[int, float]]]:
        counts = {}
        latencies = {}
        for pe_id, record in self.system.collector.records().items():
            counts[pe_id] = record.count
            latencies[pe_id] = (
                record.latency.count,
                record.latency.mean * record.latency.count,
            )
        return counts, latencies

    def _run(self) -> _t.Generator:
        self._last_counts, self._last_latency_totals = self._snapshot()
        while True:
            start = self.system.env.now
            yield self.system.env.timeout(self.window)
            end = self.system.env.now
            counts, latency_totals = self._snapshot()

            output = 0
            weighted = 0.0
            latency_sum = 0.0
            latency_n = 0
            for pe_id, record in self.system.collector.records().items():
                previous = self._last_counts.get(pe_id, 0)
                # A warm-up reset zeroes the collector mid-window; treat
                # the post-reset count as the whole window's delta.
                delta = (
                    counts[pe_id] - previous
                    if counts[pe_id] >= previous
                    else counts[pe_id]
                )
                output += delta
                weighted += record.weight * delta
                n1, s1 = latency_totals[pe_id]
                n0, s0 = self._last_latency_totals.get(pe_id, (0, 0.0))
                if n1 >= n0:
                    latency_n += n1 - n0
                    latency_sum += s1 - s0
                else:
                    latency_n += n1
                    latency_sum += s1

            self.samples.append(
                WindowSample(
                    start=start,
                    end=end,
                    weighted_throughput=weighted / self.window,
                    output_sdos=output,
                    mean_latency=(
                        latency_sum / latency_n if latency_n else 0.0
                    ),
                )
            )
            self._last_counts = counts
            self._last_latency_totals = latency_totals

    # -- analysis ------------------------------------------------------------

    def series(self) -> _t.List[_t.Tuple[float, float]]:
        """(window midpoint, weighted throughput) pairs."""
        return [(s.midpoint, s.weighted_throughput) for s in self.samples]

    def recovery_time(
        self, dip_start: float, reference: float, fraction: float = 0.9
    ) -> _t.Optional[float]:
        """Time after ``dip_start`` until throughput regains the fraction
        of ``reference``; ``None`` if it never does within the trace."""
        if reference <= 0:
            return 0.0
        for sample in self.samples:
            if sample.start < dip_start:
                continue
            if sample.weighted_throughput >= fraction * reference:
                return sample.end - dip_start
        return None
