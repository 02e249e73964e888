"""The time-series container behind every sampled gauge.

The scalar :class:`~repro.metrics.collectors.MetricsReport` summarizes a
whole measured window; :class:`TimeSeries` holds what the gauge sampler
in :mod:`repro.obs.gauges` reads over a run.  Per-bin egress rates for
transient questions (how fast does the system recover from a fault?)
come from :class:`~repro.experiments.resilience.EgressRateProbe`.
"""

from __future__ import annotations

import typing as _t

from repro.metrics.stats import SummaryStats, summarize


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
