"""Mergeable log-bucketed latency histograms (HDR-style, no sample retention).

The paper reports latency as mean ± std (Fig. 3); per-stream *percentiles*
are what SLO-aware control needs (ROADMAP items 4/5).  Retaining raw
samples is not an option at simulation scale, so :class:`LogHistogram`
buckets values on a logarithmic grid: bucket ``i`` covers
``[min_value * growth**i, min_value * growth**(i+1))`` with
``growth = 10**(1/buckets_per_decade)``.  With the default 20 buckets per
decade every quantile estimate is within one bucket of the exact value —
a bounded ~12% relative error — while storage stays a sparse dict of
occupied buckets.

Histograms over the same grid merge associatively (bucket-wise count
addition), so per-stream and per-hop histograms pool into run totals
without any loss beyond the original bucketing.
"""

from __future__ import annotations

import math
import typing as _t

__all__ = ["LogHistogram"]

_log = math.log


class LogHistogram:
    """Streaming log-bucketed histogram with percentile queries.

    Parameters
    ----------
    min_value:
        Lower edge of bucket 0; values below it (including zero — a real
        case for same-instant hops) land in the underflow bucket, whose
        reported upper edge is ``min_value``.
    buckets_per_decade:
        Grid resolution; the maximum relative quantile error is
        ``10**(1/buckets_per_decade) - 1``.
    """

    __slots__ = (
        "min_value",
        "buckets_per_decade",
        "growth",
        "count",
        "total",
        "_counts",
        "_inv_log_growth",
        "_inv_min",
    )

    def __init__(
        self, min_value: float = 1e-6, buckets_per_decade: int = 20
    ):
        if min_value <= 0:
            raise ValueError(f"min_value must be positive, got {min_value}")
        if buckets_per_decade <= 0:
            raise ValueError(
                f"buckets_per_decade must be positive, got {buckets_per_decade}"
            )
        self.min_value = float(min_value)
        self.buckets_per_decade = int(buckets_per_decade)
        self.growth = 10.0 ** (1.0 / buckets_per_decade)
        self.count = 0
        self.total = 0.0
        #: bucket index -> count; index -1 is the underflow bucket.
        self._counts: _t.Dict[int, int] = {}
        self._inv_log_growth = buckets_per_decade / math.log(10.0)
        self._inv_min = 1.0 / self.min_value

    # -- recording ---------------------------------------------------------

    def add(self, value: float, count: int = 1) -> None:
        """Record ``value`` (``count`` times)."""
        if value < self.min_value:
            index = -1
        else:
            index = int(_log(value * self._inv_min) * self._inv_log_growth)
        counts = self._counts
        counts[index] = counts.get(index, 0) + count
        self.count += count
        self.total += value * count

    def merge(self, other: "LogHistogram") -> "LogHistogram":
        """Fold ``other`` into this histogram (in place; associative).

        Both histograms must share the same bucket grid — merging is then
        exact bucket-wise addition, so ``(a + b) + c == a + (b + c)``.
        """
        if (
            other.min_value != self.min_value
            or other.buckets_per_decade != self.buckets_per_decade
        ):
            raise ValueError(
                "cannot merge histograms with different bucket grids: "
                f"({self.min_value}, {self.buckets_per_decade}) vs "
                f"({other.min_value}, {other.buckets_per_decade})"
            )
        counts = self._counts
        for index, count in other._counts.items():
            counts[index] = counts.get(index, 0) + count
        self.count += other.count
        self.total += other.total
        return self

    # -- queries -----------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def bucket_upper_edge(self, index: int) -> float:
        """Upper edge of bucket ``index`` (``min_value`` for underflow)."""
        return self.min_value * self.growth ** (index + 1) if index >= 0 else (
            self.min_value
        )

    def percentile(self, q: float) -> float:
        """Quantile estimate: the upper edge of the bucket holding the
        rank-``ceil(q * count)`` sample (so ``exact <= estimate <=
        exact * growth`` up to float rounding).  Returns 0.0 when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must lie in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        cumulative = 0
        for index in sorted(self._counts):
            cumulative += self._counts[index]
            if cumulative >= rank:
                return self.bucket_upper_edge(index)
        return self.bucket_upper_edge(max(self._counts))  # pragma: no cover

    def percentiles(
        self, qs: _t.Sequence[float] = (0.50, 0.95, 0.99)
    ) -> _t.Dict[str, float]:
        """Named quantiles, e.g. ``{"p50": ..., "p95": ..., "p99": ...}``."""
        return {f"p{round(q * 100):d}": self.percentile(q) for q in qs}

    def bucket_counts(self) -> _t.Dict[int, int]:
        """Occupied buckets (index -> count), sorted by index."""
        return {index: self._counts[index] for index in sorted(self._counts)}

    def cumulative_buckets(self) -> _t.List[_t.Tuple[float, int]]:
        """``(upper_edge, cumulative_count)`` per occupied bucket, ascending.

        This is exactly the Prometheus histogram ``le`` series (the
        caller appends the implicit ``+Inf`` bucket with ``count``).
        """
        out: _t.List[_t.Tuple[float, int]] = []
        cumulative = 0
        for index in sorted(self._counts):
            cumulative += self._counts[index]
            out.append((self.bucket_upper_edge(index), cumulative))
        return out

    def __len__(self) -> int:
        return len(self._counts)

    def __repr__(self) -> str:
        return (
            f"LogHistogram(n={self.count}, buckets={len(self._counts)}, "
            f"mean={self.mean:.6g})"
        )
