"""Mergeable log-bucketed latency histograms (HDR-style, no sample retention).

The paper reports latency as mean ± std (Fig. 3); per-stream *percentiles*
are what SLO-aware control needs (ROADMAP items 4/5).  Retaining raw
samples is not an option at simulation scale, so :class:`LogHistogram`
buckets values on one logarithmic grid: bucket ``i`` covers
``[MIN_VALUE * GROWTH**i, MIN_VALUE * GROWTH**(i+1))`` with
``GROWTH = 10**(1/BUCKETS_PER_DECADE)``.  At 20 buckets per decade every
quantile estimate is within one bucket of the exact value — a bounded
~12% relative error — while storage stays a sparse dict of occupied
buckets.

Every histogram shares the grid, so any two merge associatively
(bucket-wise count addition), and per-stream and per-hop histograms pool
into run totals without any loss beyond the original bucketing.
"""

from __future__ import annotations

import math
import typing as _t

__all__ = ["LogHistogram"]

_log = math.log

#: Lower edge of bucket 0; values below it (including zero — a real case
#: for same-instant hops) land in the underflow bucket, whose reported
#: upper edge is ``MIN_VALUE``.
MIN_VALUE = 1e-6
#: Grid resolution; the maximum relative quantile error is
#: ``10**(1/BUCKETS_PER_DECADE) - 1``.
BUCKETS_PER_DECADE = 20
#: Ratio of consecutive bucket edges.
GROWTH = 10.0 ** (1.0 / BUCKETS_PER_DECADE)
_INV_MIN = 1.0 / MIN_VALUE
_INV_LOG_GROWTH = BUCKETS_PER_DECADE / math.log(10.0)


class LogHistogram:
    """Streaming log-bucketed histogram with percentile queries."""

    __slots__ = ("count", "total", "_counts")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        #: bucket index -> count; index -1 is the underflow bucket.
        self._counts: _t.Dict[int, int] = {}

    # -- recording ---------------------------------------------------------

    def add(self, value: float, count: int = 1) -> None:
        """Record ``value`` (``count`` times)."""
        if value < MIN_VALUE:
            index = -1
        else:
            index = int(_log(value * _INV_MIN) * _INV_LOG_GROWTH)
        counts = self._counts
        counts[index] = counts.get(index, 0) + count
        self.count += count
        self.total += value * count

    def merge(self, other: "LogHistogram") -> "LogHistogram":
        """Fold ``other`` into this histogram (in place; associative).

        Merging is exact bucket-wise addition on the shared grid, so
        ``(a + b) + c == a + (b + c)``.
        """
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
        """Upper edge of bucket ``index`` (``MIN_VALUE`` for underflow)."""
        return MIN_VALUE * GROWTH ** (index + 1) if index >= 0 else (
            MIN_VALUE
        )

    def percentile(self, q: float) -> float:
        """Quantile estimate: the upper edge of the bucket holding the
        rank-``ceil(q * count)`` sample (so ``exact <= estimate <=
        exact * GROWTH`` up to float rounding).  Returns 0.0 when empty.
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
