"""Summary statistics helpers used across experiments."""

from __future__ import annotations

import math
import typing as _t
from dataclasses import dataclass


@dataclass(frozen=True)
class SummaryStats:
    """Mean / std / extremes of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float

    @staticmethod
    def empty() -> "SummaryStats":
        return SummaryStats(
            count=0, mean=0.0, std=0.0, minimum=0.0, maximum=0.0
        )


def summarize(values: _t.Sequence[float]) -> SummaryStats:
    """Single-pass-friendly summary of a sample (population std)."""
    n = len(values)
    if n == 0:
        return SummaryStats.empty()
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / n
    return SummaryStats(
        count=n,
        mean=mean,
        std=math.sqrt(variance),
        minimum=min(values),
        maximum=max(values),
    )


class StreamingMoments:
    """Welford online mean/variance — O(1) memory for long runs."""

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    def merge(self, other: "StreamingMoments") -> "StreamingMoments":
        """Fold ``other``'s samples into this accumulator (in place).

        Chan et al.'s parallel-variance combination: exact for the mean,
        numerically stable for the second moment.  Returns ``self`` so
        merges chain; ``other`` is left untouched.
        """
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            return self
        total = self.count + other.count
        delta = other._mean - self._mean
        self._m2 = (
            self._m2
            + other._m2
            + delta * delta * self.count * other.count / total
        )
        self._mean += delta * other.count / total
        self.count = total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        return self

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / self.count if self.count else 0.0

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def summary(self) -> SummaryStats:
        if self.count == 0:
            return SummaryStats.empty()
        return SummaryStats(
            count=self.count,
            mean=self.mean,
            std=self.std,
            minimum=self.minimum,
            maximum=self.maximum,
        )
