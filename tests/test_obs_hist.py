"""LogHistogram: accuracy bounds, merge algebra, and grid behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.hist import GROWTH, MIN_VALUE, LogHistogram


def exact_quantile(samples, q):
    """The rank-``ceil(q*n)`` order statistic the histogram estimates."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


class TestAccuracy:
    def test_percentiles_within_bucket_error_bound(self):
        """Estimates bracket the exact order statistic from above, within
        one bucket's relative width (the documented guarantee)."""
        rng = np.random.default_rng(7)
        samples = rng.lognormal(mean=-3.0, sigma=1.2, size=5000).tolist()
        hist = LogHistogram()
        for value in samples:
            hist.add(value)
        for q in (0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 1.0):
            exact = exact_quantile(samples, q)
            estimate = hist.percentile(q)
            assert exact <= estimate * (1 + 1e-12)
            assert estimate <= exact * GROWTH * (1 + 1e-9)

    def test_single_value(self):
        hist = LogHistogram()
        hist.add(0.25)
        assert 0.25 <= hist.percentile(0.5) <= 0.25 * GROWTH * 1.001
        assert hist.mean == 0.25

    def test_empty_returns_zero(self):
        assert LogHistogram().percentile(0.95) == 0.0
        assert LogHistogram().mean == 0.0

    def test_invalid_quantile_rejected(self):
        hist = LogHistogram()
        hist.add(1.0)
        with pytest.raises(ValueError):
            hist.percentile(1.5)
        with pytest.raises(ValueError):
            hist.percentile(-0.1)

    def test_underflow_bucket(self):
        """Values below MIN_VALUE (incl. zero) report MIN_VALUE at most."""
        hist = LogHistogram()
        hist.add(0.0)
        hist.add(MIN_VALUE / 1000)
        assert hist.count == 2
        assert hist.percentile(1.0) == MIN_VALUE

    def test_percentiles_named_dict(self):
        hist = LogHistogram()
        for value in (0.01, 0.02, 0.03):
            hist.add(value)
        named = hist.percentiles((0.50, 0.95, 0.99))
        assert set(named) == {"p50", "p95", "p99"}
        assert named["p50"] <= named["p95"] <= named["p99"]


class TestMerge:
    def test_merge_matches_pooled(self):
        rng = np.random.default_rng(3)
        a_samples = rng.exponential(0.1, size=400).tolist()
        b_samples = rng.exponential(0.5, size=700).tolist()
        a, b, pooled = LogHistogram(), LogHistogram(), LogHistogram()
        for value in a_samples:
            a.add(value)
            pooled.add(value)
        for value in b_samples:
            b.add(value)
            pooled.add(value)
        a.merge(b)
        assert a.count == pooled.count
        assert a.bucket_counts() == pooled.bucket_counts()
        for q in (0.5, 0.95, 0.99):
            assert a.percentile(q) == pooled.percentile(q)

    def test_merge_associative(self):
        rng = np.random.default_rng(11)
        groups = [rng.exponential(0.2, size=100).tolist() for _ in range(3)]

        def hist_of(samples):
            hist = LogHistogram()
            for value in samples:
                hist.add(value)
            return hist

        left = hist_of(groups[0]).merge(hist_of(groups[1]))
        left.merge(hist_of(groups[2]))
        right = hist_of(groups[1]).merge(hist_of(groups[2]))
        combined = hist_of(groups[0]).merge(right)
        assert left.bucket_counts() == combined.bucket_counts()
        assert left.count == combined.count
        assert left.total == pytest.approx(combined.total)


class TestCumulative:
    def test_cumulative_buckets_monotone_and_complete(self):
        hist = LogHistogram()
        rng = np.random.default_rng(5)
        for value in rng.exponential(0.05, size=300):
            hist.add(float(value))
        buckets = hist.cumulative_buckets()
        edges = [edge for edge, _ in buckets]
        counts = [count for _, count in buckets]
        assert edges == sorted(edges)
        assert counts == sorted(counts)
        assert counts[-1] == hist.count


@settings(max_examples=60, deadline=None)
@given(
    samples=st.lists(
        st.floats(min_value=1e-7, max_value=1e4, allow_nan=False),
        min_size=1,
        max_size=200,
    ),
    q_lo=st.floats(min_value=0.0, max_value=1.0),
    q_hi=st.floats(min_value=0.0, max_value=1.0),
)
def test_percentile_monotone_in_q(samples, q_lo, q_hi):
    """q <= q' implies percentile(q) <= percentile(q')."""
    if q_lo > q_hi:
        q_lo, q_hi = q_hi, q_lo
    hist = LogHistogram()
    for value in samples:
        hist.add(value)
    assert hist.percentile(q_lo) <= hist.percentile(q_hi)
