"""Tests for the utility function of the Tier-1 objective."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.utility import LogUtility

ALL_UTILITIES = [LogUtility()]


@pytest.mark.parametrize("utility", ALL_UTILITIES, ids=lambda u: u.name)
class TestCommonProperties:
    def test_zero_at_origin_or_nonnegative(self, utility):
        assert utility.value(0.0) == pytest.approx(0.0)

    def test_strictly_increasing(self, utility):
        xs = [0.0, 0.5, 1.0, 2.0, 5.0]
        values = [utility.value(x) for x in xs]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_concave(self, utility):
        for x in (0.0, 1.0, 4.0):
            mid = utility.value(x + 0.5)
            chord = 0.5 * (utility.value(x) + utility.value(x + 1.0))
            assert mid >= chord - 1e-12

    def test_negative_argument_rejected(self, utility):
        with pytest.raises(ValueError):
            utility.value(-1.0)

    def test_callable(self, utility):
        assert utility(2.0) == utility.value(2.0)


class TestSpecifics:
    def test_log_values(self):
        assert LogUtility().value(math.e - 1) == pytest.approx(1.0)


@given(st.floats(min_value=0.0, max_value=100.0))
def test_property_log_below_linear(x):
    assert LogUtility().value(x) <= x + 1e-12
