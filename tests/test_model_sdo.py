"""Tests for Stream Data Objects."""

import pytest

from repro.model.sdo import SDO


def test_age_measures_from_origin():
    sdo = SDO(stream_id="s", origin_time=2.0)
    assert sdo.age(5.0) == pytest.approx(3.0)


def test_derive_inherits_origin_and_increments_hops():
    parent = SDO(stream_id="src", origin_time=1.5, hops=2)
    child = parent.derive(stream_id="pe-1")
    assert child.origin_time == 1.5
    assert child.hops == 3
    assert child.stream_id == "pe-1"
    assert child is not parent
