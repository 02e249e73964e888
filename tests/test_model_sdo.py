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


def test_merge_takes_earliest_origin():
    parents = [
        SDO(stream_id="a", origin_time=5.0, hops=1),
        SDO(stream_id="b", origin_time=2.0, hops=4),
        SDO(stream_id="c", origin_time=9.0, hops=2),
    ]
    merged = SDO.merge(parents, stream_id="join")
    assert merged.origin_time == 2.0
    assert merged.hops == 5  # max parent hops + 1
    assert merged.stream_id == "join"


def test_merge_empty_rejected():
    with pytest.raises(ValueError):
        SDO.merge([], stream_id="join")


def test_merge_single_parent():
    parent = SDO(stream_id="a", origin_time=1.0)
    merged = SDO.merge([parent], stream_id="j")
    assert merged.origin_time == 1.0
    assert merged.hops == 1
