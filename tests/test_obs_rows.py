"""Row batches on the trace bus: ``emit_rows`` is ``emit``, batched.

The four per-PE kinds travel as one :class:`RowFamily` batch per node
tick.  That is only safe if a batch is *indistinguishable* from the
per-event calls it stands for: same events in the same order on storing
recorders, same counts / violations / forwarded events on the oracle —
with a sink, without one, and under every filter shape.  This file holds
the batch path to that, and guards the things a later change could
quietly undo (falling back to per-event emission, a kind missing from
the vocabulary, a law the batch path forgot).
"""

import ast
import math
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.check import OracleRecorder
from repro.obs import recorder as recorder_module
from repro.obs.recorder import (
    BUFFER_OCCUPANCY,
    CPU_GRANT,
    ENVELOPE_KEYS,
    EVENT_KINDS,
    R_MAX,
    TOKEN_GRANT,
    MemoryRecorder,
    RowFamily,
    TraceFilter,
    TraceRecorder,
)
from tests.test_check_oracles import (
    _update_without_surplus_terms,
    build_checked_system,
    inject_update,
)

FAMILIES = (BUFFER_OCCUPANCY, R_MAX, TOKEN_GRANT, CPU_GRANT)
FAMILY_KINDS = frozenset(kind for f in FAMILIES for kind in f.kinds)


def per_event(recorder, family, node, rows):
    """The per-event calls one batch replaces (the pre-batch emitters)."""
    for row in rows:
        for kind, fields, start, stop in family.parts:
            recorder.emit(
                kind, pe=row[0], node=node,
                **dict(zip(fields, row[start:stop])),
            )


# -- (a) the property: a batch is its events ---------------------------------

#: Hostile payload values: the oracles must classify NaN / ±inf /
#: negative / over-capacity / over-depth identically either way.
values = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 1.0, -1.0, 0.5, 49.0, 50.0, 51.0, 1e-12, 1e6,
         math.nan, math.inf, -math.inf]
    ),
    st.floats(min_value=-2.0, max_value=60.0),
    st.integers(min_value=-2, max_value=60),
)
#: Resident PEs of the checked system, plus one the plane never heard of.
pe_ids = st.sampled_from([f"pe-{i}" for i in range(5)] + ["pe-unknown"])


def family_rows(family):
    width = family.parts[-1][3] - 1
    row = st.tuples(pe_ids, *[values] * width)
    if family is TOKEN_GRANT:
        # cap_rate is None when downstream left the PE unconstrained.
        row = st.tuples(pe_ids, *[values] * (width - 1), st.none() | values)
    return st.lists(row.map(tuple), max_size=8)


batches = st.lists(
    st.sampled_from(FAMILIES).flatmap(
        lambda family: st.tuples(
            st.just(family),
            st.sampled_from([None, "node-0", "node-1", "node-x"]),
            family_rows(family),
        )
    ),
    min_size=1,
    max_size=6,
)
filters = st.sampled_from(
    [
        None,
        "kind=r_max|cpu_grant",
        "pe=pe-1|pe-unknown",
        "node=node-0",
        "kind=token_bucket|buffer_occupancy,pe=pe-0|pe-2,node=node-1",
    ]
)


def same_events(left, right):
    # NaN != NaN, so compare payloads by repr.
    return [repr(e) for e in left] == [repr(e) for e in right]


@settings(max_examples=60, deadline=None)
@given(batches=batches, expression=filters)
def test_memory_recorder_batch_equals_per_event(batches, expression):
    batched = MemoryRecorder(trace_filter=TraceFilter.parse(expression))
    single = MemoryRecorder(trace_filter=TraceFilter.parse(expression))
    for family, node, rows in batches:
        batched.emit_rows(family, node, rows)
        per_event(single, family, node, rows)
    assert same_events(batched.events, single.events)
    assert batched.counts == single.counts
    assert dict(batched.counts) == dict(single.counts)  # no zero entries


@pytest.fixture(scope="module")
def checked_plane():
    system, _ = build_checked_system("aces")
    return system.plane


@settings(max_examples=60, deadline=None)
@given(batches=batches, with_sink=st.booleans(), sink_expression=filters)
def test_oracle_batch_equals_per_event(
    checked_plane, batches, with_sink, sink_expression
):
    def oracle():
        sink = (
            MemoryRecorder(trace_filter=TraceFilter.parse(sink_expression))
            if with_sink
            else None
        )
        checker = OracleRecorder(sink=sink)
        checker.attach_plane(checked_plane)
        return checker

    batched, single = oracle(), oracle()
    for family, node, rows in batches:
        batched.emit_rows(family, node, rows)
        per_event(single, family, node, rows)
    assert dict(batched.counts) == dict(single.counts)
    assert batched.violation_counts == single.violation_counts
    assert [repr(v) for v in batched.violations] == [
        repr(v) for v in single.violations
    ]
    if with_sink:
        assert same_events(batched.sink.events, single.sink.events)
        assert dict(batched.sink.counts) == dict(single.sink.counts)


# -- each per-row invariant trips through emit_rows --------------------------


class TestEveryRowInvariantTripsThroughBatches:
    """One hand-made bad row per law, delivered as a batch."""

    @pytest.fixture()
    def oracle(self):
        system, recorder = build_checked_system("aces")
        self.system = system
        self.index, group = next(
            (index, group)
            for index, group in enumerate(system.plane.groups)
            if len(group.pes) > 1
        )
        self.node_id = group.node_id
        self.pes = [pe.pe_id for pe in group.pes]
        return recorder

    def test_buffer_bounds(self, oracle):
        oracle.emit_rows(BUFFER_OCCUPANCY, None, [("pe-0", 60, 50)])
        assert oracle.violation_counts == {"buffer_bounds": 1}

    def test_token_nonnegative_and_cap(self, oracle):
        oracle.emit_rows(
            TOKEN_GRANT, "node-x",
            [
                ("pe-x", -1.0, 1.0, 2.0, 0.0, 0.02, None),
                ("pe-x", 5.0, 1.0, 2.0, 0.0, 0.02, None),
            ],
        )
        assert oracle.violation_counts == {
            "token_nonnegative": 1, "token_cap": 1,
        }

    def test_r_max_finite_nonnegative_law(self, oracle):
        oracle.emit_rows(
            R_MAX, None,
            [
                ("pe-0", math.nan, 10, 5.0),
                ("pe-1", -3.0, 10, 5.0),  # also off the law
                ("pe-2", 1e9, 10, 5.0),
            ],
        )
        assert oracle.violation_counts == {
            "r_max_finite": 1, "r_max_nonnegative": 1, "r_max_law": 2,
        }

    @pytest.mark.parametrize("family", [CPU_GRANT, TOKEN_GRANT])
    def test_cpu_grant_nonnegative(self, oracle, family):
        row = (
            ("pe-x", -0.5, 0.02)
            if family is CPU_GRANT
            else ("pe-x", 0.0, 1.0, 2.0, -0.5, 0.02, None)
        )
        oracle.emit_rows(family, "node-x", [row])
        assert oracle.violation_counts == {"cpu_grant_nonnegative": 1}

    def test_paused_node_silent(self, oracle):
        self.system.plane.suspend_node(self.index)
        oracle.emit_rows(CPU_GRANT, self.node_id, [(self.pes[0], 0.1, 0.02)])
        assert oracle.violation_counts == {"paused_node_silent": 1}

    def test_gate_blocked_zero_grant(self, oracle):
        controller = self.system.plane.node_controllers[self.index]
        controller.last_blocked = frozenset({self.pes[0]})
        oracle.emit_rows(
            CPU_GRANT, self.node_id,
            [(self.pes[0], 0.3, 0.02), (self.pes[1], 0.3, 0.02)],
        )
        assert oracle.violation_counts == {"gate_blocked_zero_grant": 1}

    def test_feedback_cap(self, oracle):
        oracle.emit_rows(
            TOKEN_GRANT, self.node_id,
            [(self.pes[0], 0.0, 1.0, 2.0, 1.0, 0.02, 1e-6)],
        )
        assert oracle.violation_counts == {"feedback_cap": 1}

    def test_node_capacity(self, oracle):
        capacity = self.system.plane.schedulers[self.index].capacity
        oracle.emit_rows(
            CPU_GRANT, self.node_id,
            [(pe, capacity, 0.02) for pe in self.pes],
        )
        assert oracle.violation_counts == {"node_capacity": 1}

    def test_each_invariant_name_is_written_once(self):
        source = pathlib.Path(
            repro.check.oracles.__file__
        ).read_text(encoding="utf-8")
        for name in (
            "buffer_bounds", "token_nonnegative", "token_cap",
            "r_max_finite", "r_max_nonnegative", "r_max_law",
            "cpu_grant_nonnegative", "paused_node_silent",
            "gate_blocked_zero_grant", "feedback_cap", "node_capacity",
        ):
            # As a record_violation argument (the docs may cite a name).
            assert source.count(f'"{name}",') == 1, name


# -- (c) the guard: family kinds never take the per-event path ---------------


@pytest.mark.parametrize("control_impl", ["scalar", "vector"])
@pytest.mark.parametrize("policy_name", ["aces", "lockstep"])
def test_family_kinds_never_reach_emit(
    monkeypatch, control_impl, policy_name
):
    seen = set()
    emit = TraceRecorder.emit

    def spy(self, kind, pe=None, node=None, **data):
        seen.add(kind)
        emit(self, kind, pe, node, **data)

    monkeypatch.setattr(TraceRecorder, "emit", spy)
    system, recorder = build_checked_system(
        policy_name, control_impl=control_impl
    )
    system.run(1.0)
    assert recorder.ok
    assert seen  # the spy is live (tier1_resolve, drops, ...)
    assert not seen & FAMILY_KINDS
    assert recorder.counts["cpu_grant"] > 0
    assert recorder.counts["buffer_occupancy"] > 0


# -- (d) pinned against the per-event implementation -------------------------


def test_counts_equal_the_per_event_implementation():
    # Recorded with the per-event emitters this file's batches replaced.
    # Re-pinned (drop 223 -> 225) when Tier 1 moved from SLSQP to the
    # interior point; fed SLSQP's targets, the run still counts 223.
    system, recorder = build_checked_system("aces")
    system.run(2.0)
    assert dict(recorder.counts) == {
        "buffer_occupancy": 510, "cpu_grant": 500, "drop": 225,
        "r_max": 500, "tier1_resolve": 1, "token_bucket": 500,
    }


def test_violation_stamp_equals_the_per_event_implementation(monkeypatch):
    # A batch carries one t: the tick's, as every event of it used to.
    # Re-pinned (322 -> 332) with the Tier-1 solver, as above.
    inject_update(monkeypatch, _update_without_surplus_terms)
    system, recorder = build_checked_system("aces")
    system.run(2.0)
    assert recorder.violation_counts == {"r_max_law": 332}
    assert [(v.t, v.pe) for v in recorder.violations[:3]] == [
        (0.026666666666666665, "pe-0"),
        (0.026666666666666665, "pe-1"),
        (0.026666666666666665, "pe-3"),
    ]


# -- the vocabulary ----------------------------------------------------------


def _emitted_kind_literals():
    """Every kind literal passed to ``.emit(`` under ``src/repro``."""
    kinds = set()
    root = pathlib.Path(repro.__file__).parent
    for path in root.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "emit"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                kinds.add(node.args[0].value)
    return kinds


def test_emitted_kinds_are_the_vocabulary():
    families = [
        value for value in vars(recorder_module).values()
        if isinstance(value, RowFamily)
    ]
    assert set(families) == set(FAMILIES)
    named = {kind for family in families for kind in family.kinds}
    assert _emitted_kind_literals() | named == EVENT_KINDS


def test_forecast_kinds_validate_and_filter():
    for kind in ("forecast", "proactive_trigger"):
        event = {"t": 1.0, "kind": kind, "pe": None, "node": None}
        assert recorder_module.validate_event(event) == []
        assert TraceFilter.parse(f"kind={kind}").admits(kind, None, None)


def test_family_fields_may_not_shadow_the_envelope():
    for key in ENVELOPE_KEYS:
        with pytest.raises(ValueError, match="shadow"):
            RowFamily(("r_max", ("r_max", key)))
    with pytest.raises(ValueError, match="unknown event kind"):
        RowFamily(("warp", ("x",)))


def test_documented_kinds_are_the_vocabulary():
    # docs/observability.md's event table: one row per kind, no more.
    doc = pathlib.Path(__file__).parent.parent / "docs" / "observability.md"
    table = doc.read_text(encoding="utf-8").split(
        "| kind | emitted by | payload |"
    )[1].split("\n\n")[0]
    rows = [
        line.split("|")[1].strip().strip("`")
        for line in table.splitlines()[2:]
    ]
    assert len(rows) == len(set(rows))
    assert set(rows) == EVENT_KINDS
