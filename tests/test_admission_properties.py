"""Property-based tests for the admission degradation ladder.

Hypothesis drives arbitrary pressure walks and hysteresis-band
configurations through :class:`~repro.control.admission.DegradationLadder`
and asserts the structural contract the resilience matrix relies on:
adaptive moves only ever descend the ladder (toward harsher levels),
recovery ascends exactly one rung, no two transitions land inside one
min-dwell window (so thrash is impossible by construction, not by
tuning), and levels stay inside the enum.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionLevel,
    DegradationLadder,
)
from repro.metrics.collectors import EgressRecord
from repro.obs.hist import LogHistogram

ladder_settings = settings(max_examples=100, deadline=None)


@st.composite
def admission_configs(draw):
    """Valid hysteresis ladders: exit[i] < enter[i], both increasing."""
    min_dwell = draw(
        st.floats(min_value=0.05, max_value=2.0, allow_nan=False)
    )
    base = draw(st.floats(min_value=0.2, max_value=1.5, allow_nan=False))
    gaps = [
        draw(st.floats(min_value=0.05, max_value=0.5, allow_nan=False))
        for _ in range(3)
    ]
    margins = [
        draw(st.floats(min_value=0.01, max_value=0.2, allow_nan=False))
        for _ in range(3)
    ]
    enter = []
    level = base
    for gap in gaps:
        level += gap
        enter.append(level)
    exit_ = [e - m for e, m in zip(enter, margins)]
    # The exit ladder must itself be strictly increasing.
    for i in range(1, 3):
        if exit_[i] <= exit_[i - 1]:
            exit_[i] = (exit_[i - 1] + enter[i]) / 2.0
    return AdmissionConfig(
        slo_p95=1.0,
        min_dwell=min_dwell,
        enter=tuple(enter),
        exit=tuple(exit_),
    )


@st.composite
def pressure_walks(draw):
    """A sequence of (pressure, dt) observations, dt >= 0 and increasing."""
    steps = draw(st.integers(min_value=1, max_value=120))
    walk = []
    for _ in range(steps):
        pressure = draw(
            st.floats(min_value=0.0, max_value=5.0, allow_nan=False)
        )
        dt = draw(
            st.floats(min_value=0.0, max_value=1.5, allow_nan=False)
        )
        walk.append((pressure, dt))
    return walk


@ladder_settings
@given(config=admission_configs(), walk=pressure_walks())
def test_property_ladder_contract(config, walk):
    ladder = DegradationLadder(config)
    now = 0.0
    moves = []
    for pressure, dt in walk:
        now += dt
        move = ladder.step(pressure, now)
        assert ladder.level in AdmissionLevel
        if move is not None:
            moves.append(move)
            if move.cause == "adaptive":
                # Downgrades descend toward harsher levels, landing on
                # the deepest level whose enter threshold the pressure
                # meets.
                assert move.level > move.prev
                assert pressure >= config.enter_threshold(
                    move.level
                ) or move.level is AdmissionLevel.NORMAL
            else:
                assert move.cause == "recovery"
                assert int(move.level) == int(move.prev) - 1
                assert pressure <= config.exit_threshold(move.prev)
    # No two transitions inside one dwell window.
    for earlier, later in zip(moves, moves[1:]):
        assert later.at - earlier.at >= config.min_dwell
    assert ladder.transitions == len(moves)


@ladder_settings
@given(config=admission_configs(), walk=pressure_walks())
def test_property_level_tracks_hysteresis_band(config, walk):
    """After every observation the level is consistent with its band:
    pressure above the level's own enter threshold cannot leave it below
    that level once the dwell has expired."""
    ladder = DegradationLadder(config)
    now = 0.0
    for pressure, dt in walk:
        now += dt
        ladder.step(pressure, now)
        if ladder.debounce.cooled(now):
            # Free to move: the level must already be at least the
            # deepest rung whose enter band the pressure meets.
            for index, level in enumerate(
                (
                    AdmissionLevel.SHED_LOW,
                    AdmissionLevel.SHED_HIGH,
                    AdmissionLevel.REJECT,
                )
            ):
                if pressure >= config.enter[index]:
                    assert ladder.level >= level


@ladder_settings
@given(
    fraction=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    offers=st.integers(min_value=1, max_value=400),
)
def test_property_accumulator_shed_exact_fraction(fraction, offers):
    """Accumulator shedding sheds exactly floor(fraction * n) of any
    prefix — the deterministic-fraction contract both substrates share."""
    config = AdmissionConfig(
        slo_p95=1.0,
        shed_low_fraction=fraction,
        shed_high_fraction=max(fraction, 0.6),
    )
    controller = AdmissionController(config)
    controller.set_manual_level(AdmissionLevel.SHED_LOW)
    shed = 0
    for i in range(offers):
        verdict = controller.admit_ingress("src:a", float(i))
        if verdict == "shed":
            shed += 1
        # Exact prefix property: within one SDO of the ideal line
        # (plus float-accumulation slack on the boundary).
        assert abs(shed - fraction * (i + 1)) <= 1.0 + 1e-6
    assert shed == controller.total_shed


@ladder_settings
@given(
    walk=pressure_walks(),
    kill_at=st.integers(min_value=0, max_value=60),
    release_at=st.integers(min_value=0, max_value=120),
)
def test_property_kill_switch_dominates(walk, kill_at, release_at):
    """While the kill switch is engaged the effective level is KILL no
    matter what the adaptive ladder does underneath."""
    controller = AdmissionController(AdmissionConfig(slo_p95=1.0))
    now = 0.0
    for step, (pressure, dt) in enumerate(walk):
        now += dt
        if step == kill_at:
            controller.set_kill_switch(True)
        if step == release_at and release_at > kill_at:
            controller.set_kill_switch(False)
        controller.observe(pressure, now)
        if controller.kill_switch:
            assert controller.effective_level is AdmissionLevel.KILL
            assert controller.admit_ingress("src:a", now) == "reject"
        else:
            assert controller.effective_level is controller.ladder.level


#: One pressure-signal step: record latencies on a stream, swap in a
#: fresh histogram (as ``EgressCollector.reset`` does), or do nothing;
#: then advance the clock and sample.
pressure_steps = st.lists(
    st.tuples(
        st.sampled_from(["record", "reset", "idle"]),
        st.integers(0, 2),
        st.lists(st.floats(0.001, 2.0, allow_nan=False), max_size=4),
        st.floats(0.0, 0.7, allow_nan=False),
    ),
    max_size=40,
)


@ladder_settings
@given(pressure_steps)
def test_property_pressure_cache_is_exact(steps):
    """Reusing a stream's windowed p95 while its histogram is unchanged
    gives the same pressure as re-deriving every stream every tick."""

    def bound():
        controller = AdmissionController(AdmissionConfig())
        controller.bind({}, egress, clock=lambda: now)
        return controller

    egress = {
        f"sink-{i}": EgressRecord(pe_id=f"sink-{i}", weight=1.0)
        for i in range(3)
    }
    now = 0.0
    cached, fresh = bound(), bound()
    for action, stream, latencies, dt in steps:
        record = egress[f"sink-{stream}"]
        if action == "record":
            for latency in latencies:
                record.hist.add(latency)
        elif action == "reset":
            record.hist = LogHistogram()
        now += dt
        fresh._p95_cache.clear()
        assert cached.pressure() == fresh.pressure()


def test_pressure_cache_keys_on_the_histogram_object():
    """A swapped-in histogram with the old one's sample count is a new
    stream state, not a cache hit."""
    record = EgressRecord(pe_id="sink", weight=1.0)
    controller = AdmissionController(AdmissionConfig(slo_p95=1.0))
    controller.bind({}, {"sink": record}, clock=lambda: 0.0)
    record.hist.add(0.01)
    low = controller.pressure()
    record.hist = LogHistogram()
    record.hist.add(5.0)
    assert controller.pressure() > low
