"""The one debounce the three threshold tiers share.

:class:`~repro.control.debounce.Debounce` is checked against a reference
model written from its rule, and each tier built on it — the admission
ladder, the elastic :class:`~repro.control.elastic.ScalingPolicy` (with
``request_external``) and the forecast trigger — is driven over random
walks to show that no two of its firings are closer than its cooldown,
compared exactly.  Walks often step by exactly one cooldown: that is
where ``now >= last + cooldown`` and ``now - last >= cooldown`` part by
one ulp.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.admission import AdmissionConfig, DegradationLadder
from repro.control.debounce import Debounce
from repro.control.elastic import ElasticityConfig, ScalingPolicy
from repro.control.forecast import ForecastConfig, ForecastController

walk_settings = settings(max_examples=200, deadline=None)

cooldowns = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)
wants = st.sampled_from([None, "a", "b"])


@st.composite
def walks(draw, values, cooldown):
    """``(value, now)`` pairs whose steps are often exactly ``cooldown``."""
    step = st.one_of(
        st.just(cooldown),
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    )
    now = draw(st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
    walk = []
    for value in draw(st.lists(values, max_size=60)):
        now += draw(step)
        walk.append((value, now))
    return walk


def assert_spaced(instants, cooldown):
    for earlier, later in zip(instants, instants[1:]):
        assert later - earlier >= cooldown, (earlier, later, cooldown)


def reference_firings(walk, dwell, cooldown, not_before):
    """The rule, read off the whole history at every observation."""
    fired = []
    for k, (want, now) in enumerate(walk):
        start = fired[-1] + 1 if fired else 0
        run = 0
        while k - run >= start and walk[k - run][0] == want:
            run += 1
        if (
            want is not None
            and run >= dwell
            and now >= not_before
            and (not fired or now - walk[fired[-1]][1] >= cooldown)
        ):
            fired.append(k)
    return [walk[k][1] for k in fired]


@walk_settings
@given(
    data=st.data(),
    dwell=st.integers(min_value=1, max_value=4),
    cooldown=cooldowns,
    not_before=st.floats(min_value=0.0, max_value=150.0, allow_nan=False),
)
def test_debounce_matches_the_reference_model(
    data, dwell, cooldown, not_before
):
    walk = data.draw(walks(wants, cooldown))
    debounce = Debounce(dwell, cooldown)
    debounce.not_before = not_before
    for want, now in walk:
        if debounce.observe(want, now):
            debounce.fire(now)
    assert debounce.firings == reference_firings(
        walk, dwell, cooldown, not_before
    )


@walk_settings
@given(data=st.data(), min_dwell=cooldowns)
def test_ladder_transitions_are_spaced_by_min_dwell(data, min_dwell):
    walk = data.draw(
        walks(st.floats(min_value=0.0, max_value=2.5), min_dwell)
    )
    ladder = DegradationLadder(AdmissionConfig(min_dwell=min_dwell))
    moves = [ladder.step(pressure, now) for pressure, now in walk]
    assert_spaced([move.at for move in moves if move is not None], min_dwell)


@walk_settings
@given(
    data=st.data(),
    dwell=st.integers(min_value=1, max_value=3),
    cooldown=cooldowns,
)
def test_scaling_decisions_are_spaced_by_the_cooldown(data, dwell, cooldown):
    """Reactive and proactive decisions together: one cooldown."""
    readings = st.tuples(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.booleans(),
    )
    walk = data.draw(walks(readings, cooldown))
    policy = ScalingPolicy(
        ElasticityConfig(
            min_nodes=1, max_nodes=64, dwell_intervals=dwell,
            cooldown=cooldown,
        )
    )
    nodes = 8
    for (hot, slack, external), now in walk:
        if external:
            nodes += policy.request_external(now, nodes)
        else:
            decision = policy.observe(hot, now, nodes, slack_pressure=slack)
            nodes += {"scale_out": 1, "scale_in": -1}.get(decision, 0)
    assert_spaced([record.t for record in policy.decisions], cooldown)


@walk_settings
@given(
    data=st.data(),
    dwell=st.integers(min_value=1, max_value=3),
    cooldown=cooldowns,
)
def test_proactive_triggers_are_spaced_by_the_cooldown(
    data, dwell, cooldown
):
    walk = data.draw(walks(st.sampled_from([0.0, 10.0]), cooldown))
    controller = ForecastController(
        ForecastConfig(
            season_length=2, headroom=1.5, dwell_ticks=dwell,
            cooldown=cooldown,
        )
    )
    controller.bind(counters={"pe-0": lambda: 0}, baseline={"pe-0": 1.0})
    for rate, now in walk:
        controller.observe({"pe-0": rate}, now)
    assert_spaced([record.t for record in controller.triggers], cooldown)
