"""Tests for the discrete-event simulation engine and event primitives."""

import pytest

from repro.sim import Environment, SimulationError


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_run_until_time_advances_clock():
    env = Environment()
    env.run(until=10.0)
    assert env.now == 10.0


def test_run_until_past_time_raises():
    env = Environment()
    env.run(until=5.0)
    with pytest.raises(SimulationError):
        env.run(until=3.0)


def test_timeout_fires_at_right_time():
    env = Environment()
    fired_at = []

    def proc(env):
        yield env.timeout(3.5)
        fired_at.append(env.now)

    env.process(proc(env))
    env.run()
    assert fired_at == [3.5]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_sequential_timeouts_accumulate():
    env = Environment()
    times = []

    def proc(env):
        for _ in range(4):
            yield env.timeout(2.0)
            times.append(env.now)

    env.process(proc(env))
    env.run()
    assert times == [2.0, 4.0, 6.0, 8.0]


def test_simultaneous_events_fifo_deterministic():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in "abcd":
        env.process(proc(env, tag))
    env.run()
    assert order == list("abcd")


def test_event_succeed_resumes_waiter_with_value():
    env = Environment()
    event = env.event()
    seen = []

    def waiter(env):
        value = yield event
        seen.append(value)

    def trigger(env):
        yield env.timeout(2.0)
        event.succeed(42)

    env.process(waiter(env))
    env.process(trigger(env))
    env.run()
    assert seen == [42]


def test_event_fail_raises_in_waiter():
    env = Environment()
    event = env.event()
    caught = []

    def waiter(env):
        try:
            yield event
        except ValueError as exc:
            caught.append(str(exc))

    def trigger(env):
        yield env.timeout(1.0)
        event.fail(ValueError("boom"))

    env.process(waiter(env))
    env.process(trigger(env))
    env.run()
    assert caught == ["boom"]


def test_unhandled_failed_event_surfaces():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        raise RuntimeError("unhandled")

    env.process(proc(env))
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_event_double_trigger_rejected():
    env = Environment()
    event = env.event()
    event.succeed()
    with pytest.raises(RuntimeError):
        event.succeed()


def test_event_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_event_value_before_trigger_raises():
    env = Environment()
    event = env.event()
    with pytest.raises(RuntimeError):
        _ = event.value
    with pytest.raises(RuntimeError):
        _ = event.ok


def test_process_is_event_waitable():
    env = Environment()
    results = []

    def child(env):
        yield env.timeout(2.0)
        return "child-result"

    def parent(env):
        value = yield env.process(child(env))
        results.append((env.now, value))

    env.process(parent(env))
    env.run()
    assert results == [(2.0, "child-result")]


def test_process_yielding_non_event_fails():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(RuntimeError, match="non-event"):
        env.run()


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)


def test_process_is_alive_lifecycle():
    env = Environment()

    def proc(env):
        yield env.timeout(5.0)

    process = env.process(proc(env))
    assert process.is_alive
    env.run()
    assert not process.is_alive
