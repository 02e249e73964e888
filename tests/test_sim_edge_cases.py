"""Additional edge-case coverage for the simulation kernel."""

import pytest

from repro.sim import Environment, Event
from repro.sim.engine import NORMAL, URGENT


class TestEventOrderingPriorities:
    def test_urgent_jumps_queue_among_simultaneous(self):
        env = Environment()
        order = []

        normal = Event(env)
        normal._ok = True
        normal._value = None
        assert normal.callbacks is not None
        normal.callbacks.append(lambda e: order.append("normal"))
        env.schedule(normal, priority=NORMAL, delay=1.0)

        urgent = Event(env)
        urgent._ok = True
        urgent._value = None
        assert urgent.callbacks is not None
        urgent.callbacks.append(lambda e: order.append("urgent"))
        env.schedule(urgent, priority=URGENT, delay=1.0)

        env.run()
        assert order == ["urgent", "normal"]


class TestProcessFailurePropagation:
    def test_child_exception_reaches_waiting_parent(self):
        env = Environment()
        caught = []

        def child(env):
            yield env.timeout(1.0)
            raise ValueError("child exploded")

        def parent(env):
            try:
                yield env.process(child(env))
            except ValueError as exc:
                caught.append(str(exc))

        env.process(parent(env))
        env.run()
        assert caught == ["child exploded"]

    def test_unwaited_child_exception_surfaces(self):
        env = Environment()

        def child(env):
            yield env.timeout(1.0)
            raise RuntimeError("nobody caught me")

        env.process(child(env))
        with pytest.raises(RuntimeError, match="nobody caught me"):
            env.run()
