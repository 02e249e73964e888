"""Generator-based simulation processes.

A :class:`Process` drives a Python generator: each value the generator yields
must be an :class:`~repro.sim.events.Event`; the process suspends until that
event is processed and is then resumed with the event's value (or the event's
exception thrown into it).  A process is itself an event that triggers when
its generator returns, so processes can wait on each other, and one that
raises fails with that exception, which :meth:`Environment.run` re-raises
when no process waits on it.  A process runs until its generator ends:
nothing interrupts it (the model's processes only yield timeouts).
"""

from __future__ import annotations

import typing as _t

from repro.sim.engine import URGENT, Environment
from repro.sim.events import Event


class Process(Event):
    """Wraps a generator and executes it as a cooperative process."""

    __slots__ = ("_generator",)

    def __init__(self, env: Environment, generator: _t.Generator):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator

        # Kick off execution at the current simulation time.
        env.call_at(env.now, self._resume, priority=URGENT)

    # -- state -------------------------------------------------------------

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    @property
    def name(self) -> str:
        """The generator's function name, for diagnostics."""
        return getattr(self._generator, "__name__", str(self._generator))

    # -- engine callback -----------------------------------------------------

    def _resume(self, event: Event) -> None:
        while True:
            try:
                if event._ok:
                    next_target = self._generator.send(event._value)
                else:
                    event._defused = True
                    next_target = self._generator.throw(
                        _t.cast(BaseException, event._value)
                    )
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self.fail(exc)
                return

            if not isinstance(next_target, Event):
                error = RuntimeError(
                    f"process {self.name!r} yielded a non-event: {next_target!r}"
                )
                self.fail(error)
                return

            if next_target.processed:
                # The event already happened; loop and resume immediately.
                event = next_target
                continue

            assert next_target.callbacks is not None
            next_target.callbacks.append(self._resume)
            return

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else "dead"
        return f"<Process {self.name} {state} at {id(self):#x}>"
