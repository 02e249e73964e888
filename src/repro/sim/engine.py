"""The simulation engine: virtual clock plus event queue.

The :class:`Environment` owns a binary-heap event queue keyed by
``(time, priority, sequence)``.  The sequence number makes event ordering
fully deterministic for simultaneous events, which in turn makes every
simulation in this repository reproducible from its seed alone.
"""

from __future__ import annotations

import heapq
import typing as _t
from itertools import count

from repro.sim.events import Event, Timeout

#: Events scheduled with URGENT jump the queue among simultaneous events.
URGENT = 0
NORMAL = 1


class SimulationError(Exception):
    """Raised for kernel-level misuse (running to a time already past)."""


class StopSimulation(Exception):
    """Internal: unwinds :meth:`Environment.run` when the until-time comes."""


class Environment:
    """Execution environment for a single simulation run; the virtual
    clock starts at ``0.0``."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: _t.List[_t.Tuple[float, int, int, Event]] = []
        self._eid = count()
        #: Total events dispatched by this environment (for perf benches
        #: and sanity checks; one integer add per event).
        self.events_processed = 0

    # -- clock -----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    # -- event factories ---------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float) -> Timeout:
        """Create a :class:`Timeout` that fires after ``delay``."""
        return Timeout(self, delay)

    def process(self, generator: _t.Generator) -> "Process":
        """Start a new :class:`Process` running ``generator``."""
        from repro.sim.process import Process

        return Process(self, generator)

    # -- scheduling --------------------------------------------------------

    def schedule(
        self, event: Event, priority: int = NORMAL, delay: float = 0.0
    ) -> None:
        """Enqueue ``event`` for processing at ``now + delay``."""
        heapq.heappush(
            self._queue, (self._now + delay, priority, next(self._eid), event)
        )

    def call_at(
        self,
        at: float,
        callback: _t.Callable[[Event], None],
        value: object = None,
        priority: int = NORMAL,
    ) -> Event:
        """Run ``callback(event)`` when the clock reaches time ``at``.

        The public primitive for timed callbacks: one pre-succeeded event
        carrying ``value``, scheduled at ``max(at, now)``.  Cheaper than a
        :class:`Timeout` plus a callback append, and safe under ``-O``
        (no assert-guarded internals).
        """
        event = Event(self)
        event._ok = True
        event._value = value
        event.callbacks = [callback]
        delay = at - self._now
        self.schedule(event, priority=priority, delay=delay if delay > 0.0 else 0.0)
        return event

    def run(self, until: _t.Optional[float] = None) -> None:
        """Run until the queue drains or, given ``until``, until the clock
        reaches that time."""
        if until is not None:
            at = float(until)
            if at <= self._now:
                raise SimulationError(
                    f"until={at} must lie in the future (now={self._now})"
                )
            self.call_at(at, _stop_simulation, priority=URGENT)

        # The dispatch loop binds the queue and heappop to locals: one
        # event costs one pop, one callback sweep, and one failed-event
        # check, with no method dispatch.  This loop is the hottest code
        # in the repository.
        queue = self._queue
        pop = heapq.heappop
        processed = 0
        try:
            while True:
                try:
                    item = pop(queue)
                except IndexError:
                    return
                self._now = item[0]
                event = item[3]
                processed += 1

                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:  # type: ignore[union-attr]
                    callback(event)

                if not event._ok and not event._defused:
                    # Nobody is waiting on this failed event: surface the
                    # error instead of letting it pass silently.
                    raise _t.cast(BaseException, event._value)
        except StopSimulation:
            return
        finally:
            self.events_processed += processed


def _stop_simulation(event: Event) -> None:
    raise StopSimulation()


if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.process import Process
