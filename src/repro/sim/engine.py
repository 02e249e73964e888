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
    """Raised for kernel-level misuse (e.g. running a dead simulation)."""


class EmptySchedule(Exception):
    """Internal: raised by :meth:`Environment.step` when no events remain."""


class StopSimulation(Exception):
    """Internal: unwinds :meth:`Environment.run` when the until-event fires."""


class Environment:
    """Execution environment for a single simulation run.

    Parameters
    ----------
    initial_time:
        Starting value of the virtual clock (default ``0.0``).
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: _t.List[_t.Tuple[float, int, int, Event]] = []
        self._eid = count()
        self._active_process: _t.Optional["Process"] = None
        #: Total events dispatched by this environment (for perf benches
        #: and sanity checks; one integer add per event).
        self.events_processed = 0
        #: Optional wall-clock phase profiler (repro.obs.profiler).  When
        #: set, every event's callback execution is bracketed in an
        #: ``event_dispatch`` phase; components opening nested phases
        #: (controller ticks, PE execution, transport) carve their own
        #: exclusive time out of it.  Costs one None-check per event when
        #: unset.
        self.profiler: _t.Optional["_Profiler"] = None

    # -- clock -----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def active_process(self) -> _t.Optional["Process"]:
        """The process currently being executed, if any."""
        return self._active_process

    # -- event factories ---------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create a :class:`Timeout` that fires after ``delay``."""
        return Timeout(self, delay, value)

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

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when idle."""
        if not self._queue:
            return float("inf")
        return self._queue[0][0]

    def step(self) -> None:
        """Process the single next event (advancing the clock to it)."""
        try:
            self._now, _, _, event = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None
        self.events_processed += 1

        profiler = self.profiler
        if profiler is None:
            event._run_callbacks()
        else:
            profiler.push("event_dispatch")
            try:
                event._run_callbacks()
            finally:
                profiler.pop()

        if not event._ok and not event._defused:
            # Nobody is waiting on this failed event: surface the error
            # instead of letting it pass silently.
            exc = _t.cast(BaseException, event._value)
            raise exc

    def run(self, until: _t.Union[None, float, Event] = None) -> object:
        """Run until the queue drains, a time is reached, or an event fires.

        Parameters
        ----------
        until:
            ``None`` runs to queue exhaustion; a number runs the clock up to
            that time; an :class:`Event` runs until that event is processed
            and returns its value.
        """
        until_event: _t.Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                until_event = until
            else:
                at = float(until)
                if at <= self._now:
                    raise SimulationError(
                        f"until={at} must lie in the future (now={self._now})"
                    )
                until_event = Event(self)
                until_event._ok = True
                until_event._value = None
                self.schedule(until_event, priority=URGENT, delay=at - self._now)
            until_event.add_callback(_stop_simulation)

        # The dispatch loop below is :meth:`step` inlined with the queue,
        # heappop, and profiler bound to locals: one event costs one pop,
        # one callback sweep, and one failed-event check, with no method
        # dispatch.  This loop is the hottest code in the repository.
        queue = self._queue
        pop = heapq.heappop
        profiler = self.profiler
        processed = 0
        try:
            while True:
                try:
                    item = pop(queue)
                except IndexError:
                    raise EmptySchedule() from None
                self._now = item[0]
                event = item[3]
                processed += 1

                if profiler is None:
                    callbacks = event.callbacks
                    event.callbacks = None
                    for callback in callbacks:  # type: ignore[union-attr]
                        callback(event)
                else:
                    profiler.push("event_dispatch")
                    try:
                        event._run_callbacks()
                    finally:
                        profiler.pop()

                if not event._ok and not event._defused:
                    # Nobody is waiting on this failed event: surface the
                    # error instead of letting it pass silently.
                    raise _t.cast(BaseException, event._value)
        except StopSimulation as stop:
            return stop.args[0]
        except EmptySchedule:
            if until_event is not None and not until_event.triggered:
                raise SimulationError(
                    "simulation ran out of events before the until-event fired"
                ) from None
            return None
        finally:
            self.events_processed += processed


def _stop_simulation(event: Event) -> None:
    raise StopSimulation(event._value)


if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.obs.profiler import PhaseProfiler as _Profiler
    from repro.sim.process import Process
