"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` is a one-shot occurrence in virtual time.  Processes yield
events to suspend themselves; when the event is *triggered* and then
*processed* by the engine, every registered callback runs and any waiting
process is resumed with the event's value.

Event life cycle::

    created -> triggered (value set, scheduled) -> processed (callbacks run)

Failing an event (``event.fail(exc)``) propagates the exception into any
process waiting on it.
"""

from __future__ import annotations

import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.engine import Environment

#: Sentinel distinguishing "no value yet" from a legitimate ``None`` value.
_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    Events (and their :class:`Timeout` subclass) are the single most
    allocated kernel object, so the whole hierarchy uses ``__slots__``.

    Parameters
    ----------
    env:
        The environment that owns this event's clock and event queue.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: _t.Optional[_t.List[_t.Callable[["Event"], None]]] = []
        self._value: object = _PENDING
        self._ok: bool = True
        #: Set when a failure value was retrieved by a waiter; used to warn
        #: about exceptions that would otherwise pass silently.
        self._defused: bool = False

    # -- state inspection ------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled for processing."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True when the event succeeded (only meaningful once triggered)."""
        if not self.triggered:
            raise RuntimeError(f"{self!r} has not been triggered yet")
        return self._ok

    @property
    def value(self) -> object:
        """The event's value (or exception when the event failed)."""
        if self._value is _PENDING:
            raise RuntimeError(f"{self!r} has not been triggered yet")
        return self._value

    # -- triggering ------------------------------------------------------

    def succeed(self, value: object = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters receive ``exception``."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers automatically after ``delay`` time units;
    its value is ``None``."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = None
        env.schedule(self, delay=delay)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay} at {id(self):#x}>"
