"""A thread-backed stand-in for the simulation environment.

The workload sources (:mod:`repro.model.workload`), the fault injector
(:mod:`repro.systems.faults`) and the periodic control tiers
(:class:`~repro.control.wiring.PeriodicTick`) are generator processes
that use three things of :class:`~repro.sim.engine.Environment`:
``now``, ``timeout(delay)`` and ``process(generator)``.
:class:`ThreadEnv` provides exactly those over threads and a dilated
wall clock, so the threaded runtime runs the simulator's processes
unchanged, and its own node tickers and worker supervisor the same way.
Its ``run(until)`` waits for the clock as ``Environment.run`` advances
it, so one measured window drives either substrate.
Each step runs at one model instant: ``now`` holds still while it
runs, so the trace events a step emits carry the time it decided at.

Each process runs on its own thread and keeps its own model clock, by
one of two rules:

* **On deadlines** (the default; sources and faults).  ``yield
  env.timeout(d)`` advances the process's clock by exactly ``d`` and
  sleeps until the wall-clock deadline of the new model time, so a
  process sees the same sequence of ``now`` values, and draws the same
  gaps from its RNG stream, as it would in the simulator; a late
  wake-up does not push the later ones back.
* **On the clock** (``process(..., on_clock=True)``; controllers).  A
  process reads the runtime's clock when it wakes, and each delay runs
  from the end of the step before it.  A step that overruns its
  interval (a Tier-1 re-solve) delays the next step instead of firing
  the missed ones back to back, and a step that waits on a lock taken
  through :meth:`ThreadEnv.guard` starts when it holds it, so a
  controller that divides a counter delta by the time since its last
  step measures a true rate.

Read from any other thread, ``now`` is the runtime's model clock.  A
process ends at its next timeout once the runtime's stop event is set,
and :meth:`ThreadEnv.join` waits for every process to end.
"""

from __future__ import annotations

import threading
import time
import typing as _t


class ThreadEnv:
    """``now`` / ``timeout`` / ``process`` over threads.

    ``clock`` is the runtime's model clock (model seconds since start),
    ``dilation`` the wall seconds per model second, and ``stop`` the
    event that ends every process.  Processes created before
    :meth:`start` begin at model time 0 when it is called.
    """

    def __init__(
        self,
        clock: _t.Callable[[], float],
        dilation: float,
        stop: threading.Event,
    ) -> None:
        self._clock = clock
        self._dilation = dilation
        self._stop = stop
        self._local = threading.local()
        self._started = False
        #: Every process's thread, in creation order.
        self.threads: _t.List[threading.Thread] = []
        #: Exceptions that ended a process, oldest first.
        self.failures: _t.List[Exception] = []

    @property
    def now(self) -> float:
        """The calling process's model time, else the runtime's clock."""
        now = getattr(self._local, "now", None)
        return self._clock() if now is None else now

    def timeout(self, delay: float) -> float:
        """What a process yields to sleep ``delay`` model seconds."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return delay

    def process(
        self, generator: _t.Generator, on_clock: bool = False
    ) -> threading.Thread:
        """Run ``generator`` as a process on a daemon thread, from now,
        on deadlines or (``on_clock``) on the clock."""
        thread = threading.Thread(
            target=self._drive,
            args=(generator, self.now, on_clock),
            name=f"proc-{getattr(generator, '__qualname__', 'process')}",
            daemon=True,
        )
        self.threads.append(thread)
        if self._started:
            thread.start()
        return thread

    def guard(self, lock: _t.ContextManager) -> "_Guard":
        """``lock`` as the guard of an on-clock process's step: once the
        lock is held the process reads the clock afresh, so the wait
        counts in the step, not in the interval before it."""
        return _Guard(self, lock)

    def start(self) -> None:
        """Start the processes created so far; later ones start at once."""
        pending = list(self.threads)
        self._started = True
        for thread in pending:
            thread.start()

    def run(self, until: float) -> None:
        """Block until the runtime's clock reaches ``until`` model
        seconds, or the stop event is set."""
        while not self._stop.is_set():
            wait = (until - self._clock()) * self._dilation
            if wait <= 0:
                return
            self._stop.wait(wait)

    def join(self, timeout: float) -> None:
        """Wait up to ``timeout`` wall seconds in all for the processes
        to end (set the stop event first)."""
        deadline = time.monotonic() + timeout
        for thread in self.threads:
            if thread.is_alive():
                thread.join(max(0.0, deadline - time.monotonic()))

    def _resync(self) -> None:
        local = self._local
        local.now = max(local.now, self._clock())

    def _drive(
        self, generator: _t.Generator, now: float, on_clock: bool
    ) -> None:
        local = self._local
        clock = self._clock
        stop = self._stop
        if on_clock:
            now = max(now, clock())
        local.now = now
        try:
            for delay in generator:
                if on_clock:
                    now = clock()
                now += delay
                wait = (now - clock()) * self._dilation
                stopped = stop.wait(wait) if wait > 0 else stop.is_set()
                if stopped:
                    return
                local.now = max(now, clock()) if on_clock else now
        except Exception as exc:  # noqa: BLE001 - SPCRuntime.run re-raises
            self.failures.append(exc)
        finally:
            generator.close()


class _Guard:
    """See :meth:`ThreadEnv.guard`; reusable, unlike a generator-based
    context manager."""

    def __init__(self, env: ThreadEnv, lock: _t.ContextManager) -> None:
        self._env = env
        self._lock = lock

    def __enter__(self) -> None:
        self._lock.__enter__()
        self._env._resync()

    def __exit__(self, *exc: _t.Any) -> None:
        self._lock.__exit__(*exc)
