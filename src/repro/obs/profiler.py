"""Wall-clock attribution of simulation time to engine phases.

A :class:`PhaseProfiler` answers "where does *real* time go when this
simulation runs?" — the question every optimization PR needs a before/after
answer to.  It keeps a stack of open phases and attributes *exclusive*
wall-clock time: while ``pe_execute`` is open inside ``event_dispatch``,
the inner time is charged to ``pe_execute`` only.

Which code counts as which phase is this module's business alone: the
:attr:`PhaseProfiler.PHASES` table names the functions, and
:meth:`PhaseProfiler.armed` wraps them with push/pop for the duration of
a ``with`` block and restores the identical originals when it ends.  The
code it times carries no hooks, so a run without a profiler pays
nothing.  ``SimulatedSystem(..., profiler=...)`` arms its profiler
around each ``run``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
import typing as _t


class PhaseProfiler:
    """Stack-based exclusive wall-clock profiler.

    ``push``/``pop`` (or the ``phase`` context manager) bracket a phase;
    nested phases pause their parent's clock.  Totals are exclusive
    seconds per phase name, so they sum to the bracketed wall time.

    The one stack makes exclusive time meaningful only where one thread
    runs at a time: the simulator, not the threaded runtime.
    """

    #: phase -> the ``(module, "Class.attr")`` functions timed as it.
    #: ``event_dispatch`` is the root: the kernel loop plus every
    #: callback no other phase claims, so ``counts["event_dispatch"]``
    #: counts ``Environment.run`` calls, not events.
    PHASES: _t.Dict[str, _t.Tuple[_t.Tuple[str, str], ...]] = {
        "event_dispatch": (("repro.sim.engine", "Environment.run"),),
        "controller_tick": (
            ("repro.control.node", "NodeController.control"),
            ("repro.control.vector", "VectorEngine.control_group"),
        ),
        "pe_execute": (
            ("repro.systems.dataplane", "SimAdapter.apply_grants"),
        ),
        "transport": (
            ("repro.systems.dataplane", "SimDataPlane._flush_deliveries"),
        ),
    }

    def __init__(
        self, clock: _t.Callable[[], float] = time.perf_counter
    ):
        self._clock = clock
        self.totals: _t.Dict[str, float] = {}
        self.counts: _t.Dict[str, int] = {}
        #: Open phases as [name, last_mark]; last_mark advances whenever a
        #: child phase opens or closes so parent time stays exclusive.
        self._stack: _t.List[_t.List[object]] = []

    @contextlib.contextmanager
    def phase(self, name: str) -> _t.Iterator[None]:
        self.push(name)
        try:
            yield
        finally:
            self.pop()

    def push(self, name: str) -> None:
        now = self._clock()
        if self._stack:
            top = self._stack[-1]
            self._account(_t.cast(str, top[0]), now - _t.cast(float, top[1]))
            top[1] = now
        self._stack.append([name, now])

    def pop(self) -> None:
        now = self._clock()
        name, mark = self._stack.pop()
        self._account(_t.cast(str, name), now - _t.cast(float, mark))
        self.counts[_t.cast(str, name)] = (
            self.counts.get(_t.cast(str, name), 0) + 1
        )
        if self._stack:
            self._stack[-1][1] = now

    def _account(self, name: str, elapsed: float) -> None:
        self.totals[name] = self.totals.get(name, 0.0) + elapsed

    # -- arming ------------------------------------------------------------

    @classmethod
    def targets(cls) -> _t.Iterator[_t.Tuple[str, _t.Any, str]]:
        """``(phase, owner, attr)`` for every :attr:`PHASES` entry."""
        for name, paths in cls.PHASES.items():
            for module, path in paths:
                owner: _t.Any = importlib.import_module(module)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                yield name, owner, attr

    @contextlib.contextmanager
    def armed(self) -> _t.Iterator["PhaseProfiler"]:
        """Time the :attr:`PHASES` functions inside the block.

        The patches are process-wide, so arm only around a run, never
        at construction.  The hot code looks each one up at call time;
        a bound method cached before arming would skip its phase.
        """
        patched: _t.List[_t.Tuple[_t.Any, str, _t.Any]] = []
        try:
            for name, owner, attr in self.targets():
                # vars(), not getattr: restore exactly what this owner
                # stored, never re-home an inherited attribute.
                original = vars(owner)[attr]
                setattr(owner, attr, self._timed(name, original))
                patched.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def _timed(
        self, name: str, fn: _t.Callable[..., _t.Any]
    ) -> _t.Callable[..., _t.Any]:
        push, pop = self.push, self.pop

        @functools.wraps(fn)
        def timed(*args: _t.Any, **kwargs: _t.Any) -> _t.Any:
            push(name)
            try:
                return fn(*args, **kwargs)
            finally:
                pop()

        return timed

    # -- results -----------------------------------------------------------

    @property
    def total_seconds(self) -> float:
        return sum(self.totals.values())

    def fractions(self) -> _t.Dict[str, float]:
        """Phase -> fraction of total profiled wall time."""
        total = self.total_seconds
        if total <= 0:
            return {name: 0.0 for name in self.totals}
        return {name: t / total for name, t in self.totals.items()}

    def report_rows(self) -> _t.List[_t.Dict[str, object]]:
        """Rows for tabular reporting, heaviest phase first."""
        fractions = self.fractions()
        return [
            {
                "phase": name,
                "seconds": seconds,
                "share": fractions[name],
                "calls": self.counts.get(name, 0),
            }
            for name, seconds in sorted(
                self.totals.items(), key=lambda kv: -kv[1]
            )
        ]

    def one_line(self) -> str:
        parts = [
            f"{row['phase']}={row['seconds']:.3f}s"
            f"({row['share']:.0%})"
            for row in self.report_rows()
        ]
        return "profile: " + (" ".join(parts) if parts else "<empty>")

    def __repr__(self) -> str:
        return f"PhaseProfiler(total={self.total_seconds:.3f}s)"
