"""Outside-in span tracer: timing wrappers installed from the benchmark.

The program under test carries no spans of its own.  :class:`Tracer`
patches *public* callables (methods on classes, functions at the module
that imports them) with a timing wrapper before a system is constructed
and restores the identical original objects afterwards, so one traced
pass attributes wall time to layers without touching ``src/``.

A span is ``(name, parent, start, end)``; the parent is whatever wrapped
call was open on the same thread when the span started.  Every thread
keeps its own stack and buffers (no locks on the hot path); the buffers
are merged when the run ends.  Hot boundaries are folded into one
aggregate per ``(name, parent)`` — count, total seconds, self seconds —
and only boundaries installed with ``keep_raw`` retain individual spans.
Self time is a span's duration minus the part its child spans cover.

Named ``tracer`` rather than ``trace`` because the script directory is
first on ``sys.path`` and would shadow the standard library's ``trace``.
"""

from __future__ import annotations

import importlib
import threading
import time
import typing as _t

#: (import path of the owner's module, dotted attribute path inside it,
#: span name, keep raw spans).  ``"Environment.run"`` patches a method on
#: a class; a bare ``"optimize_placement"`` patches a module global, i.e.
#: the name as the importing module sees it.
Target = _t.Tuple[str, str, str, bool]


class _ThreadState:
    """One thread's open-span stack and finished-span buffers."""

    __slots__ = ("thread", "stack", "agg", "raw")

    def __init__(self, thread: str):
        self.thread = thread
        #: Open frames, innermost last: [name, start, child_seconds].
        self.stack: _t.List[_t.List[_t.Any]] = []
        #: (name, parent) -> [count, total_s, self_s]
        self.agg: _t.Dict[_t.Tuple[str, _t.Optional[str]], _t.List[float]] = {}
        #: (name, parent, start, end) for keep_raw boundaries.
        self.raw: _t.List[_t.Tuple[str, _t.Optional[str], float, float]] = []


class Tracer:
    """Installs, collects and removes the timing wrappers of one run."""

    def __init__(self, run_id: str):
        #: One identifier shared by every span of the run.
        self.run_id = run_id
        self._local = threading.local()
        self._states: _t.List[_ThreadState] = []
        self._states_lock = threading.Lock()
        #: (owner, attribute, original object) in install order.
        self._patched: _t.List[_t.Tuple[_t.Any, str, _t.Any]] = []

    # -- per-thread state ----------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
            return state

    # -- wrapping ------------------------------------------------------------

    def wrap(
        self, name: str, fn: _t.Callable[..., _t.Any], keep_raw: bool = False
    ) -> _t.Callable[..., _t.Any]:
        """``fn`` bracketed by a span called ``name``."""
        local = self._local
        new_state = self._state
        clock = time.perf_counter

        def traced(*args: _t.Any, **kwargs: _t.Any) -> _t.Any:
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            stack = state.stack
            frame = [name, 0.0, 0.0]
            stack.append(frame)
            frame[1] = start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    parent_frame = stack[-1]
                    parent_frame[2] += elapsed
                    parent = parent_frame[0]
                else:
                    parent = None
                entry = state.agg.get((name, parent))
                if entry is None:
                    state.agg[(name, parent)] = [
                        1, elapsed, elapsed - frame[2]
                    ]
                else:
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += elapsed - frame[2]
                if keep_raw:
                    state.raw.append((name, parent, start, end))

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- install / remove ----------------------------------------------------

    def install(self, targets: _t.Iterable[Target]) -> None:
        """Patch every target; call before the system is constructed so
        bound methods captured at wiring time are the wrapped ones."""
        for module_path, attr_path, name, keep_raw in targets:
            owner: _t.Any = importlib.import_module(module_path)
            *parents, attr = attr_path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            # vars(), not getattr: the object stored on *this* owner, so
            # removal restores exactly what was there (and an inherited
            # method is never silently re-homed onto a subclass).
            original = vars(owner)[attr]
            if not callable(original):
                raise TypeError(
                    f"{module_path}:{attr_path} is not a plain callable"
                )
            setattr(owner, attr, self.wrap(name, original, keep_raw))
            self._patched.append((owner, attr, original))

    def remove(self) -> None:
        """Restore every patched attribute to its original object."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def aggregates(
        self,
    ) -> _t.List[_t.Tuple[str, _t.Optional[str], str, int, float, float]]:
        """(name, parent, thread, count, total_s, self_s) rows."""
        rows = []
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for (name, parent), (count, total, own) in state.agg.items():
                rows.append(
                    (name, parent, state.thread, int(count), total, own)
                )
        return rows

    def raw_spans(
        self,
    ) -> _t.List[_t.Tuple[str, _t.Optional[str], str, float, float]]:
        """(name, parent, thread, start, end) for keep_raw boundaries."""
        rows = []
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for name, parent, start, end in state.raw:
                rows.append((name, parent, state.thread, start, end))
        return rows

    def by_name(self) -> _t.Dict[str, _t.List[float]]:
        """name -> [count, total_s, self_s], summed over parents and
        threads."""
        merged: _t.Dict[str, _t.List[float]] = {}
        for name, _parent, _thread, count, total, own in self.aggregates():
            entry = merged.setdefault(name, [0, 0.0, 0.0])
            entry[0] += count
            entry[1] += total
            entry[2] += own
        return merged

    def durations(self, name: str) -> _t.List[float]:
        """Sorted durations of one keep_raw boundary's spans."""
        return sorted(
            end - start
            for span_name, _p, _t_, start, end in self.raw_spans()
            if span_name == name
        )

    def dump(self) -> _t.Dict[str, _t.Any]:
        """JSON-ready record of the run, written when the run ends."""
        return {
            "run_id": self.run_id,
            "aggregates": [
                {
                    "name": name,
                    "parent": parent,
                    "thread": thread,
                    "count": count,
                    "total_s": total,
                    "self_s": own,
                }
                for name, parent, thread, count, total, own
                in self.aggregates()
            ],
            "spans": [list(row) for row in self.raw_spans()],
        }
