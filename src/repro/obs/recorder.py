"""The trace event bus: structured, timestamped controller-internals events.

Every core component that makes a control decision can publish a *trace
event* describing it: the flow controller publishes each ``r_max`` update
(Eq. 7), the CPU scheduler its token-bucket levels and per-interval grants
(Section V-D), buffers their occupancy samples and every drop, and Tier 1
each (re-)solve with the new ``c̄_j`` targets.  Components hold a
:class:`TraceRecorder` reference that defaults to the module-level
:data:`NULL_RECORDER`; hot paths guard with ``recorder.enabled`` so a
disabled run performs one attribute read and one branch per potential
event — no dict is built, no call is made.

Event envelope (one JSON object per line in JSONL form)::

    {"t": 1.23, "kind": "r_max", "pe": "pe-3", "node": null, ...payload}

``t`` is virtual simulation time; ``kind`` is one of :data:`EVENT_KINDS`;
``pe``/``node`` identify the emitting entity (``None`` where not
applicable); remaining keys are kind-specific payload.
"""

from __future__ import annotations

import json
import threading
import typing as _t
from collections import Counter

#: The trace event vocabulary.  Exporters and filters validate against it.
EVENT_KINDS = frozenset(
    {
        "r_max",  # Eq. 7 flow-control output for one PE
        "token_bucket",  # token-bucket level after this interval's fill
        "cpu_grant",  # per-interval CPU fraction granted to one PE
        "buffer_occupancy",  # sampled input-buffer occupancy
        "drop",  # one SDO lost, with its cause
        "tier1_resolve",  # a Tier-1 global-optimization (re-)solve
        "gauge",  # a registered gauge sample (GaugeRegistry)
        "tier1_fallback",  # Tier-1 solve failed; last-known-good installed
        "feedback_stale",  # a feedback value exceeded its staleness TTL
        "worker_restart",  # a supervisor restarted a dead runtime worker
        "fault",  # a fault-injection apply/revert transition
        "span",  # one egress SDO's queue/service/transit decomposition
        "admission_level",  # the admission ladder's effective level moved
        "shed",  # one SDO shed at ingress by the admission front end
        "reject",  # one SDO refused 429-style with a retry-after horizon
        "membership",  # a node joined or left the control plane
        "migration",  # one PE migration phase (drain/resume)
        "epoch",  # a new placement version was installed
        "forecast",  # one forecasting-tier tick: predicted vs baseline load
        "proactive_trigger",  # the forecast tier acted ahead of the load
    }
)

#: Envelope keys shared by every event; payload keys may not shadow them.
ENVELOPE_KEYS = ("t", "kind", "pe", "node")


class RowFamily:
    """A high-rate event family that travels as one row batch per tick.

    The four per-PE kinds are published once per PE per control interval,
    from loops that already hold every PE's values; a family names the
    event kind(s) and payload fields one row of such a batch expands to.
    A row is ``(pe_id, *values)`` with the values of each part in turn,
    and expands to one event per part, in part order — so a two-part
    family interleaves its kinds per PE.  See
    :meth:`TraceRecorder.emit_rows`.
    """

    __slots__ = ("kinds", "parts")

    def __init__(self, *parts: _t.Tuple[str, _t.Tuple[str, ...]]):
        #: Event kinds one row expands to, in emission order.
        self.kinds = tuple(kind for kind, _ in parts)
        layout = []
        start = 1
        for kind, fields in parts:
            if kind not in EVENT_KINDS:
                raise ValueError(f"unknown event kind {kind!r}")
            shadowed = set(fields) & set(ENVELOPE_KEYS)
            if shadowed:
                raise ValueError(
                    f"{kind}: payload fields {sorted(shadowed)} shadow "
                    f"the event envelope"
                )
            layout.append((kind, fields, start, start + len(fields)))
            start += len(fields)
        #: ``(kind, fields, start, stop)``: the row slice each part reads.
        self.parts = tuple(layout)

    def expand(
        self, rows: _t.Iterable[_t.Sequence[_t.Any]]
    ) -> _t.Iterator[_t.Tuple[str, _t.Any, _t.Dict[str, _t.Any]]]:
        """``(kind, pe, payload)`` per event, in per-event emission order."""
        parts = self.parts
        for row in rows:
            pe = row[0]
            for kind, fields, start, stop in parts:
                yield kind, pe, dict(zip(fields, row[start:stop]))

    def __repr__(self) -> str:
        return f"RowFamily({'+'.join(self.kinds)})"


#: Sampled input-buffer occupancy; rows ``(pe, occupancy, capacity)``.
BUFFER_OCCUPANCY = RowFamily(("buffer_occupancy", ("occupancy", "capacity")))
#: Eq. 7 outputs; rows ``(pe, r_max, occupancy, rho)``.
R_MAX = RowFamily(("r_max", ("r_max", "occupancy", "rho")))
#: The ACES scheduler's per-PE pair, interleaved per PE; rows
#: ``(pe, level, rate, depth, cpu, dt, cap_rate)``.
TOKEN_GRANT = RowFamily(
    ("token_bucket", ("level", "rate", "depth")),
    ("cpu_grant", ("cpu", "dt", "cap_rate")),
)
#: Grants of a scheduler without token buckets; rows ``(pe, cpu, dt)``.
CPU_GRANT = RowFamily(("cpu_grant", ("cpu", "dt")))


class TraceFilter:
    """Keep-filter over (kind, pe, node), parsed from CLI syntax.

    The textual form is comma-separated ``key=value`` terms where a value
    may give alternatives separated by ``|``::

        kind=r_max|drop,pe=pe-3
        node=node-0

    An empty expression admits everything.  Unknown keys are rejected at
    parse time so typos fail fast instead of silently tracing nothing.
    """

    def __init__(
        self,
        kinds: _t.Optional[_t.Collection[str]] = None,
        pes: _t.Optional[_t.Collection[str]] = None,
        nodes: _t.Optional[_t.Collection[str]] = None,
    ):
        self.kinds = frozenset(kinds) if kinds else None
        self.pes = frozenset(pes) if pes else None
        self.nodes = frozenset(nodes) if nodes else None

    @classmethod
    def parse(cls, expression: _t.Optional[str]) -> "TraceFilter":
        if not expression:
            return cls()
        fields: _t.Dict[str, _t.Set[str]] = {}
        for term in expression.split(","):
            term = term.strip()
            if not term:
                continue
            if "=" not in term:
                raise ValueError(
                    f"trace filter term {term!r} is not key=value"
                )
            key, _, value = term.partition("=")
            key = key.strip()
            if key not in ("kind", "pe", "node"):
                raise ValueError(
                    f"unknown trace filter key {key!r}; "
                    "expected kind, pe, or node"
                )
            fields.setdefault(key, set()).update(
                v.strip() for v in value.split("|") if v.strip()
            )
        unknown = fields.get("kind", set()) - EVENT_KINDS
        if unknown:
            raise ValueError(
                f"unknown event kind(s) {sorted(unknown)}; "
                f"choose from {sorted(EVENT_KINDS)}"
            )
        return cls(
            kinds=fields.get("kind"),
            pes=fields.get("pe"),
            nodes=fields.get("node"),
        )

    @property
    def admits_all(self) -> bool:
        """True for the empty expression (nothing to test per event)."""
        return self.kinds is None and self.pes is None and self.nodes is None

    def admits(
        self,
        kind: str,
        pe: _t.Optional[str],
        node: _t.Optional[str],
    ) -> bool:
        if self.kinds is not None and kind not in self.kinds:
            return False
        if self.pes is not None and pe not in self.pes:
            return False
        if self.nodes is not None and node not in self.nodes:
            return False
        return True

    def __repr__(self) -> str:
        return (
            f"TraceFilter(kinds={sorted(self.kinds) if self.kinds else None}, "
            f"pes={sorted(self.pes) if self.pes else None}, "
            f"nodes={sorted(self.nodes) if self.nodes else None})"
        )


class TraceRecorder:
    """Base event bus: stamps, filters, counts, and hands events to a sink.

    ``trace_filter`` is an optional keep-filter applied before the event
    dict is built.  The owning system binds the virtual-time source with
    :meth:`bind_clock`; until then events are stamped ``t = 0``.
    """

    #: Hot paths check this before building any event payload.
    enabled: bool = True

    def __init__(self, trace_filter: _t.Optional[TraceFilter] = None):
        self._clock: _t.Optional[_t.Callable[[], float]] = None
        self.filter = trace_filter or TraceFilter()
        #: The filter's predicate, or None when it admits everything (the
        #: usual case, resolved once so ``emit`` skips the call).
        self._admits: _t.Optional[
            _t.Callable[[str, _t.Optional[str], _t.Optional[str]], bool]
        ] = None if self.filter.admits_all else self.filter.admits
        self.counts: Counter = Counter()
        # The threaded runtime emits from one control thread per node;
        # serializing count+sink keeps JSONL lines whole.  Uncontended
        # (single-threaded simulator) this is one atomic acquire per
        # *recorded* event — hot paths already guard with ``enabled``.
        self._emit_lock = threading.Lock()

    def bind_clock(self, clock: _t.Callable[[], float]) -> None:
        """Attach the virtual-time source (typically ``env.now``)."""
        self._clock = clock

    def emit(
        self,
        kind: str,
        pe: _t.Optional[str] = None,
        node: _t.Optional[str] = None,
        **data: object,
    ) -> None:
        """Publish one event; filtered events cost one predicate call."""
        admits = self._admits
        if admits is not None and not admits(kind, pe, node):
            return
        event: _t.Dict[str, object] = {
            "t": self._clock() if self._clock is not None else 0.0,
            "kind": kind,
            "pe": pe,
            "node": node,
            **data,
        }
        with self._emit_lock:
            self.counts[kind] += 1
            self._write(event)

    def emit_rows(
        self,
        family: RowFamily,
        node: _t.Optional[str],
        rows: _t.Sequence[_t.Sequence[_t.Any]],
    ) -> None:
        """Publish one tick's batch of a :class:`RowFamily`.

        Equivalent to the per-event :meth:`emit` calls the rows stand
        for, in the same order — which is exactly what this base
        implementation does, so storing recorders, filters and exporters
        see no difference.  Recorders that only *inspect* events
        override it to skip the per-event envelope.
        """
        emit = self.emit
        for kind, pe, payload in family.expand(rows):
            emit(kind, pe, node, **payload)

    def forward(self, event: _t.Dict[str, _t.Any]) -> None:
        """Accept an event another recorder already stamped.

        The downstream half of :meth:`emit`: this recorder's own
        keep-filter and counts apply, the upstream ``t`` is kept.
        """
        admits = self._admits
        if admits is not None and not admits(
            event["kind"], event["pe"], event["node"]
        ):
            return
        with self._emit_lock:
            self.counts[event["kind"]] += 1
            self._write(event)

    def _write(self, event: _t.Dict[str, object]) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush/close the underlying sink (no-op by default)."""

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()


class NullRecorder(TraceRecorder):
    """The zero-overhead default: ``enabled`` is False, ``emit`` does nothing.

    Components guard event construction with ``if recorder.enabled:`` so a
    system built with this recorder (the default everywhere) pays only that
    branch; ``emit`` is still safe to call directly.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def emit(self, kind: str, pe=None, node=None, **data: object) -> None:
        return None

    def emit_rows(self, family, node, rows) -> None:
        return None

    def _write(self, event: _t.Dict[str, object]) -> None:
        return None


#: Shared default recorder instance; never record through it.
NULL_RECORDER = NullRecorder()


class MemoryRecorder(TraceRecorder):
    """Collects events in memory — the test/analysis recorder."""

    def __init__(self, trace_filter: _t.Optional[TraceFilter] = None):
        super().__init__(trace_filter)
        self.events: _t.List[_t.Dict[str, object]] = []

    def _write(self, event: _t.Dict[str, object]) -> None:
        self.events.append(event)

    def by_kind(self, kind: str) -> _t.List[_t.Dict[str, object]]:
        return [e for e in self.events if e["kind"] == kind]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> _t.Iterator[_t.Dict[str, object]]:
        return iter(self.events)


class JsonlRecorder(TraceRecorder):
    """Streams events to a JSONL sink as they happen (bounded memory).

    Accepts a path or an open text file object; a path is opened lazily on
    the first event and closed by :meth:`close`.
    """

    def __init__(
        self,
        target: _t.Union[str, _t.TextIO],
        trace_filter: _t.Optional[TraceFilter] = None,
    ):
        super().__init__(trace_filter)
        self._path: _t.Optional[str] = None
        self._file: _t.Optional[_t.TextIO] = None
        if isinstance(target, str):
            self._path = target
        else:
            self._file = target

    def _write(self, event: _t.Dict[str, object]) -> None:
        if self._file is None:
            assert self._path is not None
            self._file = open(self._path, "w", encoding="utf-8")
        self._file.write(json.dumps(event, separators=(",", ":")) + "\n")

    def close(self) -> None:
        if self._file is not None and self._path is not None:
            self._file.close()
            self._file = None


def validate_event(event: _t.Mapping[str, object]) -> _t.List[str]:
    """Schema-check one event dict; returns a list of problems (empty = ok).

    The schema every exporter and consumer can rely on:

    * ``t`` is a finite, non-negative number;
    * ``kind`` is one of :data:`EVENT_KINDS`;
    * ``pe`` and ``node`` are strings or ``None``;
    * payload keys do not shadow the envelope.
    """
    problems: _t.List[str] = []
    t = event.get("t")
    if not isinstance(t, (int, float)) or isinstance(t, bool):
        problems.append(f"t is not a number: {t!r}")
    elif not (t >= 0.0 and t == t and t != float("inf")):
        problems.append(f"t is not finite and >= 0: {t!r}")
    kind = event.get("kind")
    if kind not in EVENT_KINDS:
        problems.append(f"unknown kind {kind!r}")
    for key in ("pe", "node"):
        value = event.get(key)
        if value is not None and not isinstance(value, str):
            problems.append(f"{key} is neither a string nor null: {value!r}")
    return problems
