"""SLO-aware admission front end: hysteresis ladder + graceful shedding.

The paper's three-tier controllers (Eq. 4/7/8) maximize weighted
throughput but never answer to a latency SLO — under burst workloads
they keep admitting traffic that queues past any usable p95.  This
module adds the production-style answer: an admission/backpressure
layer *in front of* the ingress PEs that watches two pressure signals
(worst per-output-stream p95 end-to-end latency from the streaming
:class:`~repro.obs.hist.LogHistogram` path, and worst ingress-queue
occupancy) and degrades service along an ordered ladder::

    NORMAL > SHED_LOW > SHED_HIGH > REJECT > KILL

The decision engine (:class:`DegradationLadder`) is deliberately boring
and provable:

* **Hysteresis band** — each adaptive level has a separate *enter* and
  *exit* threshold (``enter > exit``), so pressure hovering at a
  boundary cannot flap the level.
* **Minimum dwell time** — after any transition the ladder holds its
  level for at least ``min_dwell`` seconds, in *both* directions; two
  transitions can never occur within one dwell window.
* **Monotonic automatic moves** — an automatic transition only ever
  *downgrades* (rank increases).  Upgrades happen one step at a time,
  only after the dwell has elapsed *and* pressure has fallen through
  the current level's exit threshold (``cause="recovery"``), or via
  explicit operator action.
* **Priority resolver** — kill switch beats manual override beats
  adaptive decision beats the NORMAL default, always
  (:attr:`AdmissionController.effective_level`).

Shedding drops tagged SDOs at ingress (a dedicated ``shed`` drop kind
threaded through the SDO-conservation ledger); rejection is the
429-style refusal — the source's registered backoff callback receives a
``retry-after`` horizon so the load model stops offering until it
passes.  Shedding uses a deterministic per-stream error accumulator
rather than an RNG, so the sim and threaded substrates make
bit-identical decisions from identical pressure sequences — the parity
tests rely on this.

The invariant oracles (:mod:`repro.check.oracles`) re-derive every
ladder guarantee online from ``admission_level`` trace events; the
conservation ledger (:mod:`repro.check.conservation`) accounts every
shed and rejected SDO exactly.
"""

from __future__ import annotations

import contextlib
import enum
import math
import typing as _t
from dataclasses import dataclass

from repro.control.debounce import Debounce
from repro.obs.recorder import NULL_RECORDER, TraceRecorder

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.control.adapter import BufferLike


class AdmissionLevel(enum.IntEnum):
    """Ordered degradation levels; higher rank = more degraded service.

    A "downgrade" is a rank *increase* (service degrades); "upgrade"
    (recovery) is a rank decrease.  ``KILL`` is never entered
    adaptively — only the operator kill switch resolves to it.
    """

    NORMAL = 0
    SHED_LOW = 1
    SHED_HIGH = 2
    REJECT = 3
    KILL = 4


#: The levels an *automatic* (adaptive) transition may target, in rank
#: order.  ``KILL`` is deliberately absent.
ADAPTIVE_LEVELS = (
    AdmissionLevel.SHED_LOW,
    AdmissionLevel.SHED_HIGH,
    AdmissionLevel.REJECT,
)


@dataclass(frozen=True)
class AdmissionConfig:
    """Tuning of the admission front end (hashable, picklable).

    Pressure is a unitless ratio where 1.0 sits exactly at the SLO
    boundary: ``pressure = max(worst_p95 / slo_p95, worst_ingress_occ /
    (queue_slo_fraction * capacity))``.  The enter/exit ladders are
    expressed in that unit, so one config transfers across topologies.

    ``enter[i]``/``exit[i]`` guard :data:`ADAPTIVE_LEVELS`\\ ``[i]``
    (SHED_LOW, SHED_HIGH, REJECT).  Validation enforces the shape the
    oracles assume: ``enter[i] > exit[i]`` (a real hysteresis band per
    level) and ``enter`` strictly increasing (a deeper level is never
    cheaper to reach than a shallower one).
    """

    #: Per-output-stream p95 end-to-end latency SLO (seconds).
    slo_p95: float = 0.25
    #: Ingress occupancy fraction treated as pressure 1.0.
    queue_slo_fraction: float = 0.8
    #: Minimum seconds between *any* two ladder transitions.
    min_dwell: float = 0.5
    #: Length of the sliding latency-measurement window (seconds).  The
    #: p95 signal is computed over recent egress samples only — a
    #: cumulative histogram would remember every past spike forever and
    #: the ladder could never recover.
    pressure_window: float = 1.0
    #: Fraction of ingress SDOs shed at SHED_LOW / SHED_HIGH.
    shed_low_fraction: float = 0.25
    shed_high_fraction: float = 0.60
    #: Retry-after horizon handed to source backoff callbacks (seconds).
    retry_after: float = 0.5
    #: Enter thresholds for (SHED_LOW, SHED_HIGH, REJECT).
    enter: _t.Tuple[float, float, float] = (1.0, 1.3, 1.6)
    #: Exit thresholds for the same levels; each strictly below enter.
    exit: _t.Tuple[float, float, float] = (0.85, 1.1, 1.35)

    def __post_init__(self) -> None:
        if self.slo_p95 <= 0:
            raise ValueError(f"slo_p95 must be > 0, got {self.slo_p95}")
        if not 0.0 < self.queue_slo_fraction <= 1.0:
            raise ValueError(
                "queue_slo_fraction must lie in (0, 1], "
                f"got {self.queue_slo_fraction}"
            )
        if self.min_dwell < 0:
            raise ValueError(f"min_dwell must be >= 0, got {self.min_dwell}")
        if self.pressure_window <= 0:
            raise ValueError(
                f"pressure_window must be positive, got "
                f"{self.pressure_window}"
            )
        if self.retry_after <= 0:
            raise ValueError(
                f"retry_after must be > 0, got {self.retry_after}"
            )
        for name, value in (
            ("shed_low_fraction", self.shed_low_fraction),
            ("shed_high_fraction", self.shed_high_fraction),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if self.shed_high_fraction < self.shed_low_fraction:
            raise ValueError(
                "shed_high_fraction must be >= shed_low_fraction "
                f"({self.shed_high_fraction} < {self.shed_low_fraction})"
            )
        if len(self.enter) != len(ADAPTIVE_LEVELS) or len(self.exit) != len(
            ADAPTIVE_LEVELS
        ):
            raise ValueError(
                "enter/exit must give one threshold per adaptive level "
                f"({len(ADAPTIVE_LEVELS)})"
            )
        for index, level in enumerate(ADAPTIVE_LEVELS):
            if self.enter[index] <= self.exit[index]:
                raise ValueError(
                    f"{level.name}: enter ({self.enter[index]}) must be "
                    f"strictly above exit ({self.exit[index]}) — "
                    "a zero-width hysteresis band oscillates"
                )
        for index in range(1, len(self.enter)):
            if self.enter[index] <= self.enter[index - 1]:
                raise ValueError(
                    "enter thresholds must be strictly increasing, "
                    f"got {self.enter}"
                )
            if self.exit[index] <= self.exit[index - 1]:
                raise ValueError(
                    "exit thresholds must be strictly increasing, "
                    f"got {self.exit}"
                )

    def shed_fraction(self, level: AdmissionLevel) -> float:
        """Fraction of ingress SDOs shed while at ``level``."""
        if level is AdmissionLevel.SHED_LOW:
            return self.shed_low_fraction
        if level is AdmissionLevel.SHED_HIGH:
            return self.shed_high_fraction
        return 0.0

    def enter_threshold(self, level: AdmissionLevel) -> float:
        return self.enter[ADAPTIVE_LEVELS.index(level)]

    def exit_threshold(self, level: AdmissionLevel) -> float:
        return self.exit[ADAPTIVE_LEVELS.index(level)]


@dataclass
class LadderTransition:
    """One adaptive-ladder move, as reported by :meth:`DegradationLadder.step`."""

    prev: AdmissionLevel
    level: AdmissionLevel
    cause: str  # "adaptive" (downgrade) or "recovery" (one-step upgrade)
    pressure: float
    at: float
    #: Seconds since the previous transition (inf for the first).
    since_last: float


class DegradationLadder:
    """The adaptive decision engine: hysteresis + dwell + monotonicity.

    Holds only *adaptive* state — operator overrides live in
    :class:`AdmissionController`, which resolves priority on top.

    Transition rules applied on every :meth:`step`:

    1. Within ``min_dwell`` of the last transition: no move, either
       direction.  (This alone guarantees the no-two-transitions-per-
       dwell-window property the oracles check.)
    2. Otherwise, the *target* is the deepest adaptive level whose
       enter threshold the pressure meets.  If the target outranks the
       current level, downgrade straight to it (multi-step downgrades
       are still monotonic — rank only increases).
    3. Otherwise, if the current level is above NORMAL and pressure has
       fallen to or below the *current* level's exit threshold, recover
       exactly one rank.
    """

    def __init__(self, config: AdmissionConfig):
        self.config = config
        self.level: AdmissionLevel = AdmissionLevel.NORMAL
        #: Rule 1: any move may fire once ``min_dwell`` has passed.
        self.debounce = Debounce(1, config.min_dwell)

    @property
    def transitions(self) -> int:
        """Ladder moves so far."""
        return len(self.debounce.firings)

    def _target(self, pressure: float) -> AdmissionLevel:
        target = AdmissionLevel.NORMAL
        for index, level in enumerate(ADAPTIVE_LEVELS):
            if pressure >= self.config.enter[index]:
                target = level
        return target

    def step(
        self, pressure: float, now: float
    ) -> _t.Optional[LadderTransition]:
        """Advance the ladder one observation; return the move, if any."""
        target = self._target(pressure)
        if target > self.level:
            want, cause = target, "adaptive"
        elif self.level > AdmissionLevel.NORMAL and pressure <= (
            self.config.exit_threshold(self.level)
        ):
            want, cause = AdmissionLevel(int(self.level) - 1), "recovery"
        else:
            want, cause = None, ""
        if not self.debounce.observe(want, now):
            return None
        return self._move(want, cause, pressure, now)

    def _move(
        self,
        level: AdmissionLevel,
        cause: str,
        pressure: float,
        now: float,
    ) -> LadderTransition:
        prev = self.level
        debounce = self.debounce
        since = float("inf") if debounce.last is None else now - debounce.last
        self.level = level
        debounce.fire(now)
        return LadderTransition(
            prev=prev,
            level=level,
            cause=cause,
            pressure=pressure,
            at=now,
            since_last=since,
        )


@dataclass
class StreamAdmission:
    """Per-ingress-stream admission accounting (and the shed accumulator)."""

    admitted: int = 0
    shed: int = 0
    rejected: int = 0
    #: Deterministic fractional-shed error accumulator: ``acc`` gains the
    #: shed fraction per offered SDO and sheds whenever it reaches 1 —
    #: exact long-run fraction, zero RNG, bit-equal across substrates.
    acc: float = 0.0

    @property
    def decisions(self) -> int:
        return self.admitted + self.shed + self.rejected


class AdmissionController:
    """The admission front end one :class:`~repro.control.plane.ControlPlane` ticks.

    Lifecycle: construct with a config, :meth:`bind` to a substrate's
    ingress buffers / egress records / clock (plus a lock when the
    collector is written from worker threads), then let the plane call
    :meth:`tick` every control interval.  Sources consult
    :meth:`admit_ingress` per offered SDO and register a
    :meth:`register_backoff` callback to honour 429-style retry-after.

    Priority resolution (:attr:`effective_level`): kill switch, then
    manual override, then the adaptive ladder.  The ladder keeps
    stepping underneath an override so releasing it resumes from an
    up-to-date adaptive level rather than a stale one.
    """

    def __init__(self, config: AdmissionConfig):
        self.config = config
        self.recorder: TraceRecorder = NULL_RECORDER
        self.ladder = DegradationLadder(config)
        self.kill_switch = False
        self.manual_level: _t.Optional[AdmissionLevel] = None
        self.streams: _t.Dict[str, StreamAdmission] = {}
        self.ticks = 0
        self.last_pressure = 0.0
        self._last_effective = AdmissionLevel.NORMAL
        self._ingress: _t.Dict[str, "BufferLike"] = {}
        self._egress: _t.Mapping[str, _t.Any] = {}
        self._clock: _t.Callable[[], float] = lambda: 0.0
        self._lock: _t.ContextManager[_t.Any] = contextlib.nullcontext()
        self._backoff: _t.Dict[str, _t.Callable[[float], None]] = {}
        #: Sliding latency window: per-stream histogram bucket counts at
        #: the window start, plus the last completed window's p95.
        self._window_started: _t.Optional[float] = None
        self._window_base: _t.Dict[str, _t.Dict[int, int]] = {}
        self._window_p95: _t.Dict[str, float] = {}
        #: Last tick's windowed p95 per stream, keyed on the histogram
        #: object (``EgressCollector.reset`` swaps in fresh ones) and its
        #: sample count: a stream that recorded nothing since keeps it.
        self._p95_cache: _t.Dict[str, _t.Tuple[_t.Any, int, float]] = {}

    # -- wiring --------------------------------------------------------------

    def bind(
        self,
        ingress: _t.Mapping[str, "BufferLike"],
        egress: _t.Mapping[str, _t.Any],
        clock: _t.Callable[[], float],
        lock: _t.Optional[_t.ContextManager[_t.Any]] = None,
    ) -> None:
        """Attach the substrate observables the pressure signal reads.

        ``egress`` maps stream ids to objects exposing a ``hist``
        :class:`~repro.obs.hist.LogHistogram` (the collector's
        :class:`~repro.metrics.collectors.EgressRecord` does).  ``lock``
        (a context manager) guards histogram reads in threaded
        substrates.
        """
        self._ingress = dict(ingress)
        self._egress = egress
        self._clock = clock
        self._lock = lock if lock is not None else contextlib.nullcontext()
        self._p95_cache.clear()
        for pe_id in self._ingress:
            self.streams.setdefault(pe_id, StreamAdmission())

    def register_backoff(
        self, pe_id: str, callback: _t.Callable[[float], None]
    ) -> None:
        """Register a source's ``backoff(until)`` retry-after hook."""
        self._backoff[pe_id] = callback

    # -- pressure signal -----------------------------------------------------

    def _windowed_p95(self, pe_id: str, hist: _t.Any, rotate: bool) -> float:
        """p95 of the egress samples recorded since the window started.

        Reads the stream's cumulative :class:`~repro.obs.hist.
        LogHistogram` and subtracts the bucket counts captured at the
        window start, so the signal *decays* once latency improves — a
        cumulative p95 would remember every past spike forever and the
        ladder could never recover.  On rotation the partial becomes the
        completed window's p95 and a fresh base is captured; between
        rotations the max of the partial and the last completed window
        is reported (conservative against a thin, freshly rotated
        window looking spuriously healthy).
        """
        counts = dict(hist.bucket_counts())
        base = self._window_base.get(pe_id)
        if base:
            delta = {
                index: count - base.get(index, 0)
                for index, count in counts.items()
                if count - base.get(index, 0) > 0
            }
        else:
            delta = counts
        total = sum(delta.values())
        if total == 0:
            partial = 0.0
        else:
            rank = max(1, math.ceil(0.95 * total))
            cumulative = 0
            partial = 0.0
            for index in sorted(delta):
                cumulative += delta[index]
                if cumulative >= rank:
                    partial = hist.bucket_upper_edge(index)
                    break
        if rotate:
            self._window_base[pe_id] = counts
            self._window_p95[pe_id] = partial
            return partial
        return max(partial, self._window_p95.get(pe_id, 0.0))

    def pressure(self, now: _t.Optional[float] = None) -> float:
        """Current unitless pressure (1.0 = exactly at the SLO boundary)."""
        config = self.config
        if now is None:
            now = self._clock()
        rotate = (
            self._window_started is None
            or now - self._window_started >= config.pressure_window
        )
        if rotate:
            self._window_started = now
        worst_p95 = 0.0
        cache = self._p95_cache
        with self._lock:
            for pe_id, record in self._egress.items():
                hist = record.hist
                cached = cache.get(pe_id)
                if (
                    not rotate
                    and cached is not None
                    and cached[0] is hist
                    and cached[1] == hist.count
                ):
                    p95 = cached[2]
                else:
                    p95 = self._windowed_p95(pe_id, hist, rotate)
                    cache[pe_id] = (hist, hist.count, p95)
                if p95 > worst_p95:
                    worst_p95 = p95
        latency_pressure = worst_p95 / config.slo_p95
        queue_pressure = 0.0
        for buffer in self._ingress.values():
            capacity = buffer.capacity
            if capacity <= 0:
                continue
            fraction = buffer.occupancy / (
                config.queue_slo_fraction * capacity
            )
            if fraction > queue_pressure:
                queue_pressure = fraction
        return max(latency_pressure, queue_pressure)

    # -- control-tick entry points -------------------------------------------

    def tick(self, now: float) -> None:
        """Sample the pressure signals and advance the ladder."""
        self.observe(self.pressure(now), now)

    def observe(self, pressure: float, now: float) -> None:
        """Advance the ladder from an explicit pressure sample.

        This is the scriptable entry point the cross-substrate parity
        tests drive: identical ``(pressure, now)`` sequences must yield
        identical decision sequences on any substrate.
        """
        self.ticks += 1
        self.last_pressure = pressure
        transition = self.ladder.step(pressure, now)
        effective = self.effective_level
        if effective != self._last_effective:
            cause = (
                transition.cause
                if transition is not None
                and effective == transition.level
                else self._override_cause()
            )
            self._emit_level(effective, cause, pressure, now)
        elif transition is not None and self.recorder.enabled:
            # The adaptive level moved underneath an operator override;
            # trace it (cause intact) so the oracle still sees every
            # ladder decision, flagged as shadowed.
            self.recorder.emit(
                "admission_level",
                level=transition.level.name,
                prev=transition.prev.name,
                cause=transition.cause,
                pressure=pressure,
                since_last=_finite(transition.since_last),
                shadowed=True,
            )

    # -- operator surface ----------------------------------------------------

    def set_kill_switch(self, engaged: bool) -> None:
        """Operator kill switch: beats every other decision while set."""
        self.kill_switch = engaged
        self._refresh_effective("kill" if engaged else "kill_release")

    def set_manual_level(
        self, level: _t.Optional[AdmissionLevel]
    ) -> None:
        """Operator override: pin the level (None releases the pin)."""
        self.manual_level = level
        self._refresh_effective(
            "manual" if level is not None else "manual_release"
        )

    @property
    def effective_level(self) -> AdmissionLevel:
        """Priority resolution: kill > manual > adaptive > default."""
        if self.kill_switch:
            return AdmissionLevel.KILL
        if self.manual_level is not None:
            return self.manual_level
        return self.ladder.level

    def _override_cause(self) -> str:
        if self.kill_switch:
            return "kill"
        if self.manual_level is not None:
            return "manual"
        return "release"

    def _refresh_effective(self, cause: str) -> None:
        effective = self.effective_level
        if effective != self._last_effective:
            self._emit_level(
                effective, cause, self.last_pressure, self._clock()
            )

    def _emit_level(
        self,
        level: AdmissionLevel,
        cause: str,
        pressure: float,
        now: float,
    ) -> None:
        prev = self._last_effective
        self._last_effective = level
        if self.recorder.enabled:
            self.recorder.emit(
                "admission_level",
                level=level.name,
                prev=prev.name,
                cause=cause,
                pressure=pressure,
                since_last=None,
                shadowed=False,
            )

    # -- the ingress decision ------------------------------------------------

    def admit_ingress(self, pe_id: str, now: float) -> str:
        """Decide one offered SDO: ``"admit"``, ``"shed"`` or ``"reject"``.

        Deterministic: at a shedding level the per-stream accumulator
        sheds exactly ``round(fraction * offered)`` of every prefix, so
        two substrates replaying the same offer sequence under the same
        level sequence shed the same SDOs.
        """
        stream = self.streams.get(pe_id)
        if stream is None:
            stream = self.streams.setdefault(pe_id, StreamAdmission())
        level = self.effective_level
        if level >= AdmissionLevel.REJECT:
            stream.rejected += 1
            callback = self._backoff.get(pe_id)
            if callback is not None:
                callback(now + self.config.retry_after)
            if self.recorder.enabled:
                self.recorder.emit(
                    "reject",
                    pe=pe_id,
                    level=level.name,
                    retry_after=self.config.retry_after,
                )
            return "reject"
        fraction = self.config.shed_fraction(level)
        if fraction > 0.0:
            stream.acc += fraction
            if stream.acc >= 1.0:
                stream.acc -= 1.0
                stream.shed += 1
                if self.recorder.enabled:
                    self.recorder.emit("shed", pe=pe_id, level=level.name)
                return "shed"
        stream.admitted += 1
        return "admit"

    # -- accounting ----------------------------------------------------------

    @property
    def total_admitted(self) -> int:
        return sum(s.admitted for s in self.streams.values())

    @property
    def total_shed(self) -> int:
        return sum(s.shed for s in self.streams.values())

    @property
    def total_rejected(self) -> int:
        return sum(s.rejected for s in self.streams.values())

    def counters(self) -> _t.Dict[str, _t.Dict[str, int]]:
        """Per-stream decision counts (stable key order)."""
        return {
            pe_id: {
                "admitted": stream.admitted,
                "shed": stream.shed,
                "rejected": stream.rejected,
            }
            for pe_id, stream in sorted(self.streams.items())
        }

    def __repr__(self) -> str:
        return (
            f"AdmissionController(level={self.effective_level.name}, "
            f"pressure={self.last_pressure:.3f}, "
            f"shed={self.total_shed}, rejected={self.total_rejected})"
        )


def _finite(value: float) -> _t.Optional[float]:
    """inf -> None, keeping trace JSON strict-parser friendly."""
    return None if value == float("inf") else value
