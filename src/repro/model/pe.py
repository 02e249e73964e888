"""PE runtime entity: buffer + state machine + quantized work execution.

Execution model (shared by all three policies): time is discretized in
control intervals of ``dt``.  In each interval the node's CPU controller
grants the PE a *fractional allocation* ``c``; the PE then has ``c * dt``
CPU-seconds of budget.  It consumes SDOs from its input buffer one at a
time; an SDO started in state ``S`` costs ``T_S`` CPU-seconds, and partial
work carries over across intervals.  Completion timestamps are interpolated
within the interval (work proceeds at rate ``c``), so latency measurements
are not quantized to interval boundaries.

For every consumed SDO the PE emits ``M`` derived SDOs (deterministic or
Poisson with mean ``lambda_m``) through a policy-supplied emission callback.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

import numpy as np

from repro.model.buffers import InputBuffer
from repro.model.params import PEProfile
from repro.model.sdo import SDO
from repro.model.statemachine import TwoStateMachine

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.spans import SpanTracker

#: emit(pe, sdo, completion_time) -> None.  The policy decides where the SDO
#: goes (downstream buffers, egress collector) and how overflow is handled.
EmitFn = _t.Callable[["PERuntime", SDO, float], None]
#: gate(pe) -> bool.  Checked before starting each SDO; Lock-Step uses this
#: to refuse processing while any downstream buffer is full.
GateFn = _t.Callable[["PERuntime"], bool]


class EmissionCount:
    """``M``, the number of SDOs a PE emits per consumed SDO.

    Deterministic profiles use an accumulator, so the long-run emission
    ratio is exactly ``lambda_m`` — including fractional values for
    selective operators (filters, aggregators); otherwise ``M`` is a
    Poisson draw with mean ``lambda_m`` from the PE's generator.  Both
    substrates count with this one rule.
    """

    __slots__ = ("lambda_m", "deterministic", "rng", "accumulator")

    def __init__(self, profile: PEProfile, rng: np.random.Generator):
        self.lambda_m = profile.lambda_m
        self.deterministic = profile.deterministic_m
        self.rng = rng
        self.accumulator = 0.0

    def sample(self) -> int:
        """Number of output SDOs for the next consumed SDO."""
        if self.deterministic:
            self.accumulator += self.lambda_m
            count = int(self.accumulator)
            self.accumulator -= count
            return count
        return int(self.rng.poisson(self.lambda_m))


@dataclass
class PECounters:
    """Lifetime execution counters for one PE."""

    consumed: int = 0
    emitted: int = 0
    cpu_used: float = 0.0
    cpu_granted: float = 0.0
    #: Intervals in which the PE had budget but an empty buffer.
    starved_intervals: int = 0
    #: Intervals in which the gate refused processing (Lock-Step blocking).
    blocked_intervals: int = 0


class PERuntime:
    """One processing element instantiated in a running system."""

    def __init__(
        self,
        profile: PEProfile,
        buffer_capacity: int,
        rng: np.random.Generator,
        is_ingress: bool = False,
        is_egress: bool = False,
    ):
        self.profile = profile
        self.pe_id = profile.pe_id
        #: Mean CPU-seconds per SDO: what one buffered SDO adds to
        #: :attr:`backlog_work`.
        self.mean_work = 1.0 / profile.rate_slope
        self.buffer = InputBuffer(buffer_capacity, name=f"{profile.pe_id}:in")
        self.machine = TwoStateMachine(profile, rng)
        self.is_ingress = is_ingress
        self.is_egress = is_egress
        self.counters = PECounters()

        #: Armed span tracker (None keeps the execute loop disarmed).
        self.spans: _t.Optional["SpanTracker"] = None
        #: Interpolated wall time the current SDO was dequeued at.
        self._span_started = 0.0

        #: Remaining CPU-seconds of the SDO currently being worked on.
        self.work_in_service = 0.0
        #: The SDO currently being worked on (already popped from buffer).
        self._current: _t.Optional[SDO] = None
        #: Output SDOs per consumed SDO, drawn from the machine's stream.
        self.emission = EmissionCount(profile, rng)
        #: Whether the gate refused processing during the last interval.
        #: The node scheduler reads this *one interval late* — a real OS
        #: only discovers a sleeping PE reactively, which is exactly the
        #: stop-start cost the paper attributes to Lock-Step.
        self.blocked_last_interval = False

        #: Downstream/upstream runtime links, wired by the system.
        self.downstream: _t.List["PERuntime"] = []
        self.upstream: _t.List["PERuntime"] = []

    # -- wiring -----------------------------------------------------------

    def link_downstream(self, other: "PERuntime") -> None:
        """Connect this PE's output stream to ``other``'s input."""
        if other is self:
            raise ValueError(f"{self.pe_id}: cannot link a PE to itself")
        self.downstream.append(other)
        other.upstream.append(self)

    # -- data admission ------------------------------------------------------

    def ingest(self, sdo: SDO, now: float) -> bool:
        """Offer an SDO to this PE's input buffer; False when dropped."""
        return self.buffer.offer(sdo, now)

    def attach_spans(self, tracker: "SpanTracker") -> None:
        """Arm span tracking on this PE and its input buffer."""
        self.spans = tracker
        self.buffer.attach_spans(tracker, pe_id=self.pe_id)

    # -- execution ---------------------------------------------------------

    @property
    def backlog_work(self) -> float:
        """Estimated CPU-seconds queued (buffer + in-progress work)."""
        return self.work_in_service + self.buffer.occupancy * self.mean_work

    def execute(
        self,
        now: float,
        dt: float,
        cpu: float,
        emit: EmitFn,
        gate: _t.Optional[GateFn] = None,
    ) -> float:
        """Run this PE for one control interval.

        Parameters
        ----------
        now:
            Interval start time.
        dt:
            Interval length (seconds).
        cpu:
            Fractional CPU allocation in [0, 1] for this interval.
        emit:
            Callback receiving each produced SDO with its completion time.
        gate:
            Optional predicate; when it returns False the PE stops consuming
            further SDOs this interval (Lock-Step blocking).

        Returns
        -------
        float
            CPU-seconds actually consumed (<= cpu * dt).
        """
        budget = cpu * dt
        self.counters.cpu_granted += budget
        if budget <= 0.0:
            return 0.0

        used = 0.0
        blocked = False
        spans = self.spans
        while used < budget:
            if self._current is None:
                if gate is not None and not gate(self):
                    blocked = True
                    break
                if self.buffer.is_empty:
                    break
                # Buffer operations are stamped with the tick start so
                # buffer telemetry stays monotonic across interleaved node
                # ticks; the state machine still advances along the
                # interpolated work timeline.
                wall = now + (used / cpu if cpu > 0 else 0.0)
                if wall < self.machine.now:
                    # A migrated PE can be ticked by its new node's
                    # phase-staggered loop before the work timeline its
                    # old node already consumed (up to interval start +
                    # dt) has elapsed.  Work on one PE is serial: the
                    # next SDO starts where the previous grant left off.
                    wall = self.machine.now
                self._current = self.buffer.pop(now)
                self.work_in_service = self.machine.service_time_at(wall)
                if spans is not None:
                    self._span_started = wall
                    spans.observe_queue(self.pe_id, self._current, wall)

            step = min(self.work_in_service, budget - used)
            used += step
            self.work_in_service -= step

            if self.work_in_service <= 1e-12:
                completion = now + used / cpu
                if completion < self.machine.now:
                    # Keep completions at or after the SDO's (possibly
                    # clamped) start so service spans never run negative.
                    completion = self.machine.now
                self._complete(self._current, completion, emit)
                self._current = None
                self.work_in_service = 0.0

        self.blocked_last_interval = blocked
        if blocked:
            self.counters.blocked_intervals += 1
        elif used < budget and self.buffer.is_empty and self._current is None:
            self.counters.starved_intervals += 1

        self.counters.cpu_used += used
        return used

    def _complete(self, sdo: SDO, completion: float, emit: EmitFn) -> None:
        self.counters.consumed += 1
        spans = self.spans
        parent_span = None
        if spans is not None:
            # The service segment runs dequeue -> completion, so partial
            # work carried across intervals (waiting for the next CPU
            # grant) counts as service time, not queue-wait; the span sum
            # still telescopes exactly to the end-to-end latency.
            spans.observe_service(
                self.pe_id, sdo, completion - self._span_started
            )
            parent_span = sdo.span
        for _ in range(self.emission.sample()):
            derived = sdo.derive(stream_id=self.pe_id)
            if parent_span is not None:
                derived.span = [
                    parent_span[0],
                    parent_span[1],
                    parent_span[2],
                    0.0,
                    completion,
                ]
            self.counters.emitted += 1
            emit(self, derived, completion)

    # -- controller observables ----------------------------------------------

    @property
    def current_service_time(self) -> float:
        """Per-SDO cost in the machine's current state (no time advance)."""
        return self.profile.t1 if self.machine.state == 1 else self.profile.t0

    def processing_rate(self, cpu: float) -> float:
        """Instantaneous processing rate rho_j (SDO/s) at allocation ``cpu``.

        Uses the *current* state's service time: this is the short-horizon
        rate the flow controller reacts with.
        """
        return cpu / self.current_service_time

    def cpu_for_output_rate_now(self, rate: float) -> float:
        """CPU needed to emit ``rate`` SDO/s *in the current state*.

        This is the state-aware inverse ``g^{-1}`` used by the Eq. 8 CPU
        cap: a PE momentarily in its slow state needs proportionally more
        CPU to keep delivering the rate its consumer asked for.
        """
        if rate <= 0:
            return 0.0
        return (rate / self.profile.lambda_m) * self.current_service_time

    def __repr__(self) -> str:
        return (
            f"PERuntime({self.pe_id}, buf={self.buffer.occupancy}/"
            f"{self.buffer.capacity})"
        )
