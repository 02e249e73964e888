"""Online invariant oracles over the trace event bus.

The paper states its guarantees as invariants; this module checks them
*online*, on every Tier-2 control step, in whichever substrate is
emitting trace events:

* **Eq. 7 (flow control)** — every published ``r_max`` is finite,
  non-negative (the ``[.]+`` clip), and equal to an independently
  maintained reference implementation of the LQR law (including the
  physical free-space clamp) evaluated on the event's own
  ``(occupancy, rho)`` measurements.
* **Eq. 8 (feedback cap)** — every ACES CPU grant respects
  ``c_j <= g_j^{-1}(r_o,j)``: the grant never exceeds the CPU needed to
  produce the output rate downstream advertised (re-derived from the
  PE's rate model, not trusted from the scheduler).
* **Eq. 4 / Section V-D (capacity)** — per node and per control
  interval, granted CPU fractions sum to at most the node's (live,
  fault-adjusted) capacity; token-bucket levels stay within
  ``[0, depth]``.
* **Gate/pause consistency** — a PE blocked by its Lock-Step gate
  receives a zero grant; a paused (controller-outage) node emits no
  control events at all.
* **Tier-1 targets** — the allocation targets in effect always satisfy
  the per-node capacity constraint ``sum_j c̄_j <= capacity``.
* **Admission ladder** (when the plane carries an admission front end) —
  every ``admission_level`` event respects the ladder contract: automatic
  transitions are monotonic downgrades (recovery moves exactly one rank
  up), transitions are consistent with the hysteresis band they claim
  (adaptive moves only at/above the target level's enter threshold,
  recoveries only at/below the left level's exit threshold), the kill
  switch always resolves to ``KILL``, and ``KILL`` is never entered
  adaptively.  ``shed``/``reject`` events are only legal at the levels
  that shed/reject.
* **Forecast tier** (when the plane carries a forecasting tier) — every
  ``forecast`` tick publishes finite, non-negative signals whose ratio
  is exactly ``predicted / baseline``; every ``proactive_trigger`` cites
  a ratio at or above the configured headroom.
* **Debounce spacing** — no two actions of one threshold tier (ladder
  transitions, elastic scaling decisions reactive and proactive
  together, proactive triggers) fall closer than that tier's cooldown,
  compared exactly on the instants the tier acted at
  (:meth:`OracleRecorder.check_spacing`, run by :meth:`finalize`).

:class:`OracleRecorder` is a :class:`~repro.obs.recorder.TraceRecorder`:
arm it by passing it as the ``recorder`` of a system, then call
:meth:`attach` with the system.  The oracle reads its plane's live state
(groups, schedulers, node controllers, pause flags, targets) in place,
and :meth:`finalize` closes the system's conservation ledger too.  A
bare control plane is checked through :meth:`attach_plane` instead.
Violations are collected, not raised — a fuzzing campaign wants the
full list.

``strict`` mode additionally checks invariants that are only exact when
control steps are serialized (the simulator, or a scripted drive of
either substrate's plane): the Eq. 8 re-derivation through the PE's
*current-state* rate model, gate/grant consistency, and the paused-node
check.  A live threaded run interleaves worker state transitions with
checking, so those become approximate there: :meth:`attach` takes the
substrate's ``strict_oracles``, and ``strict=False`` falls back to the
substrate-safe subset.
"""

from __future__ import annotations

import math
import typing as _t
from collections import Counter, deque
from dataclasses import dataclass

from repro.control.admission import AdmissionLevel
from repro.obs.recorder import (
    BUFFER_OCCUPANCY,
    R_MAX,
    TOKEN_GRANT,
    RowFamily,
    TraceRecorder,
)

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.control.admission import AdmissionController
    from repro.control.forecast import ForecastController
    from repro.control.plane import ControlPlane
    from repro.systems.substrate import Substrate

_INF = float("inf")
_isfinite = math.isfinite


@dataclass(frozen=True)
class InvariantViolation:
    """One observed violation of a paper-derived invariant."""

    #: Machine-readable invariant name, e.g. ``"r_max_nonnegative"``.
    invariant: str
    #: The paper anchor, e.g. ``"Eq. 7"`` or ``"Section V-D"``.
    equation: str
    #: Virtual time of the offending event (0.0 for end-of-run checks).
    t: float
    pe: _t.Optional[str]
    node: _t.Optional[str]
    #: Human-readable description with the observed vs expected values.
    detail: str

    def as_dict(self) -> _t.Dict[str, object]:
        return {
            "invariant": self.invariant,
            "equation": self.equation,
            "t": self.t,
            "pe": self.pe,
            "node": self.node,
            "detail": self.detail,
        }


def _make_shadow(controller: _t.Any) -> _t.Tuple[_t.Any, ...]:
    """Reference Eq. 7 state for one PE, fed from r_max event payloads.

    A ``(lambdas, mus, b0, capacity, inv_dt, deviations, surpluses)``
    tuple mirroring the real controller's internal histories: deviations
    are rebuilt from each event's measured occupancy, surpluses from the
    controller's *actual* published ``r_max`` — so each event is judged
    on its own step given the state the real controller was in, and one
    wrong step does not cascade into false positives on later steps.
    The law itself is evaluated inline in
    :meth:`OracleRecorder._check_r_max_rows` (the per-row hot path).
    """
    lambdas = tuple(controller.gains.lambdas)
    mus = tuple(controller.gains.mus)
    surplus_len = max(len(mus), 1)
    return (
        lambdas,
        mus,
        float(controller.b0),
        float(controller.capacity),
        1.0 / float(controller.gains.dt),
        deque([0.0] * len(lambdas), maxlen=len(lambdas)),
        deque([0.0] * surplus_len, maxlen=surplus_len),
    )


class OracleRecorder(TraceRecorder):
    """A trace recorder that validates invariants instead of storing.

    Parameters
    ----------
    strict:
        Enable the serialized-execution-only checks (see module docs).
    sink:
        Optional downstream recorder each event is forwarded to after
        checking (so one run can be both checked and recorded).

    Anything beyond payload-level checks needs a plane, bound with
    :meth:`attach` or :meth:`attach_plane` (systems emit a few bootstrap
    events — the initial Tier-1 solve — before their plane exists).
    """

    #: Relative floating-point slack for the arithmetic comparisons.
    TOLERANCE = 1e-9
    #: Detail-retention cap; past it violations are still *counted*
    #: (:attr:`violation_counts`) but their records are dropped.
    MAX_VIOLATIONS = 1000

    def __init__(
        self, strict: bool = True, sink: _t.Optional[TraceRecorder] = None
    ):
        super().__init__()
        self.strict = strict
        self.sink = sink
        self.violations: _t.List[InvariantViolation] = []
        self.violation_counts: Counter = Counter()
        self._plane: _t.Optional["ControlPlane"] = None
        #: The system whose ledger :meth:`finalize` closes (see
        #: :meth:`attach`).
        self._system: _t.Optional["Substrate"] = None
        #: pe_id -> reference Eq. 7 state (see :func:`_make_shadow`).
        self._shadows: _t.Dict[str, _t.Tuple[_t.Any, ...]] = {}
        #: pe_id -> ((node_id, scheduler, node_controller, group_size,
        #: node_index), machine, t0/lambda_m, t1/lambda_m) —
        #: flattened at attach time so the per-row cpu_grant check is a
        #: single dict lookup, with the Eq. 8 g^-1 slope precomputed per
        #: state.
        self._grant_info: _t.Dict[str, _t.Tuple[_t.Any, ...]] = {}
        #: node_id -> [running grant-fraction sum, grants in this round],
        #: mutated in place per grant.
        self._grant_groups: _t.Dict[str, _t.List[float]] = {}
        #: ``t`` of the batch under check; None until something needs it
        #: (see :meth:`_stamp`).
        self._batch_t: _t.Optional[float] = None
        self._paused: _t.Sequence[bool] = ()
        #: The plane's admission front end, when armed.
        self._admission: _t.Optional["AdmissionController"] = None
        #: Rank of the last effective level seen in events.
        self._adm_last_rank = 0
        #: The plane's forecasting tier, when armed.
        self._forecast: _t.Optional["ForecastController"] = None

    # -- wiring --------------------------------------------------------------

    def attach(self, system: "Substrate") -> None:
        """Check ``system``: its plane, as strictly as its substrate
        allows (``strict_oracles``), and its conservation ledger at
        :meth:`finalize`."""
        self.strict = system.strict_oracles
        self._system = system
        self.attach_plane(system.plane)

    def attach_plane(self, plane: "ControlPlane") -> None:
        """Bind the plane whose invariants this oracle checks.

        Builds the reference Eq. 7 shadows from the plane's designed
        gains; call before the run starts so the shadows and the real
        controllers share their all-zero initial histories.  Everything
        else is read from the plane's own live state: its groups,
        schedulers, node controllers, pause flags and targets.
        """
        self._shadows = {
            pe_id: _make_shadow(controller)
            for pe_id, controller in plane.controllers.items()
        }
        self.refresh_plane(plane)
        # Membership changes (the elastic tier) invalidate the node-level
        # views flattened here; re-flatten at each epoch boundary.
        plane.add_rebuild_hook(self.refresh_plane)

        self._admission = plane.admission
        self._adm_last_rank = 0
        self._forecast = plane.forecast

    def refresh_plane(self, plane: "ControlPlane") -> None:
        """Re-flatten the oracle's node-level views after an epoch.

        The Eq. 7 shadows stay as they are: the plane's flow controllers
        live as long as the plane, and so do theirs.  Any partially
        accumulated capacity round is discarded — the epoch replaces
        node controllers mid-round, so the next full round restarts the
        Eq. 4 sum.
        """
        self._plane = plane
        self._grant_groups = {}
        self._paused = plane.paused
        self._grant_info = {}
        for index, (group, scheduler, controller) in enumerate(
            zip(plane.groups, plane.schedulers, plane.node_controllers)
        ):
            # One shared tuple per node, so a batch's rows can tell by
            # identity that the node-level part has not changed.
            per_node = (
                group.node_id, scheduler, controller, len(group.pes), index
            )
            for pe in group.pes:
                # g^-1(rate) = rate / lambda_m * service_time, where the
                # service time is t1 or t0 by the machine's *current*
                # state (see PERuntime.cpu_for_output_rate_now) —
                # precompute both slopes so the per-event check is one
                # mul and a state read.
                profile = pe.profile
                self._grant_info[pe.pe_id] = (
                    per_node,
                    pe.machine,
                    profile.t0 / profile.lambda_m,
                    profile.t1 / profile.lambda_m,
                )

    def bind_clock(self, clock: _t.Callable[[], float]) -> None:
        super().bind_clock(clock)
        if self.sink is not None:
            self.sink.bind_clock(clock)

    # -- violation plumbing --------------------------------------------------

    @property
    def ok(self) -> bool:
        """True while no invariant has been violated."""
        return not self.violation_counts

    def record_violation(
        self,
        invariant: str,
        equation: str,
        detail: str,
        t: float = 0.0,
        pe: _t.Optional[str] = None,
        node: _t.Optional[str] = None,
    ) -> None:
        self._keep(
            InvariantViolation(
                invariant=invariant,
                equation=equation,
                t=t,
                pe=pe,
                node=node,
                detail=detail,
            )
        )

    def _keep(self, violation: InvariantViolation) -> None:
        self.violation_counts[violation.invariant] += 1
        if len(self.violations) < self.MAX_VIOLATIONS:
            self.violations.append(violation)

    def summary(self) -> str:
        if self.ok:
            return "oracles: all invariants held"
        breakdown = " ".join(
            f"{name}={count}"
            for name, count in sorted(self.violation_counts.items())
        )
        return (
            f"oracles: {sum(self.violation_counts.values())} violation(s) "
            f"({breakdown})"
        )

    # -- the checking sink ---------------------------------------------------

    def _stamp(self) -> float:
        """The ``t`` of the batch being checked, read on first need.

        One clock read per batch at most: the happy path of a sinkless
        run never asks.  Call only under the emit lock.
        """
        t = self._batch_t
        if t is None:
            clock = self._clock
            t = self._batch_t = clock() if clock is not None else 0.0
        return t

    def emit_rows(
        self,
        family: RowFamily,
        node: _t.Optional[str],
        rows: _t.Sequence[_t.Sequence[_t.Any]],
    ) -> None:
        """Check one tick's batch in place; build events only for a sink.

        Same counts, violations and forwarded events as the per-event
        calls the rows stand for.
        """
        if not rows:
            return
        with self._emit_lock:
            counts = self.counts
            for kind in family.kinds:
                counts[kind] += len(rows)
            self._batch_t = None
            if family is R_MAX:
                self._check_r_max_rows(rows)
            elif family is BUFFER_OCCUPANCY:
                self._check_occupancy_rows(rows)
            else:
                self._check_grant_rows(node, rows, family is TOKEN_GRANT)
            sink = self.sink
            if sink is not None:
                t = self._stamp()
                for kind, pe, payload in family.expand(rows):
                    sink.forward(
                        {"t": t, "kind": kind, "pe": pe, "node": node,
                         **payload}
                    )

    def _check_occupancy_rows(
        self, rows: _t.Iterable[_t.Sequence[_t.Any]]
    ) -> None:
        """Section IV over ``(pe, occupancy, capacity)`` rows."""
        for pe, occupancy, capacity in rows:
            if not 0 <= occupancy <= capacity:
                self.record_violation(
                    "buffer_bounds", "Section IV",
                    f"occupancy {occupancy} outside [0, {capacity}]",
                    t=self._stamp(), pe=pe,
                )

    def _check_r_max_rows(
        self, rows: _t.Iterable[_t.Sequence[_t.Any]]
    ) -> None:
        """Eq. 7 over ``(pe, r_max, occupancy, rho)`` rows: finite,
        clipped at zero, and equal to the reference LQR law evaluated on
        the row's own measurements."""
        tolerance = self.TOLERANCE
        shadows_get = self._shadows.get
        for pe, r_max, occupancy, rho in rows:
            if not 0.0 <= r_max < _INF:
                if not _isfinite(r_max):
                    self.record_violation(
                        "r_max_finite", "Eq. 7",
                        f"r_max={r_max!r} is not finite",
                        t=self._stamp(), pe=pe,
                    )
                    continue  # skip the law
                self.record_violation(
                    "r_max_nonnegative", "Eq. 7",
                    f"r_max={r_max} < 0 (the [.]+ clip was not applied)",
                    t=self._stamp(), pe=pe,
                )
            shadow = shadows_get(pe)
            if shadow is None:
                continue
            lambdas, mus, b0, capacity, inv_dt, deviations, surpluses \
                = shadow
            deviations.appendleft(occupancy - b0)
            # Designed gains carry one or two lags; unroll those so
            # the per-row law is loop- and allocation-free.
            n = len(lambdas)
            if n == 2:
                reference = (
                    rho
                    - lambdas[0] * deviations[0]
                    - lambdas[1] * deviations[1]
                )
            elif n == 1:
                reference = rho - lambdas[0] * deviations[0]
            else:
                reference = rho
                for i in range(n):
                    reference -= lambdas[i] * deviations[i]
            n = len(mus)
            if n == 1:
                reference -= mus[0] * surpluses[0]
            elif n:
                for i in range(n):
                    reference -= mus[i] * surpluses[i]
            if reference < 0.0:
                reference = 0.0
            free = capacity - occupancy
            ceiling = (free if free > 0.0 else 0.0) * inv_dt + rho
            if reference > ceiling:
                reference = ceiling
            delta = r_max - reference
            # Same arithmetic, same result: exact on a correct step.
            if delta and abs(delta) > (
                tolerance * reference if reference > 1.0 else tolerance
            ):
                self.record_violation(
                    "r_max_law", "Eq. 7",
                    f"r_max={r_max} but the LQR law with the same "
                    f"(occupancy={occupancy}, rho={rho}) and history "
                    f"gives {reference}",
                    t=self._stamp(), pe=pe,
                )
            # Mirror the real controller's post-update surplus
            # history from its *actual* published value.
            surpluses.appendleft(r_max - rho)

    def _check_grant_rows(
        self,
        node: _t.Optional[str],
        rows: _t.Iterable[_t.Sequence[_t.Any]],
        tokens: bool,
    ) -> None:
        """Section V-D / V-E / Eq. 8 / Eq. 4 over one scheduler's rows.

        ``tokens`` rows are ``(pe, level, rate, depth, cpu, dt,
        cap_rate)``, checked bucket first then grant, PE by PE; a lone
        event leaves the other half None.  Otherwise rows are ``(pe,
        cpu, dt)``.  ``cap_rate`` is the Eq. 8 bound the grant was capped
        under (None when downstream left the PE unconstrained).
        """
        tolerance = self.TOLERANCE
        strict = self.strict
        info_get = self._grant_info.get
        # What is per node in _grant_info is read once per run of rows
        # from the same node (one scheduler's batch is a single run).
        current = None
        node_id = scheduler = group = None
        group_size = 0
        paused = False
        blocked: _t.Collection[str] = ()
        level = cap_rate = None
        for row in rows:
            if tokens:
                pe, level, _, depth, grant, _, cap_rate = row
            else:
                pe, grant, _ = row
            # Exact bounds first; the slack only matters at the edges.
            if level is not None and not 0.0 <= level <= depth:
                # Section V-D: token level within [0, depth].
                slack = tolerance * depth if depth > 1.0 else tolerance
                if not -slack <= level <= depth + slack:
                    if level < -slack:
                        self.record_violation(
                            "token_nonnegative", "Section V-D",
                            f"token level {level} < 0",
                            t=self._stamp(), pe=pe, node=node,
                        )
                    else:
                        self.record_violation(
                            "token_cap", "Section V-D",
                            f"token level {level} exceeds bucket depth "
                            f"{depth}",
                            t=self._stamp(), pe=pe, node=node,
                        )
            if grant is None:
                continue
            if not 0.0 <= grant < _INF and (
                grant < -tolerance or not _isfinite(grant)
            ):
                self.record_violation(
                    "cpu_grant_nonnegative", "Section V-D",
                    f"cpu grant {grant!r} is negative or non-finite",
                    t=self._stamp(), pe=pe, node=node,
                )
            info = info_get(pe)
            if info is None:
                continue
            per_node, machine, t0_slope, t1_slope = info
            if per_node is not current:
                current = per_node
                node_id, scheduler, controller, group_size, index = per_node
                paused = strict and self._paused[index]
                blocked = (
                    controller.last_blocked
                    if strict and controller is not None
                    else ()
                )
                group = self._grant_groups.get(node_id)
                if group is None:
                    group = self._grant_groups[node_id] = [0.0, 0]

            if paused:
                self.record_violation(
                    "paused_node_silent", "Section V-E",
                    "a suspended node's controller emitted a CPU grant",
                    t=self._stamp(), pe=pe, node=node_id,
                )
            if grant > tolerance and pe in blocked:
                self.record_violation(
                    "gate_blocked_zero_grant", "Section VI (Lock-Step)",
                    f"gate-blocked PE granted cpu={grant}",
                    t=self._stamp(), pe=pe, node=node_id,
                )

            # Eq. 8: the grant never exceeds g^{-1} of the advertised
            # bound, re-derived through the PE's current-state rate model.
            if cap_rate is not None:
                cap_cpu = scheduler.capacity
                if strict:
                    if cap_rate <= 0.0:
                        derived = 0.0
                    elif machine.state == 1:
                        derived = cap_rate * t1_slope
                    else:
                        derived = cap_rate * t0_slope
                    if derived < cap_cpu:
                        cap_cpu = derived
                if grant > cap_cpu and grant > cap_cpu + (
                    tolerance * cap_cpu if cap_cpu > 1.0 else tolerance
                ):
                    self.record_violation(
                        "feedback_cap", "Eq. 8",
                        f"cpu grant {grant} exceeds the feedback cap "
                        f"g^-1({cap_rate}) = {cap_cpu}",
                        t=self._stamp(), pe=pe, node=node_id,
                    )

            # Eq. 4 / V-D: grants of one allocation round sum to
            # <= capacity.  Rounds are delimited by grant count (one
            # per resident PE per round), which is substrate- and
            # clock-agnostic.
            if group_size > 0:
                group[0] += grant
                group[1] += 1
                if group[1] >= group_size:
                    total = group[0]
                    capacity = scheduler.capacity
                    slack = tolerance * capacity if capacity > 1.0 \
                        else tolerance
                    if total > capacity + slack:
                        self.record_violation(
                            "node_capacity", "Eq. 4",
                            f"granted CPU fractions sum to {total} "
                            f"on a node with capacity {capacity}",
                            t=self._stamp(), node=node_id,
                        )
                    group[0] = 0.0
                    group[1] = 0

    def _write(self, event: _t.Dict[str, _t.Any]) -> None:
        """Check one admitted event, then forward it to the sink.

        The four per-PE kinds go through their row checkers as a one-row
        batch, so each law is written once whichever way it arrives; the
        low-rate kinds are checked inline below.
        """
        kind = event["kind"]
        tolerance = self.TOLERANCE
        self._batch_t = event["t"]

        if kind == "buffer_occupancy":
            self._check_occupancy_rows(
                ((event["pe"], event["occupancy"], event["capacity"]),)
            )

        elif kind == "token_bucket":
            self._check_grant_rows(
                event.get("node"),
                ((event["pe"], event["level"], None, event["depth"],
                  None, None, None),),
                True,
            )

        elif kind == "r_max":
            self._check_r_max_rows(
                ((event["pe"], event["r_max"], event["occupancy"],
                  event["rho"]),)
            )

        elif kind == "cpu_grant":
            self._check_grant_rows(
                event.get("node"),
                ((event["pe"], None, None, None, event["cpu"], None,
                  event.get("cap_rate")),),
                True,
            )

        elif kind == "tier1_resolve":
            # Eq. 4 on the targets in effect whenever Tier 1 (re-)solves.
            self.check_targets(t=event["t"])

        elif kind == "admission_level":
            t = event["t"]
            cause = event["cause"]
            try:
                rank = int(AdmissionLevel[event["level"]])
                prev_rank = int(AdmissionLevel[event["prev"]])
            except KeyError:
                self.record_violation(
                    "admission_level_known", "ladder levels",
                    f"unknown level in {event['prev']!r} -> "
                    f"{event['level']!r}",
                    t=t,
                )
                rank = prev_rank = -1
            is_ladder_move = cause in ("adaptive", "recovery")
            if rank >= 0:
                if cause == "adaptive":
                    # Monotonic-downgrade-only, and never into KILL.
                    if rank <= prev_rank:
                        self.record_violation(
                            "admission_monotonic_downgrade",
                            "ladder monotonicity",
                            f"adaptive move {event['prev']} -> "
                            f"{event['level']} does not increase rank",
                            t=t,
                        )
                    if rank >= int(AdmissionLevel.KILL):
                        self.record_violation(
                            "admission_kill_adaptive", "ladder priority",
                            "KILL entered by an adaptive transition",
                            t=t,
                        )
                elif cause == "recovery":
                    if prev_rank - rank != 1:
                        self.record_violation(
                            "admission_recovery_single_step",
                            "ladder monotonicity",
                            f"recovery {event['prev']} -> {event['level']} "
                            f"is not exactly one rank down",
                            t=t,
                        )
                if cause == "kill" and rank != int(AdmissionLevel.KILL):
                    self.record_violation(
                        "admission_priority", "ladder priority",
                        f"kill switch resolved to {event['level']}, "
                        f"not KILL",
                        t=t,
                    )
                admission = self._admission
                if (
                    self.strict
                    and admission is not None
                    and not event.get("shadowed", False)
                ):
                    # Priority resolver consistency against the live
                    # controller (events are checked synchronously at
                    # emit time under serialized execution).
                    if admission.kill_switch and rank != int(
                        AdmissionLevel.KILL
                    ):
                        self.record_violation(
                            "admission_priority", "ladder priority",
                            f"effective level {event['level']} while the "
                            f"kill switch is engaged",
                            t=t,
                        )
                    elif (
                        not admission.kill_switch
                        and admission.manual_level is not None
                        and rank != int(admission.manual_level)
                    ):
                        self.record_violation(
                            "admission_priority", "ladder priority",
                            f"effective level {event['level']} while "
                            f"manual override pins "
                            f"{admission.manual_level.name}",
                            t=t,
                        )
            if is_ladder_move:
                admission = self._admission
                if admission is not None:
                    config = admission.config
                    # Hysteresis consistency: the claimed pressure must
                    # actually cross the band the transition cites.
                    pressure = event["pressure"]
                    slack = tolerance
                    if cause == "adaptive" and 0 < rank <= int(
                        AdmissionLevel.REJECT
                    ):
                        threshold = config.enter_threshold(
                            AdmissionLevel(rank)
                        )
                        if pressure < threshold - slack:
                            self.record_violation(
                                "admission_hysteresis", "ladder hysteresis",
                                f"adaptive move to {event['level']} at "
                                f"pressure {pressure} below enter "
                                f"threshold {threshold}",
                                t=t,
                            )
                    elif cause == "recovery" and 0 < prev_rank <= int(
                        AdmissionLevel.REJECT
                    ):
                        threshold = config.exit_threshold(
                            AdmissionLevel(prev_rank)
                        )
                        if pressure > threshold + slack:
                            self.record_violation(
                                "admission_hysteresis", "ladder hysteresis",
                                f"recovery from {event['prev']} at "
                                f"pressure {pressure} above exit "
                                f"threshold {threshold}",
                                t=t,
                            )
            if rank >= 0 and not event.get("shadowed", False):
                self._adm_last_rank = rank

        elif kind == "shed":
            # Shedding is only legal at the shedding levels.
            if event["level"] not in ("SHED_LOW", "SHED_HIGH"):
                self.record_violation(
                    "admission_shed_level", "ladder levels",
                    f"shed at level {event['level']}",
                    t=event["t"], pe=event["pe"],
                )

        elif kind == "reject":
            if event["level"] not in ("REJECT", "KILL"):
                self.record_violation(
                    "admission_reject_level", "ladder levels",
                    f"reject at level {event['level']}",
                    t=event["t"], pe=event["pe"],
                )

        elif kind == "forecast":
            # Every forecast tick publishes finite, non-negative signals,
            # and the headroom ratio it acts on is exactly
            # predicted / baseline (the trigger predicate's inputs).
            clean = True
            for name in ("predicted", "observed", "baseline", "ratio"):
                value = event[name]
                if not _isfinite(value) or value < 0:
                    self.record_violation(
                        "forecast_signal_range", "forecast tier",
                        f"{name}={value} is not finite and non-negative",
                        t=event["t"],
                    )
                    clean = False
            if clean and event["baseline"] > 0:
                expected = event["predicted"] / event["baseline"]
                if abs(event["ratio"] - expected) > tolerance * max(
                    1.0, expected
                ):
                    self.record_violation(
                        "forecast_ratio_consistency", "forecast tier",
                        f"ratio {event['ratio']} != predicted/baseline "
                        f"= {expected}",
                        t=event["t"],
                    )

        elif kind == "proactive_trigger":
            # A trigger must cite a ratio at or above the configured
            # headroom.
            forecast = self._forecast
            if forecast is not None:
                headroom = forecast.config.headroom
                if event["ratio"] < headroom - tolerance:
                    self.record_violation(
                        "proactive_headroom", "forecast trigger",
                        f"trigger at ratio {event['ratio']} below "
                        f"headroom {headroom}",
                        t=event["t"],
                    )

        sink = self.sink
        if sink is not None:
            sink.forward(event)

    def close(self) -> None:
        if self.sink is not None:
            self.sink.close()

    def check_targets(self, t: float = 0.0) -> None:
        """Validate the live Tier-1 targets against nominal capacities.

        Targets are the *nominal* budget (a transiently slowed node may
        legitimately be over-budgeted until the next re-solve), so this
        checks against the nominal — not fault-adjusted — capacity.  The
        solver's own constraint tolerance sets the slack.
        """
        plane = self._plane
        if plane is None:
            return
        # Budgets are checked under the placement the targets were
        # *adopted* for: a live migration moves PEs without touching
        # targets, so summing over the post-migration placement would
        # flag a transient that Eq. 4 enforcement (the per-grant check)
        # already covers.  Nodes removed since adoption are skipped.
        node_of = plane.targets_node_of
        nominal = {group.node_id: group.cpu_capacity for group in plane.groups}
        sums = dict.fromkeys(nominal, 0.0)
        for pe_id, cpu in plane.targets.cpu.items():
            if cpu < -1e-9:
                self.record_violation(
                    "target_cpu_nonnegative", "Eq. 4",
                    f"Tier-1 cpu target {cpu} < 0", t=t, pe=pe_id,
                )
            node_id = node_of.get(pe_id)
            if node_id is not None and node_id in sums:
                sums[node_id] += cpu
        for node_id, total in sums.items():
            capacity = nominal[node_id]
            if total > capacity + 1e-4 * max(1.0, capacity):
                self.record_violation(
                    "target_capacity", "Eq. 4",
                    f"Tier-1 cpu targets sum to {total} on a node with "
                    f"nominal capacity {capacity}",
                    t=t, node=node_id,
                )

    def check_spacing(self) -> None:
        """No two actions of one debounced tier closer than its cooldown.

        Judged on the instants each tier acted at — the ladder's
        transitions, every :class:`~repro.control.elastic.ScalingPolicy`
        decision (reactive and proactive: they share one cooldown) and
        the proactive triggers — so the comparison is exact.
        """
        tiers = []
        admission = self._admission
        if admission is not None:
            tiers.append((
                "admission", admission.config.min_dwell,
                admission.ladder.debounce.firings,
            ))
        policy = (
            self._system.scaling_policy if self._system is not None
            else None
        )
        if policy is not None:
            tiers.append((
                "elastic", policy.config.cooldown,
                [decision.t for decision in policy.decisions],
            ))
        forecast = self._forecast
        if forecast is not None:
            tiers.append((
                "forecast", forecast.config.cooldown,
                [trigger.t for trigger in forecast.triggers],
            ))
        for tier, cooldown, instants in tiers:
            for earlier, now in zip(instants, instants[1:]):
                if now - earlier < cooldown:
                    self.record_violation(
                        "debounce_spacing", f"{tier} cooldown",
                        f"{tier} acted at {earlier!r} and {now!r}, "
                        f"closer than its cooldown {cooldown!r}",
                        t=now,
                    )

    def finalize(self) -> _t.List[InvariantViolation]:
        """End-of-run checks, the attached system's ledger among them;
        returns the accumulated violation list."""
        self.check_targets()
        self.check_spacing()
        if self._system is not None:
            for violation in self._system.check_conservation():
                self._keep(violation)
        return self.violations

    def __repr__(self) -> str:
        return (
            f"OracleRecorder(strict={self.strict}, "
            f"violations={sum(self.violation_counts.values())})"
        )
