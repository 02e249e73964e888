"""Fault and disturbance injection, one injector for both substrates.

The paper evaluates robustness to *allocation errors*
(:func:`repro.core.targets.perturb_targets`); this module adds the
disturbances an operator of an extreme-scale system actually sees, so
the controller's self-stabilization claim can be exercised end to end.
Each :class:`FaultPlan` builder documents its kind:

* data plane — ``node_slowdown``, ``pe_stall``, ``source_surge`` and
  ``pe_crash`` (the PE also loses its input buffer);
* control plane — ``feedback_loss``, ``feedback_delay``,
  ``tier1_outage`` and ``controller_outage``;
* membership — ``node_join`` and ``node_leave``, on any system with
  per-node control loops (not one built with ``control_phase_buckets``).

Build a :class:`FaultPlan`, then ``plan.attach(system)`` *before*
running, on either substrate: each fault is a process of the system's
``env`` (the simulator's kernel, or the threaded runtime's
:class:`~repro.runtime.env.ThreadEnv`) that applies it and reverts it
through the plane, ``ResilientTier1``, the elastic driver and the
sources.  Only ``pe_crash`` asks the substrate (``crash_pe``): the
simulator flushes the PE's buffer, the runtime kills its worker thread
and lets the supervisor revive it; both then hold the PE's gate shut
for the window.

Overlapping faults contending for the same underlying state (two
slowdowns of one node, a stall and a crash of one PE, ...) would revert
to intermediate captured values, so they are rejected at attach time
with a clear error; faults on *different* resources compose freely.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field

from repro.core.resilience import LossyFeedbackBus

Revert = _t.Callable[[], None]


@dataclass(frozen=True)
class Fault:
    """One scheduled disturbance."""

    kind: str
    target: str
    start: float
    duration: float
    magnitude: float
    #: Kind-specific second parameter (feedback_delay: uniform jitter).
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("fault start must be >= 0")
        if self.duration <= 0:
            raise ValueError("fault duration must be positive")
        if self.magnitude < 0:
            raise ValueError("fault magnitude must be >= 0")
        if self.jitter < 0:
            raise ValueError("fault jitter must be >= 0")

    @property
    def end(self) -> float:
        return self.start + self.duration


def _check_magnitude(kind: str, magnitude: float) -> None:
    """Kind-specific magnitude validation, shared by the FaultPlan
    builders (fail early) and FaultInjector._validate (so directly
    constructed Faults cannot bypass the checks)."""
    if kind == "node_slowdown" and not 0.0 <= magnitude <= 1.0:
        raise ValueError(
            f"slowdown factor must lie in [0, 1], got {magnitude}"
        )
    if kind == "source_surge" and magnitude <= 0:
        raise ValueError(f"surge factor must be positive, got {magnitude}")
    if kind == "feedback_loss" and not 0.0 <= magnitude <= 1.0:
        raise ValueError(
            f"loss probability must lie in [0, 1], got {magnitude}"
        )
    if kind == "feedback_delay" and magnitude < 1.0:
        raise ValueError(
            f"delay multiplier must be >= 1, got {magnitude}"
        )
    if kind == "node_join" and magnitude <= 0:
        raise ValueError(
            f"joined-node cpu capacity must be positive, got {magnitude}"
        )


#: kind -> the piece of system state a fault captures and restores.  Two
#: faults on one resource would restore stale intermediate state if
#: their windows overlapped, so overlaps are rejected per resource.
_RESOURCES = {
    "node_slowdown": "node_capacity",
    "pe_stall": "pe_gate",
    "pe_crash": "pe_gate",
    "source_surge": "source_rate",
    "feedback_loss": "feedback_bus",
    "feedback_delay": "feedback_bus",
    "tier1_outage": "tier1",
    "controller_outage": "controller_ticks",
    # Membership mutations share the whole node list: two overlapping
    # joins/leaves would revert against a shifted topology.
    "node_join": "membership",
    "node_leave": "membership",
}

#: Resources with one instance per system, whatever the target.
_SHARED = frozenset({"feedback_bus", "tier1", "membership"})


def _reject_overlaps(faults: _t.Sequence[Fault]) -> None:
    by_key: _t.Dict[_t.Tuple[str, str], _t.List[Fault]] = {}
    for fault in faults:
        resource = _RESOURCES[fault.kind]
        target = "*" if resource in _SHARED else fault.target
        by_key.setdefault((resource, target), []).append(fault)
    for key, group in by_key.items():
        group = sorted(group, key=lambda f: f.start)
        for earlier, later in zip(group, group[1:]):
            if later.start < earlier.end:
                raise ValueError(
                    f"overlapping faults on {key[0]} {key[1]!r}: "
                    f"{earlier.kind} [{earlier.start}, {earlier.end}) and "
                    f"{later.kind} [{later.start}, {later.end}) — "
                    "reverts would restore intermediate state; "
                    "stagger the windows or target different resources"
                )


def _closed_gate(pe: object) -> bool:
    return False


def _solver_outage() -> None:
    raise RuntimeError("injected tier1 solver outage")


@dataclass
class FaultPlan:
    """A collection of faults to inject into one run."""

    faults: _t.List[Fault] = field(default_factory=list)

    # -- data-plane faults ------------------------------------------------

    def node_slowdown(
        self, node_index: int, factor: float, start: float, duration: float
    ) -> "FaultPlan":
        """Scale a node's CPU capacity by ``factor`` during the window."""
        _check_magnitude("node_slowdown", factor)
        self.faults.append(
            Fault("node_slowdown", str(node_index), start, duration, factor)
        )
        return self

    def pe_stall(
        self, pe_id: str, start: float, duration: float
    ) -> "FaultPlan":
        """Freeze one PE's processing during the window."""
        self.faults.append(Fault("pe_stall", pe_id, start, duration, 0.0))
        return self

    def source_surge(
        self, ingress_pe_id: str, factor: float, start: float, duration: float
    ) -> "FaultPlan":
        """Multiply one source's arrival rate by ``factor`` in the window."""
        _check_magnitude("source_surge", factor)
        self.faults.append(
            Fault("source_surge", ingress_pe_id, start, duration, factor)
        )
        return self

    def pe_crash(
        self, pe_id: str, start: float, duration: float
    ) -> "FaultPlan":
        """Crash a PE: its input buffer is lost and it processes nothing
        until the window ends."""
        self.faults.append(Fault("pe_crash", pe_id, start, duration, 0.0))
        return self

    # -- control-plane faults ---------------------------------------------

    def feedback_loss(
        self, probability: float, start: float, duration: float
    ) -> "FaultPlan":
        """Drop each r_max publication with ``probability`` in the window."""
        _check_magnitude("feedback_loss", probability)
        self.faults.append(
            Fault("feedback_loss", "*", start, duration, probability)
        )
        return self

    def feedback_delay(
        self,
        multiplier: float,
        start: float,
        duration: float,
        jitter: float = 0.0,
    ) -> "FaultPlan":
        """Stretch feedback propagation delay by ``multiplier`` (+ uniform
        ``jitter`` extra seconds per message) in the window."""
        _check_magnitude("feedback_delay", multiplier)
        self.faults.append(
            Fault(
                "feedback_delay", "*", start, duration, multiplier,
                jitter=jitter,
            )
        )
        return self

    def tier1_outage(self, start: float, duration: float) -> "FaultPlan":
        """Make every Tier-1 (re-)solve fail during the window."""
        self.faults.append(Fault("tier1_outage", "*", start, duration, 0.0))
        return self

    def controller_outage(
        self, node_index: int, start: float, duration: float
    ) -> "FaultPlan":
        """Suspend one node's control ticks during the window."""
        self.faults.append(
            Fault("controller_outage", str(node_index), start, duration, 0.0)
        )
        return self

    # -- membership faults (per-node control loops only) --------------------

    def node_join(
        self, start: float, duration: float, cpu_capacity: float = 1.0
    ) -> "FaultPlan":
        """Join a fresh node for the window; it is evacuated and removed
        again at the end (capacity churn the scaler must ride out)."""
        _check_magnitude("node_join", cpu_capacity)
        self.faults.append(
            Fault("node_join", "*", start, duration, cpu_capacity)
        )
        return self

    def node_leave(
        self, node_index: int, start: float, duration: float
    ) -> "FaultPlan":
        """Evacuate and remove one node at ``start`` (its PEs live-migrate
        to the survivors); a same-capacity replacement joins at the end."""
        self.faults.append(
            Fault("node_leave", str(node_index), start, duration, 0.0)
        )
        return self

    def attach(self, system: _t.Any) -> "FaultInjector":
        """Bind this plan to a built (but not yet run) system: a
        ``SimulatedSystem`` or an ``SPCRuntime``."""
        return FaultInjector(system, list(self.faults))


class FaultInjector:
    """Executes a fault plan as processes of a system's ``env``.

    Every fault starts ``start`` model seconds after the process does
    (at attach time, or when a threaded runtime starts running) and is
    reverted ``duration`` later.  Each application and revert runs
    under the system's ``membership_lock``, so on the threaded runtime
    it never interleaves with the elastic tier's membership changes.
    """

    def __init__(self, system: _t.Any, faults: _t.Sequence[Fault]):
        self.system = system
        self.faults = list(faults)
        self.applied: _t.List[_t.Tuple[float, Fault, str]] = []
        #: Every PE by id: the PE set is fixed for the life of a system.
        self._pes = {
            pe.pe_id: pe for group in system.plane.groups for pe in group.pes
        }
        for fault in self.faults:
            self._validate(fault)
        _reject_overlaps(self.faults)
        for fault in self.faults:
            system.env.process(self._run(fault))

    def _validate(self, fault: Fault) -> None:
        kind = fault.kind
        if kind not in _RESOURCES:
            raise ValueError(f"unknown fault kind {kind!r}")
        _check_magnitude(kind, fault.magnitude)
        if kind in ("node_join", "node_leave"):
            self.system.require_node_tickers(kind)
        if kind in ("node_slowdown", "controller_outage", "node_leave"):
            index = int(fault.target)
            if not 0 <= index < len(self.system.plane.groups):
                raise ValueError(f"no node {index}")
        elif kind in ("pe_stall", "pe_crash") and fault.target not in self._pes:
            raise ValueError(f"no PE {fault.target!r}")
        elif kind == "source_surge" and self._source(fault.target) is None:
            raise ValueError(f"no source feeding {fault.target!r}")

    def _source(self, ingress_pe_id: str) -> _t.Any:
        stream_id = f"src:{ingress_pe_id}"
        return next(
            (s for s in self.system.sources if s.stream_id == stream_id),
            None,
        )

    def _run(self, fault: Fault) -> _t.Generator:
        env = self.system.env
        if fault.start > 0:
            yield env.timeout(fault.start)
        with self.system.membership_lock:
            revert = getattr(self, f"_apply_{fault.kind}")(fault)
        self._log(fault, "applied")
        yield env.timeout(fault.duration)
        with self.system.membership_lock:
            revert()
        self._log(fault, "reverted")

    def _log(self, fault: Fault, phase: str) -> None:
        self.applied.append((self.system.env.now, fault, phase))
        recorder = self.system.recorder
        if recorder.enabled:
            recorder.emit(
                "fault",
                fault_kind=fault.kind,
                target=fault.target,
                phase=phase,
                magnitude=fault.magnitude,
            )

    # -- fault application ---------------------------------------------------

    def _apply_node_slowdown(self, fault: Fault) -> Revert:
        index = int(fault.target)
        plane = self.system.plane
        if index >= len(plane.groups):
            # The elastic tier shrank the cluster below the planned
            # index between attach and apply; nothing to slow down.
            return lambda: None
        # Only the live scheduler capacity drops: the group's nominal
        # cpu_capacity is what Tier-1, the oracles and a node_leave
        # replacement read, and it does not move.
        node_id = plane.groups[index].node_id
        scheduler = plane.schedulers[index]
        original = scheduler.capacity
        scheduler.capacity = original * fault.magnitude

        def revert() -> None:
            # A membership rebuild during the window replaces scheduler
            # objects (the slowed capacity is carried across by node_id)
            # and may shift node indices, so re-resolve the live
            # scheduler by node identity; a node that left mid-window
            # has nothing left to revert.
            idx = plane.node_index(node_id)
            if idx is not None:
                plane.schedulers[idx].capacity = original

        return revert

    def _apply_pe_stall(self, fault: Fault) -> Revert:
        # Through the plane: the simulator's controller and the threaded
        # worker both read the gate it installs.
        plane = self.system.plane
        pe = self._pes[fault.target]
        previous = plane.gates[fault.target]
        plane.set_gate(fault.target, _closed_gate)

        def revert() -> None:
            plane.set_gate(fault.target, previous)
            pe.blocked_last_interval = False

        return revert

    def _apply_pe_crash(self, fault: Fault) -> Revert:
        self.system.crash_pe(fault.target)
        return self._apply_pe_stall(fault)

    def _apply_source_surge(self, fault: Fault) -> Revert:
        source = self._source(fault.target)
        # Bursty sources (on/off, square waves) generate at a peak rate,
        # every other kind at a base rate: surge whichever it reads.
        attr = "peak_rate" if hasattr(source, "peak_rate") else "rate"
        original = getattr(source, attr)
        setattr(source, attr, original * fault.magnitude)
        return lambda: setattr(source, attr, original)

    def _apply_feedback_loss(self, fault: Fault) -> Revert:
        """Wrap the plane's feedback bus in a lossy (or, for
        ``feedback_delay``, congested) one."""
        plane = self.system.plane
        rng = self.system.streams.stream("fault:feedback")
        if fault.kind == "feedback_loss":
            wrapper = LossyFeedbackBus(
                plane.bus, rng, loss_probability=fault.magnitude
            )
        else:
            wrapper = LossyFeedbackBus(
                plane.bus,
                rng,
                delay_multiplier=fault.magnitude,
                jitter=fault.jitter,
            )
        plane.bus = wrapper
        return lambda: setattr(plane, "bus", wrapper.inner)

    _apply_feedback_delay = _apply_feedback_loss

    def _apply_tier1_outage(self, fault: Fault) -> Revert:
        tier1 = self.system.tier1
        tier1.inject_failure = _solver_outage
        return lambda: setattr(tier1, "inject_failure", None)

    def _apply_controller_outage(self, fault: Fault) -> Revert:
        index = int(fault.target)
        plane = self.system.plane
        if index >= len(plane.groups):
            # Membership churn removed the planned node before the
            # window opened; there is no controller to suspend.
            return lambda: None
        node_id = plane.groups[index].node_id
        plane.suspend_node(index)

        def revert() -> None:
            # Pause flags are carried by node_id across membership
            # rebuilds, but resume_node takes an index — re-resolve it.
            idx = plane.node_index(node_id)
            if idx is not None:
                plane.resume_node(idx)

        return revert

    def _apply_node_join(self, fault: Fault) -> Revert:
        system = self.system
        node_id = system.add_node(cpu_capacity=fault.magnitude)

        def revert() -> None:
            # Evacuate whatever the scaler placed on the guest node and
            # remove it; a no-op when the elastic tier already did.
            idx = system.plane.node_index(node_id)
            if idx is not None:
                system.elastic.evacuate_and_remove(idx, "fault_node_join")

        return revert

    def _apply_node_leave(self, fault: Fault) -> Revert:
        system = self.system
        index = int(fault.target)
        groups = system.plane.groups
        if not 0 <= index < len(groups):
            # The elastic tier shrank below the planned index; nothing
            # to take away.
            return lambda: None
        capacity = groups[index].cpu_capacity
        left = system.elastic.evacuate_and_remove(index, "fault_node_leave")

        def revert() -> None:
            if left:
                system.add_node(cpu_capacity=capacity)

        return revert
