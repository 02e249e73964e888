"""Fault and disturbance injection for simulated and threaded systems.

The paper evaluates robustness to *allocation errors*
(:func:`repro.core.targets.perturb_targets`); this module extends the
reproduction with the runtime disturbances an operator of an extreme-scale
system actually sees, so the controller's self-stabilization claim can be
exercised end to end.

Data-plane faults (the workload/hardware misbehaving):

* :meth:`FaultPlan.node_slowdown` — a node loses a fraction of its CPU for
  a while (co-tenant interference, thermal throttling);
* :meth:`FaultPlan.pe_stall` — one PE stops processing entirely for a
  while (GC pause, crash-restart);
* :meth:`FaultPlan.source_surge` — an input stream's rate multiplies for a
  while (flash crowd).

Control-plane faults (the *controller itself* misbehaving):

* :meth:`FaultPlan.feedback_loss` — each r_max publication is dropped
  with a probability (lossy control network);
* :meth:`FaultPlan.feedback_delay` — propagation delay of surviving
  publications is multiplied, plus optional uniform jitter (congested
  control network);
* :meth:`FaultPlan.tier1_outage` — every Tier-1 re-solve during the
  window raises (optimizer service down);
* :meth:`FaultPlan.controller_outage` — one node's control loop misses
  all its ticks during the window (controller process hang);
* :meth:`FaultPlan.pe_crash` — a PE crashes, *losing its input buffer*,
  and restarts after the window.

Membership faults (the cluster itself churning; any system with
per-node control loops, which follow nodes by identity across epoch
rebuilds — not one built with ``control_phase_buckets``):

* :meth:`FaultPlan.node_join` — a node joins at ``start`` and is
  evacuated and removed again when the window ends;
* :meth:`FaultPlan.node_leave` — a node is evacuated (its PEs live-
  migrate to the survivors) and removed at ``start``; a fresh
  replacement node of the same capacity joins when the window ends.

Build a :class:`FaultPlan`, then ``plan.attach(system)`` *before* running;
each fault is applied and reverted by simulation processes.  For the
threaded runtime use ``plan.attach_runtime(runtime)``, which schedules
the supported kinds on a wall-clock timer thread (worker crashes there
are healed by the runtime's supervisor, see :mod:`repro.runtime.spc`).

Overlapping faults contending for the same underlying state (two
slowdowns of one node, a stall and a crash of one PE, ...) would revert
to intermediate captured values, so they are rejected at attach time
with a clear error; faults on *different* resources compose freely.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field

from repro.core.resilience import LossyFeedbackBus
from repro.systems.simulated import SimulatedSystem

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.spc import SPCRuntime

#: Fault kinds the threaded runtime's injector can apply.
RUNTIME_KINDS = frozenset(
    {"pe_stall", "pe_crash", "feedback_loss", "feedback_delay"}
)


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


def _apply_feedback_fault(
    system: _t.Any, fault: Fault
) -> _t.Callable[[], None]:
    """Wrap the plane's feedback bus in a lossy/congested one (either
    substrate: both expose ``plane`` and ``streams``); returns the revert."""
    plane = system.plane
    rng = system.streams.stream("fault:feedback")
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

    def revert() -> None:
        plane.bus = wrapper.inner

    return revert


def _closed_gate(pe: object) -> bool:
    return False


def _close_gate(plane: _t.Any, pe_id: str) -> _t.Callable[[], None]:
    """Close one PE's gate through the plane (either substrate: the
    simulator's controller and the threaded worker both read it);
    returns the revert, which restores the previous gate."""
    previous = plane.gates[pe_id]
    plane.set_gate(pe_id, _closed_gate)

    def revert() -> None:
        plane.set_gate(pe_id, previous)

    return revert


def _resource_key(fault: Fault) -> _t.Tuple[str, str]:
    """The piece of system state a fault captures and restores.

    Two faults with the same key would restore stale intermediate state
    if their windows overlapped, so overlaps are rejected per key.
    """
    if fault.kind == "node_slowdown":
        return ("node_capacity", fault.target)
    if fault.kind in ("pe_stall", "pe_crash"):
        return ("pe_gate", fault.target)
    if fault.kind == "source_surge":
        return ("source_rate", fault.target)
    if fault.kind in ("feedback_loss", "feedback_delay"):
        return ("feedback_bus", "*")
    if fault.kind == "tier1_outage":
        return ("tier1", "*")
    if fault.kind == "controller_outage":
        return ("controller_ticks", fault.target)
    if fault.kind in ("node_join", "node_leave"):
        # Membership mutations share the whole node list: two overlapping
        # joins/leaves would revert against a shifted topology.
        return ("membership", "*")
    return (fault.kind, fault.target)


def _reject_overlaps(faults: _t.Sequence[Fault]) -> None:
    by_key: _t.Dict[_t.Tuple[str, str], _t.List[Fault]] = {}
    for fault in faults:
        by_key.setdefault(_resource_key(fault), []).append(fault)
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

    def pe_crash(
        self, pe_id: str, start: float, duration: float
    ) -> "FaultPlan":
        """Crash a PE: its input buffer is lost, it restarts after the
        window (simulator) or when the supervisor revives it (runtime)."""
        self.faults.append(Fault("pe_crash", pe_id, start, duration, 0.0))
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

    # -- attachment -------------------------------------------------------

    def attach(self, system: SimulatedSystem) -> "FaultInjector":
        """Bind this plan to a built (but not yet run) system."""
        return FaultInjector(system, list(self.faults))

    def attach_runtime(self, runtime: "SPCRuntime") -> "RuntimeFaultInjector":
        """Bind the runtime-supported subset of this plan to a threaded
        runtime (see :data:`RUNTIME_KINDS`)."""
        return RuntimeFaultInjector(runtime, list(self.faults))


class FaultInjector:
    """Executes a fault plan inside a system's simulation environment."""

    def __init__(self, system: SimulatedSystem, faults: _t.Sequence[Fault]):
        self.system = system
        self.faults = list(faults)
        self.applied: _t.List[_t.Tuple[float, Fault, str]] = []
        _reject_overlaps(self.faults)
        for fault in self.faults:
            self._validate(fault)
            system.env.process(self._run(fault))

    def _validate(self, fault: Fault) -> None:
        _check_magnitude(fault.kind, fault.magnitude)
        if fault.kind in ("node_slowdown", "controller_outage"):
            index = int(fault.target)
            if not 0 <= index < len(self.system.nodes):
                raise ValueError(f"no node {index}")
        elif fault.kind in ("pe_stall", "pe_crash"):
            if fault.target not in self.system.runtimes:
                raise ValueError(f"no PE {fault.target!r}")
        elif fault.kind == "source_surge":
            if not any(
                source.stream_id == f"src:{fault.target}"
                for source in self.system.sources
            ):
                raise ValueError(f"no source feeding {fault.target!r}")
        elif fault.kind in (
            "feedback_loss", "feedback_delay", "tier1_outage"
        ):
            pass  # bus-wide / solver-wide: no target to resolve
        elif fault.kind in ("node_join", "node_leave"):
            self.system.require_node_tickers(fault.kind)
            if fault.kind == "node_leave":
                index = int(fault.target)
                if not 0 <= index < len(self.system.nodes):
                    raise ValueError(f"no node {index}")
        else:
            raise ValueError(f"unknown fault kind {fault.kind!r}")

    def _run(self, fault: Fault) -> _t.Generator:
        env = self.system.env
        recorder = self.system.recorder
        if fault.start > 0:
            yield env.timeout(fault.start)
        revert = self._apply(fault)
        self.applied.append((env.now, fault, "applied"))
        if recorder.enabled:
            recorder.emit(
                "fault",
                fault_kind=fault.kind,
                target=fault.target,
                phase="applied",
                magnitude=fault.magnitude,
            )
        yield env.timeout(fault.duration)
        revert()
        self.applied.append((env.now, fault, "reverted"))
        if recorder.enabled:
            recorder.emit(
                "fault",
                fault_kind=fault.kind,
                target=fault.target,
                phase="reverted",
                magnitude=fault.magnitude,
            )

    # -- fault application ---------------------------------------------------

    def _apply(self, fault: Fault) -> _t.Callable[[], None]:
        return {
            "node_slowdown": self._apply_node_slowdown,
            "pe_stall": self._apply_pe_stall,
            "source_surge": self._apply_source_surge,
            "feedback_loss": self._apply_feedback_fault,
            "feedback_delay": self._apply_feedback_fault,
            "tier1_outage": self._apply_tier1_outage,
            "controller_outage": self._apply_controller_outage,
            "pe_crash": self._apply_pe_crash,
            "node_join": self._apply_node_join,
            "node_leave": self._apply_node_leave,
        }[fault.kind](fault)

    def _apply_node_slowdown(self, fault: Fault) -> _t.Callable[[], None]:
        index = int(fault.target)
        system = self.system
        if index >= len(system.nodes):
            # The elastic tier shrank the cluster below the planned
            # index between attach and apply; nothing to slow down.
            return lambda: None
        # Only the live scheduler capacity drops: the group's nominal
        # cpu_capacity is what Tier-1, the oracles and a node_leave
        # replacement read, and it does not move.
        node_id = system.nodes[index].node_id
        scheduler = system.plane.schedulers[index]
        original_scheduler = scheduler.capacity
        scheduler.capacity = original_scheduler * fault.magnitude

        def revert() -> None:
            # A membership rebuild during the window replaces scheduler
            # objects (the slowed capacity is carried across by node_id)
            # and may shift node indices, so re-resolve the live
            # scheduler by node identity; a node that left mid-window
            # has nothing left to revert.
            idx = system.plane.node_index(node_id)
            if idx is not None:
                system.plane.schedulers[idx].capacity = original_scheduler

        return revert

    def _apply_pe_stall(self, fault: Fault) -> _t.Callable[[], None]:
        runtime = self.system.runtimes[fault.target]
        reopen = _close_gate(self.system.plane, fault.target)

        def revert() -> None:
            reopen()
            runtime.blocked_last_interval = False

        return revert

    def _apply_source_surge(self, fault: Fault) -> _t.Callable[[], None]:
        stream_id = f"src:{fault.target}"
        source = next(
            s for s in self.system.sources if s.stream_id == stream_id
        )
        # Bursty sources (on/off, square waves) generate at a peak rate,
        # every other kind at a base rate: surge whichever it reads.
        attr = "peak_rate" if hasattr(source, "peak_rate") else "rate"
        original = getattr(source, attr)
        setattr(source, attr, original * fault.magnitude)

        def revert() -> None:
            setattr(source, attr, original)

        return revert

    def _apply_feedback_fault(self, fault: Fault) -> _t.Callable[[], None]:
        return _apply_feedback_fault(self.system, fault)

    def _apply_tier1_outage(self, fault: Fault) -> _t.Callable[[], None]:
        tier1 = self.system.tier1

        def outage() -> None:
            raise RuntimeError("injected tier1 solver outage")

        tier1.inject_failure = outage

        def revert() -> None:
            tier1.inject_failure = None

        return revert

    def _apply_controller_outage(self, fault: Fault) -> _t.Callable[[], None]:
        index = int(fault.target)
        system = self.system
        if index >= len(system.plane.groups):
            # Membership churn removed the planned node before the
            # window opened; there is no controller to suspend.
            return lambda: None
        node_id = system.plane.groups[index].node_id
        system.plane.suspend_node(index)

        def revert() -> None:
            # Pause flags are carried by node_id across membership
            # rebuilds, but resume_node takes an index — re-resolve it.
            idx = system.plane.node_index(node_id)
            if idx is not None:
                system.plane.resume_node(idx)

        return revert

    def _apply_pe_crash(self, fault: Fault) -> _t.Callable[[], None]:
        system = self.system
        runtime = system.runtimes[fault.target]
        runtime.buffer.flush(system.env.now, cause="pe_crash")
        reopen = _close_gate(system.plane, fault.target)

        def revert() -> None:
            reopen()
            runtime.blocked_last_interval = False

        return revert

    def _apply_node_join(self, fault: Fault) -> _t.Callable[[], None]:
        system = self.system
        node_id = system.add_node(cpu_capacity=fault.magnitude)

        def revert() -> None:
            # Evacuate whatever the scaler placed on the guest node and
            # remove it; a no-op when the elastic tier already did.
            idx = system.plane.node_index(node_id)
            if idx is not None:
                system.elastic.evacuate_and_remove(idx, "fault_node_join")

        return revert

    def _apply_node_leave(self, fault: Fault) -> _t.Callable[[], None]:
        system = self.system
        index = int(fault.target)
        if not 0 <= index < len(system.nodes):
            # The elastic tier shrank below the planned index; nothing
            # to take away.
            return lambda: None
        capacity = system.nodes[index].cpu_capacity
        left = system.elastic.evacuate_and_remove(index, "fault_node_leave")

        def revert() -> None:
            if left:
                system.add_node(cpu_capacity=capacity)

        return revert


class RuntimeFaultInjector:
    """Applies the runtime-supported fault kinds to a threaded
    :class:`~repro.runtime.spc.SPCRuntime` on a wall-clock schedule.

    Start/duration are in *model* seconds (scaled by the runtime's
    dilation); the injector runs one daemon thread that sleeps between
    transitions.  ``pe_crash`` kills the worker thread (its channel is
    lost) and leaves revival to the runtime's supervisor — the fault
    window only scopes how long the injector reports the fault active.
    ``pe_stall`` closes the PE's gate in the plane's registry, which the
    worker checks before each ``get``, and reopens it at the end.
    """

    def __init__(self, runtime: "SPCRuntime", faults: _t.Sequence[Fault]):
        import threading

        supported = [f for f in faults if f.kind in RUNTIME_KINDS]
        unsupported = [f for f in faults if f.kind not in RUNTIME_KINDS]
        if unsupported:
            raise ValueError(
                "threaded runtime supports fault kinds "
                f"{sorted(RUNTIME_KINDS)}; got "
                f"{sorted({f.kind for f in unsupported})}"
            )
        _reject_overlaps(supported)
        for fault in supported:
            _check_magnitude(fault.kind, fault.magnitude)
            if (
                fault.kind in ("pe_stall", "pe_crash")
                and fault.target not in runtime.pes
            ):
                raise ValueError(f"no PE {fault.target!r}")
        self.runtime = runtime
        self.faults = sorted(supported, key=lambda f: f.start)
        self.applied: _t.List[_t.Tuple[float, Fault, str]] = []
        self._threads = [
            threading.Thread(
                target=self._run, args=(fault,), daemon=True,
                name=f"fault-{fault.kind}",
            )
            for fault in self.faults
        ]

    def start(self) -> None:
        """Arm the plan (call right after ``runtime.run`` starts, or
        before — threads sleep until each fault's start time)."""
        for thread in self._threads:
            thread.start()

    def _run(self, fault: Fault) -> None:
        import time

        runtime = self.runtime
        dilation = runtime.config.dilation
        time.sleep(fault.start * dilation)
        revert = self._apply(fault)
        self.applied.append((runtime.now(), fault, "applied"))
        time.sleep(fault.duration * dilation)
        revert()
        self.applied.append((runtime.now(), fault, "reverted"))

    def _apply(self, fault: Fault) -> _t.Callable[[], None]:
        if fault.kind == "pe_crash":
            self.runtime.pes[fault.target].kill()
            return lambda: None
        if fault.kind == "pe_stall":
            return _close_gate(self.runtime.plane, fault.target)
        return _apply_feedback_fault(self.runtime, fault)
