"""The control plane: policy hooks -> per-node controllers, shared state.

:class:`ControlPlane` is the one place a :class:`~repro.core.policies.
Policy`'s behavioural factories (scheduler, flow-controller gains, gate,
admission filter, feedback aggregation) are resolved into runnable
control state.  It owns everything the Tier-2 loops share:

* the :class:`~repro.core.feedback.FeedbackBus` (swappable at runtime,
  which is how fault injection models lossy/congested control networks);
* the :class:`~repro.core.resilience.ResilientTier1` degradation guard
  and the target-adoption path used by periodic re-optimization;
* the authoritative gate and admission-filter registries, with the
  single dynamic-replacement entry point (:meth:`set_gate`);
* the per-node pause flags behind controller-outage injection
  (:meth:`suspend_node` / :meth:`resume_node`).

Feedback aggregation (Eq. 8 max-flow vs the min-flow ablation) is
resolved here exactly once — substrates must not re-derive it.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field

from repro.control.adapter import GateFn, PELike, SystemAdapter
from repro.control.admission import AdmissionController
from repro.control.forecast import ForecastController
from repro.control.node import ControlRecord, NodeController
from repro.control.vector import (
    PEIndexRegistry,
    VectorEngine,
    VectorFlowView,
    VectorNodeController,
    fallback_reason,
)
from repro.core.cpu_control import AcesCpuScheduler
from repro.core.feedback import FeedbackBus
from repro.core.flow_control import FlowController
from repro.core.resilience import ResilientTier1, Tier1Unavailable
from repro.core.targets import AllocationTargets
from repro.obs.recorder import NULL_RECORDER, TraceRecorder

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.global_opt import GlobalOptimizationResult
    from repro.core.policies import Policy
    from repro.graph.dag import ProcessingGraph
    from repro.graph.placement import Placement
    from repro.obs.gauges import GaugeRegistry

#: Admission filter: admit(pe, sdo) -> bool, or None for admit-everything.
AdmissionFn = _t.Optional[_t.Callable[[PELike, object], bool]]


@dataclass(frozen=True)
class PlaneInspection:
    """Narrow read-only view of a control plane for invariant oracles.

    :mod:`repro.check` validates paper invariants *online* against trace
    events; doing so needs a handful of live references that are
    otherwise scattered across plane internals.  This is the one
    sanctioned inspection surface — oracles must not reach into other
    plane state, so the checked surface stays an explicit contract.

    All mappings are built once at :meth:`ControlPlane.inspection` time
    but reference *live* objects: scheduler capacities reflect injected
    node slowdowns, ``paused`` is the plane's own mutable list, and
    ``controllers`` are the real flow controllers.
    """

    #: pe_id -> PE runtime (for rate-model state the Eq. 8 check needs).
    pes: _t.Mapping[str, PELike]
    #: pe_id -> node_id of the node the PE is placed on.
    node_of: _t.Mapping[str, str]
    #: node_id -> live scheduler (``.capacity`` tracks fault injection).
    schedulers: _t.Mapping[str, _t.Any]
    #: node_id -> nominal CPU capacity (what Tier-1 budgets against).
    nominal_capacity: _t.Mapping[str, float]
    #: node_id -> number of resident PEs (one cpu_grant event each).
    group_sizes: _t.Mapping[str, int]
    #: node_id -> node index (``paused`` is indexed by this).
    node_index: _t.Mapping[str, int]
    #: pe_id -> flow controller (feedback policies only); a
    #: FlowController, or a VectorFlowView under control_impl=vector.
    controllers: _t.Mapping[str, _t.Any]
    #: node_id -> node controller (``last_blocked`` gate decisions).
    node_controllers: _t.Mapping[str, _t.Any]
    #: The plane's live per-node pause flags (not a copy).
    paused: _t.Sequence[bool]
    #: The plane itself, for targets/policy metadata reads.
    plane: "ControlPlane"
    #: The admission front end, when armed (None otherwise).
    admission: _t.Optional[AdmissionController] = None
    #: The forecasting tier, when armed (None otherwise).
    forecast: _t.Optional[ForecastController] = None


@dataclass
class NodeGroup:
    """The PEs resident on one node, as the control plane sees them."""

    node_id: str
    pes: _t.List[PELike] = field(default_factory=list)
    cpu_capacity: float = 1.0


@dataclass
class _EpochCarry:
    """Control state harvested before a membership rebuild.

    Everything here is keyed by stable identity (node_id / pe_id), never
    by index, so it survives node-list surgery: pause flags and injected
    capacity slowdowns follow their node, token levels and Eq. 7
    histories follow their PE.
    """

    paused: _t.Dict[str, bool]
    ticks: _t.Dict[str, int]
    blocked: _t.Dict[str, _t.FrozenSet[str]]
    capacity: _t.Dict[str, float]
    token_levels: _t.Dict[str, float]
    #: Vector-engine per-PE flow state (None when the engine is off).
    vector: _t.Optional[_t.Dict[str, _t.Dict[str, _t.Any]]]


class ControlPlane:
    """Tier-2 control state shared across one system's nodes.

    Parameters
    ----------
    policy:
        The behavioural strategy object; its factories are invoked here
        and nowhere else.
    adapter:
        The substrate the node controllers act through.
    groups:
        One :class:`NodeGroup` per node (may be empty of PEs).
    targets:
        Tier-1 allocation targets in effect at construction.
    dt:
        Control interval length (seconds).
    b0:
        Flow-control occupancy set-point in SDOs (absolute, not a
        fraction).
    feedback_delay:
        Propagation delay of the feedback bus (0 models an idealized
        instantaneous control network).
    feedback_staleness_ttl, feedback_stale_bound:
        Staleness guard of the bus (see :class:`FeedbackBus`).
    recorder:
        Trace bus; the null default keeps hot paths branch-free.
    tier1:
        Optional :class:`ResilientTier1` guard used by
        :meth:`reoptimize`; substrates that never re-solve may omit it.
    profiler:
        Optional phase profiler forwarded to node controllers
        (simulator only).
    """

    def __init__(
        self,
        policy: "Policy",
        adapter: SystemAdapter,
        groups: _t.Sequence[NodeGroup],
        targets: AllocationTargets,
        dt: float,
        b0: float,
        feedback_delay: float = 0.0,
        feedback_staleness_ttl: _t.Optional[float] = None,
        feedback_stale_bound: float = 0.0,
        recorder: _t.Optional[TraceRecorder] = None,
        tier1: _t.Optional[ResilientTier1] = None,
        profiler: _t.Optional[_t.Any] = None,
        control_impl: str = "scalar",
        admission: _t.Optional[AdmissionController] = None,
        forecast: _t.Optional[ForecastController] = None,
    ):
        if control_impl not in ("scalar", "vector"):
            raise ValueError(
                f"control_impl must be 'scalar' or 'vector', "
                f"got {control_impl!r}"
            )
        self.policy = policy
        self.adapter = adapter
        self.groups = list(groups)
        self.targets = targets
        self.dt = dt
        self.b0 = b0
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.tier1 = tier1
        self.profiler = profiler
        #: Optional SLO-aware admission front end; ticked by the
        #: substrate through :meth:`tick_admission` alongside the node
        #: loops, armed identically in sim and threaded runs.
        self.admission = admission
        if admission is not None:
            admission.recorder = self.recorder
        #: Optional forecasting tier; ticked by the substrate through
        #: :meth:`tick_forecast` at the forecast cadence, armed
        #: identically in sim and threaded runs.
        self.forecast = forecast
        if forecast is not None:
            forecast.recorder = self.recorder

        #: Behavioural constants, resolved from the policy exactly once.
        self.uses_feedback = policy.uses_feedback
        self.aggregate_max = (
            policy.aggregate_feedback() == "max"
            if self.uses_feedback
            else True
        )

        #: Construction inputs persisted so membership rebuilds can
        #: re-resolve the policy factories with identical parameters.
        self._requested_impl = control_impl
        self._gains = (
            policy.controller_gains(dt) if self.uses_feedback else None
        )
        if self.uses_feedback:
            # feedback policies always provide controller gains.
            assert self._gains is not None
        #: The one Eq. 8 blackboard of both implementations.  It is
        #: pe_id-keyed, so it (or a fault-injection wrapper installed in
        #: its place) survives every membership rebuild untouched.
        self.bus: _t.Any = FeedbackBus(
            delay=feedback_delay,
            staleness_ttl=feedback_staleness_ttl,
            stale_bound=feedback_stale_bound,
            recorder=self.recorder,
        )

        #: Why a requested vector path fell back to scalar (None when
        #: vector is active or scalar was requested).
        self.vector_fallback_reason: _t.Optional[str] = None
        self._engine: _t.Optional[VectorEngine] = None
        self.controllers: _t.Dict[str, _t.Any] = {}
        self.gates: _t.Dict[str, _t.Optional[GateFn]] = {}
        self.admission_filters: _t.Dict[str, AdmissionFn] = {}
        #: Placement epoch: 0 at construction, +1 per membership rebuild.
        self.epoch = 0
        #: Callbacks run after every membership rebuild (oracles and
        #: other observers re-derive their cached plane views here).
        self.rebuild_hooks: _t.List[
            _t.Callable[["ControlPlane"], None]
        ] = []
        self._build()

        #: Per-node pause flags (controller-outage injection).  Loops may
        #: capture this list object; mutate it, never rebind it.
        self.paused: _t.List[bool] = [False] * len(self.groups)
        #: Number of Tier-1 refreshes adopted during the run.
        self.reoptimizations = 0
        #: pe_id -> node_id snapshot taken when the current targets were
        #: adopted.  Tier-1 budgets against the placement it solved for;
        #: a later migration moves PEs without touching targets, so
        #: capacity validation of the *targets* must use this snapshot,
        #: not the live placement (grants are still checked live).
        self.targets_node_of: _t.Dict[str, str] = self._node_of_snapshot()

    # -- construction / epoch rebuild ----------------------------------------

    def _build(self) -> None:
        """Resolve the policy factories into runnable Tier-2 state.

        Called once at construction and again (via the membership API)
        at every epoch boundary.  Rebuilds derive everything from the
        *current* :attr:`groups`; state that must survive a rebuild is
        carried across by :meth:`_harvest` / :meth:`_restore`, keyed by
        node_id / pe_id rather than index.
        """
        policy = self.policy
        targets = self.targets
        dt = self.dt

        # The policy's schedulers are always built normally; in vector
        # mode they become parameter donors (bucket depths/levels,
        # strict targets, capacities) for the engine's state arrays and
        # are then replaced by the engine's per-node views.
        donors: _t.List[_t.Any] = [
            policy.make_scheduler(
                group.pes, targets.cpu, group.cpu_capacity, dt
            )
            for group in self.groups
        ]
        gains = self._gains

        self.vector_fallback_reason = None
        self._engine = None
        if self._requested_impl == "vector":
            self.vector_fallback_reason = fallback_reason(
                donors, self.uses_feedback
            )
            if self.vector_fallback_reason is None:
                registry = PEIndexRegistry(self.groups)
                self._engine = VectorEngine(self, registry, donors, gains)
        self.control_impl = "vector" if self._engine is not None else "scalar"
        self._index_of = {
            group.node_id: index for index, group in enumerate(self.groups)
        }

        self.schedulers: _t.List[_t.Any] = (
            self._engine.scheduler_views
            if self._engine is not None
            else donors
        )
        if self.recorder.enabled:
            for group, scheduler in zip(self.groups, self.schedulers):
                attach = getattr(scheduler, "attach_tracing", None)
                if attach is not None:
                    attach(self.recorder, group.node_id)
        self._scheduler_of: _t.Dict[str, _t.Any] = {}
        for group, scheduler in zip(self.groups, self.schedulers):
            for pe in group.pes:
                self._scheduler_of[pe.pe_id] = scheduler

        if self.uses_feedback:
            assert gains is not None
            if self._engine is not None:
                registry = self._engine.registry
                for group in self.groups:
                    for pe in group.pes:
                        self.controllers[pe.pe_id] = VectorFlowView(
                            self._engine,
                            registry.index[pe.pe_id],
                            pe.pe_id,
                        )
            else:
                for group in self.groups:
                    for pe in group.pes:
                        # A surviving scalar controller is reused so its
                        # Eq. 7 histories carry across epochs verbatim.
                        existing = self.controllers.get(pe.pe_id)
                        if not isinstance(existing, FlowController):
                            self.controllers[pe.pe_id] = FlowController(
                                gains,
                                target_occupancy=self.b0,
                                buffer_capacity=pe.buffer.capacity,
                                pe_id=pe.pe_id,
                            )

        for group in self.groups:
            for pe in group.pes:
                # Only fill missing entries: dynamically replaced gates
                # (fault injection) must survive a rebuild.
                if pe.pe_id not in self.gates:
                    self.gates[pe.pe_id] = policy.make_gate(pe)
                    self.admission_filters[pe.pe_id] = (
                        policy.make_admission_filter(pe)
                    )

        controller_cls: _t.Any = (
            VectorNodeController
            if self._engine is not None
            else NodeController
        )
        self.node_controllers: _t.List[_t.Any] = [
            controller_cls(
                node_index=index,
                node_id=group.node_id,
                scheduler=scheduler,
                records=[
                    ControlRecord(
                        pe,
                        self.gates[pe.pe_id],
                        self.controllers.get(pe.pe_id),
                        targets.cpu.get(pe.pe_id, 0.0),
                    )
                    for pe in group.pes
                ],
                plane=self,
                adapter=self.adapter,
                dt=dt,
                uses_feedback=self.uses_feedback,
                aggregate_max=self.aggregate_max,
                is_aces=(
                    self._engine.is_aces
                    if self._engine is not None
                    else isinstance(scheduler, AcesCpuScheduler)
                ),
                profiler=self.profiler,
                **(
                    {"engine": self._engine}
                    if self._engine is not None
                    else {}
                ),
            )
            for index, (group, scheduler) in enumerate(
                zip(self.groups, self.schedulers)
            )
        ]

    def _harvest(self) -> _EpochCarry:
        """Capture identity-keyed control state ahead of group surgery."""
        paused = {
            group.node_id: flag
            for group, flag in zip(self.groups, self.paused)
        }
        ticks = {c.node_id: c.ticks for c in self.node_controllers}
        blocked = {
            c.node_id: c.last_blocked for c in self.node_controllers
        }
        capacity = {
            group.node_id: float(scheduler.capacity)
            for group, scheduler in zip(self.groups, self.schedulers)
        }
        token_levels: _t.Dict[str, float] = {}
        vector: _t.Optional[_t.Dict[str, _t.Dict[str, _t.Any]]] = None
        engine = self._engine
        if engine is None:
            for scheduler in self.schedulers:
                buckets = getattr(scheduler, "buckets", None)
                if buckets:
                    for pe_id, bucket in buckets.items():
                        token_levels[pe_id] = float(bucket.level)
        else:
            index = engine.registry.index
            if engine.is_aces:
                for pe_id, i in index.items():
                    token_levels[pe_id] = float(engine.tok_level[i])
            vector = {
                "flow_last": {},
                "flow_updates": {},
                "dev": {},
                "sur": {},
            }
            for pe_id, i in index.items():
                vector["flow_last"][pe_id] = float(engine.flow_last[i])
                vector["flow_updates"][pe_id] = int(
                    engine.flow_updates[i]
                )
                if engine.dev_hist is not None:
                    vector["dev"][pe_id] = engine.dev_hist[:, i].copy()
                    vector["sur"][pe_id] = engine.sur_hist[:, i].copy()
        return _EpochCarry(
            paused=paused,
            ticks=ticks,
            blocked=blocked,
            capacity=capacity,
            token_levels=token_levels,
            vector=vector,
        )

    def _restore(self, carry: _EpochCarry) -> None:
        """Re-install harvested state into the freshly built epoch."""
        self.paused[:] = [
            carry.paused.get(group.node_id, False)
            for group in self.groups
        ]
        for controller in self.node_controllers:
            controller.ticks = carry.ticks.get(controller.node_id, 0)
            resident = frozenset(
                record.pe_id for record in controller.records
            )
            controller.last_blocked = (
                carry.blocked.get(controller.node_id, frozenset())
                & resident
            )
        for group, scheduler in zip(self.groups, self.schedulers):
            cap = carry.capacity.get(group.node_id)
            if cap is not None:
                scheduler.capacity = cap
        engine = self._engine
        if carry.token_levels:
            if engine is not None and engine.is_aces:
                index = engine.registry.index
                for pe_id, level in carry.token_levels.items():
                    i = index.get(pe_id)
                    if i is None:
                        continue
                    depth = float(engine.tok_depth[i])
                    engine.tok_level[i] = (
                        level if level <= depth else depth
                    )
            elif engine is None:
                for scheduler in self.schedulers:
                    buckets = getattr(scheduler, "buckets", None)
                    if not buckets:
                        continue
                    for pe_id, bucket in buckets.items():
                        level = carry.token_levels.get(pe_id)
                        if level is not None:
                            bucket.level = (
                                level
                                if level <= bucket.depth
                                else bucket.depth
                            )
        if engine is not None and carry.vector is not None:
            index = engine.registry.index
            for pe_id, i in index.items():
                last = carry.vector["flow_last"].get(pe_id)
                if last is None:
                    continue
                engine.flow_last[i] = last
                engine.flow_updates[i] = carry.vector["flow_updates"][
                    pe_id
                ]
                dev = carry.vector["dev"].get(pe_id)
                if dev is not None and engine.dev_hist is not None:
                    engine.dev_hist[:, i] = dev
                    engine.sur_hist[:, i] = carry.vector["sur"][pe_id]

    def _apply_membership(
        self, carry: _EpochCarry, now: float, reason: str
    ) -> None:
        """Rebuild + restore at an epoch boundary, then notify hooks."""
        self._build()
        self._restore(carry)
        self.epoch += 1
        if self.recorder.enabled:
            self.recorder.emit(
                "epoch",
                epoch=self.epoch,
                reason=reason,
                nodes=len(self.groups),
                pes=sum(len(group.pes) for group in self.groups),
                control_impl=self.control_impl,
            )
        for hook in self.rebuild_hooks:
            hook(self)

    def add_rebuild_hook(
        self, hook: _t.Callable[["ControlPlane"], None]
    ) -> None:
        """Run ``hook(plane)`` after every membership rebuild."""
        if hook not in self.rebuild_hooks:
            self.rebuild_hooks.append(hook)

    # -- membership (the elastic tier's operational surface) -----------------

    def add_node(
        self,
        node_id: str,
        cpu_capacity: float = 1.0,
        now: float = 0.0,
        pes: _t.Optional[_t.List[PELike]] = None,
    ) -> int:
        """Join an empty node to the plane; returns its node index.

        The Tier-2 state is rebuilt at this epoch boundary (schedulers,
        node controllers, and — in vector mode — the PE index registry),
        with all identity-keyed control state carried across.  PEs
        arrive later via :meth:`migrate_pes`.

        ``pes`` lets the substrate hand in its *own* (empty) resident
        list so node and group share one list object, the same aliasing
        the constructor path establishes — group surgery then moves PEs
        physically too.
        """
        if cpu_capacity <= 0:
            raise ValueError(
                f"cpu_capacity must be positive, got {cpu_capacity}"
            )
        if node_id in self._index_of:
            raise ValueError(f"node {node_id!r} already in the plane")
        if pes:
            raise ValueError(
                f"node {node_id!r} must join empty; migrate PEs in "
                "after the join"
            )
        carry = self._harvest()
        self.groups.append(
            NodeGroup(node_id, pes if pes is not None else [], cpu_capacity)
        )
        self._apply_membership(carry, now, reason=f"join:{node_id}")
        if self.recorder.enabled:
            self.recorder.emit(
                "membership",
                node=node_id,
                action="join",
                epoch=self.epoch,
                nodes=len(self.groups),
            )
        return len(self.groups) - 1

    def remove_node(self, node_index: int, now: float = 0.0) -> str:
        """Remove an *empty* node from the plane; returns its node_id.

        Refuses while PEs are resident — migrate them off first — so a
        removal can never strand buffered work.  Node indices above the
        removed one shift down by one; identity-keyed state (pause
        flags, capacity slowdowns) follows the surviving node_ids.
        """
        if not (0 <= node_index < len(self.groups)):
            raise ValueError(
                f"node index {node_index} outside "
                f"[0, {len(self.groups)})"
            )
        if len(self.groups) == 1:
            raise ValueError("cannot remove the last node")
        group = self.groups[node_index]
        if group.pes:
            raise ValueError(
                f"node {group.node_id!r} still hosts "
                f"{len(group.pes)} PE(s); migrate them off first"
            )
        carry = self._harvest()
        del self.groups[node_index]
        self._apply_membership(
            carry, now, reason=f"leave:{group.node_id}"
        )
        if self.recorder.enabled:
            self.recorder.emit(
                "membership",
                node=group.node_id,
                action="leave",
                epoch=self.epoch,
                nodes=len(self.groups),
            )
        return group.node_id

    def migrate_pes(
        self,
        moves: _t.Sequence[_t.Tuple[str, int]],
        now: float = 0.0,
        reason: str = "migration",
    ) -> None:
        """Re-home PEs between groups in one epoch boundary.

        ``moves`` is a sequence of ``(pe_id, target_node_index)``.  The
        plane only moves *control* state; the substrate orchestrates
        the physical protocol around this call (drain, buffer handoff,
        dataplane re-wiring, resume).  All moves share one rebuild so
        an epoch's migration set is atomic from the controllers' view.
        """
        if not moves:
            return
        carry = self._harvest()
        for pe_id, target in moves:
            if not (0 <= target < len(self.groups)):
                raise ValueError(
                    f"{pe_id}: target node index {target} outside "
                    f"[0, {len(self.groups)})"
                )
            source = None
            for group in self.groups:
                for pe in group.pes:
                    if pe.pe_id == pe_id:
                        source = group
                        break
                if source is not None:
                    break
            if source is None:
                raise ValueError(f"unknown PE {pe_id!r}")
            if source is self.groups[target]:
                continue
            pe_obj = next(
                pe for pe in source.pes if pe.pe_id == pe_id
            )
            source.pes.remove(pe_obj)
            self.groups[target].pes.append(pe_obj)
        self._apply_membership(carry, now, reason=reason)

    def node_index(self, node_id: str) -> _t.Optional[int]:
        """Current index of ``node_id`` in :attr:`groups`, or None when
        the node has left (indices shift with membership; identity-keyed
        callers re-resolve through here every tick)."""
        return self._index_of.get(node_id)

    def token_level(self, pe_id: str) -> float:
        """The PE's current token level via its *current* scheduler.

        Gauge lambdas bind the plane, not a scheduler object, so token
        gauges keep reading the right state across epoch rebuilds.
        """
        return float(self._scheduler_of[pe_id].token_level(pe_id))

    # -- operational surface -------------------------------------------------

    def set_gate(self, pe_id: str, gate: _t.Optional[GateFn]) -> None:
        """Replace a PE's processing gate at runtime.

        The tick loops read gates from per-PE records resolved at wiring
        time, so dynamic replacement (fault injection stalling a PE, an
        operator pausing a stream) must go through here rather than
        mutating :attr:`gates` directly.
        """
        self.gates[pe_id] = gate
        for controller in self.node_controllers:
            if controller.set_gate(pe_id, gate):
                break

    def suspend_node(self, node_index: int) -> None:
        """Make a node's control loop miss its ticks (controller outage).

        The loop keeps waking every ``dt`` but performs no control step
        and no PE execution until :meth:`resume_node` — exactly a hung
        controller process: feedback from the node stops, its values on
        the bus age out (see the bus's ``staleness_ttl``), and its PEs
        make no progress.
        """
        self.paused[node_index] = True

    def resume_node(self, node_index: int) -> None:
        """Resume a suspended node's control loop."""
        self.paused[node_index] = False

    def tick_nodes(
        self, node_indices: _t.Sequence[int], now: float
    ) -> None:
        """Tick a bucket of nodes at one instant: decide all, then apply.

        This is *explicitly different* semantics from per-node loops at
        staggered offsets: every node in the bucket decides from the
        same pre-tick state before any grants are applied.  Both
        implementations honour the same decide-all-then-apply-all
        contract, so scalar and vector bucketed runs stay bit-equal;
        the vector engine additionally fuses the decisions into one
        array pass, which is where the extreme-scale speedup comes
        from.  Paused nodes are skipped (controller-outage semantics).
        """
        paused = self.paused
        live = [index for index in node_indices if not paused[index]]
        if not live:
            return
        controllers = self.node_controllers
        adapter = self.adapter
        profiler = self.profiler
        if self._engine is not None:
            engine = self._engine
            group = engine.group_for(tuple(live))
            if profiler is not None:
                profiler.push("controller_tick")
            try:
                decided = engine.control_group(group, now)
            finally:
                if profiler is not None:
                    profiler.pop()
            # One settle for the whole group: execution never reads
            # token levels, so charging after the last node has run is
            # charging node by node.
            used: _t.List[float] = []
            for index, fractions in zip(live, decided):
                controller = controllers[index]
                controller.ticks += 1
                used.extend(
                    adapter.apply_grants(
                        index, controller.records, fractions, now,
                        controller.dt,
                    )
                )
            engine.settle(group.sel, used)
            return
        decided = []
        for index in live:
            controller = controllers[index]
            if profiler is not None:
                profiler.push("controller_tick")
            try:
                fractions = controller.control(now)
            finally:
                if profiler is not None:
                    profiler.pop()
            controller.ticks += 1
            decided.append((controller, fractions))
        for controller, fractions in decided:
            controller.scheduler.settle(
                adapter.apply_grants(
                    controller.node_index, controller.records, fractions,
                    now, controller.dt,
                )
            )

    def tick_admission(self, now: float) -> None:
        """Advance the admission front end one control interval.

        A no-op on planes built without admission, so substrate loops
        can call it unconditionally.
        """
        if self.admission is not None:
            self.admission.tick(now)

    def tick_forecast(self, now: float) -> None:
        """Advance the forecasting tier one sample interval.

        A no-op on planes built without forecasting, so substrate loops
        can call it unconditionally.
        """
        if self.forecast is not None:
            self.forecast.tick(now)

    # -- Tier-1 interaction --------------------------------------------------

    def _node_of_snapshot(self) -> _t.Dict[str, str]:
        return {
            pe.pe_id: group.node_id
            for group in self.groups
            for pe in group.pes
        }

    def adopt_targets(self, targets: AllocationTargets) -> None:
        """Install refreshed Tier-1 targets into schedulers and records."""
        self.targets = targets
        self.targets_node_of = self._node_of_snapshot()
        for scheduler in self.schedulers:
            scheduler.update_targets(targets.cpu)
        for controller in self.node_controllers:
            controller.refresh_cpu_targets(targets.cpu)

    def reoptimize(
        self,
        graph: "ProcessingGraph",
        placement: "Placement",
        measured_rates: _t.Mapping[str, float],
        reason: str = "reoptimize",
    ) -> _t.Optional["GlobalOptimizationResult"]:
        """Re-solve Tier 1 from measured rates and adopt the result.

        Returns None when the guarded solver has nothing to offer (no
        attempt succeeded and no last-known-good exists — cannot happen
        after a normal bootstrap, which seeds last-known-good); the
        system keeps serving under the current targets.
        """
        if self.tier1 is None:
            raise RuntimeError(
                "this control plane was built without a Tier-1 solver"
            )
        try:
            result = self.tier1.solve(
                graph, placement, measured_rates, reason=reason
            )
        except Tier1Unavailable:
            return None
        self.adopt_targets(result.targets)
        self.reoptimizations += 1
        return result

    # -- observability -------------------------------------------------------

    def inspection(self) -> PlaneInspection:
        """The sanctioned read-only view for online invariant oracles.

        See :class:`PlaneInspection`; everything an oracle may read from
        the plane goes through here so the coupling stays explicit.
        """
        pes: _t.Dict[str, PELike] = {}
        node_of: _t.Dict[str, str] = {}
        for group in self.groups:
            for pe in group.pes:
                pes[pe.pe_id] = pe
                node_of[pe.pe_id] = group.node_id
        return PlaneInspection(
            pes=pes,
            node_of=node_of,
            schedulers={
                group.node_id: scheduler
                for group, scheduler in zip(self.groups, self.schedulers)
            },
            nominal_capacity={
                group.node_id: group.cpu_capacity for group in self.groups
            },
            group_sizes={
                group.node_id: len(group.pes) for group in self.groups
            },
            node_index={
                group.node_id: index
                for index, group in enumerate(self.groups)
            },
            controllers=dict(self.controllers),
            node_controllers={
                controller.node_id: controller
                for controller in self.node_controllers
            },
            paused=self.paused,
            plane=self,
            admission=self.admission,
            forecast=self.forecast,
        )

    def register_gauges(
        self,
        gauges: "GaugeRegistry",
        pe_order: _t.Optional[_t.Iterable[str]] = None,
    ) -> None:
        """Register the control-plane gauges: token levels and r_max.

        ``pe_order`` fixes the r_max registration (hence trace-emission)
        order; by default controllers register in node-placement order.
        """
        for scheduler in self.schedulers:
            # Token-capable schedulers (AcesCpuScheduler or the vector
            # engine's token view) expose token_level; strict ones don't.
            # The gauge closes over the plane, not the scheduler object:
            # membership rebuilds replace schedulers, and a migrated
            # PE's tokens must be read from wherever it lives now.
            if getattr(scheduler, "token_level", None) is not None:
                for pe in scheduler.pes:
                    gauges.register(
                        "token_level",
                        lambda s=self, p=pe.pe_id: s.token_level(p),
                        pe=pe.pe_id,
                    )
        admission = self.admission
        if admission is not None:
            gauges.register(
                "admission_level",
                lambda a=admission: float(int(a.effective_level)),
            )
        forecast = self.forecast
        if forecast is not None:
            # The aggregate predicted/baseline load ratio: the one
            # number the proactive trigger predicate watches.
            gauges.register(
                "forecast_ratio",
                lambda f=forecast: float(f.last_ratio),
            )
        ids = self.controllers.keys() if pe_order is None else pe_order
        for pe_id in ids:
            if pe_id not in self.controllers:
                continue
            # Bound via the plane's live dict: vector rebuilds replace
            # the per-PE flow views, scalar controllers are reused.
            gauges.register(
                "r_max",
                lambda s=self, p=pe_id: s.controllers[p].last_r_max,
                pe=pe_id,
            )

    def __repr__(self) -> str:
        return (
            f"ControlPlane({self.policy.name}, nodes={len(self.groups)}, "
            f"pes={sum(len(g.pes) for g in self.groups)})"
        )
