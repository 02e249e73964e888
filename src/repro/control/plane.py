"""The control plane: policy hooks -> per-node controllers, shared state.

:class:`ControlPlane` is the one place a :class:`~repro.core.policies.
Policy`'s behaviour (scheduler kind, flow-controller gains, gate,
admission filter, feedback aggregation) is resolved into runnable
control state, and the one module that builds Tier-2 state: token
buckets, schedulers, flow controllers.  It owns everything the Tier-2
loops share:

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
from repro.control.vector import VectorEngine, VectorFlowView, VectorNodeView
from repro.core.cpu_control import (
    AcesCpuScheduler,
    StrictProportionalScheduler,
    TokenBucket,
    bucket_depth,
)
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


def make_token_buckets(
    pes: _t.Iterable[PELike],
    cpu_targets: _t.Mapping[str, float],
    dt: float,
    intervals: float,
) -> _t.Dict[str, TokenBucket]:
    """pe_id -> a fresh Section V-D token bucket per PE: filling at the
    PE's Tier-1 target, :func:`~repro.core.cpu_control.bucket_depth`
    deep, half full."""
    buckets = {}
    for pe in pes:
        rate = float(cpu_targets.get(pe.pe_id, 0.0))
        depth = bucket_depth(rate, dt, intervals)
        buckets[pe.pe_id] = TokenBucket(
            rate=rate, depth=depth, level=depth * 0.5
        )
    return buckets


@dataclass
class NodeGroup:
    """The PEs resident on one node, as the control plane sees them."""

    node_id: str
    pes: _t.List[PELike] = field(default_factory=list)
    cpu_capacity: float = 1.0


class ControlPlane:
    """Tier-2 control state shared across one system's nodes.

    Parameters
    ----------
    policy:
        The behavioural strategy object; its hooks are resolved here
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
    feedback_staleness_ttl:
        Staleness guard of the bus (see :class:`FeedbackBus`).
    recorder:
        Trace bus; the null default keeps hot paths branch-free.
    tier1:
        Optional :class:`ResilientTier1` guard used by
        :meth:`reoptimize`; substrates that never re-solve may omit it.
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
        recorder: _t.Optional[TraceRecorder] = None,
        tier1: _t.Optional[ResilientTier1] = None,
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
        #: The system's one node list.  Membership mutates it in place
        #: and never rebinds it, so substrates may hold it as their view.
        self.groups = list(groups)
        self.targets = targets
        self.dt = dt
        self.b0 = b0
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.tier1 = tier1
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

        #: Section V-D token-bucket depth in intervals of fill, or None
        #: on a plane of strict proportional schedulers.
        self.token_depth_intervals = policy.token_depth_intervals
        if self.token_depth_intervals is not None and not self.uses_feedback:
            raise ValueError(
                f"{policy.name}: token-bucket scheduling caps grants by "
                "the Eq. 8 feedback, which this policy does not use"
            )

        gains = policy.controller_gains(dt) if self.uses_feedback else None
        if self.uses_feedback:
            # feedback policies always provide controller gains.
            assert gains is not None
        #: The one Eq. 8 blackboard of both implementations.  It is
        #: pe_id-keyed, so it (or a fault-injection wrapper installed in
        #: its place) survives every epoch untouched.
        self.bus: _t.Any = FeedbackBus(
            delay=feedback_delay,
            staleness_ttl=feedback_staleness_ttl,
            recorder=self.recorder,
        )

        engine = self._engine = (
            VectorEngine(self, gains) if control_impl == "vector" else None
        )
        self.control_impl = control_impl

        # Per-PE Tier-2 state is created here, once.  The PE set is fixed
        # for the life of a plane (nodes join empty, migrations only move
        # PEs), so an epoch regroups this state and never rebuilds it.
        pes = [pe for group in self.groups for pe in group.pes]
        #: pe_id -> Eq. 7 flow controller (feedback policies only): a
        #: FlowController, or a VectorFlowView under control_impl=vector.
        self.controllers: _t.Dict[str, _t.Any] = {}
        if self.uses_feedback:
            for pe in pes:
                self.controllers[pe.pe_id] = (
                    FlowController(
                        gains,
                        target_occupancy=b0,
                        buffer_capacity=pe.buffer.capacity,
                        pe_id=pe.pe_id,
                    )
                    if engine is None
                    else VectorFlowView(
                        engine, engine.registry.index[pe.pe_id], pe.pe_id
                    )
                )
        #: pe_id -> the Section V-D token bucket of a scalar token plane
        #: (a vector plane keeps its tokens in the engine's arrays),
        #: handed to every epoch's schedulers.
        intervals = self.token_depth_intervals
        self.token_buckets: _t.Dict[str, TokenBucket] = (
            make_token_buckets(pes, targets.cpu, dt, intervals)
            if engine is None and intervals is not None
            else {}
        )
        self.gates: _t.Dict[str, _t.Optional[GateFn]] = {}
        self.admission_filters: _t.Dict[str, AdmissionFn] = {}
        for pe in pes:
            self.gates[pe.pe_id] = policy.make_gate(pe)
            self.admission_filters[pe.pe_id] = (
                policy.make_admission_filter(pe)
            )

        #: Placement epoch: 0 at construction, +1 per membership change.
        self.epoch = 0
        #: Callbacks run after every epoch (oracles and other observers
        #: re-derive their cached per-node plane views here).
        self.rebuild_hooks: _t.List[
            _t.Callable[["ControlPlane"], None]
        ] = []
        #: Per-node pause flags (controller-outage injection).  Loops may
        #: capture this list object; mutate it, never rebind it.
        self.paused: _t.List[bool] = []
        self.node_controllers: _t.List[_t.Any] = []
        self._build()

        #: Number of Tier-1 refreshes adopted during the run.
        self.reoptimizations = 0
        #: pe_id -> node_id snapshot taken when the current targets were
        #: adopted.  Tier-1 budgets against the placement it solved for;
        #: a later migration moves PEs without touching targets, so
        #: capacity validation of the *targets* must use this snapshot,
        #: not the live placement (grants are still checked live).
        self.targets_node_of: _t.Dict[str, str] = self._node_of_snapshot()

    # -- per-node wiring (construction and every epoch) ----------------------

    def _build(self) -> None:
        """Wire the per-PE state into one node controller per group.

        Called at construction and at every epoch boundary.  Only
        per-node objects are built: schedulers (or the engine's views)
        over the plane's buckets and targets, tick records and node
        controllers.  The per-node state that outlives an epoch (pause
        flag, tick count, gate decisions, and the live scheduler
        capacity that fault injection may have lowered) is read, by
        node_id, straight from the outgoing controllers.
        """
        outgoing = {c.node_id: c for c in self.node_controllers}
        previous = [outgoing.get(group.node_id) for group in self.groups]
        capacities = [
            group.cpu_capacity if prev is None
            else float(prev.scheduler.capacity)
            for group, prev in zip(self.groups, previous)
        ]
        engine = self._engine
        if engine is not None:
            engine.regroup()
            schedulers: _t.List[_t.Any] = [
                VectorNodeView(engine, index, group.pes, capacity)
                for index, (group, capacity) in enumerate(
                    zip(self.groups, capacities)
                )
            ]
        else:
            schedulers = []
            tokens = self.token_depth_intervals is not None
            for group, capacity in zip(self.groups, capacities):
                scheduler = (
                    AcesCpuScheduler(
                        group.pes, self.token_buckets, group.cpu_capacity
                    )
                    if tokens
                    else StrictProportionalScheduler(
                        group.pes, self.targets.cpu, group.cpu_capacity
                    )
                )
                # The live capacity, which a slowdown may have set to 0.
                scheduler.capacity = capacity
                schedulers.append(scheduler)
        self.schedulers = schedulers
        self._index_of = {
            group.node_id: index for index, group in enumerate(self.groups)
        }
        if self.recorder.enabled:
            for group, scheduler in zip(self.groups, schedulers):
                attach = getattr(scheduler, "attach_tracing", None)
                if attach is not None:
                    attach(self.recorder, group.node_id)

        cpu = self.targets.cpu
        self.node_controllers = [
            NodeController(
                index,
                group.node_id,
                scheduler,
                [
                    ControlRecord(
                        pe,
                        self.gates[pe.pe_id],
                        self.controllers.get(pe.pe_id),
                        cpu.get(pe.pe_id, 0.0),
                    )
                    for pe in group.pes
                ],
                self,
            )
            for index, (group, scheduler) in enumerate(
                zip(self.groups, schedulers)
            )
        ]
        for controller, prev in zip(self.node_controllers, previous):
            if prev is not None:
                controller.ticks = prev.ticks
                controller.last_blocked = prev.last_blocked.intersection(
                    record.pe_id for record in controller.records
                )
        self.paused[:] = [
            prev is not None and self.paused[prev.node_index]
            for prev in previous
        ]

    def _apply_membership(self, reason: str) -> None:
        """Regroup at an epoch boundary, then notify hooks."""
        self._build()
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
        """Run ``hook(plane)`` after every epoch."""
        if hook not in self.rebuild_hooks:
            self.rebuild_hooks.append(hook)

    # -- membership (the elastic tier's operational surface) -----------------

    def add_node(self, node_id: str, cpu_capacity: float = 1.0) -> int:
        """Join an empty node to the plane; returns its node index.

        At this epoch boundary the per-node wiring (schedulers, node
        controllers) is rebuilt over the unchanged per-PE state.  PEs
        arrive later via :meth:`migrate_pes`.
        """
        if cpu_capacity <= 0:
            raise ValueError(
                f"cpu_capacity must be positive, got {cpu_capacity}"
            )
        if node_id in self._index_of:
            raise ValueError(f"node {node_id!r} already in the plane")
        self.groups.append(NodeGroup(node_id, [], cpu_capacity))
        self._apply_membership(f"join:{node_id}")
        if self.recorder.enabled:
            self.recorder.emit(
                "membership",
                node=node_id,
                action="join",
                epoch=self.epoch,
                nodes=len(self.groups),
            )
        return len(self.groups) - 1

    def remove_node(self, node_index: int) -> str:
        """Remove an *empty* node from the plane; returns its node_id.

        Refuses while PEs are resident — migrate them off first — so a
        removal can never strand buffered work.  Node indices above the
        removed one shift down by one; per-node state (pause flags,
        capacity slowdowns) follows the surviving node_ids.
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
        del self.groups[node_index]
        self._apply_membership(f"leave:{group.node_id}")
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
        reason: str = "migration",
    ) -> None:
        """Re-home PEs between groups in one epoch boundary.

        ``moves`` is a sequence of ``(pe_id, target_node_index)``.  The
        plane only moves *control* state; the substrate orchestrates
        the physical protocol around this call (drain, buffer handoff,
        dataplane re-wiring, resume).  All moves share one regrouping
        so an epoch's migration set is atomic from the controllers'
        view, and every move is validated before any is applied: a
        rejected set leaves the groups untouched.
        """
        if not moves:
            return
        groups = self.groups
        home = {pe.pe_id: (group, pe) for group in groups for pe in group.pes}
        for pe_id, target in moves:
            if not (0 <= target < len(groups)):
                raise ValueError(
                    f"{pe_id}: target node index {target} outside "
                    f"[0, {len(groups)})"
                )
            if pe_id not in home:
                raise ValueError(f"unknown PE {pe_id!r}")
        for pe_id, target in moves:
            source, pe = home[pe_id]
            destination = groups[target]
            if source is not destination:
                source.pes.remove(pe)
                destination.pes.append(pe)
                home[pe_id] = (destination, pe)
        self._apply_membership(reason)

    def node_index(self, node_id: str) -> _t.Optional[int]:
        """Current index of ``node_id`` in :attr:`groups`, or None when
        the node has left (indices shift with membership; identity-keyed
        callers re-resolve through here every tick)."""
        return self._index_of.get(node_id)

    def token_level(self, pe_id: str) -> float:
        """The PE's current token level (a token-bucket plane)."""
        engine = self._engine
        if engine is None:
            return float(self.token_buckets[pe_id].level)
        return float(engine.tok_level[engine.registry.index[pe_id]])

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
        if self._engine is not None:
            engine = self._engine
            group = engine.group_for(tuple(live))
            decided = engine.control_group(group, now)
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
            fractions = controller.control(now)
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
        """Install refreshed Tier-1 targets into the schedulers (or the
        engine's one target array) and the tick records."""
        self.targets = targets
        self.targets_node_of = self._node_of_snapshot()
        intervals = self.token_depth_intervals
        if self._engine is not None:
            self._engine.adopt_targets(targets.cpu)
        elif intervals is not None:
            # New fill rates and depths; banked tokens are kept up to
            # the new depth, so a refresh confiscates no banked CPU.
            for pe_id, bucket in self.token_buckets.items():
                rate = float(targets.cpu.get(pe_id, 0.0))
                bucket.rate = rate
                bucket.depth = bucket_depth(rate, self.dt, intervals)
                bucket.level = min(bucket.level, bucket.depth)
        else:
            for scheduler in self.schedulers:
                scheduler.update_targets(targets.cpu)
        for controller in self.node_controllers:
            controller.refresh_cpu_targets(targets.cpu)

    def capacities(self) -> _t.List[float]:
        """Each node's nominal CPU capacity, by node index: what Tier 1
        plans within (an injected slowdown lowers only the live
        scheduler capacity, never this)."""
        return [group.cpu_capacity for group in self.groups]

    def reoptimize(
        self,
        graph: "ProcessingGraph",
        placement: "Placement",
        measured_rates: _t.Mapping[str, float],
        reason: str = "reoptimize",
    ) -> _t.Optional["GlobalOptimizationResult"]:
        """Re-solve Tier 1 from measured rates and adopt the result.

        The solve plans within each node's nominal ``cpu_capacity``.
        Returns None when the guarded solver has nothing to offer (the
        solve failed and no last-known-good exists — cannot happen
        after a normal bootstrap, which seeds last-known-good); the
        system keeps serving under the current targets.
        """
        if self.tier1 is None:
            raise RuntimeError(
                "this control plane was built without a Tier-1 solver"
            )
        try:
            result = self.tier1.solve(
                graph, placement, measured_rates, reason=reason,
                capacities=self.capacities(),
            )
        except Tier1Unavailable:
            return None
        self.adopt_targets(result.targets)
        self.reoptimizations += 1
        return result

    # -- observability -------------------------------------------------------

    def register_gauges(
        self,
        gauges: "GaugeRegistry",
        pe_order: _t.Optional[_t.Iterable[str]] = None,
    ) -> None:
        """Register the control-plane gauges: token levels and r_max.

        ``pe_order`` fixes the r_max registration (hence trace-emission)
        order; by default controllers register in node-placement order.
        """
        if self.token_depth_intervals is not None:
            # The gauge closes over the plane, not a scheduler: an epoch
            # replaces schedulers, never the per-PE tokens.
            for group in self.groups:
                for pe in group.pes:
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
            controller = self.controllers.get(pe_id)
            if controller is None:
                continue
            # Flow controllers live as long as the plane.
            gauges.register(
                "r_max", lambda c=controller: c.last_r_max, pe=pe_id
            )

    def __repr__(self) -> str:
        return (
            f"ControlPlane({self.policy.name}, nodes={len(self.groups)}, "
            f"pes={sum(len(g.pes) for g in self.groups)})"
        )
