"""Tier-3 elasticity: versioned placement, membership, and autoscaling.

The paper holds placement fixed after Tier-1 assigns it.  This module
adds the third control tier on top: placement becomes a *versioned
runtime object* (:class:`PlacementBook` holding a chain of
:class:`PlacementVersion` epochs), node membership becomes mutable
(:meth:`~repro.control.plane.ControlPlane.add_node` /
``remove_node`` / ``migrate_pes`` regroup the Tier-2 state at an epoch
boundary), and a :class:`ScalingPolicy` decides *when* to scale from a
buffer-fill pressure signal through the same
:class:`~repro.control.debounce.Debounce` as the admission ladder.

:class:`ElasticDriver` is the single home of everything Tier 3 (and the
actuation half of the forecasting tier) does that is not physical: it
is written against the :class:`~repro.control.plane.ControlPlane` and
the three-method :class:`~repro.control.adapter.MembershipOps` protocol,
so every substrate runs the same scaling, evacuation, migration
bookkeeping and proactive hooks by construction.

The tier is strictly additive: systems built without an
:class:`ElasticityConfig` construct a disarmed driver (seed placement
epoch, frozen membership timeline, no policy) and their outputs stay
byte-identical to the pre-elasticity code.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

from repro.control.debounce import Debounce
from repro.graph.placement_opt import optimize_placement

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.control.adapter import MembershipOps, PELike
    from repro.control.plane import ControlPlane
    from repro.graph.topology import Topology

#: A scaling decision: what the policy wants the system to do now.
ScalingDecision = str  # "scale_out" | "scale_in" | "hold"


@dataclass(frozen=True)
class PlacementVersion:
    """One immutable epoch of the placement history.

    ``placement`` maps pe_id -> node index into the node list in effect
    at this epoch; ``diff`` records what changed relative to the
    previous epoch as ``pe_id -> (old_node, new_node)`` (``old_node`` is
    None for a PE that did not exist before, which cannot happen today
    but keeps the contract total).
    """

    epoch: int
    placement: _t.Mapping[str, int]
    num_nodes: int
    diff: _t.Mapping[str, _t.Tuple[_t.Optional[int], int]]
    reason: str = "initial"

    @property
    def migrations(self) -> _t.Tuple[_t.Tuple[str, int, int], ...]:
        """The migration set: ``(pe_id, from_node, to_node)`` triples."""
        return tuple(
            (pe_id, old, new)
            for pe_id, (old, new) in self.diff.items()
            if old is not None and old != new
        )

    def __post_init__(self) -> None:
        if self.epoch < 0:
            raise ValueError(f"epoch must be >= 0, got {self.epoch}")
        if self.num_nodes <= 0:
            raise ValueError(
                f"num_nodes must be positive, got {self.num_nodes}"
            )
        for pe_id, node in self.placement.items():
            if not (0 <= node < self.num_nodes):
                raise ValueError(
                    f"placement maps {pe_id!r} to node {node}, outside "
                    f"[0, {self.num_nodes})"
                )


class PlacementBook:
    """The mutable spine of placement history: an append-only epoch chain.

    Every consumer that used to read a frozen ``topology.placement``
    dict reads :attr:`placement` (the current epoch's mapping) instead;
    the elastic tier appends epochs via :meth:`advance` and the full
    history stays available for tracing and the bench report.

    The seed epoch copies the initial mapping, preserving insertion
    order — Tier-1's solver iterates the mapping, so order is part of
    the determinism contract.
    """

    def __init__(
        self, placement: _t.Mapping[str, int], num_nodes: int
    ) -> None:
        seed = PlacementVersion(
            epoch=0,
            placement=dict(placement),
            num_nodes=num_nodes,
            diff={},
            reason="initial",
        )
        self.versions: _t.List[PlacementVersion] = [seed]

    @property
    def current(self) -> PlacementVersion:
        return self.versions[-1]

    @property
    def placement(self) -> _t.Mapping[str, int]:
        """The live pe_id -> node-index mapping (current epoch)."""
        return self.current.placement

    @property
    def epoch(self) -> int:
        return self.current.epoch

    @property
    def num_nodes(self) -> int:
        return self.current.num_nodes

    def node_of(self, pe_id: str) -> int:
        return self.current.placement[pe_id]

    def advance(
        self,
        placement: _t.Mapping[str, int],
        num_nodes: int,
        reason: str,
    ) -> PlacementVersion:
        """Append a new epoch, computing the diff against the current one.

        The new mapping is copied with the *previous* epoch's key order
        preserved for surviving PEs (new PEs append), so downstream
        deterministic iteration (Tier-1 variable order) is stable across
        epochs.
        """
        previous = self.current
        ordered: _t.Dict[str, int] = {}
        for pe_id in previous.placement:
            if pe_id in placement:
                ordered[pe_id] = placement[pe_id]
        for pe_id, node in placement.items():
            if pe_id not in ordered:
                ordered[pe_id] = node
        diff: _t.Dict[str, _t.Tuple[_t.Optional[int], int]] = {}
        for pe_id, node in ordered.items():
            old = previous.placement.get(pe_id)
            if old != node:
                diff[pe_id] = (old, node)
        version = PlacementVersion(
            epoch=previous.epoch + 1,
            placement=ordered,
            num_nodes=num_nodes,
            diff=diff,
            reason=reason,
        )
        self.versions.append(version)
        return version

    def __repr__(self) -> str:
        return (
            f"PlacementBook(epoch={self.epoch}, "
            f"nodes={self.num_nodes}, pes={len(self.placement)})"
        )


@dataclass
class MigrationRecord:
    """One live PE migration: identity, route, and observed downtime.

    Shared by both substrates: the simulator fills ``downtime`` from its
    consumed-counter watermark watcher; the threaded runtime's workers
    never stop draining their channels during a (plane-only) migration,
    so it reports a downtime of zero.
    """

    pe_id: str
    t: float
    from_node: str
    to_node: str
    epoch: int
    #: SDOs lifted through the buffer handoff (conserved exactly).
    handoff_occupancy: int
    #: Seconds until the PE's consumed counter advanced past its
    #: pre-migration watermark; None when it never consumed again
    #: before the run ended (e.g. no further traffic reached it).
    downtime: _t.Optional[float] = None


@dataclass
class ElasticityConfig:
    """Arming switch and tuning knobs for the elastic tier.

    Pressure is the (hot-spot, slack) pair of mean input-buffer fill
    in [0, 1] that :meth:`ElasticDriver.pressure` probes: the max over
    nodes drives scale-out, the mean over all nodes drives scale-in.
    The policy scales out when the hot-spot dwells above
    ``scale_out_pressure`` and in when the slack dwells below
    ``scale_in_pressure`` — a hysteresis band, the same shape as the
    admission ladder's enter/exit thresholds, so the two never chatter
    against each other.
    """

    #: Pressure at or above which the policy wants another node.
    scale_out_pressure: float = 0.85
    #: Pressure at or below which the policy wants one fewer node.
    scale_in_pressure: float = 0.35
    min_nodes: int = 1
    max_nodes: int = 16
    #: Seconds between pressure observations (the Tier-3 cadence).
    check_interval: float = 0.5
    #: Consecutive beyond-threshold observations required to act
    #: (min-dwell, the admission ladder's anti-oscillation pattern).
    dwell_intervals: int = 3
    #: Seconds after any membership action before the next may fire.
    cooldown: float = 2.0
    #: Cap on PE moves applied per epoch (bounds per-epoch disruption).
    max_migrations_per_epoch: int = 4
    #: Evaluation budget handed to ``optimize_placement`` per re-solve.
    placement_evaluations: int = 24

    def __post_init__(self) -> None:
        if not (0.0 <= self.scale_in_pressure < self.scale_out_pressure <= 1.0):
            raise ValueError(
                "need 0 <= scale_in_pressure < scale_out_pressure <= 1, "
                f"got {self.scale_in_pressure} / {self.scale_out_pressure}"
            )
        if self.min_nodes < 1:
            raise ValueError(f"min_nodes must be >= 1, got {self.min_nodes}")
        if self.max_nodes < self.min_nodes:
            raise ValueError(
                f"max_nodes ({self.max_nodes}) < min_nodes ({self.min_nodes})"
            )
        if self.check_interval <= 0:
            raise ValueError(
                f"check_interval must be positive, got {self.check_interval}"
            )
        if self.dwell_intervals < 1:
            raise ValueError(
                f"dwell_intervals must be >= 1, got {self.dwell_intervals}"
            )
        if self.cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {self.cooldown}")
        if self.max_migrations_per_epoch < 1:
            raise ValueError(
                "max_migrations_per_epoch must be >= 1, got "
                f"{self.max_migrations_per_epoch}"
            )
        if self.placement_evaluations < 1:
            raise ValueError(
                "placement_evaluations must be >= 1, got "
                f"{self.placement_evaluations}"
            )


@dataclass
class ScalingDecisionRecord:
    """One fired decision, kept for the bench report."""

    t: float
    decision: ScalingDecision
    pressure: float
    num_nodes: int


class ScalingPolicy:
    """Hysteresis + min-dwell + cooldown over a scalar pressure signal.

    Pure and substrate-free: callers feed ``observe(pressure, now,
    num_nodes, slack_pressure)`` once per check interval and act on the
    returned decision.  The policy is a :class:`~repro.control.debounce.
    Debounce` of ``dwell_intervals`` observations and ``cooldown``
    seconds: one in-band reading resets the streak, exactly like the
    admission ladder's min-dwell, and it never fires outside the
    configured node bounds — a bound vetoes a firing without firing.
    """

    def __init__(self, config: ElasticityConfig) -> None:
        self.config = config
        self.debounce = Debounce(config.dwell_intervals, config.cooldown)
        self.decisions: _t.List[ScalingDecisionRecord] = []

    def observe(
        self,
        pressure: float,
        now: float,
        num_nodes: int,
        slack_pressure: float,
    ) -> ScalingDecision:
        """Feed one observation; returns the decision to apply.

        ``pressure`` is the hot-spot signal (max over nodes) and drives
        scale-out; ``slack_pressure`` is the cluster-wide slack signal
        (mean over nodes, empty nodes counting as zero) and drives
        scale-in.  The asymmetry is deliberate: one saturated node
        justifies growing the cluster, but only cluster-wide idleness
        justifies shrinking it — under a skew-prone policy the hottest
        node can stay pinned near full long after aggregate load has
        collapsed.
        """
        config = self.config
        if pressure >= config.scale_out_pressure:
            want, within_bounds = "scale_out", num_nodes < config.max_nodes
        elif slack_pressure <= config.scale_in_pressure:
            want, within_bounds = "scale_in", num_nodes > config.min_nodes
            pressure = slack_pressure
        else:
            want, within_bounds = None, False
        if self.debounce.observe(want, now) and within_bounds:
            self._fire(want, pressure, now, num_nodes)
            return want
        return "hold"

    def request_external(self, now: float, num_nodes: int) -> bool:
        """Request a scale-out from outside the reactive loop.

        The forecasting tier's proactive triggers route through here so
        reactive and proactive decisions share one cooldown: a granted
        request fires exactly like a reactive decision (the streak
        resets, the cooldown starts, the decision is recorded with
        pressure 0), which means the reactive loop then holds through
        the same quiet period — the two can never thrash each other.
        Returns False (and does nothing) during cooldown or at
        ``max_nodes``.
        """
        if not self.debounce.cooled(now) or (
            num_nodes >= self.config.max_nodes
        ):
            return False
        self._fire("scale_out", 0.0, now, num_nodes)
        return True

    def _fire(
        self,
        decision: ScalingDecision,
        pressure: float,
        now: float,
        num_nodes: int,
    ) -> None:
        self.debounce.fire(now)
        self.decisions.append(
            ScalingDecisionRecord(
                t=now,
                decision=decision,
                pressure=pressure,
                num_nodes=num_nodes,
            )
        )


def plan_scale_out_placement(
    placement: _t.Mapping[str, int],
    num_nodes: int,
    load: _t.Mapping[str, float],
    max_moves: int,
) -> _t.Dict[str, int]:
    """Seed placement for a freshly joined node: offload the hottest PEs.

    A deterministic greedy seed used before (or instead of) the full
    ``optimize_placement`` re-solve: take up to ``max_moves`` PEs from
    the most loaded nodes — heaviest ``load`` first, pe_id as the
    tiebreak — and move them to the new node (index ``num_nodes - 1``).
    Never moves a PE that is alone on its node.
    """
    new_node = num_nodes - 1
    result = dict(placement)
    counts: _t.Dict[int, int] = {}
    for node in result.values():
        counts[node] = counts.get(node, 0) + 1
    candidates = sorted(
        (pe_id for pe_id, node in result.items() if node != new_node),
        key=lambda pe_id: (-load.get(pe_id, 0.0), pe_id),
    )
    moved = 0
    for pe_id in candidates:
        if moved >= max_moves:
            break
        home = result[pe_id]
        if counts.get(home, 0) <= 1:
            continue
        result[pe_id] = new_node
        counts[home] -= 1
        counts[new_node] = counts.get(new_node, 0) + 1
        moved += 1
    return result


def plan_scale_in_placement(
    placement: _t.Mapping[str, int],
    num_nodes: int,
    victim: int,
    load: _t.Mapping[str, float],
) -> _t.Dict[str, int]:
    """Relocate every PE off ``victim`` and renumber nodes above it.

    PEs leaving the victim go to the currently least-loaded surviving
    node (fewest resident PEs, lowest index as the tiebreak); placements
    referencing nodes above the victim shift down by one so the result
    indexes the post-removal node list.
    """
    if not (0 <= victim < num_nodes):
        raise ValueError(
            f"victim node {victim} outside [0, {num_nodes})"
        )
    survivors = [n for n in range(num_nodes) if n != victim]
    weight: _t.Dict[int, float] = {n: 0.0 for n in survivors}
    for pe_id, node in placement.items():
        if node != victim:
            weight[node] += load.get(pe_id, 1.0)
    result: _t.Dict[str, int] = {}
    for pe_id, node in placement.items():
        if node == victim:
            target = min(survivors, key=lambda n: (weight[n], n))
            weight[target] += load.get(pe_id, 1.0)
            node = target
        result[pe_id] = node if node < victim else node - 1
    return result


class ElasticDriver:
    """Tier 3 (and the forecasting tier's actuation) for any substrate.

    One driver per system, armed or not.  It owns the placement book,
    node ordinals, the membership timeline and :attr:`migration_log`,
    plans scale-out / scale-in, and runs the shared skeleton of a live
    migration.  What is physical stays behind the substrate's
    :class:`~repro.control.adapter.MembershipOps`, whose three methods
    call back into :meth:`join`, :meth:`leave` and :meth:`migrate`.

    Construction emits no trace event and draws no RNG, so a disarmed
    driver (``config=None``: no policy, :meth:`tick` never scheduled)
    leaves a system byte-identical to one without the tier.
    """

    def __init__(
        self,
        plane: "ControlPlane",
        ops: "MembershipOps",
        topology: "Topology",
        config: _t.Optional[ElasticityConfig] = None,
        active_after: float = 0.0,
    ) -> None:
        self.plane = plane
        self.ops = ops
        self.topology = topology
        self.config = config
        self.scaling_policy: _t.Optional[ScalingPolicy] = (
            ScalingPolicy(config) if config is not None else None
        )
        #: Epoch 0 mirrors the topology's initial placement; every
        #: placement consumer reads ``book.placement``.
        self.book = PlacementBook(topology.placement, topology.num_nodes)
        #: (t, num_nodes) step function for node-seconds accounting.
        self.timeline: _t.List[_t.Tuple[float, int]] = [
            (0.0, topology.num_nodes)
        ]
        #: One record per live PE migration (route + observed downtime).
        self.migration_log: _t.List[MigrationRecord] = []
        #: Cold buffers read as slack; scaling decisions start with the
        #: measured window.
        self._active_after = active_after
        #: Next join gets node-<ordinal>; ordinals are never reused so
        #: node identity stays unique across join/leave churn.
        self._node_ordinal = topology.num_nodes

    # -- membership bookkeeping (called by the substrate's ops) ---------------

    def next_node_id(self) -> str:
        """Allocate the identity of the next node to join."""
        node_id = f"node-{self._node_ordinal}"
        self._node_ordinal += 1
        return node_id

    def join(self, node_id: str, cpu_capacity: float, now: float) -> int:
        """Join an empty node to the plane; returns its node index."""
        index = self.plane.add_node(node_id, cpu_capacity)
        self.timeline.append((now, len(self.plane.groups)))
        return index

    def leave(self, node_index: int, now: float) -> str:
        """Remove an empty node from the plane (it refuses non-empty
        ones: migrate first); returns its node_id."""
        node_id = self.plane.remove_node(node_index)
        self.timeline.append((now, len(self.plane.groups)))
        return node_id

    def migrate(
        self,
        moves: _t.Sequence[_t.Tuple[str, int]],
        reason: str,
        now: float,
        pes: _t.Mapping[str, "PELike"],
        lift: _t.Optional[
            _t.Callable[[str], _t.Mapping[str, _t.Any]]
        ] = None,
        land: _t.Optional[
            _t.Callable[[_t.Sequence[MigrationRecord]], None]
        ] = None,
    ) -> _t.Optional[PlacementVersion]:
        """The substrate-independent skeleton of a live migration.

        Validates and filters ``moves``, then applies the whole set at
        one instant and one epoch boundary: ``drain`` events, plane
        re-home, book advance, one :class:`MigrationRecord` per PE,
        ``resume`` events.  ``lift(pe_id)`` is the substrate's per-PE
        drain step (returning extra ``drain`` trace fields);
        ``land(records)`` its resume step, run once between the book
        advance and the ``resume`` events.  Returns the new placement
        version, or None when every move was a no-op.
        """
        groups = self.plane.groups
        current = self.book.placement
        num_nodes = len(groups)
        actual: _t.List[_t.Tuple[str, int]] = []
        for pe_id, target in moves:
            if pe_id not in pes:
                raise KeyError(f"unknown PE {pe_id!r}")
            if not (0 <= target < num_nodes):
                raise ValueError(
                    f"target node {target} outside [0, {num_nodes})"
                )
            if current[pe_id] != target:
                actual.append((pe_id, target))
        if not actual:
            return None
        recorder = self.plane.recorder
        recording = recorder.enabled
        drained: _t.List[_t.Tuple[str, str, str, int]] = []
        for pe_id, target in actual:
            from_id = groups[current[pe_id]].node_id
            to_id = groups[target].node_id
            occupancy = pes[pe_id].buffer.occupancy
            extra = lift(pe_id) if lift is not None else {}
            if recording:
                recorder.emit(
                    "migration",
                    pe=pe_id,
                    node=from_id,
                    phase="drain",
                    to=to_id,
                    occupancy=occupancy,
                    **extra,
                )
            drained.append((pe_id, from_id, to_id, occupancy))
        self.plane.migrate_pes(actual, reason=reason)
        placement = dict(current)
        placement.update(actual)
        version = self.book.advance(placement, num_nodes, reason)
        records = [
            MigrationRecord(
                pe_id=pe_id,
                t=now,
                from_node=from_id,
                to_node=to_id,
                epoch=version.epoch,
                handoff_occupancy=occupancy,
            )
            for pe_id, from_id, to_id, occupancy in drained
        ]
        if land is not None:
            land(records)
        self.migration_log.extend(records)
        if recording:
            for record in records:
                recorder.emit(
                    "migration",
                    pe=record.pe_id,
                    node=record.to_node,
                    phase="resume",
                    occupancy=pes[record.pe_id].buffer.occupancy,
                    epoch=version.epoch,
                )
        return version

    # -- Tier-3 cadence --------------------------------------------------------

    def pressure(self) -> _t.Tuple[float, float]:
        """(hot-spot, slack) scaling signals, both normalized to [0, 1].

        Hot-spot is the max over nodes of mean resident buffer fill and
        drives scale-out; slack is the mean over *all* nodes — empty
        nodes count as zero fill, they are reclaimable capacity — and
        drives scale-in.
        """
        worst = 0.0
        total = 0.0
        groups = self.plane.groups
        for group in groups:
            if not group.pes:
                continue
            fill = sum(
                pe.buffer.occupancy / pe.buffer.capacity for pe in group.pes
            ) / len(group.pes)
            if fill > worst:
                worst = fill
            total += fill
        return worst, (total / len(groups) if groups else 0.0)

    def tick(self, now: float) -> None:
        """Observe pressure and act on the scaling policy's decision."""
        assert self.scaling_policy is not None
        if now < self._active_after:
            return
        hot, slack = self.pressure()
        decision = self.scaling_policy.observe(
            hot, now, len(self.plane.groups), slack
        )
        if decision == "scale_out":
            self.scale_out()
        elif decision == "scale_in":
            self.scale_in()

    def reoptimize(
        self, rates: _t.Mapping[str, float], reason: str
    ) -> None:
        """Re-solve Tier 1 for ``rates`` on the current placement epoch."""
        self.plane.reoptimize(
            self.topology.graph, self.book.placement, rates, reason=reason
        )

    def scale_out(self) -> None:
        """Join a node, re-solve placement, migrate a bounded move set."""
        assert self.config is not None
        config = self.config
        topology = self.topology
        self.ops.add_node()
        num_nodes = len(self.plane.groups)
        current = self.book.placement
        seed = plan_scale_out_placement(
            current,
            num_nodes,
            self.plane.targets.cpu,
            config.max_migrations_per_epoch,
        )
        refined = optimize_placement(
            topology.graph,
            seed,
            topology.source_rates,
            num_nodes,
            max_evaluations=config.placement_evaluations,
            capacities=self.plane.capacities(),
        ).placement
        moves = [
            (pe_id, refined[pe_id])
            for pe_id in current
            if refined[pe_id] != current[pe_id]
        ][: config.max_migrations_per_epoch]
        self.ops.migrate_pes(moves, reason="scale_out")
        self.reoptimize(topology.source_rates, "elastic")

    def scale_in(self) -> None:
        """Evacuate and remove the least-loaded evictable node."""
        assert self.config is not None
        num_nodes = len(self.plane.groups)
        load = self.plane.targets.cpu
        node_load = [0.0] * num_nodes
        node_count = [0] * num_nodes
        for pe_id, node in self.book.placement.items():
            node_load[node] += load.get(pe_id, 0.0)
            node_count[node] += 1
        # Only nodes whose evacuation fits the per-epoch migration cap
        # are evictable; when none qualify the decision becomes a hold.
        candidates = [
            n
            for n in range(num_nodes)
            if node_count[n] <= self.config.max_migrations_per_epoch
        ]
        if not candidates:
            return
        victim = min(candidates, key=lambda n: (node_load[n], -n))
        if self.evacuate_and_remove(victim, "scale_in"):
            self.reoptimize(self.topology.source_rates, "elastic")

    def evacuate_and_remove(self, node_index: int, reason: str) -> bool:
        """Live-migrate everything off a node, then remove it.

        Shared by :meth:`scale_in` and the fault injector's membership
        faults.  Returns False (and does nothing) when the node is the
        last one standing.
        """
        num_nodes = len(self.plane.groups)
        if num_nodes <= 1:
            return False
        current = self.book.placement
        renumbered = plan_scale_in_placement(
            current, num_nodes, node_index, self.plane.targets.cpu
        )
        # plan_scale_in returns post-removal indices; the physical moves
        # happen before removal, so map targets back to current indices.
        moves = [
            (pe_id, post if post < node_index else post + 1)
            for pe_id, post in renumbered.items()
            if current[pe_id] == node_index
        ]
        self.ops.migrate_pes(moves, reason=reason)
        self.ops.remove_node(node_index)
        self.book.advance(renumbered, len(self.plane.groups), reason)
        return True

    def node_seconds(self, t0: float, t1: float) -> float:
        """Integrate the membership step function over [t0, t1]."""
        timeline = self.timeline
        total = 0.0
        for i, (t, count) in enumerate(timeline):
            seg_start = max(t, t0)
            seg_end = timeline[i + 1][0] if i + 1 < len(timeline) else t1
            seg_end = min(seg_end, t1)
            if seg_end > seg_start:
                total += (seg_end - seg_start) * count
        return total

    # -- forecasting-tier hooks (ForecastController.bind takes these) ---------

    def proactive_reoptimize(self, rates: _t.Mapping[str, float]) -> None:
        """Forecast-triggered Tier-1 re-solve from *predicted* rates."""
        self.reoptimize(rates, "proactive")

    def proactive_scale_out(self, now: float) -> bool:
        """Forecast-triggered scale-out, routed through the elastic
        policy so the reactive and proactive tiers share one cooldown.
        Returns False when no elastic tier is armed or the request was
        vetoed (cooldown / node bounds)."""
        policy = self.scaling_policy
        if policy is None or not policy.request_external(
            now, len(self.plane.groups)
        ):
            return False
        self.scale_out()
        return True
