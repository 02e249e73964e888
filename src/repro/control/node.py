"""Per-node Tier-2 controller (paper Section V-E, one loop per node).

Each control tick performs, in the paper's order: downstream feedback
aggregation (Eq. 8) -> CPU allocation (Section V-D) -> flow-control
update + upstream publication (Eq. 7) -> grant application on the
substrate.  The tick body is substrate-free; everything physical goes
through the :class:`~repro.control.adapter.SystemAdapter`.
"""

from __future__ import annotations

import typing as _t

from repro.control.adapter import GateFn, PELike
from repro.core.flow_control import update_rows
from repro.obs.recorder import BUFFER_OCCUPANCY, R_MAX

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.control.plane import ControlPlane

#: Scheduler protocol: .allocate(dt, ...) -> [cpu fraction per resident
#: PE], .settle([cpu-seconds used per resident PE]), both in the order of
#: the scheduler's ``pes`` (the node's records).  On a vector plane the
#: slot holds the engine's per-node view, which only settles.
Scheduler = _t.Any
#: Flow-controller protocol: FlowController (NodeController's Eq. 7
#: pass reads its ``row``) or the vector engine's per-PE view (the same
#: inspection surface over array state, see repro.control.vector).
FlowControllerLike = _t.Any


def occupancy_rows(
    records: _t.Sequence["ControlRecord"], occupancies: _t.Sequence[float]
) -> _t.List[_t.Tuple[str, float, int]]:
    """One snapshot as :data:`~repro.obs.recorder.BUFFER_OCCUPANCY`
    rows, for the adapter's ``recorder``."""
    return [
        (record.pe_id, occupancy, record.pe.buffer.capacity)
        for record, occupancy in zip(records, occupancies)
    ]


class ControlRecord:
    """Per-PE state resolved once at wiring time for the control loop.

    The per-tick loops in :meth:`NodeController.control` run for every PE
    on every node every ``dt``; anything constant across ticks (gate,
    controller, downstream ids, the Tier-1 CPU target) lives here instead
    of being re-looked-up from the policy/targets dictionaries each time.
    """

    __slots__ = ("pe", "pe_id", "gate", "controller", "downstream_ids",
                 "cpu_target")

    def __init__(
        self,
        pe: PELike,
        gate: _t.Optional[GateFn],
        controller: _t.Optional["FlowControllerLike"],
        cpu_target: float,
    ):
        self.pe = pe
        self.pe_id = pe.pe_id
        self.gate = gate
        self.controller = controller
        # Deduplicated (order-preserving): a fan-out graph can wire the
        # same consumer twice, and Eq. 8 reads are max/min — reading a
        # duplicate changes nothing but costs a bus lookup per tick.
        self.downstream_ids = tuple(
            dict.fromkeys(d.pe_id for d in pe.downstream)
        )
        self.cpu_target = cpu_target


class NodeController:
    """Runs the full Tier-2 step for the PEs resident on one node.

    Substrate-agnostic: reads occupancies through the adapter's
    ``snapshot``, publishes ``r_max`` on the plane's feedback bus (read
    through the plane every tick so fault-injection bus swaps take
    effect), and applies grants through the adapter.  Every plane pumps
    this one class — the simulator and the threaded runtime, scalar and
    vector: on a vector plane :meth:`control` hands the step to the
    plane's :class:`~repro.control.vector.VectorEngine` as a group of
    one node.  The parity tests in ``tests/test_control_parity.py`` and
    ``tests/test_control_vector.py`` hold them to identical decision
    sequences.

    The adapter, ``dt``, the feedback constants and the engine are the
    plane's, read once here.
    """

    def __init__(
        self,
        node_index: int,
        node_id: str,
        scheduler: Scheduler,
        records: _t.Sequence[ControlRecord],
        plane: "ControlPlane",
    ):
        self.node_index = node_index
        self.node_id = node_id
        self.scheduler = scheduler
        self.records = list(records)
        self.plane = plane
        self.adapter = plane.adapter
        self.dt = plane.dt
        self.uses_feedback = uses_feedback = plane.uses_feedback
        self.aggregate_max = plane.aggregate_max
        #: The plane's vector engine, or None on a scalar plane.
        self.engine = engine = plane._engine
        #: Token buckets (the policy's Section V-D scheduler) or strict.
        self.is_aces = plane.token_depth_intervals is not None
        #: Gate decisions of the most recent non-feedback control step
        #: (the PEs refused by their gates); feedback policies leave it
        #: empty.  Exposed for diagnostics and the parity test.
        self.last_blocked: _t.FrozenSet[str] = frozenset()
        self.ticks = 0
        if engine is not None:
            return
        #: What the scalar step reads of the records, as parallel lists
        #: in record order, resolved once: a tick passes lists between
        #: the layers and looks nothing up by pe_id.
        self._pe_ids = [record.pe_id for record in self.records]
        self._downstream = [record.downstream_ids for record in self.records]
        self._flow_rows = (
            [record.controller.row for record in self.records]
            if uses_feedback
            else []
        )

    # -- the Tier-2 step -----------------------------------------------------

    def control(self, now: float) -> _t.List[float]:
        """Feedback aggregation, CPU allocation, and Eq. 7 updates.

        Returns this interval's CPU grants (one fraction per record, in
        record order) without touching the substrate; :meth:`tick`
        applies them.
        """
        engine = self.engine
        if engine is not None:
            return engine.control_group(
                engine.group_for((self.node_index,)), now
            )[0]
        dt = self.dt
        records = self.records
        scheduler = self.scheduler

        if self.uses_feedback:
            bus = self.plane.bus
            caps = bus.read_bounds(self._downstream, now, self.aggregate_max)
            # Before allocation: V-D and Eq. 7 work from one occupancy
            # read.  Nothing runs in between and a snapshot at a fixed
            # ``now`` is idempotent.
            occupancies = self.adapter.snapshot(self.node_index, records, now)
            # One state read per PE serves both g^{-1} and rho below.
            service_times = [
                record.pe.current_service_time for record in records
            ]
            if self.is_aces:
                fractions = scheduler.allocate(
                    dt, caps, occupancies, service_times
                )
            else:
                fractions = scheduler.allocate(dt)
            # rho_j(n) is the rate the PE can *sustain*: when the PE is
            # momentarily unallocated (e.g. empty buffer) it still earns
            # tokens at its long-term target, so advertising the target
            # rate upstream is what keeps the pipeline from converging
            # to a self-throttled equilibrium.
            rhos = []
            for record, cpu, service_time in zip(
                records, fractions, service_times
            ):
                target = record.cpu_target
                rhos.append((target if cpu < target else cpu) / service_time)
            # records always carry a controller when uses_feedback.
            r_maxes = update_rows(self._flow_rows, occupancies, rhos)
            pe_ids = self._pe_ids
            # Trace rows from the same lists, in the order grant rows
            # (inside allocate), occupancy samples, r_max — after every
            # update and before publication, so the oracles see a bad
            # r_max before the bus rejects it.
            samples = self.adapter.recorder
            if samples.enabled:
                samples.emit_rows(
                    BUFFER_OCCUPANCY, None,
                    occupancy_rows(records, occupancies),
                )
            recorder = self.plane.recorder
            if recorder.enabled:
                recorder.emit_rows(
                    R_MAX, None, list(zip(pe_ids, r_maxes, occupancies, rhos))
                )
            bus.publish_rows(pe_ids, r_maxes, now)
            return fractions

        # Redistribution reacts to *observed* blocking (last interval):
        # the scheduler has no clairvoyant knowledge of which PEs will
        # sleep this interval, so a PE that blocks mid-interval wastes
        # the rest of its grant — the stop-start cost of Lock-Step.
        # A sleeping PE wakes when its downstream frees space (checked
        # at tick granularity, like the wake-up notification it would
        # receive), so one stop costs at least one interval.  A substrate
        # that blocks inside the worker (threaded runtime) never reports
        # blocked_last_interval, leaving every flag clear.
        blocked: _t.Optional[_t.List[bool]] = None
        blocked_ids = []
        for k, record in enumerate(records):
            pe = record.pe
            if not pe.blocked_last_interval:
                continue
            gate = record.gate
            if gate is None or gate(pe):
                pe.blocked_last_interval = False
            else:
                if blocked is None:
                    blocked = [False] * len(records)
                blocked[k] = True
                blocked_ids.append(record.pe_id)
        self.last_blocked = frozenset(blocked_ids)
        return scheduler.allocate(dt, blocked)

    def tick(self, now: float) -> None:
        """One full control interval: decide, then act on the substrate."""
        fractions = self.control(now)
        self.ticks += 1
        self.scheduler.settle(
            self.adapter.apply_grants(
                self.node_index, self.records, fractions, now, self.dt
            )
        )

    # -- operational surface -------------------------------------------------

    def set_gate(self, pe_id: str, gate: _t.Optional[GateFn]) -> bool:
        """Replace one resident PE's gate; True when the PE lives here."""
        for record in self.records:
            if record.pe_id == pe_id:
                record.gate = gate
                return True
        return False

    def refresh_cpu_targets(
        self, cpu_targets: _t.Mapping[str, float]
    ) -> None:
        """Propagate refreshed Tier-1 targets into the tick records."""
        for record in self.records:
            record.cpu_target = cpu_targets.get(record.pe_id, 0.0)

    def __repr__(self) -> str:
        return (
            f"NodeController({self.node_id}, pes={len(self.records)}, "
            f"ticks={self.ticks})"
        )
