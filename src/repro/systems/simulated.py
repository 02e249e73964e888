"""The discrete-event substrate, and the one-call entry point.

:class:`SimulatedSystem` runs :class:`~repro.model.pe.PERuntime` PEs and
:mod:`repro.systems.dataplane` in the simulation kernel, which pumps
each node's controller at an unsynchronized phase offset (the algorithm
needs no inter-node synchronization, Section V-E).  :func:`run_system`
runs either substrate.
"""

from __future__ import annotations

import typing as _t

from repro.check import conservation
from repro.control.config import ControlConfig
from repro.control.elastic import MigrationRecord, PlacementVersion
from repro.control.wiring import PeriodicTick
from repro.core.policies import Policy
from repro.core.targets import AllocationTargets
from repro.graph.topology import Topology
from repro.metrics.collectors import MetricsReport, WindowCounters
from repro.model.links import Link
from repro.model.pe import PERuntime
from repro.obs.profiler import PhaseProfiler
from repro.obs.recorder import TraceRecorder
from repro.sim.engine import URGENT, Environment
from repro.sim.events import Event
from repro.systems.build import SystemConfig, sync_links
from repro.systems.dataplane import (
    SimAdapter,
    SimDataPlane,
    sample_buffers,
)
from repro.systems.substrate import Substrate

# Not called here any more (ElasticDriver plans and re-solves): kept as
# globals of this module because the perf observatory's trace targets
# resolve them by name here (benchmarks/observatory/spec.py).
from repro.control.elastic import plan_scale_in_placement  # noqa: F401
from repro.control.elastic import plan_scale_out_placement  # noqa: F401
from repro.graph.placement_opt import optimize_placement  # noqa: F401

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.spans import SpanTracker

__all__ = ["SimulatedSystem", "SystemConfig", "build_system", "run_system"]


class SimulatedSystem(Substrate):
    """One policy running on one topology inside the simulation kernel."""

    def __init__(
        self,
        topology: Topology,
        policy: Policy,
        targets: _t.Optional[AllocationTargets] = None,
        config: _t.Optional[SystemConfig] = None,
        recorder: _t.Optional[TraceRecorder] = None,
        profiler: _t.Optional[PhaseProfiler] = None,
        gauge_cadence: _t.Optional[float] = None,
        spans: _t.Optional["SpanTracker"] = None,
    ):
        config = config or SystemConfig()
        delay = (
            config.dt if config.feedback_delay is None
            else config.feedback_delay
        )
        if (
            config.control_phase_buckets is not None
            and policy.uses_feedback
            and delay == 0.0
        ):
            raise ValueError(
                "control_phase_buckets requires a nonzero feedback "
                "delay under feedback policies: nodes ticking at the "
                "same instant would otherwise see each other's "
                "same-tick publications, which per-node staggered "
                "loops never do"
            )
        self.env = Environment()
        self.profiler = profiler
        self.adapter = SimAdapter()
        #: Links of the edges between nodes (with a ``link_bandwidth``),
        #: re-derived at each migration.
        self.links: _t.Dict[_t.Tuple[str, str], Link] = {}
        sync_links(self.links, topology, topology.placement, config, spans)
        super().__init__(
            topology, policy, config, targets, recorder, spans,
            gauge_cadence, feedback_delay=delay,
            reoptimize_interval=config.reoptimize_interval,
        )
        self.runtimes: _t.Dict[str, PERuntime] = self.pes

    def make_pe(
        self, pe_id: str, is_ingress: bool, is_egress: bool
    ) -> PERuntime:
        runtime = PERuntime(
            profile=self.topology.graph.profile(pe_id),
            buffer_capacity=self.config.buffer_size,
            rng=self.streams.stream(f"pe:{pe_id}"),
            is_ingress=is_ingress,
            is_egress=is_egress,
        )
        if self.recorder.enabled:
            runtime.buffer.attach_recorder(self.recorder, pe_id)
        if self.spans is not None:
            runtime.attach_spans(self.spans)
        return runtime

    def bind_plane(self) -> None:
        self.dataplane = SimDataPlane(
            self.env,
            self.links,
            self.collector,
            self.plane.admission_filters,
            self.recorder,
            spans=self.spans,
        )
        self.adapter.bind(self.dataplane)
        self.admit = self.dataplane.admit

    # -- control loop --------------------------------------------------------

    def start_node_ticker(self, node_id: str, offset: float) -> None:
        """One node's control loop: a tick every ``dt`` from ``offset``
        on, until the node leaves.

        Unsynchronized phase offsets: no global tick (Section V-E).
        Keyed by node identity: membership changes shift node indices
        and rebuild the controller list, so both are resolved fresh each
        tick.

        One event re-armed after each tick: the hottest loop of a run
        pays no fresh :class:`Timeout` and no generator resume.  It
        schedules exactly the events of the equivalent process (start
        now, ``yield timeout(offset)``, ``yield timeout(dt)`` per tick,
        completion when the loop ends), because the pinned run digests
        count events; ``delay=dt`` and not ``call_at(now + dt)``, whose
        ``at - now`` is not ``dt`` in floating point.

        With ``control_phase_buckets`` the nodes share that many loops
        instead, each started at the first node of its contiguous run.
        """
        env = self.env
        dt = self.config.dt
        plane = self.plane
        buckets = self.config.control_phase_buckets
        if buckets is not None:
            nodes = len(plane.groups)
            count = min(buckets, nodes)
            index = plane.node_index(node_id)
            bucket = -(-index * count // nodes)
            start = bucket * nodes // count
            if start == index:
                stop = (bucket + 1) * nodes // count
                env.process(
                    self._bucket_loop(bucket, count, list(range(start, stop)))
                )
            return
        stopped = env.event()

        def tick(event: Event) -> None:
            index = plane.node_index(node_id)
            if index is None:
                stopped.succeed()
                return
            if not plane.paused[index]:
                plane.node_controllers[index].tick(env.now)
            event.callbacks = [tick]
            env.schedule(event, delay=dt)

        def start(event: Event) -> None:
            event.callbacks = [tick]
            env.schedule(event, delay=offset)

        env.call_at(env.now, start, priority=URGENT)

    def _bucket_loop(
        self, bucket: int, count: int, node_indices: _t.List[int]
    ) -> _t.Generator:
        # Phase buckets: contiguous node runs share one tick instant
        # (decide-all-then-apply-all inside the plane), with the same
        # staggered-offset idea as per-node loops but between buckets.
        # Index-bound, so membership operations refuse bucketed systems.
        env = self.env
        dt = self.config.dt
        tick_nodes = self.plane.tick_nodes
        offset = (bucket + 1) / (count + 1) * dt
        yield env.timeout(offset)
        while True:
            tick_nodes(node_indices, env.now)
            yield env.timeout(dt)

    def start_periodic(self, periodic: PeriodicTick) -> None:
        self.env.process(periodic.run(self.env))

    # -- fault hooks ---------------------------------------------------------

    def crash_pe(self, pe_id: str) -> None:
        """Crash a PE: its buffered input is lost.  The fault injector
        then keeps it gated for the fault window."""
        self.runtimes[pe_id].buffer.flush(self.env.now, cause="pe_crash")

    # -- MembershipOps (the physical half; ElasticDriver keeps the books) -----

    def require_node_tickers(self, operation: str) -> None:
        """Refuse a membership operation on a bucketed system."""
        if self.config.control_phase_buckets is not None:
            raise RuntimeError(
                f"{operation} requires per-node control loops: this system "
                "was built with control_phase_buckets, whose shared-phase "
                "loops are index-bound and cannot follow membership churn"
            )

    def migrate_pes(
        self,
        moves: _t.Sequence[_t.Tuple[str, int]],
        reason: str = "migration",
    ) -> _t.Optional[PlacementVersion]:
        """Live-migrate PEs: drain -> buffer handoff -> re-wire -> resume.

        The physical half of :meth:`ElasticDriver.migrate`: each PE's
        buffered SDOs are lifted out telemetry-neutrally
        (:meth:`~repro.model.buffers.InputBuffer.handoff`), inter-node
        links are re-wired to the new placement, and the SDOs are
        restored — conservation holds exactly across the handoff.
        """
        self.require_node_tickers("migrate_pes")
        now = self.env.now
        runtimes = self.runtimes
        held: _t.Dict[str, _t.Tuple[_t.List, int]] = {}

        def lift(pe_id: str) -> _t.Dict[str, float]:
            runtime = runtimes[pe_id]
            in_progress = runtime.work_in_service
            held[pe_id] = (
                runtime.buffer.handoff(now), runtime.counters.consumed
            )
            return {"in_progress_work": in_progress}

        def watch_downtime(
            record: MigrationRecord, watermark: int
        ) -> _t.Generator:
            # Downtime = time until the migrated PE consumes its next SDO
            # past the pre-migration watermark, polled at control cadence.
            env = self.env
            dt = self.config.dt
            counters = runtimes[record.pe_id].counters
            while counters.consumed <= watermark:
                yield env.timeout(dt)
            record.downtime = env.now - record.t

        def land(records: _t.Sequence[MigrationRecord]) -> None:
            sync_links(
                self.links, self.topology, self.placement_book.placement,
                self.config, self.spans,
            )
            for record in records:
                sdos, watermark = held[record.pe_id]
                runtimes[record.pe_id].buffer.restore(sdos)
                self.env.process(watch_downtime(record, watermark))

        return self.elastic.migrate(moves, reason, now, runtimes, lift, land)

    # -- measurement ---------------------------------------------------------

    substrate = "sim"
    #: One process at a time: every oracle is exact here.
    strict_oracles = True
    check_conservation = conservation.check_conservation

    @property
    def shed_drops(self) -> int:
        """SDOs the policy's shed filters refused."""
        return self.dataplane.shed_drops

    def window_counters(self) -> WindowCounters:
        """The counters :func:`measure_window` takes deltas of, read
        after sampling every buffer (which brings the occupancy
        integrals up to now)."""
        runtimes = self.runtimes
        sample_buffers(runtimes.values(), self.env.now, self.recorder)
        return WindowCounters.read(
            self,
            [r.buffer.telemetry for r in runtimes.values()],
            cpu_used=sum(r.counters.cpu_used for r in runtimes.values()),
            emit_attempts=self.dataplane.emit_attempts,
            emit_drops=self.dataplane.emit_drops,
            occupancy_integrals={
                pe_id: r.buffer.telemetry.occupancy_integral
                for pe_id, r in runtimes.items()
            },
        )


def build_system(
    topology: Topology,
    policy: Policy,
    targets: _t.Optional[AllocationTargets] = None,
    config: _t.Optional[ControlConfig] = None,
    recorder: _t.Optional[TraceRecorder] = None,
    profiler: _t.Optional[PhaseProfiler] = None,
    gauge_cadence: _t.Optional[float] = None,
    spans: _t.Optional["SpanTracker"] = None,
) -> Substrate:
    """The system ``config`` asks for: a threaded
    :class:`~repro.runtime.spc.SPCRuntime` for a ``RuntimeConfig``,
    else a :class:`SimulatedSystem`.

    A ``profiler`` is refused with a ``RuntimeConfig``: its exclusive
    wall time on one stack is defined only where one thread runs at a
    time, and the runtime runs many."""
    # Imported here: the runtime imports this package.
    from repro.runtime.spc import RuntimeConfig, SPCRuntime

    shared = dict(
        targets=targets, config=config, recorder=recorder,
        gauge_cadence=gauge_cadence, spans=spans,
    )
    if not isinstance(config, RuntimeConfig):
        return SimulatedSystem(topology, policy, profiler=profiler, **shared)
    if profiler is not None:
        raise ValueError(
            "profiler is simulator-only: exclusive wall time on one "
            "stack is undefined when many threads run at once"
        )
    return SPCRuntime(topology, policy, **shared)


def run_system(
    topology: Topology,
    policy: Policy,
    duration: float = 30.0,
    targets: _t.Optional[AllocationTargets] = None,
    config: _t.Optional[ControlConfig] = None,
) -> MetricsReport:
    """Build and run one system on the substrate its config selects;
    the one-call experiment API.  An instrumented run (recorder,
    profiler, gauges, spans) calls ``build_system(...).run(duration)``."""
    return build_system(topology, policy, targets, config).run(duration)
