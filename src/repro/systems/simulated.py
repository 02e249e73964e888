"""The simulated distributed stream processing system (composition root).

This module is now a thin facade: construction lives in
:mod:`repro.systems.build`, SDO movement in
:mod:`repro.systems.dataplane`, and the entire Tier-2 control step —
feedback aggregation (Eq. 8), CPU allocation (Section V-D), the LQR
flow-control update with upstream ``r_max`` publication (Eq. 7) — in the
substrate-agnostic :mod:`repro.control` package.
:class:`SimulatedSystem` wires the three together:

* every ingress PE is fed by a workload source (bursty on/off by default);
* every processing node runs an independent periodic control loop at an
  unsynchronized phase offset (the paper stresses the algorithm needs no
  inter-node synchronization, Section V-E), pumping one shared
  :class:`~repro.control.node.NodeController` per node;
* SDOs leaving through egress PEs land in the metrics collector.

Use :func:`run_system` for the one-call experiment entry point.
"""

from __future__ import annotations

import contextlib
import typing as _t

from repro.control import NodeGroup
from repro.control.elastic import MigrationRecord, PlacementVersion
from repro.control.wiring import ControlStack
from repro.core.policies import Policy
from repro.core.targets import AllocationTargets
from repro.graph.topology import Topology
from repro.metrics.collectors import (
    MetricsReport,
    WindowCounters,
    measure_window,
)
from repro.model.links import Link
from repro.obs.profiler import PhaseProfiler
from repro.obs.recorder import NULL_RECORDER, TraceRecorder
from repro.sim.engine import URGENT, Environment
from repro.sim.events import Event
from repro.sim.rng import RandomStreams
from repro.systems.build import (
    SystemConfig,
    build_gauges,
    build_links,
    build_runtimes,
    build_sources,
    source_counters,
)
from repro.systems.dataplane import (
    SimAdapter,
    SimDataPlane,
    sample_buffers,
)

# Not called here any more (ElasticDriver plans and re-solves): kept as
# globals of this module because the perf observatory's trace targets
# resolve them by name here (benchmarks/observatory/spec.py).
from repro.control.elastic import plan_scale_in_placement  # noqa: F401
from repro.control.elastic import plan_scale_out_placement  # noqa: F401
from repro.graph.placement_opt import optimize_placement  # noqa: F401

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.spans import SpanTracker

__all__ = ["SimulatedSystem", "SystemConfig", "run_system"]


class SimulatedSystem:
    """One policy running on one topology inside the simulation kernel.

    The system keeps no node list of its own: :attr:`nodes` is the
    control plane's groups, which :class:`ControlStack` builds and
    membership changes in place.  A group's ``cpu_capacity`` is the
    nominal one (what Tier-1, the oracles and a replacement node read);
    an injected slowdown lowers only the live scheduler capacity.
    """

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
        self.topology = topology
        self.policy = policy
        self.config = config or SystemConfig()
        self.env = Environment()
        self.streams = RandomStreams(seed=self.config.seed)

        #: Trace bus every instrumented component publishes to; the null
        #: default keeps all hot paths on their single-branch fast path.
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        if self.recorder.enabled:
            self.recorder.bind_clock(lambda: self.env.now)
        self.profiler = profiler
        self.env.profiler = profiler
        #: Armed latency-span tracker (None keeps every hop disarmed).
        self.spans = spans

        self.runtimes, self.collector = build_runtimes(
            topology, self.config, self.streams, self.recorder, spans=spans
        )
        self.links = build_links(topology, self.config)
        if spans is not None:
            for link in self.links.values():
                link.spans = spans

        config = self.config
        delay = (
            config.dt if config.feedback_delay is None
            else config.feedback_delay
        )
        self.adapter = SimAdapter(self.profiler)
        #: The five control tiers, wired as on every substrate; this
        #: system is their MembershipOps and their ticker.
        stack = ControlStack(
            policy,
            topology,
            config,
            adapter=self.adapter,
            ops=self,
            pes=self.runtimes,
            collector=self.collector,
            clock=lambda: self.env.now,
            targets=targets,
            recorder=self.recorder,
            profiler=self.profiler,
            feedback_delay=delay,
        )
        self.tier1 = stack.tier1
        self.admission = stack.admission
        self.forecast = stack.forecast
        self.plane = stack.plane
        self.elasticity = config.elasticity
        self.elastic = stack.elastic
        self.placement_book = self.elastic.book
        self.scaling_policy = self.elastic.scaling_policy
        self.migration_log = self.elastic.migration_log
        if (
            config.control_phase_buckets is not None
            and self.plane.uses_feedback
            and delay == 0.0
        ):
            raise ValueError(
                "control_phase_buckets requires a nonzero feedback "
                "delay under feedback policies: nodes ticking at the "
                "same instant would otherwise see each other's "
                "same-tick publications, which per-node staggered "
                "loops never do"
            )
        self.dataplane = SimDataPlane(
            self.env,
            self.links,
            self.collector,
            self.plane.admission_filters,
            self.recorder,
            self.profiler,
            spans=spans,
        )
        self.adapter.bind(self.dataplane)

        self.sources = build_sources(
            self.env, topology, config, self.streams, self.runtimes,
            self.dataplane.admit, admission=self.admission,
        )
        self.gauges = build_gauges(
            self.env, gauge_cadence, self.recorder, self.runtimes, self.plane,
            collector=self.collector,
        )
        stack.bind_sources(
            source_counters(self.sources), config.reoptimize_interval
        )

        # Process creation order is part of the determinism contract
        # (same-timestamp tie-breaks): node loops, then the periodic
        # tiers.  First ticks land one full interval in.
        self._start_node_tickers()
        for periodic in stack.periodic():
            self.env.process(periodic.run(self.env))

    @property
    def nodes(self) -> _t.List[NodeGroup]:
        """The processing nodes: the plane's own groups, not a copy."""
        return self.plane.groups

    # -- control loop --------------------------------------------------------

    def _start_node_tickers(self) -> None:
        num_nodes = len(self.nodes)
        buckets = self.config.control_phase_buckets
        if buckets is not None and num_nodes > 0:
            count = min(buckets, num_nodes)
            for bucket in range(count):
                start = (bucket * num_nodes) // count
                stop = ((bucket + 1) * num_nodes) // count
                if start == stop:
                    continue
                self.env.process(
                    self._bucket_loop(bucket, count, list(range(start, stop)))
                )
            return
        for index, node in enumerate(self.nodes):
            offset = (index + 1) / (num_nodes + 1) * self.config.dt
            self._start_node_ticker(node.node_id, offset)

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

    def _start_node_ticker(self, node_id: str, offset: float) -> None:
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
        """
        env = self.env
        dt = self.config.dt
        plane = self.plane
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

    # -- fault hooks ---------------------------------------------------------

    #: The kernel runs one process at a time, so a fault injector's
    #: membership changes need no lock here.
    membership_lock: _t.ContextManager[None] = contextlib.nullcontext()

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

    def add_node(self, cpu_capacity: float = 1.0) -> str:
        """Join a fresh empty node: plane group, then its control loop."""
        self.require_node_tickers("add_node")
        node_id = self.elastic.next_node_id()
        index = self.elastic.join(node_id, cpu_capacity, self.env.now)
        offset = (index + 1) / (index + 2) * self.config.dt
        self._start_node_ticker(node_id, offset)
        return node_id

    def remove_node(self, node_index: int) -> str:
        """Leave: the plane refuses non-empty nodes; the node's loop
        returns on its next tick."""
        self.require_node_tickers("remove_node")
        return self.elastic.leave(node_index, self.env.now)

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

        def land(records: _t.Sequence[MigrationRecord]) -> None:
            self._rewire_links()
            for record in records:
                sdos, watermark = held[record.pe_id]
                runtimes[record.pe_id].buffer.restore(sdos)
                self.env.process(self._watch_downtime(record, watermark))

        return self.elastic.migrate(moves, reason, now, runtimes, lift, land)

    def _watch_downtime(
        self, record: MigrationRecord, watermark: int
    ) -> _t.Generator:
        # Downtime = time until the migrated PE consumes its next SDO
        # past the pre-migration watermark, polled at control cadence.
        env = self.env
        dt = self.config.dt
        counters = self.runtimes[record.pe_id].counters
        while counters.consumed <= watermark:
            yield env.timeout(dt)
        record.downtime = env.now - record.t

    def _rewire_links(self) -> None:
        """Re-derive inter-node links from the current placement epoch.

        Edges that became cross-node gain a fresh link; edges now
        co-located lose theirs (in-flight transfers already scheduled
        keep their delivery times — only future emits see the change).
        """
        bandwidth = self.config.link_bandwidth
        if bandwidth is None:
            return
        placement = self.placement_book.placement
        live: _t.Set[_t.Tuple[str, str]] = set()
        for src, dst in self.topology.graph.edges():
            if placement[src] == placement[dst]:
                continue
            live.add((src, dst))
            if (src, dst) not in self.links:
                link = Link(
                    name=f"{src}->{dst}",
                    bandwidth=bandwidth,
                    latency=self.config.link_latency,
                )
                if self.spans is not None:
                    link.spans = self.spans
                self.links[(src, dst)] = link
        for key in [k for k in self.links if k not in live]:
            del self.links[key]

    # -- measurement ---------------------------------------------------------

    substrate = "sim"
    #: No worker threads here: the report's restart counts read 0.
    worker_restarts = 0
    workers_abandoned = 0
    #: One process at a time: the collector is read without a lock.
    collector_lock: _t.ContextManager[None] = contextlib.nullcontext()

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

    def run(
        self,
        duration: float,
        observer: _t.Optional[_t.Callable[["SimulatedSystem"], None]] = None,
        observe_interval: float = 1.0,
    ) -> MetricsReport:
        """Warm up, then simulate ``duration`` seconds and report metrics
        (see :func:`~repro.metrics.collectors.measure_window`)."""
        return measure_window(self, duration, observer, observe_interval)


def run_system(
    topology: Topology,
    policy: Policy,
    duration: float = 30.0,
    targets: _t.Optional[AllocationTargets] = None,
    config: _t.Optional[SystemConfig] = None,
    recorder: _t.Optional[TraceRecorder] = None,
    profiler: _t.Optional[PhaseProfiler] = None,
    gauge_cadence: _t.Optional[float] = None,
    spans: _t.Optional["SpanTracker"] = None,
) -> MetricsReport:
    """Build and run one simulated system; the one-call experiment API."""
    system = SimulatedSystem(
        topology,
        policy,
        targets=targets,
        config=config,
        recorder=recorder,
        profiler=profiler,
        gauge_cadence=gauge_cadence,
        spans=spans,
    )
    return system.run(duration)
