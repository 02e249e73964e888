"""The SPC runtime orchestrator: topology -> threads -> metrics.

Builds a running system from the same inputs as the simulator
(:class:`~repro.graph.topology.Topology`, a policy name, Tier-1 targets),
with real worker threads, real bounded queues, wall-clock node control
loops, and source threads.  Time is dilated: one model second takes
``dilation`` wall seconds, so a 60-PE calibration run finishes quickly.

The control loop per node pumps the *same*
:class:`~repro.control.node.NodeController` the simulator uses, through
a :class:`ThreadAdapter` — the controller code is shared, not mirrored;
that equivalence is what the calibration experiment (paper Section VI-C)
measures and ``tests/test_control_parity.py`` asserts tick-by-tick.  The
workload sources and the fault injector are shared the same way: the
simulator's classes run as processes of a thread-backed
:class:`~repro.runtime.env.ThreadEnv`.
"""

from __future__ import annotations

import threading
import time
import typing as _t
from dataclasses import dataclass, field

from repro.control.config import ControlConfig
from repro.control.elastic import MigrationRecord, PlacementVersion
from repro.control.wiring import ControlStack
from repro.core.policies import Policy, policy_by_name
from repro.core.targets import AllocationTargets
from repro.graph.topology import Topology
from repro.metrics.collectors import EgressCollector
from repro.metrics.stats import SummaryStats
from repro.model.sdo import SDO
from repro.obs.recorder import NULL_RECORDER, TraceRecorder
from repro.runtime.env import ThreadEnv
from repro.runtime.worker import RuntimePE
from repro.sim.rng import RandomStreams
from repro.systems.build import build_sources, source_counters

# Not called here any more (ElasticDriver plans and re-solves): kept as
# globals of this module because the perf observatory's trace targets
# resolve them by name here (benchmarks/observatory/spec.py).
from repro.control.elastic import plan_scale_in_placement  # noqa: F401
from repro.control.elastic import plan_scale_out_placement  # noqa: F401
from repro.graph.placement_opt import optimize_placement  # noqa: F401

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.control.node import ControlRecord
    from repro.obs.spans import SpanTracker


#: Scan period (model seconds) of the worker supervisor, which detects
#: dead worker threads and restarts them with bounded exponential backoff.
SUPERVISOR_POLL = 0.02
#: Restart budget per worker; a worker that keeps dying past this is
#: abandoned (and counted in ``RuntimeReport.workers_abandoned``).
MAX_WORKER_RESTARTS = 5
#: Exponential-backoff schedule between restarts of one worker (model
#: seconds): base * factor**restarts_so_far.
RESTART_BACKOFF_BASE = 0.05
RESTART_BACKOFF_FACTOR = 2.0


@dataclass
class RuntimeConfig(ControlConfig):
    """Configuration of a threaded runtime experiment: the shared
    :class:`~repro.control.config.ControlConfig` plus wall-clock timing."""

    dt: float = 0.05
    #: Wall seconds per model second: 1.0 is real time, and 0.25 runs
    #: four times faster (emulated work sleeps the dilated time).
    dilation: float = 1.0
    warmup: float = 1.0
    source_kind: str = "poisson"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.dilation <= 0:
            raise ValueError("dilation must be positive")


@dataclass
class RuntimeReport:
    """Measured outcome of one threaded run (model-time units)."""

    policy: str
    duration: float
    weighted_throughput: float
    total_output_sdos: int
    latency: SummaryStats
    buffer_drops: int
    cpu_utilization: float
    per_egress_counts: _t.Dict[str, int] = field(default_factory=dict)
    #: Dead workers revived by the supervisor during the run.
    worker_restarts: int = 0
    #: Workers that exhausted their restart budget and stayed dead.
    workers_abandoned: int = 0
    #: Pooled end-to-end latency quantiles in seconds
    #: (``{"p50": ..., "p95": ..., "p99": ...}``).
    latency_percentiles: _t.Dict[str, float] = field(default_factory=dict)
    #: Per-kind drop breakdown over the measured window, mirroring
    #: ``MetricsReport.drops_by_kind`` (``flushed`` counts the channel
    #: contents a worker crash lost; ``admission_shed`` /
    #: ``admission_rejected`` count front-end refusals).
    drops_by_kind: _t.Dict[str, int] = field(default_factory=dict)

    def one_line(self) -> str:
        pct = self.latency_percentiles
        return (
            f"{self.policy} [threaded]: "
            f"throughput={self.weighted_throughput:.2f} "
            f"output={self.total_output_sdos} "
            f"latency_mean={self.latency.mean:.4f} "
            f"p50/p95/p99={pct.get('p50', 0.0) * 1000:.1f}/"
            f"{pct.get('p95', 0.0) * 1000:.1f}/"
            f"{pct.get('p99', 0.0) * 1000:.1f}ms "
            f"drops={self.buffer_drops}"
        )


class ThreadAdapter:
    """:class:`~repro.control.adapter.SystemAdapter` over worker threads.

    Grants are applied by writing each worker's fractional ``allocation``
    (the worker reads it per SDO); consumed CPU is settled from the
    workers' monotonically growing ``cpu_used`` counters.
    """

    #: No occupancy samples in the trace: a channel depth read is not a
    #: telemetry sample.
    recorder: TraceRecorder = NULL_RECORDER

    def __init__(self) -> None:
        #: Per-PE cpu_used watermark at the previous settle.
        self._last_used: _t.Dict[str, float] = {}

    def snapshot(
        self,
        node_index: int,
        records: _t.Sequence["ControlRecord"],
        now: float,
    ) -> _t.List[int]:
        """Live channel depths (the threaded runtime's only observable)."""
        return [record.pe.buffer.occupancy for record in records]

    #: The name the observatory's frozen trace targets patch.
    snapshot_list = snapshot

    def apply_grants(
        self,
        node_index: int,
        records: _t.Sequence["ControlRecord"],
        fractions: _t.Sequence[float],
        now: float,
        dt: float,
    ) -> _t.List[float]:
        """Publish allocations to the workers; returns the CPU-seconds
        each consumed since the previous call."""
        last_used = self._last_used
        used = []
        for record, cpu in zip(records, fractions):
            pe = record.pe
            pe_id = record.pe_id
            pe.allocation = cpu
            used_total = pe.cpu_used
            used.append(max(0.0, used_total - last_used.get(pe_id, 0.0)))
            last_used[pe_id] = used_total
        return used


class SPCRuntime:
    """A running threaded stream-processing system."""

    def __init__(
        self,
        topology: Topology,
        policy: Policy,
        targets: _t.Optional[AllocationTargets] = None,
        config: _t.Optional[RuntimeConfig] = None,
        recorder: _t.Optional[TraceRecorder] = None,
        spans: _t.Optional["SpanTracker"] = None,
    ):
        self.topology = topology
        self.policy = policy
        self.config = config or RuntimeConfig()
        #: Set by :meth:`run`; until then the model clock reads 0 (the
        #: Tier-1 bootstrap emits its trace event during construction).
        self._start_wall: _t.Optional[float] = None
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        if self.recorder.enabled:
            # As in the simulator: an event a source, fault or periodic
            # tier emits carries its process's model time, the time its
            # decision was taken at; any other thread's, the clock.
            self.recorder.bind_clock(lambda: self.env.now)
        #: Armed latency-span tracker; worker threads share it, so it
        #: must carry a lock regardless of how it was constructed.
        self.spans = spans
        if spans is not None:
            spans.ensure_locked()
        self.streams = RandomStreams(seed=self.config.seed)

        #: The live egress collector; read it under :attr:`collector_lock`.
        self.collector = EgressCollector()
        self.collector_lock = threading.Lock()
        self._stop = threading.Event()
        self.worker_restarts = 0
        self.workers_abandoned = 0

        #: Serializes membership mutations (the scaling thread, a fault
        #: injector, and test code may all call them); control threads
        #: deliberately do not take it — a tick against the outgoing
        #: epoch's controller is harmless, and the identity-keyed loops
        #: re-resolve their controller on the next tick.
        self.membership_lock = threading.Lock()
        #: Runs the workload sources, any fault injector, the control
        #: tiers and the worker supervisor as threads on the dilated
        #: model clock.
        self.env = ThreadEnv(self.now, self.config.dilation, self._stop)

        self._build(targets)

    # -- model clock --------------------------------------------------------

    def now(self) -> float:
        """Current model time (seconds since start)."""
        if self._start_wall is None:
            return 0.0
        return (time.monotonic() - self._start_wall) / self.config.dilation

    # -- construction --------------------------------------------------------

    def _build(self, targets: _t.Optional[AllocationTargets]) -> None:
        topology = self.topology
        graph = topology.graph
        config = self.config
        order = graph.topological_order()
        ingress = set(graph.ingress_ids)
        egress = set(graph.egress_ids)

        self.pes: _t.Dict[str, RuntimePE] = {}
        for pe_id in order:
            pe = RuntimePE(
                profile=graph.profile(pe_id),
                channel_capacity=config.buffer_size,
                rng=self.streams.stream(f"pe:{pe_id}"),
                dilation=config.dilation,
                is_ingress=pe_id in ingress,
                is_egress=pe_id in egress,
            )
            pe.spans = self.spans
            self.pes[pe_id] = pe
        for src, dst in graph.edges():
            self.pes[src].link_downstream(self.pes[dst])

        # The list, not the set: see build_runtimes.
        for pe_id in graph.egress_ids:
            self.collector.register(pe_id, graph.profile(pe_id).weight)
        if self.spans is not None:
            self.collector.attach_spans(self.spans)

        def make_sink(pe_id: str) -> _t.Callable[[SDO], None]:
            def sink(sdo: SDO) -> None:
                with self.collector_lock:
                    self.collector.record(pe_id, sdo, self.now())

            return sink

        for pe_id, pe in self.pes.items():
            pe.attach(
                clock=self.now,
                egress_sink=make_sink(pe_id) if pe.is_egress else None,
            )

        #: The five control tiers, wired as on every substrate; this
        #: runtime is their MembershipOps and their ticker.
        self.adapter = ThreadAdapter()
        stack = ControlStack(
            self.policy,
            topology,
            config,
            adapter=self.adapter,
            ops=self,
            pes=self.pes,
            collector=self.collector,
            clock=self.now,
            targets=targets,
            recorder=self.recorder,
            lock=self.collector_lock,
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
        # The worker blocks in place on the plane's live gates instead of
        # being pre-empted by the controller, and a PE its policy gates
        # (Lock-Step) emits with reliable, blocking delivery.
        for pe_id, pe in self.pes.items():
            pe.gates = self.plane.gates
            pe.blocking_emission = self.plane.gates[pe_id] is not None

        # The simulator's open-loop sources, one per ingress PE; their
        # counters are single-writer, so the forecast tick reads them
        # lock-free.
        self.sources = build_sources(
            self.env, topology, config, self.streams, self.pes,
            self._admit, admission=self.admission,
        )
        stack.bind_sources(source_counters(self.sources))

        # One control pump per node (the simulator's NodeController at
        # dilated wall cadence), and the armed periodic tiers, all env
        # processes on the clock; a periodic tick that may mutate
        # membership runs under the membership lock.
        for group in self.plane.groups:
            self._start_node_ticker(group.node_id)
        for periodic in stack.periodic():
            guard = (
                self.env.guard(self.membership_lock)
                if periodic.mutates else None
            )
            self.env.process(periodic.run(self.env, guard), on_clock=True)

    def _admit(self, pe: RuntimePE, sdo: SDO, now: float) -> bool:
        """A source's offer into an ingress channel (drop on full)."""
        if self.spans is not None:
            # Enqueued and emitted at birth: the span telescopes from
            # origin_time so the closure identity holds end to end.
            sdo.span = [0.0, 0.0, 0.0, now, now]
        return pe.channel.offer(sdo)

    @property
    def source_generated(self) -> _t.Dict[str, int]:
        """Offered SDOs per ingress pe_id, counted before the admission
        verdict."""
        return {
            pe_id: probe()
            for pe_id, probe in source_counters(self.sources).items()
        }

    # -- control processes --------------------------------------------------

    def _start_node_ticker(self, node_id: str) -> None:
        thread = self.env.process(self._node_ticker(node_id), on_clock=True)
        thread.name = f"ctl-{node_id}"

    def _node_ticker(self, node_id: str) -> _t.Generator:
        """Pump one node's controller every ``dt``.

        Keyed by node identity: membership rebuilds replace controller
        objects and shift node indices, so both are resolved fresh each
        tick.  Retires when its node leaves.
        """
        env = self.env
        plane = self.plane
        while True:
            index = plane.node_index(node_id)
            if index is None:
                return
            if index < len(plane.paused) and not plane.paused[index]:
                plane.node_controllers[index].tick(env.now)
            yield env.timeout(self.config.dt)

    # -- fault hooks ---------------------------------------------------------

    def crash_pe(self, pe_id: str) -> None:
        """Kill a PE's worker thread, losing its channel; the supervisor
        revives it, and the fault injector keeps it gated for the fault
        window.  No join: the worker dies when its current SDO ends."""
        self.pes[pe_id].kill(timeout=0.0)

    def require_node_tickers(self, operation: str) -> None:
        """Every node has its own control process: membership operations
        are always allowed."""

    # -- MembershipOps (the physical half; ElasticDriver keeps the books) -----

    def add_node(self, cpu_capacity: float = 1.0) -> str:
        """Join a fresh empty node: plane group, gauges, control process."""
        node_id = self.elastic.next_node_id()
        self.elastic.join(node_id, cpu_capacity, self.now())
        self._start_node_ticker(node_id)
        return node_id

    def remove_node(self, node_index: int) -> str:
        """Leave: the plane refuses non-empty nodes (buffered work and
        ingress channels can never be stranded); the node's control
        process retires on its next tick."""
        return self.elastic.leave(node_index, self.now())

    def migrate_pes(
        self,
        moves: _t.Sequence[_t.Tuple[str, int]],
        reason: str = "migration",
    ) -> _t.Optional[PlacementVersion]:
        """Live-migrate PEs between nodes — control-plane re-homing.

        Worker threads own their input channels and never stop draining
        them, so the threaded migration is :meth:`ElasticDriver.migrate`
        with nothing to lift: pure Tier-2/Tier-3 surgery, downtime zero
        by construction, the same ``migration`` trace events.
        """
        def land(records: _t.Sequence[MigrationRecord]) -> None:
            for record in records:
                record.downtime = 0.0

        return self.elastic.migrate(
            moves, reason, self.now(), self.pes, land=land
        )

    def _supervise(self) -> _t.Generator:
        """Detect dead workers and revive them with bounded backoff.

        A worker thread that dies (an injected crash, or a real bug in
        work emulation) would otherwise silently wedge the pipeline: its
        channel fills, upstream backpressure propagates, and throughput
        collapses with no error anywhere.  The supervisor scans every
        :data:`SUPERVISOR_POLL` model-seconds; a dead worker is
        restarted after an exponential-backoff delay, at most
        :data:`MAX_WORKER_RESTARTS` times, and each revival publishes
        one ``worker_restart`` trace event.  A revival the runtime's
        stop overtakes does nothing and ends the supervisor.
        """
        env = self.env
        restarts: _t.Dict[str, int] = {pe_id: 0 for pe_id in self.pes}
        revive_at: _t.Dict[str, _t.Optional[float]] = {
            pe_id: None for pe_id in self.pes
        }
        abandoned: _t.Set[str] = set()
        while True:
            yield env.timeout(SUPERVISOR_POLL)
            for pe_id, pe in self.pes.items():
                if self._stop.is_set():
                    return
                if not pe.started or pe.is_alive or pe_id in abandoned:
                    continue
                if restarts[pe_id] >= MAX_WORKER_RESTARTS:
                    abandoned.add(pe_id)
                    self.workers_abandoned += 1
                    continue
                scheduled = revive_at[pe_id]
                if scheduled is None:
                    revive_at[pe_id] = env.now + (
                        RESTART_BACKOFF_BASE
                        * RESTART_BACKOFF_FACTOR ** restarts[pe_id]
                    )
                    continue
                if env.now < scheduled:
                    continue
                if not pe.restart():
                    return
                restarts[pe_id] += 1
                revive_at[pe_id] = None
                self.worker_restarts += 1
                if self.recorder.enabled:
                    self.recorder.emit(
                        "worker_restart",
                        pe=pe_id,
                        restarts=restarts[pe_id],
                        generation=pe.generation,
                    )

    # -- run ----------------------------------------------------------------

    def run(
        self,
        duration: float,
        observer: _t.Optional[_t.Callable[["SPCRuntime"], None]] = None,
        observe_interval: float = 1.0,
    ) -> RuntimeReport:
        """Run for ``duration`` model-seconds (plus warm-up) and report.

        When ``observer`` is given it is invoked every ``observe_interval``
        model-seconds during the measured window with the live runtime
        (the ``repro top --watch`` hook); exceptions it raises propagate
        after the runtime is stopped cleanly, as does the first exception
        that ended a source or fault process.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        config = self.config
        pes = self.pes.values()
        admission = self.admission

        def counters() -> _t.Tuple[int, int, int, int, float]:
            return (
                sum(pe.channel.stats.dropped for pe in pes),
                sum(pe.channel.stats.flushed for pe in pes),
                admission.total_shed if admission is not None else 0,
                admission.total_rejected if admission is not None else 0,
                sum(pe.cpu_used for pe in pes),
            )

        self._start_wall = time.monotonic()
        for pe in pes:
            pe.start()
        self.env.process(self._supervise(), on_clock=True).name = "supervisor"
        self.env.start()
        try:
            time.sleep(config.warmup * config.dilation)
            with self.collector_lock:
                started = self.now()
                self.collector.reset(started)
            if self.spans is not None:
                self.spans.reset()
            drops0, flushed0, shed0, rejected0, cpu0 = counters()

            if observer is None:
                time.sleep(duration * config.dilation)
            else:
                deadline = started + duration
                step_wall = max(0.01, observe_interval * config.dilation)
                while True:
                    remaining_wall = (deadline - self.now()) * config.dilation
                    if remaining_wall <= 0:
                        break
                    time.sleep(min(step_wall, remaining_wall))
                    if self.now() < deadline:
                        observer(self)

            # The window closes here, under the lock the egress sinks
            # record under: what they deliver during teardown is not
            # part of the report.
            with self.collector_lock:
                ended = self.now()
                collector = self.collector
                throughput = collector.weighted_throughput(ended)
                latency = collector.latency_summary()
                total = collector.total_output()
                percentiles = collector.latency_percentiles()
                per_egress = {
                    pe_id: record.count
                    for pe_id, record in collector.records().items()
                }
            drops1, flushed1, shed1, rejected1, cpu1 = counters()
        finally:
            # Tell everyone at once, then wait: a worker can take up to
            # one emulated service time to notice, and those overlap.
            self._stop.set()
            for pe in pes:
                pe.request_stop()
            for pe in pes:
                pe.stop()
            # A process ends at its next timeout; the longest step is a
            # Tier-1 re-solve.
            self.env.join(timeout=10.0)
        if self.env.failures:
            raise self.env.failures[0]

        # Membership may have varied during the window: normalize CPU
        # use by integrated node-seconds, not a fixed node count.
        cpu_denominator = self.elastic.node_seconds(started, ended)
        return RuntimeReport(
            policy=self.policy.name,
            duration=ended - started,
            weighted_throughput=throughput,
            total_output_sdos=total,
            latency=latency,
            buffer_drops=drops1 - drops0,
            cpu_utilization=(
                (cpu1 - cpu0) / cpu_denominator if cpu_denominator else 0.0
            ),
            per_egress_counts=per_egress,
            worker_restarts=self.worker_restarts,
            workers_abandoned=self.workers_abandoned,
            latency_percentiles=percentiles,
            drops_by_kind={
                "buffer_overflow": (drops1 - drops0) - (flushed1 - flushed0),
                "flushed": flushed1 - flushed0,
                "shed": 0,
                "admission_shed": shed1 - shed0,
                "admission_rejected": rejected1 - rejected0,
            },
        )


def run_runtime(
    topology: Topology,
    policy_name: str = "aces",
    duration: float = 4.0,
    targets: _t.Optional[AllocationTargets] = None,
    config: _t.Optional[RuntimeConfig] = None,
    recorder: _t.Optional[TraceRecorder] = None,
    spans: _t.Optional["SpanTracker"] = None,
) -> RuntimeReport:
    """One-call entry point mirroring :func:`repro.systems.run_system`."""
    runtime = SPCRuntime(
        topology,
        policy_by_name(policy_name),
        targets=targets,
        config=config,
        recorder=recorder,
        spans=spans,
    )
    return runtime.run(duration)
