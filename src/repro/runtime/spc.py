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
measures and ``tests/test_control_parity.py`` asserts tick-by-tick.
"""

from __future__ import annotations

import contextlib
import threading
import time
import typing as _t
from dataclasses import dataclass, field

from repro.control import ControlPlane, NodeGroup, resolve_initial_targets
from repro.control.adapter import GateFn, SettleFn
from repro.control.admission import AdmissionController
from repro.control.config import ControlConfig
from repro.control.elastic import (
    ElasticDriver,
    MigrationRecord,
    PlacementVersion,
)
from repro.control.forecast import ForecastController
from repro.core.global_opt import solve_global_allocation
from repro.core.policies import AcesPolicy, LockStepPolicy, Policy, UdpPolicy
from repro.core.resilience import ResilientTier1
from repro.core.targets import AllocationTargets
from repro.graph.topology import Topology
from repro.metrics.collectors import EgressCollector
from repro.metrics.stats import SummaryStats
from repro.model.sdo import SDO
from repro.obs.recorder import NULL_RECORDER, TraceRecorder
from repro.runtime.worker import RuntimePE
from repro.sim.rng import RandomStreams, exponential

# Not called here any more (ElasticDriver plans and re-solves): kept as
# globals of this module because the perf observatory's trace targets
# resolve them by name here (benchmarks/observatory/spec.py).
from repro.control.elastic import plan_scale_in_placement  # noqa: F401
from repro.control.elastic import plan_scale_out_placement  # noqa: F401
from repro.graph.placement_opt import optimize_placement  # noqa: F401

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.control.node import ControlRecord
    from repro.obs.spans import SpanTracker


@dataclass
class RuntimeConfig(ControlConfig):
    """Configuration of a threaded runtime experiment: the shared
    :class:`~repro.control.config.ControlConfig` plus wall-clock timing
    and worker supervision."""

    dt: float = 0.05
    #: Wall-seconds per model-second (< 1 runs faster than real time is not
    #: possible here because work is emulated with sleeps; 1.0 = real time).
    dilation: float = 1.0
    warmup: float = 1.0
    source_kind: str = "poisson"
    #: Run the worker supervisor (detects dead worker threads and
    #: restarts them with bounded exponential backoff).
    supervise: bool = True
    #: Supervisor scan period (model seconds).
    supervisor_poll: float = 0.02
    #: Restart budget per worker; a worker that keeps dying past this is
    #: abandoned (and counted in ``RuntimeReport.workers_abandoned``).
    max_worker_restarts: int = 5
    #: Exponential-backoff schedule between restarts of one worker
    #: (model seconds): base * factor**restarts_so_far.
    restart_backoff_base: float = 0.05
    restart_backoff_factor: float = 2.0


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
    #: ``MetricsReport.drops_by_kind`` (``buffer_overflow`` covers
    #: channel-full drops and crash-flush losses together — the threaded
    #: channel does not distinguish them; ``admission_shed`` /
    #: ``admission_rejected`` count front-end refusals).
    drops_by_kind: _t.Dict[str, int] = field(default_factory=dict)


class ThreadAdapter:
    """:class:`~repro.control.adapter.SystemAdapter` over worker threads.

    Grants are applied by writing each worker's fractional ``allocation``
    (the worker reads it per SDO); consumed CPU is settled from the
    workers' monotonically growing ``cpu_used`` counters.
    """

    def __init__(self, clock: _t.Callable[[], float], recorder: TraceRecorder):
        self._clock = clock
        self.recorder = recorder
        #: Per-PE cpu_used watermark at the previous settle.
        self._last_used: _t.Dict[str, float] = {}

    def clock(self) -> float:
        return self._clock()

    def snapshot(
        self,
        node_index: int,
        records: _t.Sequence["ControlRecord"],
        now: float,
    ) -> _t.Dict[str, float]:
        """Live channel depths (the threaded runtime's only observable)."""
        return {
            record.pe_id: record.pe.buffer.occupancy for record in records
        }

    def snapshot_list(
        self,
        node_index: int,
        records: _t.Sequence["ControlRecord"],
        now: float,
    ) -> _t.List[int]:
        """:meth:`snapshot` in record order, without the dict round-trip."""
        return [record.pe.buffer.occupancy for record in records]

    def apply_grants(
        self,
        node_index: int,
        records: _t.Sequence["ControlRecord"],
        grants: _t.Mapping[str, float],
        now: float,
        dt: float,
        settle: SettleFn,
    ) -> None:
        """Publish allocations to the workers and settle real CPU usage."""
        last_used = self._last_used
        grants_get = grants.get
        for record in records:
            pe = record.pe
            pe_id = record.pe_id
            pe.allocation = grants_get(pe_id, 0.0)
            used_total = pe.cpu_used
            settle(
                pe_id, max(0.0, used_total - last_used.get(pe_id, 0.0)), dt
            )
            last_used[pe_id] = used_total

    def apply_gates(self, pe_id: str, gate: _t.Optional[GateFn]) -> None:
        """No-op: the threaded runtime enforces Lock-Step gating inside
        the worker (``RuntimePE.min_flow_gate``), not in the control step."""

    def emit_trace(self, kind: str, **fields: _t.Any) -> None:
        if self.recorder.enabled:
            self.recorder.emit(kind, **fields)


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
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        if self.recorder.enabled:
            self.recorder.bind_clock(self.now)
        #: Armed latency-span tracker; worker threads share it, so it
        #: must carry a lock regardless of how it was constructed.
        self.spans = spans
        if spans is not None:
            spans.ensure_locked()
        #: Set before the Tier-1 bootstrap: the solver emits trace
        #: events, and the bound clock reads ``_start_wall``.
        self._start_wall: _t.Optional[float] = None
        #: Degradation-guarded Tier-1 solver; only armed runtimes carry
        #: one (scale-out/in and proactive re-solves go through it),
        #: keeping disarmed construction byte-identical.
        self.tier1: _t.Optional[ResilientTier1] = None
        if (
            self.config.elasticity is not None
            or self.config.forecast is not None
        ):
            self.tier1 = ResilientTier1(recorder=self.recorder)
            targets = resolve_initial_targets(self.tier1, topology, targets)
        elif targets is None:
            targets = solve_global_allocation(
                topology.graph, topology.placement, topology.source_rates
            ).targets
        self.targets = targets
        self.streams = RandomStreams(seed=self.config.seed)

        self._collector = EgressCollector()
        self._collector_lock = threading.Lock()
        self._stop = threading.Event()
        self._threads: _t.List[threading.Thread] = []
        self.worker_restarts = 0
        self.workers_abandoned = 0

        #: Serializes membership mutations (the scaling thread, a fault
        #: injector, and test code may all call them); control threads
        #: deliberately do not take it — a tick against the outgoing
        #: epoch's controller is harmless, and the identity-keyed loops
        #: re-resolve their controller on the next tick.
        self._membership_lock = threading.Lock()

        self._build()

    # -- model clock --------------------------------------------------------

    def now(self) -> float:
        """Current model time (seconds since start)."""
        if self._start_wall is None:
            return 0.0
        return (time.monotonic() - self._start_wall) / self.config.dilation

    # -- control-plane delegation --------------------------------------------

    @property
    def _bus(self) -> _t.Any:
        """The feedback bus (swappable: fault injection wraps it)."""
        return self.plane.bus

    @_bus.setter
    def _bus(self, value: _t.Any) -> None:
        self.plane.bus = value

    # -- observation ---------------------------------------------------------

    @property
    def collector(self) -> EgressCollector:
        """The live egress collector; read under :attr:`collector_lock`."""
        return self._collector

    @property
    def collector_lock(self) -> threading.Lock:
        return self._collector_lock

    # -- construction --------------------------------------------------------

    def _build(self) -> None:
        graph = self.topology.graph
        config = self.config
        ingress = set(graph.ingress_ids)
        egress = set(graph.egress_ids)

        self.pes: _t.Dict[str, RuntimePE] = {}
        for pe_id in graph.topological_order():
            pe = RuntimePE(
                profile=graph.profile(pe_id),
                channel_capacity=config.buffer_size,
                rng=self.streams.stream(f"pe:{pe_id}"),
                dilation=config.dilation,
                is_ingress=pe_id in ingress,
                is_egress=pe_id in egress,
            )
            if isinstance(self.policy, LockStepPolicy):
                # Substrate-side Lock-Step enforcement: the worker blocks
                # in place instead of being pre-empted by the controller.
                pe.min_flow_gate = True
                pe.blocking_emission = True
            pe.spans = self.spans
            self.pes[pe_id] = pe
        for src, dst in graph.edges():
            self.pes[src].link_downstream(self.pes[dst])

        # The list, not the set: see build_runtimes.
        for pe_id in graph.egress_ids:
            self._collector.register(pe_id, graph.profile(pe_id).weight)
        if self.spans is not None:
            self._collector.attach_spans(self.spans)

        def make_sink(pe_id: str) -> _t.Callable[[SDO], None]:
            def sink(sdo: SDO) -> None:
                with self._collector_lock:
                    self._collector.record(pe_id, sdo, self.now())

            return sink

        for pe_id, pe in self.pes.items():
            pe.attach(
                clock=self.now,
                egress_sink=make_sink(pe_id) if pe.is_egress else None,
            )

        # Node control threads: the simulator's NodeController, pumped at
        # dilated wall cadence through the thread adapter.
        groups: _t.List[NodeGroup] = []
        for node_index in range(self.topology.num_nodes):
            members = [
                self.pes[pe_id]
                for pe_id in graph.topological_order()
                if self.topology.placement[pe_id] == node_index
            ]
            if not members and config.elasticity is None:
                # Disarmed: a PE-less node gets no controller (legacy
                # behaviour, kept byte-identical).  Armed, empty nodes
                # keep their group so group indices track node indices
                # across membership operations.
                continue
            groups.append(NodeGroup(f"node-{node_index}", members))

        #: SLO-aware admission front end, armed exactly as in the
        #: simulator: same controller class, same config, bound to the
        #: live channel views and the collector's histogram records
        #: (reads under the collector lock).
        self.admission: _t.Optional[AdmissionController] = None
        if config.admission is not None:
            self.admission = AdmissionController(config.admission)
            self.admission.bind(
                ingress={
                    pe_id: pe.buffer
                    for pe_id, pe in self.pes.items()
                    if pe.is_ingress
                },
                egress=self._collector.records(),
                clock=self.now,
                lock=self._collector_lock,
            )

        #: Anticipatory forecasting tier, armed exactly as in the
        #: simulator: same controller class, same config, fed from the
        #: per-source cumulative offered-SDO counters below.
        self.forecast: _t.Optional[ForecastController] = None
        if config.forecast is not None:
            self.forecast = ForecastController(config.forecast)

        self.adapter = ThreadAdapter(self.now, self.recorder)
        self.plane = ControlPlane(
            self.policy,
            self.adapter,
            groups=groups,
            targets=self.targets,
            dt=config.dt,
            b0=config.b0_fraction * config.buffer_size,
            feedback_delay=0.0,
            feedback_staleness_ttl=config.feedback_staleness_ttl,
            feedback_stale_bound=config.feedback_stale_bound,
            recorder=self.recorder,
            tier1=self.tier1,
            control_impl=config.control_impl,
            admission=self.admission,
            forecast=self.forecast,
        )
        # Armed loops are identity-keyed: membership rebuilds replace
        # controller objects and shift node indices, so the loop
        # re-resolves its controller by node_id each tick.
        armed = config.elasticity is not None
        for controller in self.plane.node_controllers:
            self._threads.append(
                self._thread(
                    f"ctl-{controller.node_id}",
                    self._elastic_control_loop if armed else self._control_loop,
                    controller.node_id if armed else controller,
                )
            )

        #: Tier 3 lives in the driver (disarmed without an elasticity
        #: config); this runtime is its MembershipOps.
        self.elasticity = config.elasticity
        self.elastic = ElasticDriver(
            self.plane, self, self.topology, config.elasticity,
            active_after=config.warmup,
        )
        self.placement_book = self.elastic.book
        self.scaling_policy = self.elastic.scaling_policy
        self.migration_log = self.elastic.migration_log

        # The periodic tiers.  The forecast and elastic ticks may mutate
        # membership, so they run under the membership lock.
        lock = self._membership_lock
        if config.admission is not None:
            self._threads.append(self._thread(
                "admission", self._periodic,
                config.admission.tick_interval or config.dt,
                self.plane.tick_admission,
            ))
        if config.forecast is not None:
            self._threads.append(self._thread(
                "forecast", self._periodic,
                config.forecast.sample_interval,
                self.plane.tick_forecast, lock,
            ))
        if config.elasticity is not None:
            self._threads.append(self._thread(
                "elastic", self._periodic,
                config.elasticity.check_interval,
                self.elastic.tick, lock,
            ))

        # Source threads.  ``source_generated`` mirrors the simulator
        # sources' ``stats.generated`` counters (offered load, counted
        # before the admission verdict); single-writer per key, so the
        # forecast tick can read it lock-free.
        self.source_generated: _t.Dict[str, int] = {
            pe_id: 0 for pe_id in self.topology.source_rates
        }
        for pe_id, rate in sorted(self.topology.source_rates.items()):
            self._threads.append(
                self._thread(f"src-{pe_id}", self._source_loop, pe_id, rate)
            )

        if self.forecast is not None:
            self.forecast.bind(
                counters={
                    pe_id: (lambda p=pe_id: self.source_generated[p])
                    for pe_id in sorted(self.topology.source_rates)
                },
                baseline=dict(self.topology.source_rates),
                reoptimize_fn=self.elastic.proactive_reoptimize,
                scale_out_fn=self.elastic.proactive_scale_out,
                active_after=config.warmup,
            )

    # -- threads ------------------------------------------------------------

    @staticmethod
    def _thread(
        name: str, target: _t.Callable[..., None], *args: _t.Any
    ) -> threading.Thread:
        return threading.Thread(
            target=target, args=args, name=name, daemon=True
        )

    def _control_loop(self, controller: _t.Any) -> None:
        """Pump one node's controller at the dilated control cadence."""
        config = self.config
        period_wall = config.dt * config.dilation
        paused = self.plane.paused
        node_index = controller.node_index
        while not self._stop.is_set():
            if not paused[node_index]:
                controller.tick(self.now())
            time.sleep(period_wall)

    # -- elastic tier (armed runtimes only) ----------------------------------

    def _elastic_control_loop(self, node_id: str) -> None:
        """Identity-keyed control pump; retires when its node leaves."""
        config = self.config
        period_wall = config.dt * config.dilation
        while not self._stop.is_set():
            plane = self.plane
            index = plane.node_index(node_id)
            if index is None:
                return
            if index < len(plane.paused) and not plane.paused[index]:
                plane.node_controllers[index].tick(self.now())
            time.sleep(period_wall)

    def _periodic(
        self,
        interval: float,
        tick: _t.Callable[[float], None],
        lock: _t.Optional[threading.Lock] = None,
    ) -> None:
        """The one ticker of the periodic tiers (admission, forecast,
        elastic): ``tick(now)`` every ``interval`` model seconds at the
        dilated wall cadence, optionally under ``lock``."""
        period_wall = interval * self.config.dilation
        guard = lock if lock is not None else contextlib.nullcontext()
        while not self._stop.is_set():
            time.sleep(period_wall)
            if self._stop.is_set():
                return
            with guard:
                tick(self.now())

    # -- MembershipOps (armed runtimes only; ElasticDriver keeps the books) ---

    def _require_elastic(self, operation: str) -> None:
        if self.elasticity is None:
            raise RuntimeError(
                f"{operation} requires an elasticity-armed runtime "
                "(RuntimeConfig.elasticity): disarmed control loops are "
                "object-bound and cannot follow membership churn"
            )

    def add_node(self, cpu_capacity: float = 1.0) -> str:
        """Join a fresh empty node: plane group, gauges, control thread."""
        self._require_elastic("add_node")
        node_id = self.elastic.next_node_id()
        self.elastic.join(node_id, cpu_capacity, self.now())
        thread = self._thread(
            f"ctl-{node_id}", self._elastic_control_loop, node_id
        )
        if self._start_wall is None:
            self._threads.append(thread)
        else:
            thread.start()
        return node_id

    def remove_node(self, node_index: int) -> str:
        """Leave: the plane refuses non-empty nodes (buffered work and
        ingress channels can never be stranded); the node's control
        thread retires on its next tick."""
        self._require_elastic("remove_node")
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
        self._require_elastic("migrate_pes")

        def land(records: _t.Sequence[MigrationRecord]) -> None:
            for record in records:
                record.downtime = 0.0

        return self.elastic.migrate(
            moves, reason, self.now(), self.pes, land=land
        )

    def _supervisor_loop(self) -> None:
        """Detect dead workers and revive them with bounded backoff.

        A worker thread that dies (an injected crash, or a real bug in
        work emulation) would otherwise silently wedge the pipeline: its
        channel fills, upstream backpressure propagates, and throughput
        collapses with no error anywhere.  The supervisor scans every
        ``supervisor_poll`` model-seconds; a dead worker is restarted
        after an exponential-backoff delay, at most
        ``max_worker_restarts`` times, and each revival publishes one
        ``worker_restart`` trace event.
        """
        config = self.config
        poll_wall = config.supervisor_poll * config.dilation
        restarts: _t.Dict[str, int] = {pe_id: 0 for pe_id in self.pes}
        revive_at: _t.Dict[str, _t.Optional[float]] = {
            pe_id: None for pe_id in self.pes
        }
        abandoned: _t.Set[str] = set()
        while not self._stop.is_set():
            time.sleep(poll_wall)
            for pe_id, pe in self.pes.items():
                if self._stop.is_set():
                    return
                if not pe.started or pe.is_alive or pe_id in abandoned:
                    continue
                if restarts[pe_id] >= config.max_worker_restarts:
                    abandoned.add(pe_id)
                    self.workers_abandoned += 1
                    continue
                now_wall = time.monotonic()
                scheduled = revive_at[pe_id]
                if scheduled is None:
                    backoff = (
                        config.restart_backoff_base
                        * config.restart_backoff_factor ** restarts[pe_id]
                        * config.dilation
                    )
                    revive_at[pe_id] = now_wall + backoff
                    continue
                if now_wall < scheduled:
                    continue
                pe.restart()
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

    def _source_loop(self, pe_id: str, rate: float) -> None:
        config = self.config
        rng = self.streams.stream(f"src:{pe_id}")
        pe = self.pes[pe_id]
        spans_armed = self.spans is not None
        admission = self.admission
        while not self._stop.is_set():
            if config.source_kind == "poisson":
                gap = exponential(rng, 1.0 / rate)
            else:
                gap = 1.0 / rate
            time.sleep(gap * config.dilation)
            origin = self.now()
            self.source_generated[pe_id] += 1
            if admission is not None:
                verdict = admission.admit_ingress(pe_id, origin)
                if verdict == "shed":
                    continue
                if verdict == "reject":
                    # 429 + retry-after: this open-loop client holds all
                    # offers until the horizon passes (same contract the
                    # simulator's sources honour via their backoff hook).
                    time.sleep(
                        admission.config.retry_after * config.dilation
                    )
                    continue
            sdo = SDO(
                stream_id=f"src:{pe_id}",
                origin_time=origin,
            )
            if spans_armed:
                # Enqueued and emitted at birth: the span telescopes from
                # origin_time so the closure identity holds end to end.
                sdo.span = [0.0, 0.0, 0.0, origin, origin]
            pe.channel.offer(sdo)

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
        after the runtime is stopped cleanly.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        config = self.config
        self._start_wall = time.monotonic()
        for pe in self.pes.values():
            pe.start()
        for thread in self._threads:
            thread.start()
        if config.supervise:
            self._thread("supervisor", self._supervisor_loop).start()

        time.sleep(config.warmup * config.dilation)
        with self._collector_lock:
            self._collector.reset(self.now())
        if self.spans is not None:
            self.spans.reset()
        drops_at_start = sum(
            pe.channel.stats.dropped for pe in self.pes.values()
        )
        admission = self.admission
        shed_at_start = admission.total_shed if admission is not None else 0
        rejected_at_start = (
            admission.total_rejected if admission is not None else 0
        )
        cpu_at_start = sum(pe.cpu_used for pe in self.pes.values())
        started = self.now()

        if observer is None:
            time.sleep(duration * config.dilation)
        else:
            deadline = started + duration
            step_wall = max(0.01, observe_interval * config.dilation)
            try:
                while True:
                    remaining_wall = (deadline - self.now()) * config.dilation
                    if remaining_wall <= 0:
                        break
                    time.sleep(min(step_wall, remaining_wall))
                    if self.now() < deadline:
                        observer(self)
            except BaseException:
                self._stop.set()
                for pe in self.pes.values():
                    pe.stop()
                raise
        ended = self.now()

        self._stop.set()
        for pe in self.pes.values():
            pe.stop()

        with self._collector_lock:
            throughput = self._collector.weighted_throughput(ended)
            latency = self._collector.latency_summary()
            total = self._collector.total_output()
            percentiles = self._collector.latency_percentiles()
            per_egress = {
                pe_id: record.count
                for pe_id, record in self._collector.records().items()
            }
        window = ended - started
        if self.elasticity is not None:
            # Membership varied during the window: normalize CPU use by
            # integrated node-seconds, not a fixed node count.
            cpu_denominator = self.elastic.node_seconds(started, ended)
        else:
            cpu_denominator = window * max(1, self.topology.num_nodes)
        channel_drops = (
            sum(pe.channel.stats.dropped for pe in self.pes.values())
            - drops_at_start
        )
        drops_by_kind = {
            "buffer_overflow": channel_drops,
            "flushed": 0,
            "shed": 0,
            "admission_shed": (
                (admission.total_shed - shed_at_start)
                if admission is not None
                else 0
            ),
            "admission_rejected": (
                (admission.total_rejected - rejected_at_start)
                if admission is not None
                else 0
            ),
        }
        return RuntimeReport(
            policy=self.policy.name,
            duration=window,
            weighted_throughput=throughput,
            total_output_sdos=total,
            latency=latency,
            buffer_drops=channel_drops,
            cpu_utilization=(
                (sum(pe.cpu_used for pe in self.pes.values()) - cpu_at_start)
                / cpu_denominator
                if cpu_denominator
                else 0.0
            ),
            per_egress_counts=per_egress,
            worker_restarts=self.worker_restarts,
            workers_abandoned=self.workers_abandoned,
            latency_percentiles=percentiles,
            drops_by_kind=drops_by_kind,
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
    policies: _t.Dict[str, Policy] = {
        "aces": AcesPolicy(),
        "udp": UdpPolicy(),
        "lockstep": LockStepPolicy(),
    }
    runtime = SPCRuntime(
        topology,
        policies[policy_name],
        targets=targets,
        config=config,
        recorder=recorder,
        spans=spans,
    )
    return runtime.run(duration)
