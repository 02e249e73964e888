"""The SPC runtime orchestrator: topology -> threads -> metrics.

Builds a running system from the same inputs as the simulator
(:class:`~repro.graph.topology.Topology`, a policy, Tier-1 targets),
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
from dataclasses import dataclass

from repro.check import conservation
from repro.control.config import ControlConfig
from repro.control.wiring import PeriodicTick
from repro.core.policies import Policy
from repro.core.targets import AllocationTargets
from repro.graph.topology import Topology
from repro.metrics.collectors import MetricsReport, WindowCounters
from repro.model.sdo import SDO
from repro.obs.recorder import NULL_RECORDER, TraceRecorder
from repro.runtime.env import ThreadEnv
from repro.runtime.worker import RuntimePE
from repro.systems.substrate import Substrate

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
#: abandoned (and counted in ``MetricsReport.workers_abandoned``).
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


class ThreadAdapter:
    """:class:`~repro.control.adapter.SystemAdapter` over worker threads.

    Grants are applied by writing each worker's fractional ``allocation``
    (a worker in service is woken and goes on at the new share); consumed
    CPU is settled from the workers' monotonically growing ``cpu_used``
    counters, credited as each SDO completes.
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


class SPCRuntime(Substrate):
    """A running threaded stream-processing system."""

    substrate = "threaded"
    #: Live workers change state while a tick is checked: only the
    #: substrate-safe subset of the oracles holds.
    strict_oracles = False
    check_conservation = conservation.check_spc_conservation

    def __init__(
        self,
        topology: Topology,
        policy: Policy,
        targets: _t.Optional[AllocationTargets] = None,
        config: _t.Optional[RuntimeConfig] = None,
        recorder: _t.Optional[TraceRecorder] = None,
        spans: _t.Optional["SpanTracker"] = None,
        gauge_cadence: _t.Optional[float] = None,
    ):
        config = config or RuntimeConfig()
        #: Set by :meth:`run`; until then the model clock reads 0 (the
        #: Tier-1 bootstrap emits its trace event during construction).
        self._start_wall: _t.Optional[float] = None
        # Worker threads share the span tracker, so it must carry a
        # lock regardless of how it was constructed.
        if spans is not None:
            spans.ensure_locked()
        #: The live egress collector is read under this lock.
        self.collector_lock = threading.Lock()
        self._stop = threading.Event()
        #: Serializes membership mutations (the scaling thread, a fault
        #: injector, and test code may all call them); control threads
        #: deliberately do not take it — a tick against the outgoing
        #: epoch's controller is harmless, and the identity-keyed loops
        #: re-resolve their controller on the next tick.
        self.membership_lock = threading.Lock()
        #: Runs the workload sources, any fault injector, the control
        #: tiers and the worker supervisor as threads on the dilated
        #: model clock.
        self.env = ThreadEnv(self.now, config.dilation, self._stop)
        self.adapter = ThreadAdapter()
        super().__init__(
            topology, policy, config, targets, recorder, spans,
            gauge_cadence,
        )

    def now(self) -> float:
        """Current model time (seconds since start)."""
        if self._start_wall is None:
            return 0.0
        return (time.monotonic() - self._start_wall) / self.config.dilation

    # -- construction --------------------------------------------------------

    def make_pe(
        self, pe_id: str, is_ingress: bool, is_egress: bool
    ) -> RuntimePE:
        pe = RuntimePE(
            profile=self.topology.graph.profile(pe_id),
            channel_capacity=self.config.buffer_size,
            rng=self.streams.stream(f"pe:{pe_id}"),
            dilation=self.config.dilation,
            is_ingress=is_ingress,
            is_egress=is_egress,
        )
        pe.spans = self.spans

        def sink(sdo: SDO) -> None:
            with self.collector_lock:
                self.collector.record(pe_id, sdo, self.now())

        pe.attach(clock=self.now, egress_sink=sink if is_egress else None)
        return pe

    def bind_plane(self) -> None:
        # The worker blocks in place on the plane's live gates instead of
        # being pre-empted by the controller, and a PE its policy gates
        # (Lock-Step) emits with reliable, blocking delivery.  Whoever
        # offers an SDO to a PE runs the PE's shed filter first.
        plane = self.plane
        for pe_id, pe in self.pes.items():
            pe.gates = plane.gates
            pe.blocking_emission = plane.gates[pe_id] is not None
            pe.shed_filter = plane.admission_filters[pe_id]
            pe.recorder = self.recorder
        #: SDOs shed at each ingress PE; each entry is written only by
        #: that PE's source thread (the sources' counters are
        #: single-writer too, so the forecast tick reads them lock-free).
        self.ingress_shed = {
            pe_id: 0 for pe_id in self.topology.graph.ingress_ids
        }

    def admit(self, pe: RuntimePE, sdo: SDO, now: float) -> bool:
        """A source's offer into an ingress channel, via the policy's
        shed filter (drop on full)."""
        shed_filter = pe.shed_filter
        if shed_filter is not None and not shed_filter(pe, sdo):
            self.ingress_shed[pe.pe_id] += 1
            pe.trace_shed()
            return False
        if self.spans is not None:
            # Enqueued and emitted at birth: the span telescopes from
            # origin_time so the closure identity holds end to end.
            sdo.span = [0.0, 0.0, 0.0, now, now]
        return pe.channel.offer(sdo)

    # -- control processes --------------------------------------------------

    def start_node_ticker(self, node_id: str, offset: float) -> None:
        """Pump one node's controller every ``dt`` from ``offset`` on,
        as a process on the clock (the simulator's NodeController at
        dilated wall cadence).

        Keyed by node identity: membership rebuilds replace controller
        objects and shift node indices, so both are resolved fresh each
        tick.  Retires when its node leaves.
        """
        env = self.env
        plane = self.plane
        dt = self.config.dt

        def ticker() -> _t.Generator:
            yield env.timeout(offset)
            while True:
                index = plane.node_index(node_id)
                if index is None:
                    return
                if index < len(plane.paused) and not plane.paused[index]:
                    plane.node_controllers[index].tick(env.now)
                yield env.timeout(dt)

        env.process(ticker(), on_clock=True).name = f"ctl-{node_id}"

    def start_periodic(self, periodic: PeriodicTick) -> None:
        """A periodic tier on the clock; a tick that may mutate
        membership runs under the membership lock."""
        guard = (
            self.env.guard(self.membership_lock) if periodic.mutates else None
        )
        self.env.process(periodic.run(self.env, guard), on_clock=True)

    # -- fault hooks ---------------------------------------------------------

    def crash_pe(self, pe_id: str) -> None:
        """Kill a PE's worker thread, losing its channel; the supervisor
        revives it, and the fault injector keeps it gated for the fault
        window.  No join: the worker dies when its current SDO ends."""
        self.pes[pe_id].kill(timeout=0.0)

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

    @property
    def shed_drops(self) -> int:
        """SDOs the policy's shed filters refused, at ingress and
        between PEs."""
        return sum(self.ingress_shed.values()) + sum(
            pe.shed for pe in self.pes.values()
        )

    def window_counters(self) -> WindowCounters:
        """The counters :func:`measure_window` takes deltas of.  Channels
        keep no occupancy integral: the report's mean occupancy is
        ``nan``."""
        pes = self.pes.values()
        # Deliveries between PEs: offers to non-ingress channels, plus
        # what a shed filter refused on the way.
        shed = sum(pe.shed for pe in pes)
        inner = [pe.channel.stats for pe in pes if not pe.is_ingress]
        return WindowCounters.read(
            self,
            [pe.channel.stats for pe in pes],
            cpu_used=sum(pe.cpu_used for pe in pes),
            emit_attempts=sum(stats.offered for stats in inner) + shed,
            emit_drops=sum(
                stats.dropped - stats.flushed for stats in inner
            ) + shed,
        )

    def run(
        self,
        duration: float,
        observer: _t.Optional[_t.Callable[["SPCRuntime"], None]] = None,
        observe_interval: float = 1.0,
    ) -> MetricsReport:
        """Start the workers, measure the window (see
        :meth:`Substrate.run`), stop; then re-raise the first exception
        that ended a source or fault."""
        pes = self.pes.values()
        self._start_wall = time.monotonic()
        for pe in pes:
            pe.start()
        self.env.process(self._supervise(), on_clock=True).name = "supervisor"
        self.env.start()
        try:
            report = super().run(duration, observer, observe_interval)
        finally:
            # Tell everyone at once, then wait: a stop cuts a service wait
            # short, so a worker notices within one channel poll, or one
            # blocking put under Lock-Step.
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
        return report

