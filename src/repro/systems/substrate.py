"""The assembly both execution substrates share: :class:`Substrate`."""

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
    EgressCollector,
    MetricsReport,
    measure_window,
)
from repro.obs.profiler import PhaseProfiler
from repro.obs.recorder import NULL_RECORDER, TraceRecorder
from repro.sim.rng import RandomStreams
from repro.systems.build import build_gauges, build_sources, source_counters

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.control.config import ControlConfig
    from repro.obs.spans import SpanTracker


class Substrate:
    """One policy on one topology: the egress collector, the five control
    tiers (:class:`~repro.control.wiring.ControlStack`), the sources,
    the gauges, the node tickers and periodic tiers, the membership
    operations and the measured window, built once for the simulator
    and the threaded runtime alike and never asking which it serves.

    A subclass sets ``env`` (``now``, ``timeout``, ``process``,
    ``run(until)``) and ``adapter`` (a
    :class:`~repro.control.adapter.SystemAdapter`) before calling
    ``Substrate.__init__``, and supplies:

    * ``make_pe(pe_id, is_ingress, is_egress)``: one PE, which the base
      links to its downstream PEs and keeps in ``pes``;
    * ``bind_plane()``: wire its data path to the built ``plane`` and set
      ``admit(pe, sdo, now) -> accepted``, the sources' way in;
    * ``start_node_ticker(node_id, offset)``: pump the node's controller
      every ``dt`` from ``offset`` on, until the node leaves;
    * ``start_periodic(periodic)``: run a
      :class:`~repro.control.wiring.PeriodicTick` as a process;
    * ``crash_pe(pe_id)``, the one fault that differs;
    * ``window_counters()`` and ``shed_drops`` for
      :func:`~repro.metrics.collectors.measure_window`;
    * ``substrate``, its name in reports;
    * ``strict_oracles``, whether the oracles' serialized-execution
      checks hold on it (see :class:`~repro.check.oracles.OracleRecorder`);
    * ``check_conservation()``, the violations of its SDO ledger once it
      has stopped (see :mod:`repro.check.conservation`).

    A substrate that runs more than one process at a time also sets
    ``collector_lock`` (held to read the collector) and
    ``membership_lock`` (held by membership changes from outside the
    control tiers), and one with worker threads counts the ones it
    revived and gave up on in ``worker_restarts`` and
    ``workers_abandoned``.  A substrate that runs one thread at a time
    may set a ``profiler``, which :meth:`run` arms.
    """

    collector_lock: _t.ContextManager[None] = contextlib.nullcontext()
    membership_lock: _t.ContextManager[None] = contextlib.nullcontext()
    profiler: _t.Optional[PhaseProfiler] = None
    strict_oracles: bool
    worker_restarts = 0
    workers_abandoned = 0

    def __init__(
        self,
        topology: Topology,
        policy: Policy,
        config: "ControlConfig",
        targets: _t.Optional[AllocationTargets] = None,
        recorder: _t.Optional[TraceRecorder] = None,
        spans: _t.Optional["SpanTracker"] = None,
        gauge_cadence: _t.Optional[float] = None,
        feedback_delay: float = 0.0,
        reoptimize_interval: _t.Optional[float] = None,
    ):
        self.topology = topology
        self.policy = policy
        self.config = config
        self.streams = RandomStreams(seed=config.seed)
        #: Trace bus every instrumented component publishes to; the null
        #: default keeps all hot paths on their single-branch fast path.
        #: A process's event carries the model time of its step.
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        if self.recorder.enabled:
            self.recorder.bind_clock(lambda: self.env.now)
        #: Armed latency-span tracker (None keeps every hop disarmed).
        self.spans = spans
        graph = topology.graph
        self.collector = EgressCollector()
        # The list, not the set: registration order fixes float summation
        # order in the reports, which must not move with PYTHONHASHSEED.
        for pe_id in graph.egress_ids:
            self.collector.register(pe_id, graph.profile(pe_id).weight)
        if spans is not None:
            self.collector.attach_spans(spans)
        ingress, egress = set(graph.ingress_ids), set(graph.egress_ids)
        #: pe_id -> PE, in topological (wiring) order.
        self.pes = {
            pe_id: self.make_pe(pe_id, pe_id in ingress, pe_id in egress)
            for pe_id in graph.topological_order()
        }
        for src, dst in graph.edges():
            self.pes[src].link_downstream(self.pes[dst])

        # This system is the tiers' MembershipOps and their ticker.
        stack = ControlStack(
            policy, topology, config, adapter=self.adapter, ops=self,
            pes=self.pes, collector=self.collector,
            clock=lambda: self.env.now, targets=targets,
            recorder=self.recorder, lock=self.collector_lock,
            feedback_delay=feedback_delay,
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
        self.bind_plane()

        # Process creation order is part of the simulator's determinism
        # contract (same-timestamp tie-breaks): sources, gauges, node
        # tickers, then the periodic tiers, first ticks one interval in.
        self.sources = build_sources(
            self.env, topology, config, self.streams, self.pes,
            self.admit, admission=self.admission,
        )
        self.gauges = build_gauges(
            self.env, gauge_cadence, self.recorder, self.pes, self.plane,
            collector=self.collector,
        )
        stack.bind_sources(source_counters(self.sources), reoptimize_interval)
        for index, node in enumerate(self.nodes):
            offset = (index + 1) / (len(self.nodes) + 1) * config.dt
            self.start_node_ticker(node.node_id, offset)
        for periodic in stack.periodic():
            self.start_periodic(periodic)

    @property
    def nodes(self) -> _t.List[NodeGroup]:
        """The processing nodes: the plane's own groups, not a copy.  A
        group's ``cpu_capacity`` is the nominal one; an injected
        slowdown lowers only the live scheduler capacity."""
        return self.plane.groups

    @property
    def source_generated(self) -> _t.Dict[str, int]:
        """Offered SDOs per ingress pe_id, counted before the admission
        verdict."""
        return {
            pe_id: probe()
            for pe_id, probe in source_counters(self.sources).items()
        }

    # -- MembershipOps (the physical half; ElasticDriver keeps the books) -----

    def require_node_tickers(self, operation: str) -> None:
        """Refuse a membership operation the tickers cannot follow."""

    def add_node(self, cpu_capacity: float = 1.0) -> str:
        """Join a fresh empty node: plane group, then its ticker, phased
        between the existing ones and the next tick."""
        self.require_node_tickers("add_node")
        node_id = self.elastic.next_node_id()
        index = self.elastic.join(node_id, cpu_capacity, self.env.now)
        offset = (index + 1) / (index + 2) * self.config.dt
        self.start_node_ticker(node_id, offset)
        return node_id

    def remove_node(self, node_index: int) -> str:
        """Leave: the plane refuses non-empty nodes; the node's ticker
        returns on its next tick."""
        self.require_node_tickers("remove_node")
        return self.elastic.leave(node_index, self.env.now)

    def migrate_pes(
        self,
        moves: _t.Sequence[_t.Tuple[str, int]],
        reason: str = "migration",
    ) -> _t.Optional[PlacementVersion]:
        """Live-migrate PEs that keep draining their own input (the
        runtime's workers): :meth:`ElasticDriver.migrate` with nothing
        to lift, downtime zero by construction."""

        def land(records: _t.Sequence[MigrationRecord]) -> None:
            for record in records:
                record.downtime = 0.0

        return self.elastic.migrate(
            moves, reason, self.env.now, self.pes, land=land
        )

    def run(
        self,
        duration: float,
        observer: _t.Optional[_t.Callable[[_t.Any], None]] = None,
        observe_interval: float = 1.0,
    ) -> MetricsReport:
        """Warm up, then run ``duration`` model seconds and report them
        (see :func:`~repro.metrics.collectors.measure_window`), with the
        ``profiler`` armed if there is one."""
        armed = (
            contextlib.nullcontext() if self.profiler is None
            else self.profiler.armed()
        )
        with armed:
            return measure_window(self, duration, observer, observe_interval)
