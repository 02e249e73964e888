"""The five control tiers of one system, wired once for every substrate.

A substrate is an adapter, three membership operations and a ticker;
:class:`ControlStack` is everything in between.  It builds the guarded
Tier-1 solver, the admission front end, the forecasting tier, the
:class:`~repro.control.plane.ControlPlane` and the
:class:`~repro.control.elastic.ElasticDriver` in the one order that
works, maps :class:`~repro.control.config.ControlConfig` onto their
constructor arguments, and lists the periodic ticks the substrate's
ticker must pump.
"""

from __future__ import annotations

import contextlib
import typing as _t

from repro.control.adapter import MembershipOps, PELike, SystemAdapter
from repro.control.admission import AdmissionController
from repro.control.config import ControlConfig
from repro.control.elastic import ElasticDriver
from repro.control.forecast import CounterFn, ForecastController
from repro.control.plane import ControlPlane, NodeGroup
from repro.core.resilience import ResilientTier1
from repro.graph.placement import residents_by_node

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.policies import Policy
    from repro.core.targets import AllocationTargets
    from repro.graph.topology import Topology
    from repro.metrics.collectors import EgressCollector
    from repro.obs.recorder import TraceRecorder


class PeriodicTick(_t.NamedTuple):
    """One periodic tier: ``tick(now)`` every ``interval`` model seconds."""

    name: str
    interval: float
    tick: _t.Callable[[float], None]
    #: True when the tick may change membership or targets (a threaded
    #: substrate serializes those against other membership mutations).
    mutates: bool

    def run(
        self, env: _t.Any, lock: _t.Optional[_t.ContextManager] = None
    ) -> _t.Generator:
        """The tier as a process of ``env`` (the simulator's kernel or
        the runtime's ``ThreadEnv``): ``tick(now)`` every ``interval``,
        the first one interval in, under ``lock`` when given."""
        guard = lock if lock is not None else contextlib.nullcontext()
        while True:
            yield env.timeout(self.interval)
            with guard:
                self.tick(env.now)


class Tier1Refresh:
    """Periodic Tier-1 refresh from measured input rates (Section V)."""

    def __init__(
        self,
        elastic: ElasticDriver,
        counters: _t.Mapping[str, CounterFn],
        interval: float,
    ) -> None:
        self.elastic = elastic
        self.counters = counters
        self.interval = interval
        self._last = {pe_id: probe() for pe_id, probe in counters.items()}

    def tick(self, now: float) -> None:
        """Re-solve against the rates measured since the last tick."""
        measured: _t.Dict[str, float] = {}
        for pe_id, probe in self.counters.items():
            generated = probe()
            measured[pe_id] = (generated - self._last[pe_id]) / self.interval
            self._last[pe_id] = generated
        self.elastic.reoptimize(measured, "reoptimize")


class ControlStack:
    """Tiers 1–5 of one system, assembled from its config.

    Beyond the policy, topology and config, the parameters are what
    only the substrate can supply: its ``adapter``, its membership
    ``ops``, the ``pes`` by id in wiring (topological) order, the egress
    ``collector``, a model-time ``clock``, and — where they exist — the
    ``lock`` guarding the collector and a ``feedback_delay``.  The node
    groups are built here, once for every substrate: one per topology
    node (PE-less ones included, so group indices are node indices), ids
    ``node-<i>``, residents in wiring order so intra-node execution
    flows producer -> consumer within one tick.  Admission and forecasting are built before the plane, which
    owns their ticks; the driver needs the plane; the forecast hooks
    need the driver.  Once its sources exist the substrate calls
    :meth:`bind_sources`, then pumps :meth:`periodic`.
    """

    def __init__(
        self,
        policy: "Policy",
        topology: "Topology",
        config: ControlConfig,
        adapter: SystemAdapter,
        ops: MembershipOps,
        pes: _t.Mapping[str, PELike],
        collector: "EgressCollector",
        clock: _t.Callable[[], float],
        targets: _t.Optional["AllocationTargets"] = None,
        recorder: _t.Optional["TraceRecorder"] = None,
        lock: _t.Optional[_t.Any] = None,
        feedback_delay: float = 0.0,
    ) -> None:
        self.config = config
        self.topology = topology
        #: Degradation-guarded Tier-1 solver: validates, and falls back
        #: to last-known-good targets when a re-solve fails.
        #: Bootstrapped here (solve, or seed with the targets given), so
        #: it always holds a last-known-good result to fall back to.
        self.tier1 = ResilientTier1(recorder=recorder)
        if targets is None:
            targets = self.tier1.solve(
                topology.graph,
                topology.placement,
                topology.source_rates,
                reason="initial",
            ).targets
        else:
            self.tier1.seed(targets)

        #: SLO-aware admission front end (None unless configured), bound
        #: to the ingress buffers and the live egress histograms.
        self.admission: _t.Optional[AdmissionController] = None
        if config.admission is not None:
            self.admission = AdmissionController(config.admission)
            self.admission.bind(
                ingress={
                    pe_id: pe.buffer
                    for pe_id, pe in pes.items()
                    if pe.is_ingress
                },
                egress=collector.records(),
                clock=clock,
                lock=lock,
            )
        #: Forecasting tier (None unless configured); its source probes
        #: arrive with :meth:`bind_sources`.
        self.forecast: _t.Optional[ForecastController] = None
        if config.forecast is not None:
            self.forecast = ForecastController(config.forecast)

        self.plane = ControlPlane(
            policy,
            adapter,
            groups=[
                NodeGroup(f"node-{index}", [pes[pe_id] for pe_id in pe_ids])
                for index, pe_ids in enumerate(
                    residents_by_node(
                        pes, topology.placement, topology.num_nodes
                    )
                )
            ],
            targets=targets,
            dt=config.dt,
            b0=config.b0_fraction * config.buffer_size,
            feedback_delay=feedback_delay,
            feedback_staleness_ttl=config.feedback_staleness_ttl,
            recorder=recorder,
            tier1=self.tier1,
            control_impl=config.control_impl,
            admission=self.admission,
            forecast=self.forecast,
        )
        #: Tier 3 lives in the driver (disarmed without an elasticity
        #: config); the substrate is its MembershipOps.
        self.elastic = ElasticDriver(
            self.plane, ops, topology, config.elasticity,
            active_after=config.warmup,
        )
        self.refresh: _t.Optional[Tier1Refresh] = None

    def bind_sources(
        self,
        counters: _t.Mapping[str, CounterFn],
        reoptimize_interval: _t.Optional[float] = None,
    ) -> None:
        """Attach the per-source offered-SDO counters (keyed by ingress
        pe_id): the forecasting tier samples them, with the elastic
        driver's proactive hooks behind its triggers so both tiers spend
        one cooldown, and — when ``reoptimize_interval`` is set — so
        does the periodic Tier-1 refresh."""
        if self.forecast is not None:
            self.forecast.bind(
                counters=counters,
                baseline=dict(self.topology.source_rates),
                reoptimize_fn=self.elastic.proactive_reoptimize,
                scale_out_fn=self.elastic.proactive_scale_out,
                active_after=self.config.warmup,
            )
        if reoptimize_interval is not None:
            self.refresh = Tier1Refresh(
                self.elastic, counters, reoptimize_interval
            )

    def periodic(self) -> _t.List[PeriodicTick]:
        """The armed periodic tiers, in the order the simulator creates
        their processes (same-timestamp tie-breaks are part of its
        determinism contract): elastic, admission, forecast, refresh."""
        config = self.config
        ticks: _t.List[PeriodicTick] = []
        if config.elasticity is not None:
            ticks.append(PeriodicTick(
                "elastic", config.elasticity.check_interval,
                self.elastic.tick, True,
            ))
        if config.admission is not None:
            ticks.append(PeriodicTick(
                "admission", config.dt,
                self.plane.tick_admission, False,
            ))
        if config.forecast is not None:
            ticks.append(PeriodicTick(
                "forecast", config.forecast.sample_interval,
                self.plane.tick_forecast, True,
            ))
        if self.refresh is not None:
            ticks.append(PeriodicTick(
                "reoptimize", self.refresh.interval, self.refresh.tick, True,
            ))
        return ticks
