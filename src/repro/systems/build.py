"""Builders: the simulator's config and inter-node links, and the
workload sources and gauges of either substrate.

Everything here wires *passive* structure and schedules no control
logic of its own; the node groups are built with the control tiers, by
:class:`~repro.control.wiring.ControlStack`, and
:class:`~repro.systems.substrate.Substrate` assembles the whole.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

from repro.control.config import ControlConfig
from repro.graph.topology import Topology
from repro.metrics.collectors import EgressCollector
from repro.model.links import Link
from repro.model.sdo import SDO
from repro.model.workload import (
    ConstantRateSource,
    OnOffSource,
    PoissonSource,
    RateShape,
    SquareWaveSource,
    correlated_burst,
    diurnal,
    flash_crowd,
    linear_drift,
)
from repro.obs.gauges import GaugeRegistry
from repro.obs.recorder import TraceRecorder
from repro.sim.rng import RandomStreams

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.control.admission import AdmissionController
    from repro.obs.spans import SpanTracker

#: admit(pe, sdo, now) -> accepted?  Provided by the substrate's data
#: plane (the simulator's buffers, the threaded runtime's channels).
AdmitFn = _t.Callable[[_t.Any, SDO, float], bool]

#: The Poisson kinds: source_kind -> the rate shape it draws under
#: (None for plain Poisson).
_POISSON_SHAPES: _t.Dict[
    str, _t.Callable[[ControlConfig], _t.Optional[RateShape]]
] = {
    "poisson": lambda config: None,
    "flashcrowd": lambda config: flash_crowd(
        config.source_surge_start,
        config.source_surge_duration,
        config.source_surge_factor,
    ),
    "diurnal": lambda config: diurnal(
        config.source_period, config.source_amplitude
    ),
    "drift": lambda config: linear_drift(config.source_drift),
    "correlatedburst": lambda config: correlated_burst(
        config.source_period,
        config.source_surge_duration,
        config.source_surge_factor,
    ),
}


@dataclass
class SystemConfig(ControlConfig):
    """Run-time configuration of a simulated system: the shared
    :class:`~repro.control.config.ControlConfig` plus the simulator's
    own timing, source and link models."""

    warmup: float = 5.0
    #: Feedback propagation delay; None means one control interval.
    feedback_delay: _t.Optional[float] = None
    #: Finite bandwidth (SDOs / second) for links between PEs on
    #: *different* nodes; None models the paper's instantaneous
    #: intra-cluster transport.  Co-located PEs always communicate
    #: through memory.
    link_bandwidth: _t.Optional[float] = None
    #: Propagation delay added to every inter-node transfer (seconds).
    link_latency: float = 0.0
    #: When set, Tier 1 is re-solved every this many simulated seconds
    #: using the *measured* recent input rates, and the refreshed CPU
    #: targets are pushed into the running schedulers (the paper's
    #: periodic global optimization "to support changing workload").
    reoptimize_interval: _t.Optional[float] = None
    #: When set, node control loops are grouped into this many shared
    #: phase buckets instead of one loop per node: every node in a
    #: bucket ticks at the same instant (decide-all-then-apply-all via
    #: ControlPlane.tick_nodes).  This is an explicit semantic choice —
    #: identical between scalar and vector implementations — that lets
    #: the vector engine fuse whole buckets into single array passes.
    #: Feedback policies additionally require a nonzero feedback delay
    #: (same-instant publication plus per-node offsets would otherwise
    #: differ).  None (default) keeps per-node staggered loops.
    control_phase_buckets: _t.Optional[int] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.reoptimize_interval is not None and self.reoptimize_interval <= 0:
            raise ValueError("reoptimize_interval must be positive")
        if self.link_bandwidth is not None and self.link_bandwidth <= 0:
            raise ValueError("link_bandwidth must be positive")
        if self.link_latency < 0:
            raise ValueError("link_latency must be >= 0")
        if (
            self.control_phase_buckets is not None
            and self.control_phase_buckets < 1
        ):
            raise ValueError("control_phase_buckets must be >= 1")
        if (
            self.elasticity is not None
            and self.control_phase_buckets is not None
        ):
            raise ValueError(
                "elasticity requires per-node control loops "
                "(control_phase_buckets must be None): membership "
                "changes re-bucket nodes mid-run, which shared-phase "
                "loops cannot follow"
            )


def sync_links(
    links: _t.Dict[_t.Tuple[str, str], Link],
    topology: Topology,
    placement: _t.Mapping[str, int],
    config: SystemConfig,
    spans: _t.Optional["SpanTracker"] = None,
) -> None:
    """Give each edge that crosses nodes under ``placement`` a
    serializing link, and drop the links of co-located edges (those PEs
    share memory).  A kept link keeps its in-flight transfers: only
    future emits see a change."""
    bandwidth = config.link_bandwidth
    if bandwidth is None:
        return
    live: _t.Set[_t.Tuple[str, str]] = set()
    for src, dst in topology.graph.edges():
        if placement[src] == placement[dst]:
            continue
        live.add((src, dst))
        if (src, dst) not in links:
            link = Link(
                name=f"{src}->{dst}",
                bandwidth=bandwidth,
                latency=config.link_latency,
            )
            link.spans = spans
            links[(src, dst)] = link
    for key in [key for key in links if key not in live]:
        del links[key]


def build_sources(
    env: _t.Any,
    topology: Topology,
    config: ControlConfig,
    streams: RandomStreams,
    runtimes: _t.Mapping[str, _t.Any],
    admit: AdmitFn,
    admission: _t.Optional["AdmissionController"] = None,
) -> _t.List[_t.Any]:
    """Start one workload source per ingress PE, sinking through the
    data plane's admission path.

    ``env`` is the simulator's :class:`~repro.sim.engine.Environment`
    or the threaded runtime's :class:`~repro.runtime.env.ThreadEnv`;
    ``runtimes`` maps each ingress pe_id to what ``admit`` receives.
    With an admission front end armed, every offer consults
    :meth:`~repro.control.admission.AdmissionController.admit_ingress`
    first — shed and rejected SDOs never reach the data plane (they
    count as source rejections; the controller keeps the shed/reject
    split) — and each source's ``backoff`` hook is registered so
    REJECT-level refusals impose their retry-after horizon.
    """
    sources = []
    for pe_id, rate in sorted(topology.source_rates.items()):
        runtime = runtimes[pe_id]

        if admission is None:

            def sink(
                sdo: SDO, now: float, runtime: _t.Any = runtime
            ) -> bool:
                return admit(runtime, sdo, now)

        else:

            def sink(
                sdo: SDO,
                now: float,
                runtime: _t.Any = runtime,
                pe_id: str = pe_id,
            ) -> bool:
                assert admission is not None
                if admission.admit_ingress(pe_id, now) != "admit":
                    return False
                return admit(runtime, sdo, now)

        stream_id = f"src:{pe_id}"
        rng = streams.stream(stream_id)
        if config.source_kind == "constant":
            source: _t.Any = ConstantRateSource(env, stream_id, sink, rate)
        elif config.source_kind in _POISSON_SHAPES:
            source = PoissonSource(
                env, stream_id, sink, rate, rng,
                shape=_POISSON_SHAPES[config.source_kind](config),
            )
        elif config.source_kind in ("squarewave", "driftsquare"):
            duty = config.source_duty
            source = SquareWaveSource(
                env,
                stream_id,
                sink,
                peak_rate=rate / duty,
                period=config.source_mean_on / duty,
                duty=duty,
                drift=(
                    config.source_drift
                    if config.source_kind == "driftsquare"
                    else 0.0
                ),
            )
        else:
            duty = config.source_duty
            mean_on = config.source_mean_on
            mean_off = mean_on * (1.0 - duty) / duty
            source = OnOffSource(
                env,
                stream_id,
                sink,
                peak_rate=rate / duty,
                mean_on=mean_on,
                mean_off=mean_off,
                rng=rng,
            )
        if admission is not None:
            admission.register_backoff(pe_id, source.backoff)
        sources.append(source)
    return sources


def source_counters(
    sources: _t.Sequence[_t.Any],
) -> _t.Dict[str, _t.Callable[[], int]]:
    """Each source's cumulative generated counter (offered load, counted
    before the admission verdict), by ingress pe_id."""
    return {
        source.stream_id.split(":", 1)[1]: (
            lambda s=source: s.stats.generated
        )
        for source in sources
    }


def build_gauges(
    env: _t.Any,
    cadence: _t.Optional[float],
    recorder: TraceRecorder,
    runtimes: _t.Mapping[str, _t.Any],
    plane: _t.Any,
    collector: _t.Optional[EgressCollector] = None,
) -> _t.Optional[GaugeRegistry]:
    """Register the standard per-PE gauges when sampling is requested,
    sampled by a process of ``env`` (either substrate's).

    Gauges: input-buffer ``occupancy`` for every PE (a substrate
    observable, registered here), per-egress ``latency_p95`` from the
    streaming latency histograms, plus the control plane's own gauges
    (``token_level`` for PEs under a token-bucket scheduler, the last
    advertised ``r_max`` for PEs with a flow controller).
    """
    if cadence is None:
        return None
    gauges = GaugeRegistry(env, cadence=cadence, recorder=recorder)
    for pe_id, runtime in runtimes.items():
        gauges.register(
            "occupancy",
            lambda buffer=runtime.buffer: float(buffer.occupancy),
            pe=pe_id,
        )
    if collector is not None:
        # Bind the record object, not the collector lookup: records
        # persist across warm-up resets (reset mutates their fields).
        for pe_id, record in sorted(collector.records().items()):
            gauges.register(
                "latency_p95",
                lambda record=record: record.hist.percentile(0.95),
                pe=pe_id,
            )
    plane.register_gauges(gauges, pe_order=runtimes)
    gauges.start()
    return gauges
