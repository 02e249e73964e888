"""Resilience benchmark: a fault matrix with MTTR and utility retention.

Every cell of the matrix runs one policy on one topology with one
:class:`~repro.systems.faults.FaultPlan` scenario injected mid-run, and
measures how the closed loop degrades and recovers:

* **utility retention** — weighted egress rate during the fault window
  relative to the pre-fault steady state (the linear-utility view of the
  paper's sum_j w_j r_out,j objective);
* **MTTR** — mean time to recover: from the *end* of the fault window to
  the first (smoothed) egress-rate bin back within 10% of the pre-fault
  steady state;
* **drops** — SDOs lost at buffers over the measured window;
* **guard events** — how often the degradation guards fired
  (``feedback_stale``, ``tier1_fallback``) plus the injected ``fault``
  markers, taken from the trace recorder.

The matrix is written to ``BENCH_resilience.json`` by ``repro chaos``;
``--smoke`` runs a reduced matrix sized for CI.  Chaos cells are not
twins, so of :mod:`repro.experiments.matrix` this suite uses the run
guard, the fan-out, the writer and the CLI flow only.  Every cell runs
with the invariant oracles armed, as strictly as its substrate allows,
and its conservation ledger closed afterwards; a cell given a
:class:`~repro.runtime.spc.RuntimeConfig` runs the same fault on the
threaded runtime.
"""

from __future__ import annotations

import typing as _t
from dataclasses import asdict, dataclass, field
from operator import itemgetter

import numpy as np

from repro.check import OracleRecorder
from repro.control.config import ControlConfig
from repro.core.policies import Policy, policy_by_name
from repro.experiments import matrix
from repro.experiments.admission import bench_admission_config
from repro.graph.topology import Topology, TopologySpec, generate_topology
from repro.obs.recorder import MemoryRecorder, TraceFilter
from repro.systems.faults import FaultPlan
from repro.systems.simulated import SystemConfig, build_system

#: Trace kinds the chaos harness counts (everything else is filtered out
#: at the recorder so long runs stay cheap).  ``admission_level`` events
#: additionally feed the per-cell ladder timeline.
_GUARD_KINDS = (
    "fault",
    "feedback_stale",
    "tier1_fallback",
    "worker_restart",
    "admission_level",
)

#: Recovery band: back within this fraction of the pre-fault rate.
RECOVERY_TOLERANCE = 0.10

#: Rolling-mean window (bins) used when judging recovery, so one lucky
#: bin inside a still-degraded stretch does not count as recovered.
SMOOTHING_BINS = 3


class EgressRateProbe:
    """Process sampling the cumulative weighted egress count per bin.

    Per-bin weighted egress *rates* are first differences of the sampled
    cumulative sum_j w_j count_j.  The collector's warm-up reset makes the
    cumulative series drop once; :meth:`rates` clamps that bin to zero.
    """

    def __init__(self, system: _t.Any, bin_width: float):
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        self.system = system
        self.bin_width = bin_width
        self.times: _t.List[float] = []
        self.cumulative: _t.List[float] = []
        system.env.process(self._run())

    def _run(self) -> _t.Generator:
        env = self.system.env
        collector = self.system.collector
        while True:
            yield env.timeout(self.bin_width)
            self.times.append(env.now)
            self.cumulative.append(
                sum(
                    record.weight * record.count
                    for record in collector.records().values()
                )
            )

    def rates(self) -> _t.List[_t.Tuple[float, float]]:
        """(bin end time, weighted egress rate) per completed bin."""
        out: _t.List[_t.Tuple[float, float]] = []
        previous = 0.0
        for time, value in zip(self.times, self.cumulative):
            out.append((time, max(0.0, value - previous) / self.bin_width))
            previous = value
        return out


def mean_rate(
    rates: _t.Sequence[_t.Tuple[float, float]], start: float, end: float
) -> float:
    """Mean per-bin rate over bins whose end time falls in (start, end]."""
    window = [rate for time, rate in rates if start < time <= end]
    if not window:
        return 0.0
    return sum(window) / len(window)


def measure_mttr(
    rates: _t.Sequence[_t.Tuple[float, float]],
    fault_end: float,
    pre_fault_rate: float,
) -> float:
    """Time from fault end until the rate, smoothed over
    :data:`SMOOTHING_BINS`, re-enters the :data:`RECOVERY_TOLERANCE` band
    around the pre-fault steady state.

    Returns 0.0 when there was nothing to recover (pre-fault rate zero),
    ``inf`` when the run ends still degraded.
    """
    if pre_fault_rate <= 0:
        return 0.0
    threshold = (1.0 - RECOVERY_TOLERANCE) * pre_fault_rate
    tail = [(time, rate) for time, rate in rates if time > fault_end]
    for index in range(len(tail)):
        lo = max(0, index - SMOOTHING_BINS + 1)
        window = [rate for _, rate in tail[lo : index + 1]]
        if sum(window) / len(window) >= threshold:
            return tail[index][0] - fault_end
    return float("inf")


@dataclass(frozen=True)
class ChaosScenario:
    """One named fault schedule of the matrix."""

    name: str
    category: str  # "data-plane" | "control-plane"
    description: str
    #: Called with (plan, topology, start, duration); adds faults in place.
    build: _t.Callable[[FaultPlan, Topology, float, float], None]


def _pick_victim_pe(topology: Topology) -> str:
    """A mid-graph PE whose loss actually dents egress throughput."""
    graph = topology.graph
    if graph.intermediate_ids:
        return graph.intermediate_ids[0]
    return graph.ingress_ids[0]


def _sc_node_slowdown(plan, topology, start, duration) -> None:
    plan.node_slowdown(0, factor=0.4, start=start, duration=duration)


def _sc_source_surge(plan, topology, start, duration) -> None:
    plan.source_surge(
        topology.graph.ingress_ids[0], factor=2.5,
        start=start, duration=duration,
    )


def _sc_pe_crash(plan, topology, start, duration) -> None:
    plan.pe_crash(_pick_victim_pe(topology), start=start, duration=duration)


def _sc_feedback_loss(plan, topology, start, duration) -> None:
    plan.feedback_loss(0.5, start=start, duration=duration)


def _sc_feedback_delay(plan, topology, start, duration) -> None:
    plan.feedback_delay(5.0, start=start, duration=duration, jitter=0.05)


def _sc_tier1_outage(plan, topology, start, duration) -> None:
    plan.tier1_outage(start=start, duration=duration)


def _sc_controller_outage(plan, topology, start, duration) -> None:
    plan.controller_outage(0, start=start, duration=duration)


SCENARIOS: _t.Dict[str, ChaosScenario] = {
    scenario.name: scenario
    for scenario in (
        ChaosScenario(
            "node-slowdown", "data-plane",
            "node 0 loses 60% CPU", _sc_node_slowdown,
        ),
        ChaosScenario(
            "source-surge", "data-plane",
            "first input stream rate x2.5", _sc_source_surge,
        ),
        ChaosScenario(
            "pe-crash", "data-plane",
            "mid-graph PE crashes, buffer lost", _sc_pe_crash,
        ),
        ChaosScenario(
            "feedback-loss", "control-plane",
            "50% of r_max publications dropped", _sc_feedback_loss,
        ),
        ChaosScenario(
            "feedback-delay", "control-plane",
            "feedback delay x5 with jitter", _sc_feedback_delay,
        ),
        ChaosScenario(
            "tier1-outage", "control-plane",
            "every Tier-1 re-solve fails", _sc_tier1_outage,
        ),
        ChaosScenario(
            "controller-outage", "control-plane",
            "node 0 misses all control ticks", _sc_controller_outage,
        ),
    )
}


@dataclass
class ChaosCellResult:
    """Outcome of one (scenario, policy) cell."""

    scenario: str
    category: str
    policy: str
    pre_fault_rate: float
    fault_rate: float
    utility_retention: float
    recovery_rate: float
    mttr: float
    recovered: bool
    drops: int
    weighted_throughput: float
    events: _t.Dict[str, int]
    error: _t.Optional[str] = None
    #: Whether the SLO-aware admission front end was armed in this cell.
    admission: bool = False
    #: Degradation-ladder level changes over the run, oldest first
    #: (``{"t": ..., "level": ..., "cause": ...}``); empty without
    #: admission.
    ladder_timeline: _t.List[_t.Dict[str, object]] = field(
        default_factory=list
    )


def chaos_system_config(
    seed: int, warmup: float = 2.0, admission: bool = False
) -> SystemConfig:
    """System config the chaos matrix runs under: degradation guards on
    (a staleness TTL of 10 control intervals, past which feedback reads
    0) and periodic Tier-1 re-solves so solver outages are actually
    exercised.  With ``admission`` the tuned SLO-aware front end is armed
    too."""
    return SystemConfig(
        seed=seed,
        warmup=warmup,
        feedback_staleness_ttl=10 * SystemConfig.dt,
        reoptimize_interval=1.0,
        admission=bench_admission_config() if admission else None,
    )


def run_chaos_cell(
    topology: Topology,
    policy: Policy,
    scenario: ChaosScenario,
    config: ControlConfig,
    duration: float,
    fault_start: float,
    fault_duration: float,
) -> ChaosCellResult:
    """Run one faulted system and measure degradation and recovery.

    ``fault_start`` is measured from the start of the *measured* window
    (i.e. the fault fires at model time ``warmup + fault_start``).  Any
    oracle or conservation violation becomes the cell's ``error``.
    """
    guards = MemoryRecorder(
        trace_filter=TraceFilter.parse("kind=" + "|".join(_GUARD_KINDS))
    )
    oracle = OracleRecorder(sink=guards)
    system = build_system(topology, policy, config=config, recorder=oracle)
    oracle.attach(system)
    bin_width = max(config.dt * 2, duration / 80.0)
    probe = EgressRateProbe(system, bin_width)

    absolute_start = config.warmup + fault_start
    plan = FaultPlan()
    scenario.build(plan, topology, absolute_start, fault_duration)
    plan.attach(system)

    report, error = matrix.guarded_run(system, duration)
    if error is None:
        violations = oracle.finalize()
        if violations:
            error = "invariant violations: " + ", ".join(
                sorted({violation.invariant for violation in violations})
            )

    rates = probe.rates()
    fault_end = absolute_start + fault_duration
    # Skip the first post-warmup bins while the measured window settles.
    settle = config.warmup + 2 * bin_width
    pre = mean_rate(rates, settle, absolute_start)
    during = mean_rate(rates, absolute_start, fault_end)
    recovery_window_end = config.warmup + duration
    post = mean_rate(rates, fault_end, recovery_window_end)
    mttr = measure_mttr(rates, fault_end, pre)

    return ChaosCellResult(
        scenario=scenario.name,
        category=scenario.category,
        policy=policy.name,
        pre_fault_rate=pre,
        fault_rate=during,
        utility_retention=(during / pre) if pre > 0 else 1.0,
        recovery_rate=post,
        mttr=mttr,
        recovered=mttr != float("inf"),
        drops=report.buffer_drops if report is not None else 0,
        weighted_throughput=(
            report.weighted_throughput if report is not None else 0.0
        ),
        events={kind: guards.counts.get(kind, 0) for kind in _GUARD_KINDS},
        error=error,
        admission=config.admission is not None,
        ladder_timeline=[
            {
                "t": event["t"],
                "level": event["level"],
                "cause": event["cause"],
            }
            for event in guards.by_kind("admission_level")
        ],
    )


#: Everything one matrix cell needs, picklable for process fan-out:
#: (spec, topology seed, policy name, scenario name, system seed,
#:  duration, fault_start, fault_duration, warmup, admission).
_CellArgs = _t.Tuple[
    TopologySpec, int, str, str, int, float, float, float, float, bool
]


def _run_cell_args(args: _CellArgs) -> ChaosCellResult:
    (
        spec, topo_seed, policy_name, scenario_name,
        system_seed, duration, fault_start, fault_duration, warmup,
        admission,
    ) = args
    topology = generate_topology(spec, np.random.default_rng(topo_seed))
    return run_chaos_cell(
        topology=topology,
        policy=policy_by_name(policy_name),
        scenario=SCENARIOS[scenario_name],
        config=chaos_system_config(
            seed=system_seed, warmup=warmup, admission=admission
        ),
        duration=duration,
        fault_start=fault_start,
        fault_duration=fault_duration,
    )


def run_chaos_matrix(
    spec: TopologySpec,
    policies: _t.Sequence[str] = ("aces", "udp", "lockstep"),
    scenarios: _t.Optional[_t.Sequence[str]] = None,
    duration: float = 10.0,
    warmup: float = 2.0,
    seed: int = 0,
    jobs: int = 1,
    admission: bool = False,
) -> _t.Dict[str, _t.Any]:
    """Run the full (scenario x policy) fault matrix on one topology.

    Every cell shares the topology (generated from ``spec`` with
    ``seed``) and the fault timeline: the fault fires 35% into the
    measured window and lasts 25% of it, leaving a 40% tail for recovery
    measurement.  Cells run through :func:`matrix.fan_out` over ``jobs``
    worker processes.
    With ``admission`` every (scenario, policy) pair runs twice — once
    plain and once with the SLO-aware admission front end armed — and
    admission cells carry the degradation-ladder level timeline.
    """
    names = list(scenarios) if scenarios is not None else sorted(SCENARIOS)
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        raise ValueError(
            f"unknown scenarios {unknown}; known: {sorted(SCENARIOS)}"
        )
    if not policies:
        raise ValueError("at least one policy is required")

    fault_start = 0.35 * duration
    fault_duration = 0.25 * duration
    admission_modes = (False, True) if admission else (False,)
    tasks: _t.List[_CellArgs] = [
        (
            spec, seed, policy_name, scenario_name,
            seed * 1000 + 17, duration, fault_start, fault_duration, warmup,
            armed,
        )
        for scenario_name in names
        for policy_name in policies
        for armed in admission_modes
    ]

    cells = matrix.fan_out(_run_cell_args, tasks, jobs)

    return {
        "suite": "resilience",
        "seed": seed,
        "duration": duration,
        "warmup": warmup,
        "admission": admission,
        "fault": {"start": fault_start, "duration": fault_duration},
        "recovery_tolerance": RECOVERY_TOLERANCE,
        "topology": {
            "pes": (
                spec.num_ingress + spec.num_egress + spec.num_intermediate
            ),
            "nodes": spec.num_nodes,
        },
        "scenarios": {
            name: {
                "category": SCENARIOS[name].category,
                "description": SCENARIOS[name].description,
            }
            for name in names
        },
        "cells": [asdict(cell) for cell in cells],
    }


def _stats(results: matrix.Results) -> _t.Dict[str, _t.Any]:
    """The summary-line counts; the file itself carries no summary block."""
    cells = results["cells"]
    errors = sum(1 for cell in cells if cell["error"])
    return {
        "errors": errors,
        "unrecovered": sum(1 for cell in cells if not cell["recovered"]),
        "clean": errors == 0,
    }


VERB = matrix.MatrixVerb(
    help="resilience fault matrix (MTTR, utility retention, drops)",
    description=(
        "Inject each fault scenario (data-plane and control-plane) "
        "into a mid-run window for every requested policy, measure "
        "utility retention during the fault and MTTR afterwards, and "
        "write the matrix to a JSON benchmark file."
    ),
    topology_flags=True,
    flags=(
        matrix.flag(
            "--policies", "comma-separated policy names",
            default="aces,udp,lockstep",
        ),
        matrix.flag(
            "--scenarios", "comma-separated scenario names (default: all)"
        ),
        *matrix.window_flags(10.0, 2.0),
        matrix.output_flag("BENCH_resilience.json"),
        matrix.flag(
            "--jobs", "fan matrix cells across N worker processes",
            type=int, default=1, metavar="N",
        ),
        matrix.smoke_flag(
            "reduced CI matrix: small topology, short run, ACES only"
        ),
        matrix.flag(
            "--admission",
            "double the matrix: run every cell plain AND with the "
            "SLO-aware admission front end armed (admission cells carry "
            "the degradation-ladder timeline)",
            action="store_true",
        ),
    ),
    # 20 PEs split 4 ingress / 4 egress / 12 intermediate on 4 nodes.
    smoke=dict(pes=20, nodes=4, duration=6.0, warmup=1.5, policies="aces"),
    run=lambda args: run_chaos_matrix(
        args.spec,
        policies=matrix.csv(args.policies),
        scenarios=matrix.csv(args.scenarios, sorted(SCENARIOS)),
        duration=args.duration,
        warmup=args.warmup,
        seed=args.seed,
        jobs=args.jobs,
        admission=args.admission,
    ),
    title=lambda results: (
        f"resilience matrix ({len(SCENARIOS)} scenarios available, "
        f"{len(results['cells'])} cells run)"
    ),
    columns=(
        ("scenario", itemgetter("scenario")),
        ("policy", itemgetter("policy")),
        ("admission", lambda cell: "on" if cell["admission"] else "off"),
        ("retention", itemgetter("utility_retention")),
        ("mttr", itemgetter("mttr")),
        ("drops", itemgetter("drops")),
        ("stale", lambda cell: cell["events"]["feedback_stale"]),
        ("fallback", lambda cell: cell["events"]["tier1_fallback"]),
        ("ladder", matrix.count("ladder_timeline")),
        matrix.ERROR,
    ),
    summary=(("errors", "errors"), ("unrecovered", "unrecovered")),
    stats=_stats,
)
