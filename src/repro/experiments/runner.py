"""Run experiment cells: (topology x policy) with replication averaging.

A *cell* is one configuration; each replication generates a fresh random
topology (new graph, placement, weights, service scales) and a fresh
simulation seed, then runs every requested policy on the *same* topology
with the *same* Tier-1 targets — the paired design the paper's comparisons
need.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field

import numpy as np

from repro.core.global_opt import solve_global_allocation
from repro.core.policies import Policy
from repro.core.targets import AllocationTargets
from repro.experiments.config import ExperimentConfig
from repro.graph.topology import Topology, generate_topology
from repro.metrics.collectors import MetricsReport
from repro.metrics.stats import SummaryStats, summarize
from repro.obs.recorder import TraceRecorder
from repro.systems.faults import FaultPlan
from repro.systems.simulated import SimulatedSystem, SystemConfig

#: Hook producing a per-run trace recorder: called with (policy name,
#: replication index); returning None leaves that run untraced.
RecorderFactory = _t.Callable[[str, int], _t.Optional[TraceRecorder]]

#: Hook producing a per-replication fault plan: called with (topology,
#: seed); returning None runs that replication fault-free.  Every policy
#: in the replication runs under the *same* plan (the paired design),
#: and plans are generated in the parent process so parallel cells stay
#: bit-identical to serial ones (see ``repro.experiments.parallel``).
FaultPlanFactory = _t.Callable[[Topology, int], _t.Optional[FaultPlan]]

#: Process-count used when ``run_cell`` is called without an explicit
#: ``jobs`` argument.  ``None`` keeps the serial path.  The benchmark
#: suite sets this from the ``REPRO_JOBS`` environment variable (see
#: ``benchmarks/conftest.py``) so existing benches parallelize without
#: signature changes.
DEFAULT_JOBS: _t.Optional[int] = None


@dataclass
class PolicySummary:
    """Replication-averaged outcome of one policy in a cell."""

    policy: str
    weighted_throughput: SummaryStats
    latency_mean: SummaryStats
    latency_std: SummaryStats
    latency_p50: SummaryStats
    latency_p95: SummaryStats
    latency_p99: SummaryStats
    buffer_drops: SummaryStats
    cpu_utilization: SummaryStats
    wasted_work: SummaryStats
    #: Weighted throughput normalized by the fluid-optimal value of the
    #: same topology (isolates control quality from raw capacity).
    normalized_throughput: SummaryStats
    reports: _t.List[MetricsReport] = field(default_factory=list)


@dataclass
class CellResult:
    """All policies' summaries for one experiment cell."""

    config: ExperimentConfig
    policies: _t.Dict[str, PolicySummary]

    def ratio(self, numerator: str, denominator: str) -> float:
        """Mean weighted-throughput ratio between two policies."""
        top = self.policies[numerator].weighted_throughput.mean
        bottom = self.policies[denominator].weighted_throughput.mean
        if bottom == 0:
            return float("inf")
        return top / bottom


def fluid_optimal_throughput(
    topology: Topology, targets: AllocationTargets
) -> float:
    """sum_j w_j r̄_out,j over egress PEs — the Tier-1 fluid optimum."""
    total = 0.0
    for pe_id in topology.graph.egress_ids:
        weight = topology.graph.profile(pe_id).weight
        total += weight * targets.rate_out.get(pe_id, 0.0)
    return total


def prepare_replication(
    config: ExperimentConfig,
    replication: int,
    targets_transform: _t.Optional[
        _t.Callable[[AllocationTargets, Topology, int], AllocationTargets]
    ] = None,
) -> _t.Tuple[Topology, AllocationTargets, SystemConfig, float]:
    """Generate one replication's shared inputs.

    Returns the topology, the (possibly transformed) Tier-1 targets every
    policy shares, the per-run system config, and the fluid-optimal
    throughput used for normalization.  Serial and parallel cells both
    start here, so they derive every seed the same way.
    """
    seed = config.base_seed + replication
    topology = generate_topology(config.spec, np.random.default_rng(seed))
    targets = solve_global_allocation(
        topology.graph, topology.placement, topology.source_rates
    ).targets
    optimum = fluid_optimal_throughput(topology, targets)

    run_targets = targets
    if targets_transform is not None:
        run_targets = targets_transform(targets, topology, seed)

    system_config = SystemConfig(
        **{**config.system.__dict__, "seed": seed * 1000 + 17}
    )
    return topology, run_targets, system_config, optimum


def run_policy(
    topology: Topology,
    policy: Policy,
    targets: AllocationTargets,
    system_config: SystemConfig,
    duration: float,
    fault_plan: _t.Optional[FaultPlan],
    recorder: _t.Optional[TraceRecorder] = None,
) -> MetricsReport:
    """Run one policy on one prepared replication, under its fault plan."""
    system = SimulatedSystem(
        topology,
        policy,
        targets=targets,
        config=system_config,
        recorder=recorder,
    )
    if fault_plan is not None:
        fault_plan.attach(system)
    return system.run(duration)


def run_replication(
    config: ExperimentConfig,
    policies: _t.Sequence[Policy],
    replication: int,
    targets_transform: _t.Optional[
        _t.Callable[[AllocationTargets, Topology, int], AllocationTargets]
    ] = None,
    recorder_factory: _t.Optional[RecorderFactory] = None,
    fault_plan_factory: _t.Optional[FaultPlanFactory] = None,
) -> _t.Tuple[Topology, _t.Dict[str, MetricsReport], float]:
    """One topology, all policies; returns reports plus the fluid optimum.

    ``recorder_factory`` lets an experiment attach a trace recorder to any
    (policy, replication) run — e.g. trace only ACES on replication 0 —
    without altering the paired-topology design.  ``fault_plan_factory``
    subjects every policy in the replication to the same fault schedule.
    """
    topology, targets, system_config, optimum = prepare_replication(
        config, replication, targets_transform
    )
    fault_plan = (
        fault_plan_factory(topology, config.base_seed + replication)
        if fault_plan_factory is not None
        else None
    )
    reports: _t.Dict[str, MetricsReport] = {}
    for policy in policies:
        recorder = (
            recorder_factory(policy.name, replication)
            if recorder_factory is not None
            else None
        )
        reports[policy.name] = run_policy(
            topology, policy, targets, system_config, config.duration,
            fault_plan, recorder,
        )
    return topology, reports, optimum


def run_cell(
    config: ExperimentConfig,
    policies: _t.Sequence[Policy],
    targets_transform: _t.Optional[
        _t.Callable[[AllocationTargets, Topology, int], AllocationTargets]
    ] = None,
    recorder_factory: _t.Optional[RecorderFactory] = None,
    jobs: _t.Optional[int] = None,
    fault_plan_factory: _t.Optional[FaultPlanFactory] = None,
) -> CellResult:
    """Run every policy over ``config.replications`` random topologies.

    ``jobs`` > 1 fans the (replication x policy) grid across that many
    worker processes (see :mod:`repro.experiments.parallel`); results are
    bit-identical to a serial run because every replication's topology
    and targets are generated in the parent with the serial seed
    derivation.  ``jobs`` of None or 1, a ``recorder_factory`` (recorders
    hold process-local state), or any pool failure runs serially.

    ``fault_plan_factory`` (topology, seed) -> FaultPlan | None applies
    the same fault schedule to every policy of a replication; plans are
    built in the parent process on both paths, so serial and parallel
    faulted cells stay bit-identical.
    """
    if not policies:
        raise ValueError("at least one policy is required")
    names = [policy.name for policy in policies]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate policy names in {names}")
    if jobs is None:
        jobs = DEFAULT_JOBS
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")

    per_policy: _t.Dict[str, _t.List[MetricsReport]] = {
        name: [] for name in names
    }
    normalized: _t.Dict[str, _t.List[float]] = {name: [] for name in names}

    all_reports: _t.Optional[_t.Dict[int, _t.Dict[str, MetricsReport]]] = None
    optima: _t.Dict[int, float] = {}
    if jobs is not None and jobs > 1 and recorder_factory is None:
        from repro.experiments.parallel import (
            ParallelExecutionError,
            run_cell_tasks,
        )

        try:
            all_reports, optima = run_cell_tasks(
                config,
                policies,
                jobs,
                targets_transform,
                fault_plan_factory=fault_plan_factory,
            )
        except ParallelExecutionError:
            all_reports = None  # graceful serial fallback

    if all_reports is None:
        all_reports = {}
        for replication in range(config.replications):
            _, reports, optimum = run_replication(
                config,
                policies,
                replication,
                targets_transform,
                recorder_factory=recorder_factory,
                fault_plan_factory=fault_plan_factory,
            )
            all_reports[replication] = reports
            optima[replication] = optimum

    for replication in range(config.replications):
        optimum = optima[replication]
        for name, report in all_reports[replication].items():
            per_policy[name].append(report)
            if optimum > 0:
                normalized[name].append(
                    report.weighted_throughput / optimum
                )

    summaries: _t.Dict[str, PolicySummary] = {}
    for name in names:
        reports = per_policy[name]
        summaries[name] = PolicySummary(
            policy=name,
            weighted_throughput=summarize(
                [r.weighted_throughput for r in reports]
            ),
            latency_mean=summarize([r.latency.mean for r in reports]),
            latency_std=summarize([r.latency.std for r in reports]),
            latency_p50=summarize(
                [r.latency_percentiles.get("p50", 0.0) for r in reports]
            ),
            latency_p95=summarize(
                [r.latency_percentiles.get("p95", 0.0) for r in reports]
            ),
            latency_p99=summarize(
                [r.latency_percentiles.get("p99", 0.0) for r in reports]
            ),
            buffer_drops=summarize(
                [float(r.buffer_drops) for r in reports]
            ),
            cpu_utilization=summarize(
                [r.cpu_utilization for r in reports]
            ),
            wasted_work=summarize(
                [r.wasted_work_fraction for r in reports]
            ),
            normalized_throughput=summarize(normalized[name]),
            reports=reports,
        )
    return CellResult(config=config, policies=summaries)
