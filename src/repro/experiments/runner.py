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
from repro.experiments.matrix import fan_out
from repro.graph.topology import Topology, generate_topology
from repro.metrics.collectors import MetricsReport
from repro.metrics.stats import SummaryStats, summarize
from repro.systems.simulated import SimulatedSystem, SystemConfig

#: Process-count used when ``run_cell`` is called without an explicit
#: ``jobs`` argument.  ``None`` runs serially.  The benchmark
#: suite sets this from the ``REPRO_JOBS`` environment variable (see
#: ``benchmarks/conftest.py``) so existing benches parallelize without
#: signature changes.
DEFAULT_JOBS: _t.Optional[int] = None

#: One (replication, policy) run, everything prepared: picklable, so
#: :func:`~repro.experiments.matrix.fan_out` can ship it to a worker.
_Task = _t.Tuple[Topology, Policy, AllocationTargets, SystemConfig, float]


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
    throughput used for normalization.  Replication ``r`` generates its
    topology from seed ``r``.  :func:`run_cell` prepares every
    replication here, in the parent process, whatever its ``jobs``.
    """
    topology = generate_topology(
        config.spec, np.random.default_rng(replication)
    )
    targets = solve_global_allocation(
        topology.graph, topology.placement, topology.source_rates
    ).targets
    optimum = fluid_optimal_throughput(topology, targets)

    run_targets = targets
    if targets_transform is not None:
        run_targets = targets_transform(targets, topology, replication)

    system_config = SystemConfig(
        **{**config.system.__dict__, "seed": replication * 1000 + 17}
    )
    return topology, run_targets, system_config, optimum


def _run_task(task: _Task) -> MetricsReport:
    topology, policy, targets, system_config, duration = task
    return SimulatedSystem(
        topology, policy, targets=targets, config=system_config
    ).run(duration)


def run_cell(
    config: ExperimentConfig,
    policies: _t.Sequence[Policy],
    targets_transform: _t.Optional[
        _t.Callable[[AllocationTargets, Topology, int], AllocationTargets]
    ] = None,
    jobs: _t.Optional[int] = None,
) -> CellResult:
    """Run every policy over ``config.replications`` random topologies.

    Every replication's topology, Tier-1 targets and ``targets_transform``
    are prepared here, in replication order; the (replication x policy)
    runs then go through :func:`~repro.experiments.matrix.fan_out` over
    ``jobs`` worker processes (None means :data:`DEFAULT_JOBS`, and unset
    that means 1).  Each run is fully determined by its prepared inputs,
    so any ``jobs`` gives bit-identical results.
    """
    if not policies:
        raise ValueError("at least one policy is required")
    names = [policy.name for policy in policies]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate policy names in {names}")
    if jobs is None:
        jobs = 1 if DEFAULT_JOBS is None else DEFAULT_JOBS

    prepared = [
        prepare_replication(config, replication, targets_transform)
        for replication in range(config.replications)
    ]
    tasks: _t.List[_Task] = [
        (topology, policy, targets, system_config, config.duration)
        for topology, targets, system_config, _ in prepared
        for policy in policies
    ]
    runs = fan_out(_run_task, tasks, jobs)

    # Tasks are replication-major, so each policy's runs are a stride.
    per_policy: _t.Dict[str, _t.List[MetricsReport]] = {
        name: runs[index::len(names)] for index, name in enumerate(names)
    }
    optima = [optimum for _, _, _, optimum in prepared]
    normalized: _t.Dict[str, _t.List[float]] = {
        name: [
            report.weighted_throughput / optimum
            for report, optimum in zip(per_policy[name], optima)
            if optimum > 0
        ]
        for name in names
    }

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
