"""Process-parallel execution of experiment cells.

A cell is replications x policies independent simulations; each one is
CPU-bound pure Python, so the only way to use more than one core is
multiple processes.  The fan-out unit is one ``(replication, policy)``
simulation: fine enough to keep all workers busy even when a cell has
few replications, coarse enough that process overhead is negligible
against multi-second simulations.

The paired-topology design is preserved by construction: the parent
process generates each replication's topology, Tier-1 targets, and any
``targets_transform`` *once*, through the serial runner's own
:func:`~repro.experiments.runner.prepare_replication`, and ships the
finished objects to workers.  Workers only build and run the system
through :func:`~repro.experiments.runner.run_policy`, as the serial
runner does; its randomness is fully determined by its config seed, so
a parallel cell is bit-identical to a serial one.

Failures anywhere in the pool (non-picklable policies, a broken child,
platforms without working multiprocessing) raise
:class:`ParallelExecutionError`; :func:`repro.experiments.runner.run_cell`
catches it and falls back to the serial path.
"""

from __future__ import annotations

import typing as _t
from concurrent.futures import ProcessPoolExecutor

from repro.core.policies import Policy
from repro.core.targets import AllocationTargets
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import prepare_replication, run_policy
from repro.graph.topology import Topology
from repro.metrics.collectors import MetricsReport
from repro.systems.faults import FaultPlan
from repro.systems.simulated import SystemConfig

#: One worker assignment: everything a child process needs to run one
#: policy on one prepared replication.  The fault plan (or None) is
#: built in the parent — ``FaultPlan`` is plain picklable data, unlike
#: the factory closures that produce it.
_Task = _t.Tuple[
    int,
    Topology,
    AllocationTargets,
    SystemConfig,
    Policy,
    float,
    _t.Optional[FaultPlan],
]


class ParallelExecutionError(RuntimeError):
    """Raised when the process pool cannot run the cell (caller should
    fall back to serial execution)."""


def _execute_task(
    task: _Task,
) -> _t.Tuple[int, str, MetricsReport]:
    """Child-process entry point: run one (replication, policy) simulation."""
    (
        replication,
        topology,
        targets,
        system_config,
        policy,
        duration,
        fault_plan,
    ) = task
    return replication, policy.name, run_policy(
        topology, policy, targets, system_config, duration, fault_plan
    )


def run_cell_tasks(
    config: ExperimentConfig,
    policies: _t.Sequence[Policy],
    jobs: int,
    targets_transform: _t.Optional[
        _t.Callable[[AllocationTargets, Topology, int], AllocationTargets]
    ] = None,
    fault_plan_factory: _t.Optional[
        _t.Callable[[Topology, int], _t.Optional[FaultPlan]]
    ] = None,
) -> _t.Tuple[_t.Dict[int, _t.Dict[str, MetricsReport]], _t.Dict[int, float]]:
    """Fan a cell's (replication x policy) grid across ``jobs`` processes.

    Returns per-replication report dicts plus per-replication fluid
    optima, both keyed by replication index.  Raises
    :class:`ParallelExecutionError` on any pool failure.

    ``fault_plan_factory`` is invoked in the parent with the same
    (topology, seed) arguments the serial runner uses; the resulting
    plan rides in the task tuple and is attached in the child, so a
    faulted parallel cell matches its serial counterpart bit-for-bit.
    """
    if jobs < 2:
        raise ValueError("run_cell_tasks needs jobs >= 2; use the serial path")

    tasks: _t.List[_Task] = []
    optima: _t.Dict[int, float] = {}
    for replication in range(config.replications):
        topology, run_targets, system_config, optimum = prepare_replication(
            config, replication, targets_transform
        )
        optima[replication] = optimum
        fault_plan = (
            fault_plan_factory(topology, config.base_seed + replication)
            if fault_plan_factory is not None
            else None
        )
        for policy in policies:
            tasks.append(
                (
                    replication,
                    topology,
                    run_targets,
                    system_config,
                    policy,
                    config.duration,
                    fault_plan,
                )
            )

    reports: _t.Dict[int, _t.Dict[str, MetricsReport]] = {
        replication: {} for replication in range(config.replications)
    }
    try:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for replication, name, report in pool.map(
                _execute_task, tasks, chunksize=1
            ):
                reports[replication][name] = report
    except Exception as exc:  # noqa: BLE001 — any pool/pickle failure
        raise ParallelExecutionError(
            f"parallel cell execution failed ({type(exc).__name__}: {exc})"
        ) from exc
    return reports, optima
