"""Elasticity benchmark: scale-out/in ramps, static vs elastic cluster.

Every cell runs one policy on a flash-crowd workload — a surge window in
the middle of the run is the scale-out ramp, its end the scale-in ramp —
either *static* (membership frozen, the pre-elasticity system) or
*elastic* (the Tier-3 :class:`~repro.control.elastic.ElasticityConfig`
armed: the scaling policy joins nodes under pressure, live-migrates PEs
onto them, and evacuates/removes nodes when pressure subsides), and
measures:

* **utility retention** — the elastic cell's weighted utility relative
  to its static twin (scaling must not cost throughput);
* **migration downtime** — per-migration seconds until the moved PE
  consumed past its pre-migration watermark (must stay bounded);
* **epochs / migrations / peak nodes** — how much the membership
  actually moved;
* **stranded SDOs** — occupancy resident in PEs that are not in any
  control-plane group (structurally zero: the plane refuses to remove
  non-empty nodes);
* **violations** — online oracle findings plus the closed conservation
  ledger (must be empty in every cell).

The matrix is written to ``BENCH_elasticity.json`` by ``repro elastic``
(see :func:`write_elasticity_bench`); ``--smoke`` runs a reduced matrix
sized for CI.  The headline acceptance check is :func:`summarize_cells`.
"""

from __future__ import annotations

import json
import typing as _t
from dataclasses import asdict, dataclass

import numpy as np

from repro.check import OracleRecorder, check_conservation
from repro.control.elastic import ElasticityConfig
from repro.core.policies import policy_by_name
from repro.graph.topology import TopologySpec, generate_topology
from repro.systems.simulated import SimulatedSystem, SystemConfig

#: Policies the matrix exercises by default.  UDP drains buffers toward
#: empty off-peak (exercising the scale-in edge); ACES pins occupancy at
#: b0 (exercising sustained-pressure scale-out).
DEFAULT_POLICIES: _t.Tuple[str, ...] = ("aces", "udp")

#: Per-policy workload profile (baseline load factor, surge multiplier).
#: ACES regulates overload at its ingress — r_max gating pushes excess
#: back to the sources before buffers express it — so its cells need a
#: heavy baseline before a surge shows up as sustained node pressure.
#: UDP expresses load directly in buffer fill, so a light baseline with
#: a strong surge exercises both the scale-out and the scale-in edge.
WORKLOAD_PROFILES: _t.Dict[str, _t.Tuple[float, float]] = {
    "aces": (1.0, 5.0),
    "udp": (0.8, 4.0),
}
DEFAULT_PROFILE: _t.Tuple[float, float] = (1.0, 5.0)

#: Downtime bound the benchmark asserts per migration (seconds) — one
#: hundred control intervals of the default dt.  Downtime here is
#: consumption-resume latency: time until the moved PE consumes past its
#: pre-migration watermark, which includes waiting for its first CPU
#: grant on the destination (ACES throttles hard mid-surge).  The bound
#: is well above that grant wait, well below anything a user would call
#: an outage.
DOWNTIME_BOUND = 2.0


def bench_elasticity_config(max_nodes: int) -> ElasticityConfig:
    """The tuned elastic config the benchmark arms.

    The hysteresis band straddles ACES's b0 = 0.5 occupancy set-point:
    scale-out requires sustained fill clearly above the set-point (a
    node that cannot hold its buffers at b0 is overloaded), scale-in
    requires buffers clearly below it.  The scale-out threshold sits at
    0.65 because ACES regulates overload aggressively — even a 5x flash
    crowd only lifts pressure to ~0.7 while r_max gating pushes the
    excess back to the sources — yet quiet-state pressure never holds
    above ~0.63.  Two-interval dwell plus a cooldown keeps the ramp
    edges from chattering.
    """
    return ElasticityConfig(
        scale_out_pressure=0.65,
        scale_in_pressure=0.3,
        min_nodes=2,
        max_nodes=max_nodes,
        check_interval=0.5,
        dwell_intervals=2,
        cooldown=1.5,
        max_migrations_per_epoch=4,
        placement_evaluations=12,
    )


def bench_spec(load_factor: float = 1.0) -> TopologySpec:
    """The benchmark topology: small enough for CI, loaded enough that
    the flash-crowd surge actually saturates the static cluster."""
    return TopologySpec(
        num_nodes=2,
        num_ingress=2,
        num_egress=1,
        num_intermediate=5,
        load_factor=load_factor,
    )


@dataclass
class ElasticityCellResult:
    """Outcome of one (policy, mode) ramp cell."""

    policy: str
    mode: str  # "static" | "elastic"
    weighted_throughput: float
    weighted_utility: float
    total_output: int
    buffer_drops: int
    cpu_utilization: float
    #: Final placement-book epoch (0 for static cells).
    epochs: int
    migrations: int
    #: Max / mean observed migration downtime in seconds over the
    #: migrations whose PE consumed again before the run ended.
    downtime_max: float
    downtime_mean: float
    downtime_bounded: bool
    scale_outs: int
    scale_ins: int
    peak_nodes: int
    final_nodes: int
    #: Integrated node-seconds over the measured window (the elastic
    #: cell's capacity bill; static cells pay num_nodes * duration).
    node_seconds: float
    #: Occupancy resident in PEs outside every control-plane group
    #: (structurally zero; a nonzero value means the buffer handoff or
    #: the removal interlock broke).
    stranded_sdos: int
    violations: _t.List[_t.Dict[str, object]]
    #: Filled at the matrix level for elastic cells: weighted utility
    #: relative to the static twin.
    utility_retention: _t.Optional[float] = None
    error: _t.Optional[str] = None


def run_elasticity_cell(
    policy_name: str,
    mode: str,
    duration: float = 18.0,
    warmup: float = 1.0,
    seed: int = 0,
    spec: _t.Optional[TopologySpec] = None,
    max_nodes: int = 5,
) -> ElasticityCellResult:
    """Run one ramp cell with strict oracles armed and the ledger closed.

    The flash-crowd surge occupies the second quarter of the measured
    window: rates ramp up at ``warmup + duration/4`` (the scale-out
    edge) and back down one quarter later (the scale-in edge), leaving
    half the window as the quiet tail where the slack signal can call
    capacity back in.
    """
    if mode not in ("static", "elastic"):
        raise ValueError(f"mode must be 'static' or 'elastic', got {mode!r}")
    load_factor, surge_factor = WORKLOAD_PROFILES.get(
        policy_name, DEFAULT_PROFILE
    )
    topology = generate_topology(
        spec if spec is not None else bench_spec(load_factor),
        np.random.default_rng(seed),
    )
    elasticity = (
        bench_elasticity_config(max_nodes) if mode == "elastic" else None
    )
    recorder = OracleRecorder(strict=True)
    config = SystemConfig(
        dt=0.02,
        seed=seed + 1,
        warmup=warmup,
        source_kind="flashcrowd",
        source_surge_start=round(warmup + duration / 4.0, 3),
        source_surge_duration=round(duration / 4.0, 3),
        source_surge_factor=surge_factor,
        elasticity=elasticity,
    )
    system = SimulatedSystem(
        topology, policy_by_name(policy_name), config=config,
        recorder=recorder,
    )
    recorder.attach_plane(system.plane)

    error: _t.Optional[str] = None
    try:
        report = system.run(duration)
    except Exception as exc:  # noqa: BLE001 — a cell must never kill the matrix
        error = f"{type(exc).__name__}: {exc}"
        report = None

    violations = list(recorder.finalize())
    violations.extend(check_conservation(system))

    grouped = {
        pe.pe_id for group in system.plane.groups for pe in group.pes
    }
    stranded = sum(
        runtime.buffer.occupancy
        for pe_id, runtime in system.runtimes.items()
        if pe_id not in grouped
    )
    downtimes = [
        record.downtime
        for record in system.migration_log
        if record.downtime is not None
    ]
    decisions = (
        system.scaling_policy.decisions
        if system.scaling_policy is not None
        else []
    )
    timeline = system.elastic.timeline
    window = duration if report is not None else 0.0
    return ElasticityCellResult(
        policy=policy_name,
        mode=mode,
        weighted_throughput=(
            report.weighted_throughput if report is not None else 0.0
        ),
        weighted_utility=(
            report.weighted_utility if report is not None else 0.0
        ),
        total_output=report.total_output_sdos if report is not None else 0,
        buffer_drops=report.buffer_drops if report is not None else 0,
        cpu_utilization=(
            report.cpu_utilization if report is not None else 0.0
        ),
        epochs=system.placement_book.epoch,
        migrations=len(system.migration_log),
        downtime_max=max(downtimes, default=0.0),
        downtime_mean=(
            sum(downtimes) / len(downtimes) if downtimes else 0.0
        ),
        downtime_bounded=max(downtimes, default=0.0) <= DOWNTIME_BOUND,
        scale_outs=sum(
            1 for record in decisions if record.decision == "scale_out"
        ),
        scale_ins=sum(
            1 for record in decisions if record.decision == "scale_in"
        ),
        peak_nodes=max(count for _, count in timeline),
        final_nodes=len(system.nodes),
        node_seconds=round(
            system.elastic.node_seconds(warmup, warmup + window), 6
        ),
        stranded_sdos=stranded,
        violations=[violation.as_dict() for violation in violations],
        error=error,
    )


def summarize_cells(
    cells: _t.Sequence[ElasticityCellResult],
) -> _t.Dict[str, _t.Any]:
    """The headline acceptance summary of one matrix.

    ``clean`` requires: zero oracle/conservation violations, zero
    stranded SDOs, zero cell errors, every elastic cell's migrations
    within the downtime bound, and every elastic cell actually scaling
    (a ramp that never fires the policy is a configuration bug, not a
    pass).
    """
    static = {cell.policy: cell for cell in cells if cell.mode == "static"}
    scaled = True
    retention_floor: _t.Optional[float] = None
    for cell in cells:
        if cell.mode != "elastic":
            continue
        twin = static.get(cell.policy)
        if twin is not None and twin.weighted_utility > 0:
            cell.utility_retention = (
                cell.weighted_utility / twin.weighted_utility
            )
            retention_floor = (
                cell.utility_retention
                if retention_floor is None
                else min(retention_floor, cell.utility_retention)
            )
        if cell.scale_outs == 0 or cell.migrations == 0:
            scaled = False
    violations = sum(len(cell.violations) for cell in cells)
    stranded = sum(cell.stranded_sdos for cell in cells)
    errors = sum(1 for cell in cells if cell.error is not None)
    bounded = all(
        cell.downtime_bounded for cell in cells if cell.mode == "elastic"
    )
    return {
        "elastic_cells_scaled": scaled,
        "downtime_bounded": bounded,
        "utility_retention_min": retention_floor,
        "total_scale_outs": sum(cell.scale_outs for cell in cells),
        "total_scale_ins": sum(cell.scale_ins for cell in cells),
        "total_migrations": sum(cell.migrations for cell in cells),
        "total_violations": violations,
        "total_stranded_sdos": stranded,
        "errors": errors,
        "clean": (
            scaled
            and bounded
            and violations == 0
            and stranded == 0
            and errors == 0
        ),
    }


def run_elasticity_matrix(
    policies: _t.Sequence[str] = DEFAULT_POLICIES,
    duration: float = 18.0,
    warmup: float = 1.0,
    seed: int = 0,
    spec: _t.Optional[TopologySpec] = None,
    max_nodes: int = 5,
) -> _t.Dict[str, _t.Any]:
    """Run the (policy x {static, elastic}) ramp matrix."""
    if not policies:
        raise ValueError("at least one policy required")
    cells: _t.List[ElasticityCellResult] = []
    for policy_name in policies:
        for mode in ("static", "elastic"):
            cells.append(
                run_elasticity_cell(
                    policy_name,
                    mode,
                    duration=duration,
                    warmup=warmup,
                    seed=seed,
                    spec=spec,
                    max_nodes=max_nodes,
                )
            )
    summary = summarize_cells(cells)
    config = bench_elasticity_config(max_nodes)
    return {
        "suite": "elasticity",
        "seed": seed,
        "duration": duration,
        "warmup": warmup,
        "policies": list(policies),
        "workload_profiles": {
            policy: WORKLOAD_PROFILES.get(policy, DEFAULT_PROFILE)
            for policy in policies
        },
        "downtime_bound": DOWNTIME_BOUND,
        "elasticity_config": {
            "scale_out_pressure": config.scale_out_pressure,
            "scale_in_pressure": config.scale_in_pressure,
            "min_nodes": config.min_nodes,
            "max_nodes": config.max_nodes,
            "check_interval": config.check_interval,
            "dwell_intervals": config.dwell_intervals,
            "cooldown": config.cooldown,
            "max_migrations_per_epoch": config.max_migrations_per_epoch,
            "placement_evaluations": config.placement_evaluations,
        },
        "summary": summary,
        "cells": [asdict(cell) for cell in cells],
    }


def write_elasticity_bench(results: _t.Dict[str, _t.Any], path: str) -> None:
    """Write the matrix to disk (non-finite floats serialize as null)."""

    def _clean(value: _t.Any) -> _t.Any:
        if isinstance(value, float) and not np.isfinite(value):
            return None
        if isinstance(value, dict):
            return {key: _clean(item) for key, item in value.items()}
        if isinstance(value, list):
            return [_clean(item) for item in value]
        return value

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(_clean(results), handle, indent=2, sort_keys=True)
        handle.write("\n")
