"""Forecasting benchmark: reactive vs proactive control, per scenario.

Every cell runs the ACES policy on one workload from the scenario
library (:mod:`repro.model.workload`) with the Tier-3 elastic tier
armed, either purely *reactive* (the pre-forecasting system: scaling
and re-optimization respond to observed pressure) or *proactive* (the
forecasting tier of :mod:`repro.control.forecast` additionally armed:
per-source rate forecasters predict the load a horizon ahead and
trigger a Tier-1 re-solve plus an early scale-out request through the
shared elastic cooldown *before* the shift lands), and measures:

* **utility retention** — the proactive cell's weighted utility
  relative to its reactive twin.  The forecasting tier's contract is
  strict non-regression: a forecast tick consumes no randomness and
  mutates nothing unless a trigger fires, so an armed-but-untriggered
  proactive cell measures *identically* to its reactive twin
  (retention exactly 1.0), and a triggered one must do no worse;
* **triggers / MAE** — how often the tier fired and how well its
  one-step forecasts tracked realized source rates;
* **violations** — online oracle findings (including the forecast-tier
  oracles: signal ranges, headroom citations, trigger cooldown) plus
  the closed conservation ledger (must be empty in every cell).

The matrix is written to ``BENCH_forecast.json`` by ``repro forecast``
(see :func:`write_forecast_bench`); ``--smoke`` runs the flash-crowd
scenario only, sized for CI.  The headline acceptance check is
:func:`summarize_cells`: every proactive cell retains at least its
reactive twin's utility and at least one cell actually triggers.
"""

from __future__ import annotations

import json
import typing as _t
from dataclasses import asdict, dataclass

import numpy as np

from repro.check import OracleRecorder, check_conservation
from repro.control.forecast import ForecastConfig
from repro.core.policies import policy_by_name
from repro.experiments.elasticity import bench_elasticity_config, bench_spec
from repro.graph.topology import TopologySpec, generate_topology
from repro.systems.simulated import SimulatedSystem, SystemConfig

#: The scenario library the matrix sweeps, in report order.  Each entry
#: maps to one workload generator in :mod:`repro.model.workload`.
SCENARIOS: _t.Tuple[str, ...] = (
    "flashcrowd",
    "diurnal",
    "drift",
    "correlatedburst",
    "driftsquare",
)

#: Policy every cell runs.  ACES is the paper's headline policy and the
#: one whose r_max gating makes anticipation matter: by the time
#: reactive pressure expresses a surge, the gates have already shed it.
BENCH_POLICY = "aces"

#: Retention floor the benchmark asserts for every proactive cell
#: (1.0 minus float-noise slack): proactive control must never cost
#: utility relative to its reactive twin.
RETENTION_FLOOR = 1.0 - 1e-9


def bench_forecast_config() -> ForecastConfig:
    """The tuned forecasting config the proactive cells arm.

    Holt-Winters with one 2-second season (8 samples at the 0.25 s
    cadence) tracks both the diurnal cycle and the correlated burst
    window.  The 1.35 headroom sits above the diurnal amplitude (0.6
    averaged over a horizon is well inside it at steady state) but
    below every surge profile the library throws, so quiet scenarios
    never trigger (retention exactly 1.0 by the no-op contract) and
    surges trigger inside the ramp.  Two-tick dwell filters one-sample
    spikes; the cooldown matches the elastic tier's so a proactive
    fire and a reactive fire share one anti-thrash window.
    """
    return ForecastConfig(
        kind="holtwinters",
        alpha=0.5,
        beta=0.1,
        gamma=0.3,
        season_length=8,
        sample_interval=0.25,
        horizon=2,
        headroom=1.35,
        dwell_ticks=2,
        cooldown=1.5,
        scale_out=True,
    )


def scenario_config(
    scenario: str,
    mode: str,
    duration: float,
    warmup: float,
    seed: int,
    max_nodes: int,
) -> SystemConfig:
    """Build one cell's :class:`SystemConfig`.

    The reactive and proactive configs differ in exactly one field
    (``forecast``); everything else — including the armed elastic tier
    and the RNG seed — is shared, so the reactive cell is the proactive
    cell's exact counterfactual.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    if mode not in ("reactive", "proactive"):
        raise ValueError(
            f"mode must be 'reactive' or 'proactive', got {mode!r}"
        )
    source: _t.Dict[str, _t.Any] = {"source_kind": scenario}
    if scenario == "flashcrowd":
        # One strong surge in the second quarter of the window.
        source.update(
            source_surge_start=round(warmup + duration / 4.0, 3),
            source_surge_duration=round(duration / 4.0, 3),
            source_surge_factor=5.0,
        )
    elif scenario == "diurnal":
        # Two full cycles inside the measured window, inside headroom.
        source.update(
            source_period=round(duration / 2.0, 3),
            source_amplitude=0.6,
        )
    elif scenario == "drift":
        # Load roughly doubles over the run.
        source.update(source_drift=round(1.0 / (warmup + duration), 6))
    elif scenario == "correlatedburst":
        # A shared 4x burst window every third of the run.
        source.update(
            source_period=round(duration / 3.0, 3),
            source_surge_duration=round(duration / 12.0, 3),
            source_surge_factor=4.0,
        )
    elif scenario == "driftsquare":
        # Deterministic square wave whose peak drifts upward.
        source.update(
            source_duty=0.5,
            source_mean_on=1.0,
            source_drift=0.05,
        )
    return SystemConfig(
        dt=0.02,
        seed=seed + 1,
        warmup=warmup,
        elasticity=bench_elasticity_config(max_nodes),
        forecast=(
            bench_forecast_config() if mode == "proactive" else None
        ),
        **source,
    )


@dataclass
class ForecastCellResult:
    """Outcome of one (scenario, mode) cell."""

    scenario: str
    mode: str  # "reactive" | "proactive"
    weighted_throughput: float
    weighted_utility: float
    total_output: int
    buffer_drops: int
    #: Forecast tier activity (zero in reactive cells).
    forecast_ticks: int
    forecast_triggers: int
    #: Mean absolute one-step forecast error (aggregate rate units).
    forecast_mae: float
    proactive_reoptimizations: int
    scale_outs: int
    scale_ins: int
    migrations: int
    peak_nodes: int
    final_nodes: int
    violations: _t.List[_t.Dict[str, object]]
    #: Filled at the matrix level for proactive cells: weighted utility
    #: relative to the reactive twin.
    utility_retention: _t.Optional[float] = None
    error: _t.Optional[str] = None


def run_forecast_cell(
    scenario: str,
    mode: str,
    duration: float = 16.0,
    warmup: float = 1.0,
    seed: int = 0,
    spec: _t.Optional[TopologySpec] = None,
    max_nodes: int = 5,
) -> ForecastCellResult:
    """Run one cell with strict oracles armed and the ledger closed."""
    topology = generate_topology(
        spec if spec is not None else bench_spec(1.0),
        np.random.default_rng(seed),
    )
    recorder = OracleRecorder(strict=True)
    config = scenario_config(
        scenario, mode, duration, warmup, seed, max_nodes
    )
    system = SimulatedSystem(
        topology, policy_by_name(BENCH_POLICY), config=config,
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

    forecast = system.forecast
    decisions = (
        system.scaling_policy.decisions
        if system.scaling_policy is not None
        else []
    )
    timeline = system.elastic.timeline
    proactive_reopts = sum(
        1
        for record in (forecast.triggers if forecast is not None else [])
        if record.reoptimized
    )
    return ForecastCellResult(
        scenario=scenario,
        mode=mode,
        weighted_throughput=(
            report.weighted_throughput if report is not None else 0.0
        ),
        weighted_utility=(
            report.weighted_utility if report is not None else 0.0
        ),
        total_output=report.total_output_sdos if report is not None else 0,
        buffer_drops=report.buffer_drops if report is not None else 0,
        forecast_ticks=forecast.ticks if forecast is not None else 0,
        forecast_triggers=(
            len(forecast.triggers) if forecast is not None else 0
        ),
        forecast_mae=(
            round(forecast.mean_abs_error, 9)
            if forecast is not None
            else 0.0
        ),
        proactive_reoptimizations=proactive_reopts,
        scale_outs=sum(
            1 for record in decisions if record.decision == "scale_out"
        ),
        scale_ins=sum(
            1 for record in decisions if record.decision == "scale_in"
        ),
        migrations=len(system.migration_log),
        peak_nodes=max(count for _, count in timeline),
        final_nodes=len(system.nodes),
        violations=[violation.as_dict() for violation in violations],
        error=error,
    )


def summarize_cells(
    cells: _t.Sequence[ForecastCellResult],
) -> _t.Dict[str, _t.Any]:
    """The headline acceptance summary of one matrix.

    ``clean`` requires: zero oracle/conservation violations, zero cell
    errors, every proactive cell retaining at least its reactive twin's
    utility (:data:`RETENTION_FLOOR`), and at least one proactive cell
    actually triggering (a library that never exercises the tier is a
    configuration bug, not a pass).
    """
    reactive = {
        cell.scenario: cell for cell in cells if cell.mode == "reactive"
    }
    retention_floor: _t.Optional[float] = None
    non_regressing = True
    triggers = 0
    for cell in cells:
        if cell.mode != "proactive":
            continue
        triggers += cell.forecast_triggers
        twin = reactive.get(cell.scenario)
        if twin is not None and twin.weighted_utility > 0:
            cell.utility_retention = (
                cell.weighted_utility / twin.weighted_utility
            )
            retention_floor = (
                cell.utility_retention
                if retention_floor is None
                else min(retention_floor, cell.utility_retention)
            )
            if cell.utility_retention < RETENTION_FLOOR:
                non_regressing = False
    violations = sum(len(cell.violations) for cell in cells)
    errors = sum(1 for cell in cells if cell.error is not None)
    return {
        "proactive_non_regressing": non_regressing,
        "utility_retention_min": retention_floor,
        "total_triggers": triggers,
        "total_proactive_reoptimizations": sum(
            cell.proactive_reoptimizations for cell in cells
        ),
        "total_scale_outs": sum(cell.scale_outs for cell in cells),
        "total_violations": violations,
        "errors": errors,
        "clean": (
            non_regressing
            and triggers > 0
            and violations == 0
            and errors == 0
        ),
    }


def run_forecast_matrix(
    scenarios: _t.Sequence[str] = SCENARIOS,
    duration: float = 16.0,
    warmup: float = 1.0,
    seed: int = 0,
    spec: _t.Optional[TopologySpec] = None,
    max_nodes: int = 5,
) -> _t.Dict[str, _t.Any]:
    """Run the (scenario x {reactive, proactive}) matrix."""
    if not scenarios:
        raise ValueError("at least one scenario required")
    cells: _t.List[ForecastCellResult] = []
    for scenario in scenarios:
        for mode in ("reactive", "proactive"):
            cells.append(
                run_forecast_cell(
                    scenario,
                    mode,
                    duration=duration,
                    warmup=warmup,
                    seed=seed,
                    spec=spec,
                    max_nodes=max_nodes,
                )
            )
    summary = summarize_cells(cells)
    config = bench_forecast_config()
    return {
        "suite": "forecast",
        "seed": seed,
        "duration": duration,
        "warmup": warmup,
        "policy": BENCH_POLICY,
        "scenarios": list(scenarios),
        "retention_floor": RETENTION_FLOOR,
        "forecast_config": {
            "kind": config.kind,
            "alpha": config.alpha,
            "beta": config.beta,
            "gamma": config.gamma,
            "season_length": config.season_length,
            "sample_interval": config.sample_interval,
            "horizon": config.horizon,
            "headroom": config.headroom,
            "dwell_ticks": config.dwell_ticks,
            "cooldown": config.cooldown,
            "scale_out": config.scale_out,
        },
        "summary": summary,
        "cells": [asdict(cell) for cell in cells],
    }


def write_forecast_bench(results: _t.Dict[str, _t.Any], path: str) -> None:
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
