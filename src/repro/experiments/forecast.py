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

The matrix is written to ``BENCH_forecast.json`` by ``repro forecast``;
``--smoke`` runs the flash-crowd scenario only, sized for CI.  The
headline acceptance check: every proactive cell retains at least its
reactive twin's utility and at least one cell actually triggers.
Pairing, the shared cell fields and the file envelope live in
:mod:`repro.experiments.matrix`.
"""

from __future__ import annotations

import typing as _t
from operator import itemgetter

import numpy as np

from repro.control.forecast import ForecastConfig
from repro.core.policies import policy_by_name
from repro.experiments import matrix
from repro.experiments.elasticity import (
    bench_elasticity_config,
    bench_spec,
    scaling_fields,
)
from repro.graph.topology import generate_topology
from repro.systems.simulated import SystemConfig

#: The (baseline, armed) twin every scenario runs as.
MODES = ("reactive", "proactive")

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
        alpha=0.5,
        beta=0.1,
        gamma=0.3,
        season_length=8,
        sample_interval=0.25,
        horizon=2,
        headroom=1.35,
        dwell_ticks=2,
        cooldown=1.5,
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
    if mode not in MODES:
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


def run_forecast_cell(
    scenario: str,
    mode: str,
    duration: float,
    warmup: float,
    seed: int,
    max_nodes: int,
) -> matrix.Cell:
    """One scenario cell under :func:`scenario_config`."""
    config = scenario_config(scenario, mode, duration, warmup, seed, max_nodes)
    topology = generate_topology(bench_spec(1.0), np.random.default_rng(seed))
    run = matrix.run_observed(
        topology, policy_by_name(BENCH_POLICY), config, duration
    )
    forecast = run.system.forecast
    triggers = forecast.triggers if forecast is not None else []
    return run.cell(
        scenario=scenario,
        mode=mode,
        # Forecast tier activity (zero in reactive cells).
        forecast_ticks=forecast.ticks if forecast is not None else 0,
        forecast_triggers=len(triggers),
        # Mean absolute one-step forecast error (aggregate rate units).
        forecast_mae=(
            round(forecast.mean_abs_error, 9) if forecast is not None else 0.0
        ),
        proactive_reoptimizations=sum(
            1 for record in triggers if record.reoptimized
        ),
        **scaling_fields(run.system),
    )


def _verdict(pairs: matrix.Pairs) -> matrix.Verdict:
    """Every proactive cell retains at least its reactive twin's utility
    (:data:`RETENTION_FLOOR`) and at least one actually triggers (a
    library that never exercises the tier is a configuration bug, not a
    pass)."""
    cells = [cell for pair in pairs for cell in pair]
    floor = matrix.retention_min(pairs)
    non_regressing = floor is None or floor >= RETENTION_FLOOR
    triggers = sum(armed["forecast_triggers"] for _, armed in pairs)
    terms = {
        "proactive_non_regressing": non_regressing,
        "utility_retention_min": floor,
        "total_triggers": triggers,
        "total_proactive_reoptimizations": sum(
            cell["proactive_reoptimizations"] for cell in cells
        ),
        "total_scale_outs": sum(cell["scale_outs"] for cell in cells),
    }
    return terms, non_regressing and triggers > 0


def run_forecast_matrix(
    scenarios: _t.Sequence[str] = SCENARIOS,
    duration: float = 16.0,
    warmup: float = 1.0,
    seed: int = 0,
    max_nodes: int = 5,
) -> matrix.Results:
    """Run the (scenario x {reactive, proactive}) matrix."""
    for name in scenarios:  # fail fast on unknown scenario names
        if name not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {name!r} (library: {', '.join(SCENARIOS)})"
            )
    return matrix.run_twin_matrix(
        "forecast",
        MODES,
        list(scenarios),
        lambda scenario, mode: run_forecast_cell(
            scenario, mode, duration, warmup, seed, max_nodes
        ),
        _verdict,
        {
            "policy": BENCH_POLICY,
            "scenarios": list(scenarios),
            "retention_floor": RETENTION_FLOOR,
            "forecast_config": matrix.config_block(
                bench_forecast_config(),
                "alpha", "beta", "gamma", "season_length",
                "sample_interval", "horizon", "headroom", "dwell_ticks",
                "cooldown",
            ),
        },
        duration,
        warmup,
        seed,
    )


VERB = matrix.MatrixVerb(
    help="forecasting matrix (reactive vs proactive control)",
    description=(
        "Run every scenario-library workload twice — purely reactive "
        "(elastic tier only) and proactive (the forecasting tier "
        "additionally armed: Holt-Winters rate forecasts triggering "
        "Tier-1 re-solves and early scale-out ahead of predicted "
        "load shifts) — with strict invariant oracles watching every "
        "cell, and write the matrix to a JSON benchmark file.  Exits "
        "nonzero if any proactive cell loses utility against its "
        "reactive twin, no cell triggers, or an invariant is "
        "violated."
    ),
    flags=(
        matrix.flag(
            "--scenarios",
            "comma-separated scenario names (default: the full library)",
            default="",
        ),
        *matrix.window_flags(16.0, 1.0),
        matrix.MAX_NODES_FLAG,
        matrix.SEED_FLAG,
        matrix.output_flag("BENCH_forecast.json"),
        matrix.smoke_flag(
            "reduced CI matrix: flash-crowd scenario only, short run"
        ),
    ),
    smoke=dict(scenarios="flashcrowd", duration=12.0, warmup=1.0),
    run=lambda args: run_forecast_matrix(
        scenarios=matrix.csv(args.scenarios, SCENARIOS),
        duration=args.duration,
        warmup=args.warmup,
        seed=args.seed,
        max_nodes=args.max_nodes,
    ),
    title=lambda results: "forecast matrix (reactive vs proactive control)",
    columns=(
        ("scenario", itemgetter("scenario")),
        ("mode", itemgetter("mode")),
        ("wutil", itemgetter("weighted_utility")),
        matrix.RETENTION,
        ("triggers", itemgetter("forecast_triggers")),
        ("mae", itemgetter("forecast_mae")),
        matrix.OUT_IN,
        ("peak", itemgetter("peak_nodes")),
        ("drops", itemgetter("buffer_drops")),
        matrix.VIOLATIONS,
        matrix.ERROR,
    ),
    summary=(
        ("triggers", "total_triggers"),
        ("retention_min", "utility_retention_min"),
        ("violations", "total_violations"),
        ("errors", "errors"),
    ),
)
