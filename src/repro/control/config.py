"""The configuration every substrate shares.

``SystemConfig`` (simulator) and ``RuntimeConfig`` (threaded runtime)
inherit :class:`ControlConfig`, so what parameterizes the shared control
stack and the workload sources is declared, documented and validated
once.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

from repro.control.admission import AdmissionConfig
from repro.control.elastic import ElasticityConfig
from repro.control.forecast import ForecastConfig
from repro.model.workload import SOURCE_KINDS


@dataclass
class ControlConfig:
    """Substrate-independent knobs of one system: control tiers and
    workload sources."""

    #: Input-buffer capacity B of every PE (SDOs).
    buffer_size: int = 50
    #: b0 as a fraction of the buffer size (paper: 1/2).
    b0_fraction: float = 0.5
    seed: int = 0
    #: Control interval Delta-t (model seconds); each substrate sets its
    #: own default.
    dt: float = 0.01
    #: Warm-up (model seconds) excluded from all metrics; the elastic
    #: and forecasting tiers hold their decisions until it has passed.
    warmup: float = 0.0
    #: Staleness TTL for feedback values (seconds; typically a few Δt).
    #: A value unheard-from for longer decays to 0 (the silent consumer
    #: is assumed to absorb nothing) instead of being trusted forever.
    #: None (default) preserves the original trust-forever behavior.
    feedback_staleness_ttl: _t.Optional[float] = None
    #: Tier-2 step implementation: "scalar" (per-PE Python loops) or
    #: "vector" (the array-backed engine in repro.control.vector), for
    #: every policy; both make bit-identical decisions.
    control_impl: str = "scalar"
    #: When set, arm the SLO-aware admission front end
    #: (:class:`repro.control.admission.AdmissionController`) in front
    #: of the ingress PEs; None (default) admits everything.
    admission: _t.Optional[AdmissionConfig] = None
    #: When set, arm the Tier-3 elastic tier
    #: (:class:`repro.control.elastic.ElasticDriver`): dynamic node
    #: membership (``add_node`` / ``remove_node`` / ``migrate_pes``),
    #: autoscaling, and live PE migration; control loops follow nodes
    #: by identity across epochs.  None (default) keeps
    #: membership frozen and every output byte-identical to the
    #: pre-elasticity system.
    elasticity: _t.Optional[ElasticityConfig] = None
    #: When set, arm the forecasting tier
    #: (:class:`repro.control.forecast.ForecastController`): streaming
    #: per-source rate forecasts sampled at the configured cadence,
    #: with proactive Tier-1 re-solves (and, when the elastic tier is
    #: also armed, proactive scale-out requests through the shared
    #: cooldown) ahead of predicted load shifts.  None (default) keeps
    #: the system purely reactive.
    forecast: _t.Optional[ForecastConfig] = None
    #: Source model of every input stream, one of :data:`SOURCE_KINDS`:
    #: 'onoff' (bursty), 'poisson', 'constant', 'squarewave'
    #: (deterministic adversarial on/off), 'flashcrowd' (Poisson with
    #: one surge window), or one of the scenario-library kinds —
    #: 'diurnal' (sinusoidal cycle), 'drift' (linear trend),
    #: 'correlatedburst' (shared periodic burst windows), 'driftsquare'
    #: (square wave with drifting peak).  Each substrate sets its own
    #: default.
    source_kind: str = "onoff"
    #: ON fraction for the on/off and square-wave sources.
    source_duty: float = 0.5
    #: Mean ON-period duration (seconds) — the arrival burst length.
    #: Doubles as the square-wave ON duration (period = mean_on/duty).
    source_mean_on: float = 0.5
    #: Flash-crowd surge window start (model seconds).
    source_surge_start: float = 6.0
    #: Flash-crowd surge window length (seconds).
    source_surge_duration: float = 2.0
    #: Rate multiplier inside the surge window.
    source_surge_factor: float = 4.0
    #: Cycle length (seconds) for the 'diurnal' and 'correlatedburst'
    #: sources (the correlated burst window repeats every period;
    #: window length and factor reuse the surge knobs above).
    source_period: float = 8.0
    #: Sinusoidal modulation depth for the 'diurnal' source, in [0, 1).
    source_amplitude: float = 0.6
    #: Relative rate slope per second for the 'drift' and 'driftsquare'
    #: sources (0.05 = +5% load per model second).
    source_drift: float = 0.05

    def __post_init__(self) -> None:
        if self.buffer_size <= 0:
            raise ValueError("buffer_size must be positive")
        if not 0.0 <= self.b0_fraction <= 1.0:
            raise ValueError("b0_fraction must lie in [0, 1]")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.warmup < 0:
            raise ValueError("warmup must be >= 0")
        if (
            self.feedback_staleness_ttl is not None
            and self.feedback_staleness_ttl <= 0
        ):
            raise ValueError("feedback_staleness_ttl must be positive")
        if self.control_impl not in ("scalar", "vector"):
            raise ValueError(
                f"control_impl must be 'scalar' or 'vector', "
                f"got {self.control_impl!r}"
            )
        if self.source_kind not in SOURCE_KINDS:
            raise ValueError(f"unknown source_kind {self.source_kind!r}")
        if not 0.0 < self.source_duty <= 1.0:
            raise ValueError("source_duty must lie in (0, 1]")
        if self.source_surge_start < 0 or self.source_surge_duration < 0:
            raise ValueError(
                "source_surge_start and source_surge_duration must be >= 0"
            )
        if self.source_surge_factor < 1.0:
            raise ValueError("source_surge_factor must be >= 1")
        if self.source_period <= 0:
            raise ValueError("source_period must be positive")
        if not 0.0 <= self.source_amplitude < 1.0:
            raise ValueError("source_amplitude must lie in [0, 1)")
        if (
            self.source_kind == "correlatedburst"
            and self.source_surge_duration > self.source_period
        ):
            raise ValueError(
                "correlatedburst needs source_surge_duration <= "
                "source_period (the burst window repeats every period)"
            )
