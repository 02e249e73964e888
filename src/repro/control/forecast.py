"""Workload forecasting + proactive re-optimization (the anticipatory tier).

ACES as reproduced so far is purely *reactive*: Tier-1 re-solves from
rates already measured, the PR-8 admission ladder moves once latency has
degraded, and the PR-9 autoscaler fires only after buffer pressure has
dwelt above threshold.  Phoebe-style systems instead *anticipate*
dynamic workloads and re-provision ahead of the shift.  This module
adds that capability as a strictly additive layer:

* :class:`HoltWintersForecaster` — additive Holt-Winters (level +
  trend + additive seasonal component) over regularly sampled inputs:
  one model for diurnal cycles, periodic bursts and slow drifts alike
  (its level and trend carry a drift; before its first season is in,
  it forecasts the running mean).
* :class:`ForecastController` — the proactive policy the
  :class:`~repro.control.plane.ControlPlane` ticks: it samples
  per-source cumulative generated counters at a fixed cadence, turns
  the deltas into rate observations, feeds one forecaster per source
  stream, and compares the aggregate forecast ``horizon`` steps ahead
  against the provisioned baseline.  When the predicted load exceeds
  ``headroom`` × baseline for ``dwell_ticks`` consecutive samples (and
  the trigger cooldown has passed), it fires *proactively*: a Tier-1
  re-solve from the predicted rates, and — when the elastic tier is
  armed — a scale-out request routed through
  :meth:`~repro.control.elastic.ScalingPolicy.request_external`, which
  shares the elastic tier's cooldown so reactive and proactive triggers
  can never thrash each other.

Everything is deterministic and substrate-free: identical
``(counter, now)`` sequences yield identical forecasts and identical
trigger sequences on any substrate — the cross-substrate parity tests
rely on this.  The forecaster is shift/scale-equivariant, converges
exactly on constant inputs, and reproduces pure-seasonal inputs exactly
after one bootstrap season; :mod:`tests.test_forecast_properties`
proves those claims property-by-property with Hypothesis.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

from repro.control.debounce import Debounce
from repro.obs.recorder import NULL_RECORDER, TraceRecorder

#: A cumulative-count probe: () -> SDOs generated so far by one source.
CounterFn = _t.Callable[[], int]
#: Proactive Tier-1 hook: (predicted pe_id -> rate) -> None.
ReoptimizeFn = _t.Callable[[_t.Mapping[str, float]], None]
#: Proactive scale-out hook: (now) -> fired?  (False: vetoed/cooldown.)
ScaleOutFn = _t.Callable[[float], bool]


@dataclass(frozen=True)
class ForecastConfig:
    """Tuning of the forecasting tier (hashable, picklable).

    The trigger predicate compares the aggregate forecast ``horizon``
    samples ahead against the *baseline* load the system was
    provisioned for (the Tier-1 bootstrap rates): a predicted/baseline
    ratio at or above ``headroom`` is a predicted overload.  The
    ``dwell_ticks``/``cooldown`` pair is the admission ladder's
    anti-oscillation shape — consecutive confirmation before acting,
    then a quiet period after acting.
    """

    #: Level smoothing factor, in (0, 1].
    alpha: float = 0.5
    #: Trend smoothing factor (Holt-Winters), in [0, 1].
    beta: float = 0.1
    #: Seasonal smoothing factor (Holt-Winters), in [0, 1].
    gamma: float = 0.3
    #: Samples per season (Holt-Winters needs one season to
    #: bootstrap).
    season_length: int = 8
    #: Seconds between rate samples (the forecast cadence).
    sample_interval: float = 0.25
    #: Forecast lead, in samples ahead (the anticipation window).
    horizon: int = 2
    #: Predicted/baseline load ratio that constitutes predicted
    #: overload (1.5 = "50% above provisioned load is coming").
    headroom: float = 1.5
    #: Consecutive over-headroom forecasts required before firing.
    dwell_ticks: int = 2
    #: Seconds after a proactive trigger before the next may fire.
    cooldown: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        if self.season_length < 2:
            raise ValueError(
                f"season_length must be >= 2, got {self.season_length}"
            )
        if self.sample_interval <= 0:
            raise ValueError(
                f"sample_interval must be positive, got "
                f"{self.sample_interval}"
            )
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.headroom <= 1.0:
            raise ValueError(
                f"headroom must be > 1 (a ratio of predicted to "
                f"provisioned load), got {self.headroom}"
            )
        if self.dwell_ticks < 1:
            raise ValueError(
                f"dwell_ticks must be >= 1, got {self.dwell_ticks}"
            )
        if self.cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {self.cooldown}")


class HoltWintersForecaster:
    """Additive-seasonal Holt-Winters over regularly sampled inputs.

    Bootstrap: the first ``season_length`` samples are buffered; on the
    last of them the state initializes to ``level = mean(buffer)``,
    ``trend = 0``, ``season[i] = buffer[i] - level``.  From then on the
    standard additive recurrences run per sample::

        level' = alpha*(x - season[i]) + (1-alpha)*(level + trend)
        trend' = beta*(level' - level) + (1-beta)*trend
        season[i]' = gamma*(x - level') + (1-gamma)*season[i]

    and ``forecast(h) = level + h*trend + season[(n + h - 1) mod m]``
    (``n`` = samples seen, so the seasonal index lines up with the slot
    the h-th future sample will occupy).  Before bootstrap completes
    the forecast falls back to the running mean — flat, finite, and
    still shift/scale-equivariant.

    Every update is an affine function of the inputs, so the whole
    state — and therefore every forecast — is exactly equivariant under
    ``x -> a*x + b`` (level and seasonal buffer map affinely, trend and
    seasonal *deviations* scale by ``a``).  A pure-seasonal input with
    period ``season_length`` is reproduced exactly: the bootstrap
    captures the seasonal profile with zero residual and every
    subsequent update is a fixed point.
    """

    __slots__ = (
        "alpha",
        "beta",
        "gamma",
        "season_length",
        "level",
        "trend",
        "season",
        "samples",
        "_bootstrap",
    )

    def __init__(
        self,
        alpha: float,
        beta: float,
        gamma: float,
        season_length: int,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {beta}")
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
        if season_length < 2:
            raise ValueError(
                f"season_length must be >= 2, got {season_length}"
            )
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma
        self.season_length = season_length
        self.level = 0.0
        self.trend = 0.0
        self.season: _t.List[float] = []
        self.samples = 0
        self._bootstrap: _t.List[float] = []

    @property
    def ready(self) -> bool:
        """True once the seasonal state is initialized."""
        return bool(self.season)

    def update(self, value: float) -> None:
        """Fold one observation into the state."""
        if not self.season:
            self._bootstrap.append(value)
            self.samples += 1
            if len(self._bootstrap) == self.season_length:
                level = sum(self._bootstrap) / self.season_length
                self.level = level
                self.trend = 0.0
                self.season = [x - level for x in self._bootstrap]
                self._bootstrap = []
            return
        index = self.samples % self.season_length
        previous_level = self.level
        self.level = self.alpha * (value - self.season[index]) + (
            1.0 - self.alpha
        ) * (self.level + self.trend)
        self.trend = (
            self.beta * (self.level - previous_level)
            + (1.0 - self.beta) * self.trend
        )
        self.season[index] = (
            self.gamma * (value - self.level)
            + (1.0 - self.gamma) * self.season[index]
        )
        self.samples += 1

    def forecast(self, steps: int = 1) -> float:
        """Predicted value ``steps`` samples ahead."""
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        if not self.season:
            if self.samples == 0:
                return 0.0
            return sum(self._bootstrap) / len(self._bootstrap)
        index = (self.samples + steps - 1) % self.season_length
        return self.level + steps * self.trend + self.season[index]


@dataclass
class ProactiveTriggerRecord:
    """One fired proactive trigger, kept for the bench report."""

    t: float
    #: Predicted/baseline load ratio that fired the trigger.
    ratio: float
    #: Aggregate predicted rate (SDO/s) at the forecast horizon.
    predicted: float
    #: Whether the Tier-1 proactive re-solve was performed.
    reoptimized: bool
    #: Whether a scale-out request fired through the elastic policy
    #: (False when no elastic tier is armed or its cooldown vetoed it).
    scaled_out: bool


class ForecastController:
    """The proactive policy one :class:`~repro.control.plane.ControlPlane` ticks.

    Lifecycle: construct with a config, :meth:`bind` to per-source
    cumulative generated counters plus the provisioned baseline rates
    and the substrate's proactive hooks, then let the plane call
    :meth:`tick` every ``sample_interval``.  :meth:`observe` is the
    scriptable entry point the cross-substrate parity tests drive:
    identical ``(rates, now)`` sequences must yield identical forecast
    and trigger sequences on any substrate.
    """

    def __init__(self, config: ForecastConfig) -> None:
        self.config = config
        self.recorder: TraceRecorder = NULL_RECORDER
        #: pe_id -> forecaster, one per bound source stream.
        self.forecasters: _t.Dict[str, HoltWintersForecaster] = {}
        self.ticks = 0
        self.triggers: _t.List[ProactiveTriggerRecord] = []
        #: Last per-stream observed rates / horizon forecasts (gauges
        #: and the bench read these).
        self.last_rates: _t.Dict[str, float] = {}
        self.last_forecast: _t.Dict[str, float] = {}
        #: Last aggregate predicted/baseline ratio (gauge surface).
        self.last_ratio = 0.0
        #: One-step-ahead forecast error accounting (MAE numerator /
        #: sample count): each tick scores the previous tick's 1-step
        #: forecast against the rate actually realized.
        self.abs_error_sum = 0.0
        self.error_samples = 0
        self._counters: _t.Dict[str, CounterFn] = {}
        self._baseline: _t.Dict[str, float] = {}
        self._baseline_total = 0.0
        self._reoptimize: _t.Optional[ReoptimizeFn] = None
        self._scale_out: _t.Optional[ScaleOutFn] = None
        #: Dwell + cooldown over over-headroom forecasts; :meth:`bind`
        #: sets its ``not_before``.
        self.trigger = Debounce(config.dwell_ticks, config.cooldown)
        self._last_counts: _t.Dict[str, int] = {}
        self._last_tick: _t.Optional[float] = None
        self._pending: _t.Dict[str, float] = {}

    # -- wiring --------------------------------------------------------------

    def bind(
        self,
        counters: _t.Mapping[str, CounterFn],
        baseline: _t.Mapping[str, float],
        reoptimize_fn: _t.Optional[ReoptimizeFn] = None,
        scale_out_fn: _t.Optional[ScaleOutFn] = None,
        active_after: float = 0.0,
    ) -> None:
        """Attach the source-rate probes and the proactive hooks.

        ``counters`` maps ingress pe_id to a cumulative generated-count
        probe; ``baseline`` maps the same ids to the provisioned rates
        Tier-1 bootstrapped against.  ``active_after`` suppresses
        triggers (not sampling, nor the dwell count) before that
        instant, so warm-up transients never fire a re-solve the
        measured window would pay for.
        """
        missing = [pe_id for pe_id in counters if pe_id not in baseline]
        if missing:
            raise ValueError(
                f"no baseline rate for bound stream(s) {missing}"
            )
        self._counters = dict(sorted(counters.items()))
        self._baseline = {
            pe_id: float(baseline[pe_id]) for pe_id in self._counters
        }
        self._baseline_total = sum(self._baseline.values())
        if self._baseline_total <= 0:
            raise ValueError(
                "aggregate baseline rate must be positive, got "
                f"{self._baseline_total}"
            )
        self._reoptimize = reoptimize_fn
        self._scale_out = scale_out_fn
        self.trigger.not_before = active_after
        for pe_id in self._counters:
            self.forecasters.setdefault(pe_id, self._new_forecaster())

    def _new_forecaster(self) -> HoltWintersForecaster:
        config = self.config
        return HoltWintersForecaster(
            config.alpha, config.beta, config.gamma, config.season_length
        )

    # -- control-tick entry points -------------------------------------------

    def tick(self, now: float) -> None:
        """Sample the bound counters and advance the forecast state.

        The first tick only captures the counter watermarks (a rate
        needs two readings); every later tick converts deltas to rates
        and runs :meth:`observe`.
        """
        if self._last_tick is None:
            self._last_tick = now
            for pe_id, probe in self._counters.items():
                self._last_counts[pe_id] = probe()
            return
        elapsed = now - self._last_tick
        if elapsed <= 0.0:
            return
        rates: _t.Dict[str, float] = {}
        for pe_id, probe in self._counters.items():
            count = probe()
            rates[pe_id] = (count - self._last_counts.get(pe_id, 0)) / elapsed
            self._last_counts[pe_id] = count
        self._last_tick = now
        self.observe(rates, now)

    def observe(self, rates: _t.Mapping[str, float], now: float) -> None:
        """Advance the forecast state from explicit per-stream rates.

        Deterministic and side-effect-ordered: forecaster updates run
        in sorted pe_id order, the trigger predicate sees this tick's
        forecasts, and the proactive hooks fire at most once per tick.
        """
        config = self.config
        self.ticks += 1
        predicted_total = 0.0
        for pe_id in sorted(rates):
            rate = float(rates[pe_id])
            forecaster = self.forecasters.get(pe_id)
            if forecaster is None:
                forecaster = self._new_forecaster()
                self.forecasters[pe_id] = forecaster
            pending = self._pending.get(pe_id)
            if pending is not None:
                self.abs_error_sum += abs(pending - rate)
                self.error_samples += 1
            forecaster.update(rate)
            self.last_rates[pe_id] = rate
            self._pending[pe_id] = forecaster.forecast(1)
            prediction = forecaster.forecast(config.horizon)
            self.last_forecast[pe_id] = prediction
            predicted_total += max(0.0, prediction)
        observed_total = sum(float(value) for value in rates.values())
        ratio = predicted_total / self._baseline_total
        self.last_ratio = ratio
        fired = self.trigger.observe(
            True if ratio >= config.headroom else None, now
        )
        if fired:
            self._fire(now, ratio, predicted_total)
        if self.recorder.enabled:
            self.recorder.emit(
                "forecast",
                predicted=predicted_total,
                observed=observed_total,
                baseline=self._baseline_total,
                ratio=ratio,
                streak=self.trigger.streak,
                fired=fired,
            )

    @property
    def mean_abs_error(self) -> float:
        """One-step-ahead forecast MAE over the run (0 before scoring)."""
        if self.error_samples == 0:
            return 0.0
        return self.abs_error_sum / self.error_samples

    def _fire(self, now: float, ratio: float, predicted: float) -> None:
        """Perform the proactive actions and start the cooldown."""
        self.trigger.fire(now)
        reoptimized = False
        if self._reoptimize is not None:
            # Predicted per-stream rates, floored at zero: Tier-1
            # re-solves against the load that is *coming*, not the load
            # already measured.
            self._reoptimize(
                {
                    pe_id: max(0.0, self.last_forecast.get(pe_id, 0.0))
                    for pe_id in self._counters
                }
            )
            reoptimized = True
        scaled_out = False
        if self._scale_out is not None:
            scaled_out = self._scale_out(now)
        record = ProactiveTriggerRecord(
            t=now,
            ratio=ratio,
            predicted=predicted,
            reoptimized=reoptimized,
            scaled_out=scaled_out,
        )
        self.triggers.append(record)
        if self.recorder.enabled:
            self.recorder.emit(
                "proactive_trigger",
                ratio=ratio,
                predicted=predicted,
                baseline=self._baseline_total,
                reoptimized=reoptimized,
                scaled_out=scaled_out,
            )

    def __repr__(self) -> str:
        return (
            f"ForecastController(ticks={self.ticks}, triggers={len(self.triggers)}, "
            f"ratio={self.last_ratio:.3f})"
        )
