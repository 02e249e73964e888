"""Property-based tests for the streaming workload forecasters.

Hypothesis drives arbitrary sample streams through
:class:`~repro.control.forecast.HoltWintersForecaster` and asserts the
algebraic contract the proactive tier relies on:

* **affine equivariance** — forecasting commutes with affine input maps
  (``x -> a*x + b``), including through the Holt-Winters bootstrap, so
  the headroom *ratio* the trigger acts on is unit-free;
* **constant-input convergence** — a constant stream is forecast
  exactly from bootstrap on;
* **bounded error on pure-seasonal inputs** — a period-``m`` pattern is
  a fixed point of the seasonal recurrences: once bootstrapped, every
  horizon-``h`` forecast reproduces the pattern;
* **state-update associativity** — feeding ``xs`` then ``ys`` equals
  feeding ``xs + ys`` in one pass (streaming state carries no batch
  boundary), and the controller's gauge-cadence rate extraction
  telescopes: observed rates times the cadence sum exactly to the
  counter delta, independent of how ticks subsample the counters.

The trigger contract (headroom citation, dwell, cooldown spacing) is
additionally property-tested on scripted rate walks through
:class:`~repro.control.forecast.ForecastController`.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.forecast import (
    ForecastConfig,
    ForecastController,
    HoltWintersForecaster,
)
from repro.obs.recorder import MemoryRecorder

forecast_settings = settings(max_examples=100, deadline=None)

#: Bounded-magnitude samples keep float comparisons honest: the
#: recurrences are exact in real arithmetic, so only rounding separates
#: the two sides.
samples = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False)
sample_lists = st.lists(samples, min_size=1, max_size=50)
alphas = st.floats(min_value=0.05, max_value=1.0, allow_nan=False)
hw_gains = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
season_lengths = st.integers(min_value=2, max_value=8)
horizons = st.integers(min_value=1, max_value=6)


def _hw(alpha=0.5, beta=0.1, gamma=0.3, season_length=4):
    return HoltWintersForecaster(
        alpha=alpha, beta=beta, gamma=gamma, season_length=season_length
    )


class TestAffineEquivariance:
    @forecast_settings
    @given(
        xs=sample_lists,
        alpha=alphas,
        beta=hw_gains,
        gamma=hw_gains,
        season_length=season_lengths,
        a=st.floats(min_value=0.125, max_value=8.0, allow_nan=False),
        b=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
        horizon=horizons,
    )
    def test_holtwinters(
        self, xs, alpha, beta, gamma, season_length, a, b, horizon
    ):
        # Streams shorter than one season exercise the bootstrap path,
        # longer ones the full recurrences — equivariance holds through
        # both (the bootstrap is a mean, the recurrences are affine).
        plain = _hw(alpha, beta, gamma, season_length)
        mapped = _hw(alpha, beta, gamma, season_length)
        for x in xs:
            plain.update(x)
            mapped.update(a * x + b)
        assert mapped.forecast(horizon) == pytest.approx(
            a * plain.forecast(horizon) + b, rel=1e-9, abs=1e-6
        )


class TestConstantInputConvergence:
    @forecast_settings
    @given(
        c=samples,
        alpha=alphas,
        beta=hw_gains,
        gamma=hw_gains,
        season_length=season_lengths,
        extra=st.integers(min_value=0, max_value=30),
        horizon=horizons,
    )
    def test_holtwinters_is_exact_from_bootstrap_on(
        self, c, alpha, beta, gamma, season_length, extra, horizon
    ):
        forecaster = _hw(alpha, beta, gamma, season_length)
        for _ in range(season_length + extra):
            forecaster.update(c)
        assert forecaster.ready
        assert forecaster.forecast(horizon) == pytest.approx(
            c, rel=1e-9, abs=1e-6
        )


class TestSeasonalFixedPoint:
    @forecast_settings
    @given(
        pattern=st.lists(samples, min_size=2, max_size=8),
        alpha=alphas,
        beta=hw_gains,
        gamma=hw_gains,
        repeats=st.integers(min_value=1, max_value=4),
        horizon=horizons,
    )
    def test_pure_seasonal_input_is_reproduced(
        self, pattern, alpha, beta, gamma, repeats, horizon
    ):
        """A period-m stream bootstraps to zero residual and stays there:
        every later forecast lands exactly on the repeating pattern."""
        m = len(pattern)
        forecaster = _hw(alpha, beta, gamma, season_length=m)
        n = 0
        for _ in range(repeats):
            for value in pattern:
                forecaster.update(value)
                n += 1
                if not forecaster.ready:
                    continue
                expected = pattern[(n + horizon - 1) % m]
                assert forecaster.forecast(horizon) == pytest.approx(
                    expected, rel=1e-9, abs=1e-6
                )


class TestStateUpdateAssociativity:
    @forecast_settings
    @given(
        xs=st.lists(samples, min_size=0, max_size=30),
        ys=st.lists(samples, min_size=0, max_size=30),
        alpha=alphas,
        beta=hw_gains,
        gamma=hw_gains,
        horizon=horizons,
    )
    def test_split_feed_equals_whole_feed(
        self, xs, ys, alpha, beta, gamma, horizon
    ):
        split = _hw(alpha, beta, gamma, season_length=4)
        whole = _hw(alpha, beta, gamma, season_length=4)
        for x in xs:
            split.update(x)
        for y in ys:
            split.update(y)
        for value in xs + ys:
            whole.update(value)
        assert split.samples == whole.samples
        # Same stream, same state: identical floats, no tolerance — the
        # split point leaves no trace in the recurrences.
        assert split.forecast(horizon) == whole.forecast(horizon)

    @forecast_settings
    @given(
        deltas=st.lists(
            st.integers(min_value=0, max_value=50), min_size=2, max_size=40
        ),
        interval=st.floats(
            min_value=0.05, max_value=1.0, allow_nan=False
        ),
    )
    def test_gauge_cadence_rates_telescope(self, deltas, interval):
        """Rate extraction from cumulative counters telescopes: the
        observed rates times the cadence sum exactly to the end-to-end
        counter delta, however the ticks subsample the counter."""
        counts = [0]
        for delta in deltas:
            counts.append(counts[-1] + delta)
        position = {"index": 0}

        recorder = MemoryRecorder()
        controller = ForecastController(
            ForecastConfig(sample_interval=interval, headroom=1e9)
        )
        controller.recorder = recorder
        controller.bind(
            counters={"pe-0": lambda: counts[position["index"]]},
            baseline={"pe-0": 1.0},
        )
        for index in range(len(counts)):
            position["index"] = index
            controller.tick((index + 1) * interval)

        observed = [
            event["observed"]
            for event in recorder.events
            if event["kind"] == "forecast"
        ]
        assert len(observed) == len(counts) - 1
        total = sum(rate * interval for rate in observed)
        assert total == pytest.approx(
            counts[-1] - counts[0], rel=1e-9, abs=1e-6
        )


class TestTriggerContract:
    @forecast_settings
    @given(
        rates=st.lists(
            st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
            min_size=1,
            max_size=60,
        ),
        headroom=st.floats(min_value=1.05, max_value=3.0, allow_nan=False),
        dwell=st.integers(min_value=1, max_value=4),
        cooldown=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    )
    def test_scripted_walks_respect_headroom_dwell_and_cooldown(
        self, rates, headroom, dwell, cooldown
    ):
        interval = 0.25
        config = ForecastConfig(
            alpha=0.6,
            sample_interval=interval,
            horizon=2,
            headroom=headroom,
            dwell_ticks=dwell,
            cooldown=cooldown,
        )
        controller = ForecastController(config)
        controller.bind(
            counters={"pe-0": lambda: 0},
            baseline={"pe-0": 5.0},
        )
        for step, rate in enumerate(rates):
            controller.observe({"pe-0": rate}, (step + 1) * interval)

        triggers = controller.triggers
        for record in triggers:
            # Every trigger cites a ratio at or above the headroom and a
            # finite non-negative prediction.
            assert record.ratio >= headroom - 1e-9
            assert math.isfinite(record.predicted)
            assert record.predicted >= 0.0
        for earlier, later in zip(triggers, triggers[1:]):
            assert later.t - earlier.t >= cooldown
        # The MAE accumulator only scores realized one-step pairs.
        if controller.error_samples:
            assert math.isfinite(controller.mean_abs_error)
            assert controller.mean_abs_error >= 0.0
