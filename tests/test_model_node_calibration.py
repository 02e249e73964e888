"""Tests for empirical rate calibration."""

import pytest

from repro.model.calibration import (
    calibrated_slope,
    calibrate_profile,
    clear_cache,
    effective_rate,
)
from repro.model.params import PEProfile


class TestCalibration:
    def setup_method(self):
        clear_cache()

    def test_effective_rate_constant_profile(self):
        profile = PEProfile(pe_id="p", t0=0.01, t1=0.01)
        rate = effective_rate(profile, cpu=1.0, num_sdos=500)
        assert rate == pytest.approx(100.0, rel=0.01)

    def test_effective_rate_scales_with_cpu(self):
        profile = PEProfile(pe_id="p", t0=0.01, t1=0.01)
        full = effective_rate(profile, cpu=1.0, num_sdos=500)
        half = effective_rate(profile, cpu=0.5, num_sdos=500)
        assert half == pytest.approx(full / 2, rel=0.05)

    def test_invalid_cpu_rejected(self):
        profile = PEProfile(pe_id="p")
        with pytest.raises(ValueError):
            effective_rate(profile, cpu=0.0)
        with pytest.raises(ValueError):
            effective_rate(profile, cpu=1.5)

    def test_bursty_rate_between_bounds(self):
        """The measured rate lies between 1/E[T] and the arithmetic mean."""
        profile = PEProfile(pe_id="p", t0=0.002, t1=0.020, lambda_s=3.0)
        slope = calibrated_slope(profile)
        lower = 1.0 / profile.per_sdo_state_mix_cost  # ~91
        upper = 1.0 / profile.mean_service_time  # ~275
        assert lower * 0.9 < slope < upper * 1.3

    def test_long_dwell_limit_approaches_arithmetic_mean(self):
        profile = PEProfile(pe_id="p", lambda_s=200.0)
        slope = calibrated_slope(profile, num_sdos=20000)
        assert slope == pytest.approx(1.0 / profile.mean_service_time, rel=0.3)

    def test_slope_scales_inversely_with_service_scale(self):
        base = PEProfile(pe_id="p", t0=0.002, t1=0.020)
        doubled = PEProfile(pe_id="p", t0=0.004, t1=0.040)
        assert calibrated_slope(doubled) == pytest.approx(
            calibrated_slope(base) / 2.0
        )

    def test_cache_hit_is_deterministic(self):
        profile = PEProfile(pe_id="p", lambda_s=7.0)
        assert calibrated_slope(profile) == calibrated_slope(profile)

    def test_calibrate_profile_attaches_slope(self):
        profile = PEProfile(pe_id="p")
        calibrated = calibrate_profile(profile)
        assert calibrated.calibrated_rate_slope is not None
        assert calibrated.rate_slope == calibrated.calibrated_rate_slope
        assert profile.calibrated_rate_slope is None  # original untouched
