"""Tests for the LQR gain design (Eq. 7 / Appendix A)."""

import itertools

import numpy as np
import pytest

from repro.core.lqr import (
    LQRGains,
    _augmented_system,
    closed_loop_poles,
    design_gains,
    is_stable,
    proportional_gains,
    solve_dare,
)


class TestDesign:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            design_gains(dt=0.0)
        with pytest.raises(ValueError):
            design_gains(dt=0.01, q=-1.0)
        with pytest.raises(ValueError):
            design_gains(dt=0.01, r=0.0)
        with pytest.raises(ValueError):
            design_gains(dt=0.01, buffer_lags=-1)

    def test_delay_must_be_covered_by_rate_lags(self):
        with pytest.raises(ValueError):
            design_gains(dt=0.01, rate_lags=0, delay_steps=1)

    def test_gain_dimensions(self):
        gains = design_gains(dt=0.01, buffer_lags=2, rate_lags=3)
        assert len(gains.lambdas) == 3  # k = 0..K
        assert len(gains.mus) == 3  # l = 1..L
        assert gains.buffer_lags == 2
        assert gains.rate_lags == 3

    def test_primary_gain_positive(self):
        gains = design_gains(dt=0.01)
        assert gains.lambdas[0] > 0

    def test_no_delay_design_has_zero_mu(self):
        """Without actuation delay, full-state feedback needs no history."""
        gains = design_gains(dt=0.01, delay_steps=0)
        assert gains.mus[0] == pytest.approx(0.0, abs=1e-6)

    def test_delayed_design_uses_history(self):
        """With one-step delay the u-history tap is essential."""
        gains = design_gains(dt=0.01, delay_steps=1)
        assert gains.mus[0] > 0.01

    def test_aggressiveness_increases_with_q_over_r(self):
        soft = design_gains(dt=0.01, q=1.0, r=1.0)
        hard = design_gains(dt=0.01, q=1.0, r=1e-5)
        assert hard.lambdas[0] > soft.lambdas[0]

    def test_scale_invariance_in_q_r_ratio(self):
        a = design_gains(dt=0.01, q=1.0, r=0.01)
        b = design_gains(dt=0.01, q=100.0, r=1.0)
        assert a.lambdas[0] == pytest.approx(b.lambdas[0], rel=1e-6)

    def test_deadbeat_limit(self):
        """As r -> 0, the delayed design approaches lambda0 = 1/dt, mu1 = 1."""
        gains = design_gains(dt=0.01, r=1e-9)
        assert gains.lambdas[0] == pytest.approx(100.0, rel=0.01)
        assert gains.mus[0] == pytest.approx(1.0, rel=0.01)


# dt, q, r, buffer lags, rate lags, delay steps: 288 designs.
DESIGN_GRID = list(
    itertools.product(
        (0.005, 0.01, 0.05, 0.1),
        (1.0, 10.0),
        (1e-3, 3e-2, 1.0),
        (0, 1, 2),
        (1, 2),
        (0, 1),
    )
)


def riccati_problem(dt=0.01, q=1.0, r=0.001, buffer_lags=1, rate_lags=1,
                    delay_steps=1):
    """The (A, B, Q, R) that :func:`design_gains` hands to the solver."""
    A, B = _augmented_system(dt, buffer_lags, rate_lags, delay_steps)
    Q = np.diag([q] + [1e-9 * q] * (A.shape[0] - 1))
    return A, B, Q, np.array([[r]])


class TestRiccatiSolve:
    def test_gains_match_scipy_on_the_design_grid(self):
        """SciPy's Schur-based ``solve_discrete_are`` is the oracle: the
        doubling solve's gains agree to round-off on every design, and
        every closed loop is stable."""
        from scipy.linalg import solve_discrete_are

        worst = 0.0
        for design in DESIGN_GRID:
            A, B, Q, R = riccati_problem(*design)
            P = solve_discrete_are(A, B, Q, R)
            expected = np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A).ravel()
            gains = design_gains(*design)
            actual = np.array(gains.lambdas + gains.mus)
            error = np.max(np.abs(actual - expected)) / np.max(np.abs(expected))
            worst = max(worst, error)
            assert np.all(np.abs(closed_loop_poles(gains)) < 1.0), design
        assert worst <= 1e-12

    def test_riccati_residual_on_the_default_design(self):
        A, B, Q, R = riccati_problem()
        P = solve_dare(A, B, Q, R)
        residual = (
            A.T @ P @ A
            - P
            - A.T @ P @ B @ np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
            + Q
        )
        assert np.linalg.norm(residual, 1) <= 1e-10 * np.linalg.norm(P, 1)

    def test_unstabilisable_pair_raises(self):
        """With ``A = 2I`` and no actuation the cost grows without bound:
        the iteration never meets its stopping rule and the cap raises."""
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            solve_dare(2.0 * np.eye(2), np.zeros((2, 1)), np.eye(2),
                       np.array([[1.0]]))


class TestStability:
    @pytest.mark.parametrize("dt", [0.001, 0.01, 0.1])
    @pytest.mark.parametrize("r", [1e-6, 1e-3, 1.0])
    def test_lqr_always_stable(self, dt, r):
        gains = design_gains(dt=dt, r=r)
        assert is_stable(gains)

    @pytest.mark.parametrize("lags", [(0, 1), (1, 1), (2, 2), (3, 4)])
    def test_stability_across_history_lengths(self, lags):
        buffer_lags, rate_lags = lags
        gains = design_gains(
            dt=0.01, buffer_lags=buffer_lags, rate_lags=rate_lags
        )
        assert is_stable(gains)

    def test_poles_inside_unit_circle(self):
        poles = closed_loop_poles(design_gains(dt=0.01))
        assert np.all(np.abs(poles) < 1.0)

    def test_unstable_proportional_gain_detected(self):
        """An over-aggressive P controller is unstable (|1 - g dt| >= 1)."""
        too_hot = proportional_gains(dt=0.01, gain=250.0)
        assert not is_stable(too_hot)

    def test_reasonable_proportional_gain_stable(self):
        gains = proportional_gains(dt=0.01, gain=50.0)
        assert is_stable(gains)


class TestClosedLoopSimulation:
    def simulate(self, gains: LQRGains, b_start: float, steps: int = 400):
        """Simulate the fluid loop: b' = b + dt (r_max - rho), u delayed."""
        dt = gains.dt
        rho = 100.0
        b0 = 25.0
        b = b_start
        deviations = [b - b0]
        history_b = [b - b0] * (gains.buffer_lags + 1)
        history_u = [0.0] * max(1, gains.rate_lags)
        delayed_u = [0.0] * max(1, gains.delay_steps or 1)
        for _ in range(steps):
            history_b = [b - b0] + history_b[:-1]
            r_max = rho
            for lam, deviation in zip(gains.lambdas, history_b):
                r_max -= lam * deviation
            for mu, surplus in zip(gains.mus, history_u):
                r_max -= mu * surplus
            u = r_max - rho
            history_u = [u] + history_u[:-1]
            if gains.delay_steps > 0:
                delayed_u = [u] + delayed_u[:-1]
                applied = delayed_u[-1]
            else:
                applied = u
            b = b + dt * applied
            deviations.append(b - b0)
        return deviations

    @pytest.mark.parametrize("b_start", [0.0, 10.0, 50.0])
    def test_converges_from_arbitrary_start(self, b_start):
        gains = design_gains(dt=0.01)
        deviations = self.simulate(gains, b_start)
        assert abs(deviations[-1]) < 0.05 * max(1.0, abs(deviations[0]))

    def test_convergence_is_monotone_in_envelope(self):
        gains = design_gains(dt=0.01)
        deviations = self.simulate(gains, 50.0)
        early = max(abs(d) for d in deviations[:50])
        late = max(abs(d) for d in deviations[-50:])
        assert late < early / 10
