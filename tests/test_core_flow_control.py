"""Tests for the Eq. 7 flow controller."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flow_control import FlowController, update_rows
from repro.core.lqr import LQRGains, design_gains, proportional_gains


def make_controller(b0=25.0, capacity=50.0, **design_kwargs):
    defaults = dict(dt=0.01)
    defaults.update(design_kwargs)
    gains = design_gains(**defaults)
    return FlowController(gains, target_occupancy=b0, buffer_capacity=capacity)


class TestValidation:
    def test_b0_out_of_range_rejected(self):
        gains = design_gains(dt=0.01)
        with pytest.raises(ValueError):
            FlowController(gains, target_occupancy=-1.0, buffer_capacity=50)
        with pytest.raises(ValueError):
            FlowController(gains, target_occupancy=60.0, buffer_capacity=50)

    def test_negative_occupancy_rejected(self):
        controller = make_controller()
        with pytest.raises(ValueError):
            controller.update(-1.0, 100.0)


class TestControlLaw:
    def test_at_setpoint_rate_matches_rho(self):
        controller = make_controller(b0=25.0)
        r_max = controller.update(25.0, 100.0)
        assert r_max == pytest.approx(100.0)

    def test_below_setpoint_asks_for_more(self):
        controller = make_controller(b0=25.0)
        assert controller.update(5.0, 100.0) > 100.0

    def test_above_setpoint_asks_for_less(self):
        controller = make_controller(b0=25.0)
        assert controller.update(45.0, 100.0) < 100.0

    def test_never_negative(self):
        controller = make_controller(b0=1.0, capacity=50.0)
        r_max = controller.update(50.0, 1.0)
        assert r_max >= 0.0

    def test_safety_clamp_limits_refill(self):
        """r_max cannot exceed free-space/dt + rho in one interval."""
        controller = make_controller(b0=25.0, capacity=50.0, r=1e-9)
        r_max = controller.update(48.0, 10.0)
        ceiling = (50.0 - 48.0) / 0.01 + 10.0
        assert r_max <= ceiling + 1e-9

    def test_full_buffer_zero_rho_gives_zero(self):
        controller = make_controller(b0=25.0, capacity=50.0)
        assert controller.update(50.0, 0.0) == 0.0

    def test_updates_counter(self):
        controller = make_controller()
        controller.update(25.0, 100.0)
        controller.update(25.0, 100.0)
        assert controller.updates == 2

    def test_last_r_max_exposed(self):
        controller = make_controller()
        value = controller.update(25.0, 100.0)
        assert controller.last_r_max == value

    def test_history_terms_affect_output(self):
        """After a big rate surplus, the mu term damps the next request."""
        controller = make_controller(b0=25.0)
        first = controller.update(5.0, 100.0)  # large surplus requested
        second = controller.update(5.0, 100.0)
        assert second < first

    def test_proportional_controller_works(self):
        gains = proportional_gains(dt=0.01, gain=10.0)
        controller = FlowController(gains, 25.0, 50.0)
        assert controller.update(15.0, 100.0) == pytest.approx(200.0)

    def test_reset_clears_history(self):
        controller = make_controller(b0=25.0)
        controller.update(50.0, 100.0)
        controller.reset()
        assert controller.last_r_max == 0.0
        # After reset, behaves as freshly constructed.
        fresh = make_controller(b0=25.0)
        assert controller.update(25.0, 100.0) == pytest.approx(
            fresh.update(25.0, 100.0)
        )


class TestClosedLoop:
    def simulate(self, controller, b_start, rho=100.0, steps=600, dt=0.01):
        """Upstream complies exactly with r_max (one interval late); the
        PE drains at rho.  b' = clamp(b + dt (arrivals - rho), 0, B)."""
        b = b_start
        occupancies = []
        pending = rho  # arrivals applied one interval after being advertised
        for _ in range(steps):
            b = max(0.0, min(controller.capacity, b + dt * (pending - rho)))
            pending = controller.update(b, rho)
            occupancies.append(b)
        return occupancies

    @pytest.mark.parametrize("b_start", [0.0, 25.0, 50.0])
    def test_converges_to_setpoint(self, b_start):
        controller = make_controller(b0=25.0, capacity=50.0)
        occupancies = self.simulate(controller, b_start)
        tail = occupancies[-50:]
        assert sum(tail) / len(tail) == pytest.approx(25.0, abs=1.0)

    def test_steady_state_input_equals_processing(self):
        """The paper's steady-state property: r_in -> rho."""
        controller = make_controller(b0=25.0, capacity=50.0)
        rho = 80.0
        self.simulate(controller, 10.0, rho=rho)
        assert controller.last_r_max == pytest.approx(rho, rel=0.02)


@settings(max_examples=50, deadline=None)
@given(
    occupancy=st.floats(min_value=0.0, max_value=50.0),
    rho=st.floats(min_value=0.0, max_value=1000.0),
)
def test_property_r_max_bounded(occupancy, rho):
    controller = make_controller(b0=25.0, capacity=50.0)
    r_max = controller.update(occupancy, rho)
    assert r_max >= 0.0
    assert r_max <= (50.0 - occupancy) / 0.01 + rho + 1e-6


# -- the node tick's batch routine against the one-PE method ------------------


def reference_update(self, occupancy, rho):
    """``FlowController.update`` as written before the batch routine
    existed (the one-PE method now runs a batch of one)."""
    if occupancy < 0:
        raise ValueError(f"occupancy must be >= 0, got {occupancy}")
    deviations = self._deviations
    surpluses = self._surpluses
    deviations.appendleft(occupancy - self.b0)
    r_max = rho
    for lam, deviation in zip(self._lambdas, deviations):
        r_max -= lam * deviation
    for mu, surplus in zip(self._mus, surpluses):
        r_max -= mu * surplus
    if r_max < 0.0:
        r_max = 0.0
    free = self.capacity - occupancy
    if free < 0.0:
        free = 0.0
    ceiling = free / self._dt + rho
    if r_max > ceiling:
        r_max = ceiling
    surpluses.appendleft(r_max - rho)
    self.last_r_max = r_max
    self.updates += 1
    return r_max


@settings(max_examples=200, deadline=None)
@given(
    lags=st.sampled_from([(1, 1), (0, 0), (0, 1), (2, 1), (1, 3)]),
    steps=st.lists(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=60),
                st.floats(min_value=0.0, max_value=2000.0),
            ),
            min_size=3, max_size=3,
        ),
        min_size=1, max_size=8,
    ),
)
def test_property_update_rows_equals_update(lags, steps):
    """Bit-equal r_max, histories and counters, tick after tick, for the
    unrolled default lag counts and the general ones."""
    buffer_lags, rate_lags = lags
    gains = design_gains(
        0.01, buffer_lags=buffer_lags, rate_lags=rate_lags,
        delay_steps=min(1, rate_lags),
    )

    def trio():
        return [
            FlowController(gains, b0, capacity)
            for b0, capacity in ((25.0, 50.0), (0.0, 40.0), (10.0, 10.0))
        ]

    batch, one_pe = trio(), trio()
    rows = [controller.row for controller in batch]
    for step in steps:
        occupancies = [occupancy for occupancy, _ in step]
        rhos = [rho for _, rho in step]
        assert update_rows(rows, occupancies, rhos) == [
            reference_update(controller, occupancy, rho)
            for controller, occupancy, rho in zip(one_pe, occupancies, rhos)
        ]
        for ours, theirs in zip(batch, one_pe):
            assert ours.coefficient_arrays() == theirs.coefficient_arrays()
            assert ours.last_r_max == theirs.last_r_max
            assert ours.updates == theirs.updates


def test_update_rows_rejects_negative_occupancy_where_update_does():
    controller = make_controller()
    with pytest.raises(ValueError, match="occupancy must be >= 0"):
        update_rows([controller.row], [-1], [10.0])
    assert controller.updates == 0
