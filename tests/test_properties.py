"""Property-based tests on system-level invariants.

Hypothesis drives randomized configurations through the full simulated
system and asserts conservation laws and safety invariants that must hold
for *every* policy, topology, and seed.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.lqr import design_gains, is_stable
from repro.core.policies import AcesPolicy, LockStepPolicy, UdpPolicy
from repro.graph.topology import TopologySpec, generate_topology
from repro.systems.simulated import SimulatedSystem, SystemConfig

POLICIES = {
    "aces": AcesPolicy,
    "udp": UdpPolicy,
    "lockstep": LockStepPolicy,
}

slow_settings = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@slow_settings
@given(
    policy_name=st.sampled_from(sorted(POLICIES)),
    topo_seed=st.integers(min_value=0, max_value=50),
    sim_seed=st.integers(min_value=0, max_value=50),
    buffer_size=st.integers(min_value=2, max_value=30),
)
def test_property_system_conservation(
    policy_name, topo_seed, sim_seed, buffer_size
):
    """Conservation and safety invariants after an arbitrary short run."""
    spec = TopologySpec(
        num_nodes=2,
        num_ingress=2,
        num_egress=2,
        num_intermediate=2,
        calibrate_rates=False,
    )
    topology = generate_topology(spec, np.random.default_rng(topo_seed))
    system = SimulatedSystem(
        topology,
        POLICIES[policy_name](),
        config=SystemConfig(
            seed=sim_seed, warmup=0.0, buffer_size=buffer_size
        ),
    )
    system.env.run(until=2.0)

    for runtime in system.runtimes.values():
        telemetry = runtime.buffer.telemetry
        # Buffer accounting closes.
        assert telemetry.offered == telemetry.accepted + telemetry.dropped
        in_flight = 1 if runtime._current is not None else 0
        assert (
            telemetry.accepted
            == runtime.counters.consumed + runtime.buffer.occupancy + in_flight
        )
        # Buffer never exceeded capacity.
        assert telemetry.high_water <= buffer_size
        # CPU used never exceeds CPU granted.
        assert runtime.counters.cpu_used <= runtime.counters.cpu_granted + 1e-9
        # Emission fan-out is exact for deterministic M.
        assert runtime.counters.emitted == runtime.counters.consumed

    # Node capacity was never oversubscribed in aggregate: total CPU used
    # cannot exceed nodes * elapsed time.
    total_used = sum(
        r.counters.cpu_used for r in system.runtimes.values()
    )
    assert total_used <= topology.num_nodes * 2.0 + 1e-6


@slow_settings
@given(
    dt=st.floats(min_value=0.001, max_value=0.1),
    q=st.floats(min_value=0.01, max_value=100.0),
    r=st.floats(min_value=1e-6, max_value=10.0),
    buffer_lags=st.integers(min_value=0, max_value=3),
    extra_rate_lags=st.integers(min_value=0, max_value=3),
    delay=st.integers(min_value=0, max_value=2),
)
def test_property_lqr_designs_always_stable(
    dt, q, r, buffer_lags, extra_rate_lags, delay
):
    gains = design_gains(
        dt,
        q=q,
        r=r,
        buffer_lags=buffer_lags,
        rate_lags=delay + extra_rate_lags if delay else max(1, extra_rate_lags),
        delay_steps=delay,
    )
    assert is_stable(gains)
    assert all(np.isfinite(gains.lambdas))
    assert all(np.isfinite(gains.mus))


@slow_settings
@given(
    occupancies=st.lists(
        st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=60
    ),
    rho=st.floats(min_value=0.0, max_value=500.0),
)
def test_property_flow_controller_output_always_admissible(occupancies, rho):
    """Any occupancy trajectory yields non-negative, clamp-respecting
    r_max values."""
    from repro.core.flow_control import FlowController

    controller = FlowController(
        design_gains(0.01), target_occupancy=25.0, buffer_capacity=50.0
    )
    for occupancy in occupancies:
        r_max = controller.update(occupancy, rho)
        assert r_max >= 0.0
        assert r_max <= (50.0 - occupancy) / 0.01 + rho + 1e-6


@slow_settings
@given(
    n_pes=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=100),
    capacity=st.floats(min_value=0.1, max_value=1.0),
)
def test_property_scheduler_never_oversubscribes(n_pes, seed, capacity):
    from repro.control.plane import make_token_buckets
    from repro.core.cpu_control import AcesCpuScheduler
    from repro.model.params import PEProfile
    from repro.model.pe import PERuntime
    from repro.model.sdo import SDO

    rng = np.random.default_rng(seed)
    pes = []
    targets = {}
    for index in range(n_pes):
        pe = PERuntime(
            PEProfile(pe_id=f"pe-{index}"),
            buffer_capacity=20,
            rng=np.random.default_rng(index),
        )
        for _ in range(int(rng.integers(0, 20))):
            pe.ingest(SDO(stream_id="s", origin_time=0.0), 0.0)
        pes.append(pe)
        targets[pe.pe_id] = float(rng.uniform(0.0, 1.0 / n_pes))

    scheduler = AcesCpuScheduler(
        pes, make_token_buckets(pes, targets, 0.01, 20.0), capacity
    )
    caps = [
        float(rng.choice([np.inf, rng.uniform(0.0, 500.0)])) for _ in pes
    ]
    allocations = scheduler.allocate(
        0.01,
        caps,
        [pe.buffer.occupancy for pe in pes],
        [pe.current_service_time for pe in pes],
    )
    assert len(allocations) == n_pes
    assert sum(allocations) <= capacity + 1e-9
    assert all(cpu >= 0.0 for cpu in allocations)


@slow_settings
@given(
    dt=st.floats(min_value=1e-3, max_value=0.5),
    q=st.floats(min_value=0.05, max_value=50.0),
    r=st.floats(min_value=1e-4, max_value=1.0),
    buffer_lags=st.integers(min_value=0, max_value=3),
    rate_lags=st.integers(min_value=1, max_value=3),
)
def test_property_lqr_poles_inside_unit_circle(dt, q, r, buffer_lags, rate_lags):
    """Eq. 7 gain design is stabilizing for any valid (dt, q, r, lags):
    every closed-loop pole lies strictly inside the unit circle."""
    from repro.core.lqr import closed_loop_poles

    gains = design_gains(
        dt=dt, q=q, r=r,
        buffer_lags=buffer_lags, rate_lags=rate_lags, delay_steps=1,
    )
    poles = closed_loop_poles(gains)
    assert np.all(np.abs(poles) < 1.0)
    assert is_stable(gains)


@slow_settings
@given(
    slope=st.floats(min_value=0.5, max_value=500.0),
    overhead_fraction=st.floats(min_value=0.0, max_value=0.9),
    cpu_margin=st.floats(min_value=1e-3, max_value=1.0),
    lambda_m=st.floats(min_value=0.1, max_value=5.0),
)
def test_property_rate_model_round_trip(
    slope, overhead_fraction, cpu_margin, lambda_m
):
    """h(c) = a*c - b round-trips through its inverse wherever the model
    is not clamped (a*c > b), for the input and output rate forms."""
    from repro.model.params import PEProfile

    profile = PEProfile(
        pe_id="prop",
        lambda_m=lambda_m,
        overhead=overhead_fraction * slope,  # b < a so some c is feasible
        calibrated_rate_slope=slope,
    )
    # Pick c strictly inside the non-clamped region: a*c - b > 0.
    floor = profile.overhead / slope
    cpu = floor + cpu_margin * (1.0 - floor)
    rate = profile.rate_at(cpu)
    assert rate > 0.0
    assert profile.cpu_for_rate(rate) == pytest.approx(cpu, rel=1e-9)
    output_rate = profile.output_rate_at(cpu)
    assert profile.cpu_for_output_rate(output_rate) == pytest.approx(
        cpu, rel=1e-9
    )
    # Below the clamp the inverse maps non-positive rates to zero CPU.
    assert profile.cpu_for_rate(0.0) == 0.0
    assert profile.cpu_for_rate(-1.0) == 0.0
