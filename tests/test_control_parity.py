"""Substrate parity: one NodeController, two adapters, identical decisions.

The tentpole guarantee of the control-plane extraction: feeding the same
scripted occupancy/feedback trace through the simulator's control plane
and the threaded runtime's control plane yields bit-identical r_max
sequences, CPU-grant sequences, and gate decisions.  The substrates
differ only in how grants are *acted on*, never in what is decided.
"""

import numpy as np
import pytest

from repro.control.node import NodeController
from repro.core.global_opt import solve_global_allocation
from repro.core.policies import AcesPolicy, LockStepPolicy, UdpPolicy
from repro.experiments.fuzzing import drive_plane, script_step
from repro.graph.topology import TopologySpec, generate_topology
from repro.runtime.spc import RuntimeConfig, SPCRuntime
from repro.systems.simulated import SimulatedSystem, SystemConfig

DT = 0.02
BUFFER = 20
STEPS = 40


def parity_topology(seed=3):
    spec = TopologySpec(
        num_nodes=3,
        num_ingress=2,
        num_egress=2,
        num_intermediate=5,
        calibrate_rates=False,
    )
    return generate_topology(spec, np.random.default_rng(seed))


def build_pair(policy_factory, topology, control_impl="scalar"):
    """The same policy/topology/targets on both substrates.

    Neither system is *run*: the tests drive the node controllers by
    hand so both planes see one identical scripted input trace.
    """
    targets = solve_global_allocation(
        topology.graph, topology.placement, topology.source_rates
    ).targets
    system = SimulatedSystem(
        topology,
        policy_factory(),
        targets=targets,
        config=SystemConfig(
            buffer_size=BUFFER, dt=DT, feedback_delay=0.0, seed=5,
            control_impl=control_impl,
        ),
    )
    runtime = SPCRuntime(
        topology,
        policy_factory(),
        targets=targets,
        config=RuntimeConfig(
            buffer_size=BUFFER, dt=DT, seed=5, control_impl=control_impl
        ),
    )
    return system, runtime


@pytest.mark.parametrize(
    "policy_factory", [AcesPolicy, UdpPolicy, LockStepPolicy]
)
def test_identical_decision_sequences(policy_factory):
    topology = parity_topology()
    system, runtime = build_pair(policy_factory, topology)

    sim_decisions = drive_plane(system.plane, system.runtimes, STEPS, DT)
    run_decisions = drive_plane(runtime.plane, runtime.pes, STEPS, DT)

    assert len(sim_decisions) == len(run_decisions) > 0
    # Bit-identical: same node order, same grant floats, same r_max
    # floats, same blocked sets — no tolerance.
    assert sim_decisions == run_decisions


def test_feedback_propagates_identically():
    """r_max published on one node is read back identically by upstreams."""
    topology = parity_topology(seed=11)
    system, runtime = build_pair(AcesPolicy, topology)

    sim_caps = []
    run_caps = []
    for plane, pes, out in (
        (system.plane, system.runtimes, sim_caps),
        (runtime.plane, runtime.pes, run_caps),
    ):
        for step in range(STEPS):
            now = (step + 1) * DT
            script_step(pes, step, now)
            for controller in plane.node_controllers:
                controller.control(now)
                bus = plane.bus
                for record in controller.records:
                    out.append(
                        bus.max_downstream_rate(record.downstream_ids, now)
                    )
    assert sim_caps == run_caps


def test_gate_decisions_identical():
    """Lock-Step gates resolved by the plane agree across substrates."""
    topology = parity_topology(seed=4)
    system, runtime = build_pair(LockStepPolicy, topology)

    for step in range(6):
        now = (step + 1) * DT
        script_step(system.runtimes, step, now)
        script_step(runtime.pes, step, now)
        for pe_id in topology.graph.topological_order():
            sim_gate = system.plane.gates[pe_id]
            run_gate = runtime.plane.gates[pe_id]
            assert (sim_gate is None) == (run_gate is None)
            if sim_gate is not None:
                assert sim_gate(system.runtimes[pe_id]) == run_gate(
                    runtime.pes[pe_id]
                )


def test_node_controllers_are_shared_type():
    """Every plane — simulator and threaded runtime, scalar and vector,
    token-bucket and strict — pumps exactly NodeController."""
    topology = parity_topology()
    for control_impl in ("scalar", "vector"):
        for policy_factory in (AcesPolicy, LockStepPolicy):
            system, runtime = build_pair(
                policy_factory, topology, control_impl
            )
            for plane in (system.plane, runtime.plane):
                assert plane.control_impl == control_impl
                types = {type(c) for c in plane.node_controllers}
                assert types == {NodeController}, (control_impl, types)


# -- proactive (forecast-tier) decision parity --------------------------------


def parity_forecast_config():
    """Armed tight enough that the scripted ramp below actually fires."""
    from repro.control.forecast import ForecastConfig

    return ForecastConfig(
        season_length=4,
        sample_interval=DT,
        horizon=2,
        headroom=1.2,
        dwell_ticks=2,
        cooldown=4 * DT,
    )


def build_forecast_pair(policy_factory, topology):
    """Both substrates with the forecasting tier armed (no elastic tier,
    so proactive triggers re-solve Tier-1 but cannot scale out)."""
    targets = solve_global_allocation(
        topology.graph, topology.placement, topology.source_rates
    ).targets
    system = SimulatedSystem(
        topology,
        policy_factory(),
        targets=targets,
        config=SystemConfig(
            buffer_size=BUFFER, dt=DT, feedback_delay=0.0, seed=5,
            warmup=0.0, forecast=parity_forecast_config(),
        ),
    )
    runtime = SPCRuntime(
        topology,
        policy_factory(),
        targets=targets,
        config=RuntimeConfig(
            buffer_size=BUFFER, dt=DT, seed=5,
            warmup=0.0, forecast=parity_forecast_config(),
        ),
    )
    return system, runtime


def scripted_rate(pe_index, step, baseline):
    """A deterministic ramp crossing the headroom mid-script."""
    return baseline * (0.5 + 0.08 * step + 0.02 * pe_index)


def drive_forecast(forecast, baseline):
    """Feed the scripted rate walk into one ForecastController; return
    the per-tick decision sequence plus the trigger records."""
    states = []
    for step in range(STEPS):
        now = (step + 1) * DT
        rates = {
            pe_id: scripted_rate(pe_index, step, baseline[pe_id])
            for pe_index, pe_id in enumerate(sorted(baseline))
        }
        forecast.observe(rates, now)
        states.append(
            (
                dict(forecast.last_forecast),
                forecast.last_ratio,
                len(forecast.triggers),
            )
        )
    triggers = [
        (record.t, record.ratio, record.predicted, record.reoptimized,
         record.scaled_out)
        for record in forecast.triggers
    ]
    return states, triggers


def test_proactive_decisions_identical_across_substrates():
    """The forecast tier, scripted identically on both substrates, emits
    bit-identical forecasts, ratios, and trigger records — including the
    Tier-1 re-solves its triggers cause."""
    topology = parity_topology(seed=7)
    system, runtime = build_pair_forecast_checked(topology)

    baseline = dict(topology.source_rates)
    sim_states, sim_triggers = drive_forecast(system.forecast, baseline)
    run_states, run_triggers = drive_forecast(runtime.forecast, baseline)

    assert sim_states == run_states
    assert sim_triggers == run_triggers
    assert len(sim_triggers) > 0  # the ramp actually fired
    # Triggers re-solved Tier-1 on both planes (no elastic tier armed,
    # so no scale-out), and both adopted identical targets.
    assert all(record[3] for record in sim_triggers)
    assert all(not record[4] for record in sim_triggers)
    assert system.plane.reoptimizations == runtime.plane.reoptimizations > 0
    assert system.plane.targets.cpu == runtime.plane.targets.cpu


def build_pair_forecast_checked(topology):
    system, runtime = build_forecast_pair(AcesPolicy, topology)
    assert system.forecast is not None and runtime.forecast is not None
    return system, runtime


def test_proactive_decisions_identical_scalar_vs_vector():
    """control_impl is a pure performance knob for the forecast tier too:
    scalar and vector planes see identical proactive decisions."""
    topology = parity_topology(seed=7)
    targets = solve_global_allocation(
        topology.graph, topology.placement, topology.source_rates
    ).targets
    outcomes = {}
    for impl in ("scalar", "vector"):
        system = SimulatedSystem(
            topology,
            AcesPolicy(),
            targets=targets,
            config=SystemConfig(
                buffer_size=BUFFER, dt=DT, feedback_delay=0.0, seed=5,
                warmup=0.0, control_impl=impl,
                forecast=parity_forecast_config(),
            ),
        )
        outcomes[impl] = drive_forecast(
            system.forecast, dict(topology.source_rates)
        )
    assert outcomes["scalar"] == outcomes["vector"]
    assert len(outcomes["scalar"][1]) > 0
