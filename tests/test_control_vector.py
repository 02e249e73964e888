"""Scalar-vs-vector control-tick parity: the tentpole guarantee.

``control_impl="vector"`` must be a pure performance knob: every policy,
substrate, bucket layout, and fault scenario produces bit-identical
decisions (r_max floats, CPU grants, gate/blocked sets) and byte-identical
traces compared to the scalar per-PE loops.  These tests pin that
contract and the array kernels themselves (water-fill, index registry).
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check.conservation import check_conservation
from repro.check.oracles import OracleRecorder
from repro.control.vector import PEIndexRegistry, vector_proportional_fill
from repro.core.cpu_control import _proportional_fill
from repro.core.global_opt import solve_global_allocation
from repro.core.targets import AllocationTargets
from repro.core.policies import AcesPolicy, LockStepPolicy, UdpPolicy
from repro.experiments.fuzzing import drive_plane
from repro.graph.topology import TopologySpec, generate_topology
from repro.obs.recorder import MemoryRecorder
from repro.runtime.spc import RuntimeConfig, SPCRuntime
from repro.systems.faults import FaultPlan
from repro.systems.simulated import SimulatedSystem, SystemConfig

DT = 0.02
BUFFER = 20
STEPS = 40

POLICY_VARIANTS = {
    "aces": lambda: AcesPolicy(),
    "aces-min": lambda: AcesPolicy(aggregation="min"),
    "aces-prop": lambda: AcesPolicy(controller="proportional"),
    "aces-strict": lambda: AcesPolicy(scheduler="strict"),
    "udp": lambda: UdpPolicy(),
    "lockstep": lambda: LockStepPolicy(),
}


def parity_topology(seed=3):
    spec = TopologySpec(
        num_nodes=3,
        num_ingress=2,
        num_egress=2,
        num_intermediate=5,
        calibrate_rates=False,
    )
    return generate_topology(spec, np.random.default_rng(seed))


# -- scripted-drive parity ----------------------------------------------


@pytest.mark.parametrize("variant", sorted(POLICY_VARIANTS))
def test_scripted_drive_parity_simulated(variant):
    topology = parity_topology()
    factory = POLICY_VARIANTS[variant]
    targets = solve_global_allocation(
        topology.graph, topology.placement, topology.source_rates
    ).targets
    decisions = {}
    for impl in ("scalar", "vector"):
        system = SimulatedSystem(
            topology,
            factory(),
            targets=targets,
            config=SystemConfig(
                buffer_size=BUFFER,
                dt=DT,
                feedback_delay=0.0,
                seed=5,
                control_impl=impl,
            ),
        )
        assert system.plane.control_impl == impl
        decisions[impl] = drive_plane(system.plane, system.runtimes, STEPS, DT)
    assert len(decisions["scalar"]) == len(decisions["vector"]) > 0
    assert decisions["scalar"] == decisions["vector"]


@pytest.mark.parametrize("variant", ["aces", "aces-strict", "udp", "lockstep"])
def test_scripted_drive_parity_threaded(variant):
    topology = parity_topology()
    factory = POLICY_VARIANTS[variant]
    decisions = {}
    for impl in ("scalar", "vector"):
        runtime = SPCRuntime(
            topology,
            factory(),
            config=RuntimeConfig(
                buffer_size=BUFFER, dt=DT, seed=5, control_impl=impl
            ),
        )
        decisions[impl] = drive_plane(runtime.plane, runtime.pes, STEPS, DT)
    assert decisions["scalar"] == decisions["vector"]


# -- full-run parity -----------------------------------------------------


def report_key(report):
    return (
        report.weighted_throughput,
        report.total_output_sdos,
        report.buffer_drops,
    )


def run_pair(policy_factory, *, duration=1.0, recorders=None, **overrides):
    """Run the same system scalar and vector; return both reports."""
    topology = parity_topology()
    reports = {}
    for impl in ("scalar", "vector"):
        params = dict(dt=0.01, warmup=0.1, seed=3, control_impl=impl)
        params.update(overrides)
        recorder = recorders[impl] if recorders is not None else None
        system = SimulatedSystem(
            topology,
            policy_factory(),
            config=SystemConfig(**params),
            recorder=recorder,
        )
        reports[impl] = system.run(duration)
    return reports


@pytest.mark.parametrize("variant", ["aces", "udp", "lockstep"])
def test_full_run_report_parity(variant):
    reports = run_pair(POLICY_VARIANTS[variant])
    assert report_key(reports["scalar"]) == report_key(reports["vector"])


@pytest.mark.parametrize("variant", ["aces", "aces-min", "udp"])
def test_full_run_parity_bucketed(variant):
    reports = run_pair(POLICY_VARIANTS[variant], control_phase_buckets=4)
    assert report_key(reports["scalar"]) == report_key(reports["vector"])


def test_trace_byte_equality():
    recorders = {"scalar": MemoryRecorder(), "vector": MemoryRecorder()}
    run_pair(POLICY_VARIANTS["aces"], recorders=recorders)
    scalar = [
        json.dumps(e, sort_keys=True, default=str)
        for e in recorders["scalar"].events
    ]
    vector = [
        json.dumps(e, sort_keys=True, default=str)
        for e in recorders["vector"].events
    ]
    assert len(scalar) > 0
    assert scalar == vector


# -- bucketed semantics --------------------------------------------------


def test_bucket_guard_rejects_feedback_with_zero_delay():
    topology = parity_topology()
    with pytest.raises(ValueError, match="feedback"):
        SimulatedSystem(
            topology,
            AcesPolicy(),
            config=SystemConfig(
                dt=0.01,
                feedback_delay=0.0,
                control_phase_buckets=2,
                seed=3,
            ),
        )


def test_buckets_allowed_without_feedback():
    topology = parity_topology()
    system = SimulatedSystem(
        topology,
        UdpPolicy(),
        config=SystemConfig(
            dt=0.01,
            warmup=0.1,
            feedback_delay=0.0,
            control_phase_buckets=2,
            seed=3,
        ),
    )
    report = system.run(0.5)
    assert report.total_output_sdos >= 0


# -- configuration -----------------------------------------------------


def test_config_rejects_unknown_impl():
    with pytest.raises(ValueError, match="control_impl"):
        SystemConfig(control_impl="turbo")


# -- oracles and conservation under vector -------------------------------


@pytest.mark.parametrize(
    "variant,buckets",
    [("aces", None), ("aces", 3), ("aces-strict", None), ("lockstep", None)],
)
def test_vector_runs_clean_under_strict_oracles(variant, buckets):
    topology = parity_topology()
    oracle = OracleRecorder(strict=True)
    system = SimulatedSystem(
        topology,
        POLICY_VARIANTS[variant](),
        config=SystemConfig(
            dt=0.01,
            warmup=0.1,
            seed=3,
            control_impl="vector",
            control_phase_buckets=buckets,
        ),
        recorder=oracle,
    )
    oracle.attach_plane(system.plane)
    system.run(0.8)
    assert oracle.violations == []
    assert check_conservation(system) == []


# -- array kernels -------------------------------------------------------


@settings(
    max_examples=100, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n=st.integers(min_value=1, max_value=8),
    budget=st.floats(min_value=0.0, max_value=100.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_water_fill_parity(n, budget, seed):
    """vector_proportional_fill drives the same kernel the engine uses
    and must agree element-wise (bit-exact) with _proportional_fill."""
    rng = np.random.default_rng(seed)
    demands = [float(d) for d in rng.uniform(0, 20, n)]
    # Mix zero demands/weights in to hit the inactive-lane branches.
    for k in range(n):
        if rng.random() < 0.3:
            demands[k] = 0.0
    weights = [float(w) for w in rng.uniform(0, 5, n)]
    # A visiting order that is not the placement order.
    order = [int(k) for k in rng.permutation(n)]
    scalar = _proportional_fill(demands, weights, budget, order)
    vector = vector_proportional_fill(demands, weights, budget, order)
    assert len(scalar) == len(vector) == n
    for k in range(n):
        assert scalar[k] == vector[k], (k, scalar[k], vector[k])


def test_a_feedback_fault_spanning_an_epoch_keeps_scalar_parity():
    """Fuzz seeds 26/33: a feedback_loss window still open at a node
    join keeps its lossy wrapper across the rebuild, the bus keeps every
    published r_max, and the revert puts back the bus the plane was
    built with — on both implementations alike."""
    kinds = {"r_max", "cpu_grant", "token_bucket"}
    decisions = {}
    for impl in ("scalar", "vector"):
        recorder = MemoryRecorder()
        system = SimulatedSystem(
            parity_topology(),
            AcesPolicy(),
            config=SystemConfig(
                dt=0.01, warmup=0.1, seed=3, control_impl=impl
            ),
            recorder=recorder,
        )
        built = system.plane.bus
        (
            FaultPlan()
            .feedback_loss(0.5, start=0.2, duration=0.6)
            .node_join(start=0.4, duration=0.6)
            .attach(system)
        )
        system.run(1.2)
        assert system.plane.epoch == 2
        assert system.plane.bus is built
        decisions[impl] = [e for e in recorder.events if e["kind"] in kinds]
    assert len(decisions["scalar"]) > 0
    assert decisions["scalar"] == decisions["vector"]


#: (events, sha256) of the membership drive's r_max / cpu_grant /
#: token_bucket / epoch events, epoch events without ``control_impl``,
#: taken at the commit before an epoch stopped rebuilding per-PE state.
#: Re-pinned when Tier 1 moved from SLSQP to the interior-point solve,
#: which moved the weighted PEs' targets by up to 2.5e-6 and slid
#: zero-weight PEs along the optimal face; fed SLSQP's targets, the drive
#: still reproduces the earlier hashes (e3c1c378... and c3d33bcf...).
#: ACES was re-pinned again when the Eq. 7 gains moved from SciPy's
#: Riccati solve to the numpy doubling solve; fed SciPy's solution, the
#: drive reproduces the earlier 705f6425....
#: The hashes are the same at one and two OpenBLAS threads.
MEMBERSHIP_GOLDEN = {
    "aces": (
        3380,
        "28a49b254da6b43527bdabf36966c0a8fbd3ace47a0044633b110883ea553be2",
    ),
    "lockstep": (
        1130,
        "bce7e60d575540e02859f00e06873113ac3eb47cab82c509208c2c70503019bb",
    ),
}


def membership_drive(policy_factory, impl):
    """Every kind of membership op in one run, checking after each epoch
    that no per-PE Tier-2 object was rebuilt.

    Node 0 is slowed, a node joins, two of node 0's PEs migrate onto it,
    one moves back (leaving node 0's PEs out of index order), and the
    join's revert evacuates and removes the guest node: five epochs.
    """
    kinds = {"r_max", "cpu_grant", "token_bucket", "epoch"}
    recorder = MemoryRecorder()
    system = SimulatedSystem(
        parity_topology(),
        policy_factory(),
        config=SystemConfig(dt=0.01, warmup=0.1, seed=3, control_impl=impl),
        recorder=recorder,
    )
    plane = system.plane
    (
        FaultPlan()
        .node_slowdown(0, 0.5, start=0.15, duration=0.5)
        .node_join(start=0.3, duration=0.6)
        .attach(system)
    )

    def buckets_of(plane):
        return {
            pe.pe_id: bucket
            for scheduler in plane.schedulers
            for pe, bucket in zip(
                scheduler.pes, getattr(scheduler, "buckets", ())
            )
        }

    controllers = dict(plane.controllers)
    buckets = buckets_of(plane)
    engine = plane._engine
    arrays = {
        name: value
        for name, value in vars(engine).items()
        if isinstance(value, np.ndarray)
    } if engine is not None else {}
    # What the hook below checks: ACES scalar planes own token buckets,
    # vector planes own the engine's arrays.
    assert bool(buckets) == (
        plane.control_impl == "scalar" and plane.uses_feedback
    )
    assert bool(arrays) == (plane.control_impl == "vector")

    def unchanged(plane):
        assert plane.controllers.keys() == controllers.keys()
        assert all(plane.controllers[p] is c for p, c in controllers.items())
        now = buckets_of(plane)
        assert now.keys() == buckets.keys()
        assert all(now[p] is b for p, b in buckets.items())
        assert plane._engine is engine
        assert all(vars(engine)[n] is a for n, a in arrays.items())

    plane.add_rebuild_hook(unchanged)

    def operator():
        yield system.env.timeout(0.45)
        moved = sorted(pe.pe_id for pe in plane.groups[0].pes)[:2]
        system.migrate_pes([(pe_id, 3) for pe_id in moved])
        yield system.env.timeout(0.3)
        system.migrate_pes([(moved[0], 0)])

    system.env.process(operator())
    system.env.run(until=1.25)
    assert plane.epoch == 5
    return [
        {key: value for key, value in event.items() if key != "control_impl"}
        for event in recorder.events
        if event["kind"] in kinds
    ]


@pytest.mark.parametrize("variant", sorted(MEMBERSHIP_GOLDEN))
def test_every_membership_op_keeps_state_and_parity(variant):
    """An epoch regroups Tier-2 state and copies none of it: the flow
    controllers, token buckets and engine arrays a plane is built with
    are the ones it ends with, and both implementations emit the
    parent's exact decisions across join, migrate and leave."""
    runs = {
        impl: membership_drive(POLICY_VARIANTS[variant], impl)
        for impl in ("scalar", "vector")
    }
    assert runs["scalar"] == runs["vector"]
    payload = json.dumps(runs["scalar"], sort_keys=True).encode()
    assert (
        len(runs["scalar"]), hashlib.sha256(payload).hexdigest()
    ) == MEMBERSHIP_GOLDEN[variant]


def test_engine_tokens_equal_the_scalar_buckets_bit_for_bit():
    """The vector engine's token arrays hold exactly the scalar plane's
    bucket depths and levels: at construction, where a zero-target PE
    takes the 1e-9 depth floor, and after a Tier-1 refresh that lowers
    every depth below its banked level, which clamps the level."""
    topology = parity_topology()
    cpu = dict(
        solve_global_allocation(
            topology.graph, topology.placement, topology.source_rates
        ).targets.cpu
    )
    zero = sorted(cpu)[0]
    cpu[zero] = 0.0
    planes = {
        impl: SimulatedSystem(
            topology,
            AcesPolicy(),
            targets=AllocationTargets(dict(cpu)),
            config=SystemConfig(dt=DT, seed=5, control_impl=impl),
        )
        for impl in ("scalar", "vector")
    }

    def tokens(impl):
        plane = planes[impl].plane
        engine = plane._engine
        if engine is None:
            buckets = [plane.token_buckets[p] for p in ids]
            depths = [bucket.depth for bucket in buckets]
            levels = [bucket.level for bucket in buckets]
        else:
            index = [engine.registry.index[p] for p in ids]
            depths = engine.tok_depth[index].tolist()
            levels = engine.tok_level[index].tolist()
        return [x.hex() for x in depths], [x.hex() for x in levels]

    ids = sorted(cpu)
    built = tokens("scalar")
    assert built == tokens("vector")
    assert built[0][0] == (1e-9).hex()

    for system in planes.values():
        system.env.run(until=0.3)
    banked = tokens("scalar")
    assert banked == tokens("vector")
    lowered = AllocationTargets({p: share * 0.1 for p, share in cpu.items()})
    for system in planes.values():
        system.plane.adopt_targets(lowered)
    refreshed = tokens("scalar")
    assert refreshed == tokens("vector")
    clamped = [
        k for k, (before, depth) in enumerate(zip(banked[1], refreshed[0]))
        if float.fromhex(before) > float.fromhex(depth)
    ]
    assert clamped
    assert all(refreshed[1][k] == refreshed[0][k] for k in clamped)


def test_index_registry_is_node_major():
    class _PE:
        def __init__(self, pe_id):
            self.pe_id = pe_id

    class _Group:
        def __init__(self, pes):
            self.pes = pes

    a, b, c = _PE("a"), _PE("b"), _PE("c")
    groups = [_Group([a, b]), _Group([]), _Group([c])]
    registry = PEIndexRegistry(groups)
    registry.regroup(groups)
    assert registry.index == {"a": 0, "b": 1, "c": 2}
    assert len(registry) == 3
    # One contiguous slice per node, empty nodes included.
    assert registry.node_sel == [slice(0, 2), slice(2, 2), slice(2, 3)]
    assert registry.select((0, 1, 2)) == slice(0, 3)

    # A migration keeps every index; a node whose PEs are no longer
    # consecutive selects them by index array, in record order.
    groups = [_Group([b]), _Group([c, a]), _Group([])]
    registry.regroup(groups)
    assert registry.index == {"a": 0, "b": 1, "c": 2}
    assert registry.node_sel[0] == slice(1, 2)
    assert registry.node_sel[1].tolist() == [2, 0]
    assert registry.select((0, 1)).tolist() == [1, 2, 0]


# -- satellite: scalar-tick record dedupe --------------------------------


def test_control_record_downstream_ids_deduped():
    """ControlRecord.downstream_ids holds each downstream PE once, in
    first-seen order, even when the graph wires duplicate edges."""
    from repro.control.node import ControlRecord

    class _PE:
        def __init__(self, pe_id, downstream=()):
            self.pe_id = pe_id
            self.downstream = list(downstream)

    b, c = _PE("b"), _PE("c")
    record = ControlRecord(
        _PE("a", [b, c, b, c, b]), gate=None, controller=None, cpu_target=0.1
    )
    assert record.downstream_ids == ("b", "c")

    rebuilt = SimulatedSystem(
        parity_topology(),
        AcesPolicy(),
        config=SystemConfig(dt=0.01, warmup=0.1, seed=3),
    )
    for ctrl in rebuilt.plane.node_controllers:
        for rec in ctrl.records:
            assert len(rec.downstream_ids) == len(set(rec.downstream_ids))
            expected = tuple(
                dict.fromkeys(
                    d.pe_id for d in rebuilt.runtimes[rec.pe_id].downstream
                )
            )
            assert rec.downstream_ids == expected


def test_chaos_fault_injection_parity():
    """LossyFeedbackBus swap + node slowdown stay bit-exact: the engine
    reads and publishes through whatever bus the plane holds, in the
    scalar tick's order."""
    topology = parity_topology()
    reports = {}
    for impl in ("scalar", "vector"):
        plan = (
            FaultPlan()
            .feedback_loss(probability=0.5, start=0.2, duration=0.3)
            .node_slowdown(node_index=1, factor=0.5, start=0.3, duration=0.3)
            .feedback_delay(
                multiplier=3.0, start=0.7, duration=0.2, jitter=0.005
            )
        )
        system = SimulatedSystem(
            topology,
            AcesPolicy(),
            config=SystemConfig(
                dt=0.01, warmup=0.1, seed=3, control_impl=impl
            ),
        )
        plan.attach(system)
        reports[impl] = system.run(1.2)
    assert report_key(reports["scalar"]) == report_key(reports["vector"])


def test_suspend_resume_parity():
    topology = parity_topology()
    reports = {}
    for impl in ("scalar", "vector"):
        system = SimulatedSystem(
            topology,
            AcesPolicy(),
            config=SystemConfig(
                dt=0.01, warmup=0.1, seed=3, control_impl=impl
            ),
        )

        def pauser(system=system):
            yield system.env.timeout(0.3)
            system.plane.suspend_node(2)
            yield system.env.timeout(0.3)
            system.plane.resume_node(2)

        system.env.process(pauser())
        reports[impl] = system.run(1.0)
    assert report_key(reports["scalar"]) == report_key(reports["vector"])


def test_empty_node_group_runs():
    """A placement can leave a node with zero PEs; the vector tick must
    treat its (empty) group as a no-op, exactly like the scalar loop.
    Regression: fuzz seed 3 hit an IndexError building the group."""
    spec = TopologySpec(
        num_nodes=4,
        num_ingress=1,
        num_egress=1,
        num_intermediate=1,
        calibrate_rates=False,
    )
    topology = generate_topology(spec, np.random.default_rng(3))
    reports = {}
    for impl in ("scalar", "vector"):
        system = SimulatedSystem(
            topology,
            AcesPolicy(),
            config=SystemConfig(
                dt=0.01, warmup=0.1, seed=3, control_impl=impl
            ),
        )
        reports[impl] = system.run(0.6)
    assert report_key(reports["scalar"]) == report_key(reports["vector"])


def test_reoptimize_parity():
    """Tier-1 refreshes reach every kernel alike: the token fill rates,
    the strict weights and the gated weights all read the engine's one
    cpu_target array, and the traces stay byte-equal to the scalar's."""
    for variant in ("aces", "aces-strict", "lockstep"):
        recorders = {"scalar": MemoryRecorder(), "vector": MemoryRecorder()}
        reports = run_pair(
            POLICY_VARIANTS[variant],
            recorders=recorders,
            reoptimize_interval=0.3,
        )
        assert report_key(reports["scalar"]) == report_key(
            reports["vector"]
        ), variant
        events = {
            impl: [json.dumps(e, sort_keys=True) for e in recorder.events]
            for impl, recorder in recorders.items()
        }
        assert events["scalar"] == events["vector"], variant
        resolves = [
            e for e in recorders["vector"].events
            if e["kind"] == "tier1_resolve" and e["reason"] == "reoptimize"
        ]
        assert len(resolves) >= 2, variant
