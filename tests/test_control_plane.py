"""Tests for the repro.control package: policy hooks, shims, plane state.

Covers the satellite guarantees of the control-plane extraction:

* policy factories (gate, admission filter, scheduler) resolve through
  :class:`~repro.control.plane.ControlPlane` hook points and behave;
* feedback aggregation (Eq. 8 max vs min ablation) is resolved exactly
  once, in the plane — never re-derived per tick;
* the plane's operational surface (``set_gate`` / ``suspend_node`` /
  ``resume_node``) reaches the live control records and tick loops (the
  chaos harness depends on it);
* ``run_system`` / ``run_runtime`` keep their public signatures.
"""

import inspect

import numpy as np
import pytest

from repro.control import ControlPlane, NodeController
from repro.core.policies import (
    AcesPolicy,
    LoadSheddingPolicy,
    LockStepPolicy,
    UdpPolicy,
)
from repro.graph.topology import TopologySpec, generate_topology
from repro.model.sdo import SDO
from repro.model.workload import SOURCE_KINDS
from repro.runtime.spc import RuntimeConfig, SPCRuntime, run_runtime
from repro.systems.simulated import SimulatedSystem, SystemConfig, run_system


def small_topology(seed=0, **spec_overrides):
    params = dict(
        num_nodes=3,
        num_ingress=2,
        num_egress=2,
        num_intermediate=4,
        calibrate_rates=False,
    )
    params.update(spec_overrides)
    spec = TopologySpec(**params)
    return generate_topology(spec, np.random.default_rng(seed))


def build_system(policy, **config_overrides):
    params = dict(seed=1, warmup=0.5, dt=0.02)
    params.update(config_overrides)
    return SimulatedSystem(
        small_topology(), policy, config=SystemConfig(**params)
    )


class CountingAcesPolicy(AcesPolicy):
    """Counts aggregate_feedback() resolutions (must be exactly one)."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.aggregate_calls = 0

    def aggregate_feedback(self):
        self.aggregate_calls += 1
        return super().aggregate_feedback()


class TestAggregationResolvedOnce:
    def test_resolved_once_at_construction(self):
        policy = CountingAcesPolicy()
        system = build_system(policy)
        assert policy.aggregate_calls == 1
        system.run(0.5)
        # Hundreds of control ticks later: still the single resolution.
        assert policy.aggregate_calls == 1

    def test_resolved_once_in_runtime(self):
        policy = CountingAcesPolicy()
        SPCRuntime(
            small_topology(), policy, config=RuntimeConfig(seed=1)
        )
        assert policy.aggregate_calls == 1

    def test_min_ablation_reaches_plane(self):
        system = build_system(AcesPolicy(aggregation="min"))
        assert system.plane.aggregate_max is False
        assert all(
            c.aggregate_max is False
            for c in system.plane.node_controllers
        )

    def test_non_feedback_policy_never_asks(self):
        policy = LockStepPolicy()
        calls = []
        original = policy.aggregate_feedback
        policy.aggregate_feedback = lambda: calls.append(1) or original()
        system = build_system(policy)
        system.run(0.3)
        assert calls == []


class TestGateHookPoint:
    def test_lockstep_gate_blocks_on_full_downstream(self):
        system = build_system(LockStepPolicy())
        plane = system.plane
        # Find a PE with downstream consumers.
        pe = next(
            r for r in system.runtimes.values() if r.downstream
        )
        gate = plane.gates[pe.pe_id]
        assert gate is not None
        assert gate(pe) is True  # all buffers empty: clear to process
        consumer = pe.downstream[0]
        for i in range(consumer.buffer.capacity):
            consumer.ingest(SDO(stream_id="t", origin_time=0.0), 0.0)
        assert gate(pe) is False  # a full downstream blocks min-flow

    def test_feedback_policies_have_no_gates(self):
        system = build_system(AcesPolicy())
        assert all(g is None for g in system.plane.gates.values())

    def test_gate_travels_into_control_records(self):
        system = build_system(LockStepPolicy())
        for controller in system.plane.node_controllers:
            for record in controller.records:
                assert record.gate is system.plane.gates[record.pe_id]


class TestAdmissionHookPoint:
    def test_shedding_filter_installed_for_every_pe(self):
        system = build_system(LoadSheddingPolicy(threshold=0.5))
        filters = system.plane.admission_filters
        assert set(filters) == set(system.runtimes)
        assert all(f is not None for f in filters.values())

    def test_other_policies_install_no_filter(self):
        for policy in (AcesPolicy(), UdpPolicy(), LockStepPolicy()):
            system = build_system(policy)
            assert all(
                f is None
                for f in system.plane.admission_filters.values()
            )

    def test_filter_admits_below_threshold(self):
        system = build_system(LoadSheddingPolicy(threshold=0.5))
        pe = next(iter(system.runtimes.values()))
        admit = system.plane.admission_filters[pe.pe_id]
        assert pe.buffer.occupancy == 0
        sdo = SDO(stream_id="t", origin_time=0.0)
        assert all(admit(pe, sdo) for _ in range(50))

    def test_filter_sheds_as_buffer_fills(self):
        system = build_system(LoadSheddingPolicy(threshold=0.2, seed=7))
        pe = next(iter(system.runtimes.values()))
        # Fill to one below capacity: drop probability approaches 1.
        for _ in range(pe.buffer.capacity - 1):
            pe.ingest(SDO(stream_id="t", origin_time=0.0), 0.0)
        admit = system.plane.admission_filters[pe.pe_id]
        sdo = SDO(stream_id="t", origin_time=0.0)
        decisions = [admit(pe, sdo) for _ in range(200)]
        assert decisions.count(False) > 150

    def test_dataplane_counts_shed_drops(self):
        system = build_system(LoadSheddingPolicy(threshold=0.1, seed=3))
        pe = next(iter(system.runtimes.values()))
        for _ in range(pe.buffer.capacity - 1):
            pe.ingest(SDO(stream_id="t", origin_time=0.0), 0.0)
        before = system.dataplane.shed_drops
        for _ in range(100):
            system.dataplane.admit(
                pe, SDO(stream_id="t", origin_time=0.0), 0.0
            )
        assert system.dataplane.shed_drops > before

    def test_shedding_end_to_end_run(self):
        report = run_system(
            small_topology(),
            LoadSheddingPolicy(threshold=0.3),
            duration=1.0,
            config=SystemConfig(seed=2, warmup=0.5),
        )
        assert report.policy == "shedding"
        assert report.total_output_sdos > 0


class TestOperationalSurface:
    def test_set_gate_reaches_live_record(self):
        system = build_system(AcesPolicy())
        pe_id = next(iter(system.runtimes))
        sentinel = lambda pe: False  # noqa: E731
        system.plane.set_gate(pe_id, sentinel)
        assert system.plane.gates[pe_id] is sentinel
        # ...and into the live control record the tick loop reads.
        record = next(
            r
            for c in system.plane.node_controllers
            for r in c.records
            if r.pe_id == pe_id
        )
        assert record.gate is sentinel
        system.plane.set_gate(pe_id, None)
        assert record.gate is None

    def test_suspend_resume_flip_pause_flags(self):
        system = build_system(AcesPolicy())
        assert system.plane.paused == [False] * len(system.nodes)
        system.plane.suspend_node(1)
        assert system.plane.paused[1] is True
        system.plane.resume_node(1)
        assert system.plane.paused[1] is False

    def test_suspended_node_skips_ticks(self):
        system = build_system(AcesPolicy())
        system.plane.suspend_node(0)
        system.run(0.3)
        assert system.plane.node_controllers[0].ticks == 0
        assert system.plane.node_controllers[1].ticks > 0

    def test_bus_swap_reaches_controllers(self):
        """Fault injection swaps plane.bus; ticks must see the new bus."""
        system = build_system(AcesPolicy())

        class Probe:
            def __init__(self, inner):
                self.inner = inner
                self.reads = 0

            def read_bounds(self, groups, now, aggregate_max):
                self.reads += 1
                return self.inner.read_bounds(groups, now, aggregate_max)

            def __getattr__(self, name):
                return getattr(self.inner, name)

        probe = Probe(system.plane.bus)
        system.plane.bus = probe
        system.run(0.2)
        assert probe.reads > 0

    def test_run_system_signature_stable(self):
        names = list(inspect.signature(run_system).parameters)
        assert names == [
            "topology",
            "policy",
            "duration",
            "targets",
            "config",
            "recorder",
            "profiler",
            "gauge_cadence",
            "spans",
        ]

    def test_run_runtime_signature_stable(self):
        names = list(inspect.signature(run_runtime).parameters)
        assert names == [
            "topology",
            "policy_name",
            "duration",
            "targets",
            "config",
            "recorder",
            "spans",
        ]


class TestPlaneState:
    def test_targets_identity_preserved(self):
        from repro.core.global_opt import solve_global_allocation

        topology = small_topology()
        targets = solve_global_allocation(
            topology.graph, topology.placement, topology.source_rates
        ).targets
        system = SimulatedSystem(
            topology, AcesPolicy(), targets=targets
        )
        assert system.plane.targets is targets

    def test_one_controller_per_node(self):
        system = build_system(AcesPolicy())
        assert len(system.plane.node_controllers) == len(system.nodes)
        assert all(
            isinstance(c, NodeController)
            for c in system.plane.node_controllers
        )

    def test_adopt_targets_refreshes_records(self):
        system = build_system(AcesPolicy())
        new_cpu = {
            pe_id: 0.123 for pe_id in system.runtimes
        }
        new_targets = type(system.plane.targets)(cpu=new_cpu)
        system.plane.adopt_targets(new_targets)
        assert system.plane.targets is new_targets
        for controller in system.plane.node_controllers:
            for record in controller.records:
                assert record.cpu_target == 0.123

    @pytest.mark.parametrize(
        "bad", ["unknown-pe", "target-out-of-range"]
    )
    def test_rejected_migration_leaves_the_plane_untouched(self, bad):
        plane = build_system(AcesPolicy()).plane
        before = [[pe.pe_id for pe in group.pes] for group in plane.groups]
        source = next(i for i, group in enumerate(plane.groups) if group.pes)
        mover = plane.groups[source].pes[0].pe_id
        good = (mover, (source + 1) % len(plane.groups))
        bad_move = (
            ("no-such-pe", 0) if bad == "unknown-pe"
            else (mover, len(plane.groups))
        )
        with pytest.raises(ValueError):
            plane.migrate_pes([good, bad_move])
        # Validated as a set: the good move before the bad one was not
        # applied, and no epoch ran.
        after = [[pe.pe_id for pe in group.pes] for group in plane.groups]
        records = [
            [record.pe_id for record in controller.records]
            for controller in plane.node_controllers
        ]
        assert after == before == records
        assert plane.epoch == 0

    def test_plane_without_tier1_refuses_reoptimize(self):
        # Both substrates wire a ResilientTier1 in (ControlStack); a
        # plane built bare, without one, must refuse instead of crash.
        system = build_system(AcesPolicy())
        assert system.plane.tier1 is system.tier1
        bare = ControlPlane(
            AcesPolicy(),
            system.adapter,
            groups=system.plane.groups,
            targets=system.plane.targets,
            dt=0.02,
            b0=25.0,
        )
        assert bare.tier1 is None
        with pytest.raises(RuntimeError, match="without a Tier-1 solver"):
            bare.reoptimize(
                system.topology.graph, system.topology.placement, {}
            )

    def test_repr(self):
        system = build_system(AcesPolicy())
        text = repr(system.plane)
        assert "aces" in text
        assert repr(system.plane.node_controllers[0]).startswith(
            "NodeController("
        )


SHARED_FIELD_CASES = [
    ({"dt": 0.0}, "dt must be positive"),
    ({"dt": -0.01}, "dt must be positive"),
    ({"warmup": -1.0}, "warmup must be >= 0"),
    ({"buffer_size": 0}, "buffer_size must be positive"),
    ({"b0_fraction": 1.5}, "b0_fraction"),
    ({"feedback_staleness_ttl": 0.0}, "feedback_staleness_ttl"),
    ({"control_impl": "simd"}, "control_impl"),
]
RUNTIME_FIELD_CASES = [
    ({"dilation": 0.0}, "dilation must be positive"),
    ({"source_kind": "fractal"}, "unknown source_kind 'fractal'"),
]


@pytest.mark.parametrize(
    "config_cls, kwargs, match",
    [
        (cls, kwargs, match)
        for cls in (SystemConfig, RuntimeConfig)
        for kwargs, match in SHARED_FIELD_CASES
    ]
    + [(RuntimeConfig, kwargs, match) for kwargs, match in RUNTIME_FIELD_CASES],
)
def test_config_validation_is_shared_and_complete(config_cls, kwargs, match):
    # dt and warmup are ControlConfig's: declared, documented and
    # validated once, with each substrate keeping its own default.
    assert (SystemConfig().dt, SystemConfig().warmup) == (0.01, 5.0)
    assert (RuntimeConfig().dt, RuntimeConfig().warmup) == (0.05, 1.0)
    with pytest.raises(ValueError, match=match):
        config_cls(**kwargs)
    # Both substrates run every source model.
    for source_kind in SOURCE_KINDS:
        assert RuntimeConfig(source_kind=source_kind).source_kind == source_kind
