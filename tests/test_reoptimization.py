"""Tests for the periodic Tier-1 re-optimization loop."""

import numpy as np
import pytest

from repro.control.plane import ControlPlane, NodeGroup
from repro.core.cpu_control import StrictProportionalScheduler
from repro.core.policies import AcesPolicy, UdpPolicy
from repro.core.targets import AllocationTargets
from repro.graph.topology import TopologySpec, generate_topology
from repro.model.params import PEProfile
from repro.model.pe import PERuntime
from repro.systems.faults import FaultPlan
from repro.systems.simulated import SimulatedSystem, SystemConfig


def small_topology(seed=0, **overrides):
    params = dict(
        num_nodes=3,
        num_ingress=2,
        num_egress=2,
        num_intermediate=4,
        calibrate_rates=False,
    )
    params.update(overrides)
    return generate_topology(
        TopologySpec(**params), np.random.default_rng(seed)
    )


class TestSchedulerTargetUpdates:
    def make_pe(self, pe_id):
        return PERuntime(
            PEProfile(pe_id=pe_id), buffer_capacity=10,
            rng=np.random.default_rng(0),
        )

    def token_plane(self, target):
        """A one-PE ACES control plane (no substrate: nothing ticks)."""
        return ControlPlane(
            AcesPolicy(), None, [NodeGroup("n0", [self.make_pe("a")])],
            AllocationTargets({"a": target}), dt=0.01, b0=5.0,
        )

    def test_aces_scheduler_update(self):
        plane = self.token_plane(0.2)
        plane.adopt_targets(AllocationTargets({"a": 0.8}))
        [bucket] = plane.schedulers[0].buckets
        assert bucket is plane.token_buckets["a"]
        assert bucket.rate == 0.8
        assert bucket.depth == pytest.approx(0.8 * 0.01 * 20.0)

    def test_aces_update_clamps_banked_tokens(self):
        plane = self.token_plane(0.8)
        bucket = plane.token_buckets["a"]
        bucket.level = bucket.depth
        plane.adopt_targets(AllocationTargets({"a": 0.01}))
        assert bucket.level == bucket.depth == pytest.approx(0.01 * 0.01 * 20)

    def test_strict_scheduler_update(self):
        pe = self.make_pe("a")
        scheduler = StrictProportionalScheduler([pe], {"a": 0.2})
        scheduler.update_targets({"a": 0.9})
        assert scheduler.targets["a"] == 0.9

    def test_missing_target_becomes_zero(self):
        pe = self.make_pe("a")
        scheduler = StrictProportionalScheduler([pe], {"a": 0.2})
        scheduler.update_targets({})
        assert scheduler.targets["a"] == 0.0


class TestReoptimizeLoop:
    def test_interval_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(reoptimize_interval=0.0)

    def test_disabled_by_default(self):
        system = SimulatedSystem(
            small_topology(), UdpPolicy(),
            config=SystemConfig(seed=1, warmup=0.0),
        )
        system.env.run(until=3.0)
        assert system.plane.reoptimizations == 0

    def test_refresh_count_and_target_change(self):
        system = SimulatedSystem(
            small_topology(), AcesPolicy(),
            config=SystemConfig(
                seed=1, warmup=0.0, reoptimize_interval=1.0
            ),
        )
        original = dict(system.plane.targets.cpu)
        system.env.run(until=3.5)
        assert system.plane.reoptimizations == 3
        # Targets were re-derived from measured (noisy) rates.
        assert system.plane.targets.cpu != original

    def test_buckets_follow_refreshed_targets(self):
        system = SimulatedSystem(
            small_topology(), AcesPolicy(),
            config=SystemConfig(
                seed=1, warmup=0.0, reoptimize_interval=1.0
            ),
        )
        system.env.run(until=2.5)
        scheduler = system.plane.schedulers[0]
        for pe, bucket in zip(scheduler.pes, scheduler.buckets):
            expected = system.plane.targets.cpu.get(pe.pe_id, 0.0)
            assert bucket.rate == pytest.approx(expected)

    def test_adapts_to_surged_workload(self):
        """After a sustained source surge, the refreshed ingress target of
        the surged stream should not shrink while the surge persists."""
        topology = small_topology(load_factor=0.6)
        surged = sorted(topology.source_rates)[0]

        system = SimulatedSystem(
            topology, AcesPolicy(),
            config=SystemConfig(
                seed=1, warmup=0.0, reoptimize_interval=2.0
            ),
        )
        FaultPlan().source_surge(
            surged, factor=4.0, start=0.0, duration=8.0
        ).attach(system)
        system.env.run(until=7.9)
        assert system.plane.reoptimizations >= 3
        # The surged ingress PE's refreshed input-rate target reflects the
        # 4x measured rate (up to what the node can sustain).
        refreshed = system.plane.targets.rate_in[surged]
        original_rate = topology.source_rates[surged]
        assert refreshed > 1.2 * original_rate
