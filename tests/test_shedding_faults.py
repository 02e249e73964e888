"""Tests for the load-shedding baseline and fault injection."""

import inspect

import numpy as np
import pytest

from repro.core.policies import (
    AcesPolicy,
    LoadSheddingPolicy,
    UdpPolicy,
    policy_by_name,
)
from repro.graph.topology import TopologySpec, generate_topology
from repro.model.params import PEProfile
from repro.model.pe import PERuntime
from repro.model.sdo import SDO
from repro.model.workload import SOURCE_KINDS
from repro.systems.faults import Fault, FaultPlan
from repro.systems.simulated import SimulatedSystem, SystemConfig, run_system


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


class TestLoadSheddingPolicy:
    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            LoadSheddingPolicy(threshold=1.0)
        with pytest.raises(ValueError):
            LoadSheddingPolicy(threshold=-0.1)

    def test_registered_in_factory(self):
        assert isinstance(policy_by_name("shedding"), LoadSheddingPolicy)

    def test_admits_below_threshold(self):
        policy = LoadSheddingPolicy(threshold=0.5)
        pe = PERuntime(
            PEProfile(pe_id="p"), buffer_capacity=10,
            rng=np.random.default_rng(0),
        )
        admit = policy.make_admission_filter(pe)
        sdo = SDO(stream_id="s", origin_time=0.0)
        assert all(admit(pe, sdo) for _ in range(50))

    def test_always_sheds_at_full(self):
        policy = LoadSheddingPolicy(threshold=0.5)
        pe = PERuntime(
            PEProfile(pe_id="p"), buffer_capacity=4,
            rng=np.random.default_rng(0),
        )
        for _ in range(4):
            pe.ingest(SDO(stream_id="s", origin_time=0.0), 0.0)
        admit = policy.make_admission_filter(pe)
        sdo = SDO(stream_id="s", origin_time=0.0)
        assert not any(admit(pe, sdo) for _ in range(50))

    def test_partial_shedding_in_ramp(self):
        policy = LoadSheddingPolicy(threshold=0.0)
        pe = PERuntime(
            PEProfile(pe_id="p"), buffer_capacity=10,
            rng=np.random.default_rng(0),
        )
        for _ in range(5):
            pe.ingest(SDO(stream_id="s", origin_time=0.0), 0.0)
        admit = policy.make_admission_filter(pe)
        sdo = SDO(stream_id="s", origin_time=0.0)
        decisions = [admit(pe, sdo) for _ in range(400)]
        admitted = sum(decisions)
        assert 100 < admitted < 300  # ~50% drop probability

    def test_end_to_end_run(self):
        topology = small_topology(load_factor=2.0)
        report = run_system(
            topology,
            LoadSheddingPolicy(),
            duration=4.0,
            config=SystemConfig(seed=1, warmup=1.0),
        )
        assert report.total_output_sdos > 0
        assert report.buffer_drops > 0  # shedding shows up as drops

    def test_shedding_keeps_buffers_shorter_than_udp(self):
        topology = small_topology(load_factor=2.0)
        shed = run_system(
            topology, LoadSheddingPolicy(threshold=0.3), duration=5.0,
            config=SystemConfig(seed=1, warmup=1.0),
        )
        udp = run_system(
            topology, UdpPolicy(), duration=5.0,
            config=SystemConfig(seed=1, warmup=1.0),
        )
        assert shed.mean_buffer_occupancy < udp.mean_buffer_occupancy
        assert shed.latency.mean < udp.latency.mean


class TestFaultValidation:
    def test_fault_field_validation(self):
        with pytest.raises(ValueError):
            Fault("pe_stall", "x", start=-1.0, duration=1.0, magnitude=0.0)
        with pytest.raises(ValueError):
            Fault("pe_stall", "x", start=0.0, duration=0.0, magnitude=0.0)
        with pytest.raises(ValueError):
            Fault("pe_stall", "x", start=0.0, duration=1.0, magnitude=-1.0)

    def test_plan_validation(self):
        plan = FaultPlan()
        with pytest.raises(ValueError):
            plan.node_slowdown(0, factor=1.5, start=0.0, duration=1.0)
        with pytest.raises(ValueError):
            plan.source_surge("pe-0", factor=0.0, start=0.0, duration=1.0)

    def test_unknown_targets_rejected_at_attach(self):
        topology = small_topology()
        system = SimulatedSystem(
            topology, UdpPolicy(), config=SystemConfig(seed=1, warmup=0.0)
        )
        with pytest.raises(ValueError, match="no node"):
            FaultPlan().node_slowdown(99, 0.5, 1.0, 1.0).attach(system)
        with pytest.raises(ValueError, match="no PE"):
            FaultPlan().pe_stall("ghost", 1.0, 1.0).attach(system)
        with pytest.raises(ValueError, match="no source"):
            FaultPlan().source_surge("ghost", 2.0, 1.0, 1.0).attach(system)

    def test_unknown_kind_rejected(self):
        topology = small_topology()
        system = SimulatedSystem(
            topology, UdpPolicy(), config=SystemConfig(seed=1, warmup=0.0)
        )
        from repro.systems.faults import FaultInjector

        bad = Fault("cosmic_ray", "pe-0", 0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultInjector(system, [bad])


class TestFaultEffects:
    def make_system(self, policy=None, seed=3):
        topology = small_topology(seed=seed)
        return SimulatedSystem(
            topology,
            policy or AcesPolicy(),
            config=SystemConfig(seed=1, warmup=0.0),
        )

    def test_node_slowdown_applied_and_reverted(self):
        system = self.make_system()
        injector = (
            FaultPlan()
            .node_slowdown(0, factor=0.5, start=1.0, duration=2.0)
            .attach(system)
        )
        # The slowdown moves the live scheduler capacity only; the
        # nominal capacity Tier-1 budgets against never moves.
        seen = []
        for until in (0.5, 2.0, 4.0):
            system.env.run(until=until)
            seen.append(
                (system.plane.schedulers[0].capacity, system.nodes[0].cpu_capacity)
            )
        assert seen == [(1.0, 1.0), (0.5, 1.0), (1.0, 1.0)]
        assert len(injector.applied) == 2

    def test_node_leave_during_slowdown_rejoins_at_nominal(self):
        system = self.make_system()
        (
            FaultPlan()
            .node_slowdown(0, factor=0.5, start=0.5, duration=2.0)
            .node_leave(0, start=1.0, duration=0.5)
            .attach(system)
        )
        system.env.run(until=2.0)
        replacement = system.nodes[-1]
        index = system.plane.node_index(replacement.node_id)
        assert replacement.node_id == "node-3"
        assert replacement.cpu_capacity == 1.0
        assert system.plane.schedulers[index].capacity == 1.0

    def test_pe_stall_stops_processing(self):
        system = self.make_system()
        pe_id = system.topology.graph.ingress_ids[0]
        FaultPlan().pe_stall(pe_id, start=1.0, duration=2.0).attach(system)
        system.env.run(until=1.0)
        consumed_before = system.runtimes[pe_id].counters.consumed
        system.env.run(until=2.8)
        consumed_during = system.runtimes[pe_id].counters.consumed
        assert consumed_during == consumed_before
        system.env.run(until=6.0)
        assert system.runtimes[pe_id].counters.consumed > consumed_during

    def test_pe_stall_recovers_under_udp(self):
        """Baseline policies must also wake from a reverted stall."""
        system = self.make_system(policy=UdpPolicy())
        pe_id = system.topology.graph.ingress_ids[0]
        FaultPlan().pe_stall(pe_id, start=0.5, duration=1.0).attach(system)
        system.env.run(until=5.0)
        assert system.runtimes[pe_id].counters.consumed > 0

    def test_source_surge_increases_arrivals(self):
        system = self.make_system()
        ingress = sorted(system.topology.source_rates)[0]
        FaultPlan().source_surge(
            ingress, factor=5.0, start=0.0, duration=4.0
        ).attach(system)
        baseline = self.make_system()
        system.env.run(until=4.0)
        baseline.env.run(until=4.0)
        surged = next(
            s for s in system.sources if s.stream_id == f"src:{ingress}"
        )
        normal = next(
            s for s in baseline.sources if s.stream_id == f"src:{ingress}"
        )
        assert surged.stats.generated > 2 * normal.stats.generated

    @pytest.mark.parametrize("kind", SOURCE_KINDS)
    def test_source_surge_scales_the_rate_its_generator_reads(self, kind):
        system = SimulatedSystem(
            small_topology(seed=3),
            UdpPolicy(),
            config=SystemConfig(seed=1, warmup=0.0, source_kind=kind),
        )
        ingress = sorted(system.topology.source_rates)[0]
        source = next(
            s for s in system.sources if s.stream_id == f"src:{ingress}"
        )
        # The arrival code is every method the source's class defines
        # besides the constructor; it must read exactly one of the two.
        generator = "".join(
            inspect.getsource(member)
            for name, member in vars(type(source)).items()
            if inspect.isfunction(member) and name != "__init__"
        )
        read = [
            attr for attr in ("rate", "peak_rate")
            if f"self.{attr}" in generator
        ]
        assert len(read) == 1, (kind, read)
        attr = read[0]
        original = getattr(source, attr)
        FaultPlan().source_surge(
            ingress, factor=3.0, start=0.5, duration=0.5
        ).attach(system)
        system.env.run(until=0.75)
        assert getattr(source, attr) == original * 3.0
        system.env.run(until=1.25)
        assert getattr(source, attr) == original

    @pytest.mark.parametrize("kind", SOURCE_KINDS)
    def test_source_surge_spanning_a_period_raises_generation(self, kind):
        def generated(surge):
            system = SimulatedSystem(
                small_topology(seed=3),
                UdpPolicy(),
                config=SystemConfig(seed=1, warmup=0.0, source_kind=kind),
            )
            ingress = sorted(system.topology.source_rates)[0]
            if surge:
                # The square-wave period is mean_on / duty = 1 s.
                FaultPlan().source_surge(
                    ingress, factor=3.0, start=1.0, duration=2.0
                ).attach(system)
            system.env.run(until=4.0)
            return next(
                s.stats.generated for s in system.sources
                if s.stream_id == f"src:{ingress}"
            )

        assert generated(surge=True) > generated(surge=False), kind

    def test_system_survives_combined_faults(self):
        system = self.make_system()
        pe_id = system.topology.graph.ingress_ids[0]
        (
            FaultPlan()
            .node_slowdown(1, factor=0.3, start=0.5, duration=1.0)
            .pe_stall(pe_id, start=1.0, duration=0.5)
            .source_surge(pe_id, factor=3.0, start=2.0, duration=1.0)
            .attach(system)
        )
        report = system.run(4.0)
        assert report.total_output_sdos > 0
