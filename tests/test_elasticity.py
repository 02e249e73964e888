"""Tier-3 elasticity: scaling policy, versioned placement, membership,
and live PE migration on both substrates.

The scripted tests arm the elastic tier with thresholds that can never
fire (dwell far beyond the run length) so membership changes only when
the test drives them.  Control loops are identity-keyed on every system,
armed or not, so they follow epoch rebuilds
(``tests/test_elastic_driver.py`` drives the disarmed substrates).
"""

import numpy as np
import pytest

from repro.check import OracleRecorder, check_conservation
from repro.control.elastic import (
    ElasticityConfig,
    PlacementBook,
    ScalingPolicy,
    plan_scale_in_placement,
    plan_scale_out_placement,
)
from repro.core.policies import policy_by_name
from repro.graph.topology import (
    TopologySpec,
    generate_topology,
    paper_calibration_spec,
)
from repro.runtime.spc import RuntimeConfig, SPCRuntime
from repro.systems.faults import FaultPlan
from repro.systems.simulated import SimulatedSystem, SystemConfig


def small_topology(seed=0, num_nodes=2, load_factor=1.0):
    spec = TopologySpec(
        num_nodes=num_nodes,
        num_ingress=2,
        num_egress=1,
        num_intermediate=5,
        load_factor=load_factor,
    )
    return generate_topology(spec, np.random.default_rng(seed))


def quiet_elasticity(**overrides):
    """An armed config whose autoscaler can never fire — membership
    changes only through explicit scripted calls."""
    defaults = dict(
        scale_out_pressure=0.99,
        scale_in_pressure=0.0,
        min_nodes=1,
        max_nodes=16,
        check_interval=0.5,
        dwell_intervals=10_000,
        cooldown=0.0,
        max_migrations_per_epoch=4,
        placement_evaluations=4,
    )
    defaults.update(overrides)
    return ElasticityConfig(**defaults)


def armed_system(policy="udp", seed=0, elasticity=None, recorder=None,
                 **config_overrides):
    topology = small_topology(seed=seed)
    config = SystemConfig(
        dt=0.02,
        seed=seed + 1,
        warmup=0.5,
        elasticity=elasticity if elasticity is not None else quiet_elasticity(),
        **config_overrides,
    )
    system = SimulatedSystem(
        topology, policy_by_name(policy), config=config, recorder=recorder
    )
    if recorder is not None:
        recorder.attach_plane(system.plane)
    return system


class TestScalingPolicy:
    def config(self, **overrides):
        defaults = dict(
            scale_out_pressure=0.8,
            scale_in_pressure=0.2,
            min_nodes=1,
            max_nodes=4,
            check_interval=0.5,
            dwell_intervals=3,
            cooldown=2.0,
        )
        defaults.update(overrides)
        return ElasticityConfig(**defaults)

    def test_dwell_requires_consecutive_observations(self):
        policy = ScalingPolicy(self.config())
        assert policy.observe(0.9, 0.0, 2, 0.9) == "hold"
        assert policy.observe(0.9, 0.5, 2, 0.9) == "hold"
        assert policy.observe(0.9, 1.0, 2, 0.9) == "scale_out"

    def test_in_band_reading_resets_the_streak(self):
        policy = ScalingPolicy(self.config())
        policy.observe(0.9, 0.0, 2, 0.9)
        policy.observe(0.9, 0.5, 2, 0.9)
        assert policy.observe(0.5, 1.0, 2, 0.5) == "hold"  # streak broken
        assert policy.observe(0.9, 1.5, 2, 0.9) == "hold"  # restart from 1
        assert policy.observe(0.9, 2.0, 2, 0.9) == "hold"
        assert policy.observe(0.9, 2.5, 2, 0.9) == "scale_out"

    def test_cooldown_suppresses_back_to_back_fires(self):
        policy = ScalingPolicy(self.config(dwell_intervals=1))
        assert policy.observe(0.9, 0.0, 2, 0.9) == "scale_out"
        assert policy.observe(0.9, 0.5, 3, 0.9) == "hold"  # cooling down
        assert policy.observe(0.9, 2.5, 3, 0.9) == "scale_out"

    def test_node_bounds_are_never_crossed(self):
        policy = ScalingPolicy(self.config(dwell_intervals=1, cooldown=0.0))
        assert policy.observe(0.9, 0.0, 4, 0.9) == "hold"  # at max_nodes
        assert policy.observe(0.1, 1.0, 1, 0.1) == "hold"  # at min_nodes

    def test_scale_in_uses_the_slack_signal(self):
        # Hot-spot pressure sits mid-band (one busy node) while the
        # cluster-wide slack signal is idle: scale-in must fire on slack.
        policy = ScalingPolicy(self.config(dwell_intervals=2, cooldown=0.0))
        assert policy.observe(0.5, 0.0, 3, slack_pressure=0.1) == "hold"
        assert (
            policy.observe(0.5, 0.5, 3, slack_pressure=0.1) == "scale_in"
        )
        assert policy.decisions[-1].pressure == pytest.approx(0.1)

    def test_hot_spot_beats_slack_when_both_trip(self):
        policy = ScalingPolicy(self.config(dwell_intervals=1, cooldown=0.0))
        assert (
            policy.observe(0.9, 0.0, 2, slack_pressure=0.1) == "scale_out"
        )

    def test_decisions_are_recorded(self):
        policy = ScalingPolicy(self.config(dwell_intervals=1))
        policy.observe(0.9, 1.0, 2, 0.9)
        (record,) = policy.decisions
        assert record.decision == "scale_out"
        assert record.t == 1.0
        assert record.num_nodes == 2


class TestPlacementBook:
    def test_epoch_zero_holds_the_initial_placement(self):
        book = PlacementBook({"pe-0": 0, "pe-1": 1}, 2)
        assert book.epoch == 0
        assert book.current.reason == "initial"
        assert book.placement == {"pe-0": 0, "pe-1": 1}

    def test_advance_bumps_epoch_and_diffs(self):
        book = PlacementBook({"pe-0": 0, "pe-1": 1}, 2)
        version = book.advance({"pe-0": 1, "pe-1": 1}, 2, "migration")
        assert book.epoch == 1
        assert version.migrations == (("pe-0", 0, 1),)
        assert book.placement["pe-0"] == 1

    def test_advance_preserves_key_order(self):
        book = PlacementBook({"pe-1": 0, "pe-0": 1}, 2)
        book.advance({"pe-0": 0, "pe-1": 1}, 2, "migration")
        assert list(book.placement) == ["pe-1", "pe-0"]


class TestPlacementPlans:
    def test_scale_out_targets_the_new_node(self):
        placement = {"pe-0": 0, "pe-1": 0, "pe-2": 1}
        load = {"pe-0": 3.0, "pe-1": 1.0, "pe-2": 2.0}
        result = plan_scale_out_placement(placement, 3, load, max_moves=1)
        # Hottest movable PE lands on the join; everyone else stays put.
        assert result == {"pe-0": 2, "pe-1": 0, "pe-2": 1}

    def test_scale_out_never_strands_a_singleton(self):
        placement = {"pe-0": 0, "pe-1": 1}
        load = {"pe-0": 3.0, "pe-1": 1.0}
        result = plan_scale_out_placement(placement, 3, load, max_moves=2)
        # Both PEs are alone on their nodes; moving either would drain
        # a node, so the plan must leave the placement untouched.
        assert result == placement

    def test_scale_in_returns_post_removal_indices(self):
        placement = {"pe-0": 0, "pe-1": 1, "pe-2": 2}
        load = {"pe-0": 1.0, "pe-1": 1.0, "pe-2": 1.0}
        plan = plan_scale_in_placement(placement, 3, victim=1, load=load)
        assert set(plan) == {"pe-0", "pe-1", "pe-2"}
        # Two nodes remain; every index must be post-removal valid.
        assert all(0 <= node < 2 for node in plan.values())


class TestSimulatedMigration:
    def test_migration_preserves_inflight_sdos(self):
        recorder = OracleRecorder(strict=True)
        system = armed_system(recorder=recorder)
        system.env.run(until=2.0)
        # Pick a resident PE with buffered work: its SDOs must ride the
        # handoff rather than being dropped or double-counted.
        mover = max(
            system.runtimes,
            key=lambda pe_id: system.runtimes[pe_id].buffer.occupancy,
        )
        occupancy = system.runtimes[mover].buffer.occupancy
        assert occupancy > 0
        source = system.placement_book.placement[mover]
        target = (source + 1) % len(system.nodes)
        version = system.migrate_pes([(mover, target)], reason="test")
        assert version is not None and version.epoch == 1
        record = system.migration_log[-1]
        assert record.handoff_occupancy == occupancy
        assert system.runtimes[mover].buffer.occupancy == occupancy
        system.env.run(until=4.0)
        assert check_conservation(system) == []
        assert record.downtime is not None and record.downtime >= 0.0

    def test_migration_during_pending_reoptimize(self):
        # Re-solve Tier 1, then immediately migrate one of the PEs the
        # fresh targets were computed for: the plane's adopted-targets
        # snapshot keys by the adoption-time placement, so the oracle
        # tolerates the transient mismatch and conservation still holds.
        recorder = OracleRecorder(strict=True)
        system = armed_system(recorder=recorder)
        system.env.run(until=2.0)
        result = system.plane.reoptimize(
            system.topology.graph,
            system.placement_book.placement,
            system.topology.source_rates,
            reason="test",
        )
        assert result is not None
        mover = max(result.targets.cpu, key=result.targets.cpu.get)
        source = system.placement_book.placement[mover]
        target = (source + 1) % len(system.nodes)
        assert system.migrate_pes([(mover, target)]) is not None
        system.env.run(until=4.0)
        assert check_conservation(system) == []

    def test_remove_node_hosting_ingress_refused_then_relocated(self):
        recorder = OracleRecorder(strict=True)
        system = armed_system(recorder=recorder)
        system.env.run(until=1.0)
        ingress = sorted(system.topology.source_rates)[0]
        victim = system.placement_book.placement[ingress]
        # Refusal: the node still hosts the source's ingress PE (among
        # others) — removal would orphan its channel.
        with pytest.raises(ValueError, match="migrate them off first"):
            system.remove_node(victim)
        # Relocate everything off the victim, then removal succeeds and
        # the sources keep producing into the relocated ingress.
        spare = (victim + 1) % len(system.nodes)
        moves = [
            (pe_id, spare)
            for pe_id, node in system.placement_book.placement.items()
            if node == victim
        ]
        assert system.migrate_pes(moves, reason="evacuate") is not None
        consumed_before = system.runtimes[ingress].counters.consumed
        removed = system.remove_node(victim)
        assert removed == f"node-{victim}"
        assert len(system.nodes) == 1
        system.env.run(until=3.0)
        assert system.runtimes[ingress].counters.consumed > consumed_before
        assert check_conservation(system) == []

    def test_reoptimize_plans_within_a_joined_node_capacity(self):
        # A node that joined at capacity 0.4 and took the four heaviest
        # PEs: the re-solve plans its targets within 0.4, not within the
        # unit capacity every original node has, and the strict oracles
        # find no target over a node's nominal capacity.
        topology = generate_topology(
            paper_calibration_spec(), np.random.default_rng(0)
        )
        recorder = OracleRecorder()
        system = SimulatedSystem(
            topology, policy_by_name("aces"),
            config=SystemConfig(elasticity=quiet_elasticity()),
            recorder=recorder,
        )
        recorder.attach(system)
        system.env.run(until=0.5)
        system.add_node(cpu_capacity=0.4)
        guest = len(system.nodes) - 1
        cpu = system.plane.targets.cpu
        heaviest = sorted(cpu, key=lambda pe_id: (-cpu[pe_id], pe_id))[:4]
        assert system.migrate_pes([(pe_id, guest) for pe_id in heaviest])
        system.elastic.reoptimize(topology.source_rates, "test")
        placement = system.placement_book.placement
        planned = sum(
            share for pe_id, share in system.plane.targets.cpu.items()
            if placement[pe_id] == guest
        )
        assert planned <= 0.4 + 1e-6
        system.env.run(until=1.0)
        recorder.finalize()
        assert recorder.violations == []

    def test_migrated_pe_tick_overlap_regression(self):
        # Phase-staggered node loops consume a PE's interpolated work
        # timeline up to (tick + dt); a freshly migrated PE ticked by
        # its new node inside that window used to rewind the service
        # state machine and crash the run.
        topology = small_topology(load_factor=1.0)
        config = SystemConfig(
            dt=0.02,
            seed=1,
            warmup=1.0,
            source_kind="flashcrowd",
            source_surge_start=5.5,
            source_surge_duration=4.5,
            source_surge_factor=5.0,
            elasticity=ElasticityConfig(
                scale_out_pressure=0.65,
                scale_in_pressure=0.3,
                min_nodes=2,
                max_nodes=5,
                check_interval=0.5,
                dwell_intervals=2,
                cooldown=1.5,
                max_migrations_per_epoch=4,
                placement_evaluations=12,
            ),
        )
        system = SimulatedSystem(
            topology, policy_by_name("udp"), config=config
        )
        system.run(10.0)  # crashed around t=8.51 before the clamp
        assert system.placement_book.epoch > 0
        assert check_conservation(system) == []


class TestAutoscaledRun:
    def test_armed_run_scales_and_stays_conservation_clean(self):
        recorder = OracleRecorder(strict=True)
        system = armed_system(
            policy="udp",
            recorder=recorder,
            elasticity=ElasticityConfig(
                scale_out_pressure=0.6,
                scale_in_pressure=0.05,
                min_nodes=2,
                max_nodes=4,
                check_interval=0.5,
                dwell_intervals=2,
                cooldown=1.0,
                max_migrations_per_epoch=4,
                placement_evaluations=8,
            ),
            source_kind="flashcrowd",
            source_surge_start=2.0,
            source_surge_duration=2.5,
            source_surge_factor=4.0,
        )
        report = system.run(6.0)
        assert system.placement_book.epoch > 0
        assert system.migration_log
        peak = max(count for _, count in system.elastic.timeline)
        assert peak > 2
        assert report.total_output_sdos > 0
        violations = list(recorder.finalize())
        violations.extend(check_conservation(system))
        assert violations == []
        # Membership timeline integration, not a frozen node count,
        # normalizes utilization.
        window = report.duration
        assert system.elastic.node_seconds(0.5, 0.5 + window) > 2 * window

    def test_no_sdo_is_stranded_outside_the_plane(self):
        system = armed_system()
        system.env.run(until=2.0)
        mover = sorted(system.runtimes)[0]
        target = (system.placement_book.placement[mover] + 1) % len(
            system.nodes
        )
        system.migrate_pes([(mover, target)])
        grouped = {
            pe.pe_id for group in system.plane.groups for pe in group.pes
        }
        assert set(system.runtimes) == grouped


class TestMembershipFaults:
    def test_disarmed_system_rides_out_join_and_leave(self):
        # No elastic tier: the node tickers still follow the churn, the
        # ledger still closes, and CPU use is normalized by integrated
        # node-seconds because membership moved.
        recorder = OracleRecorder(strict=True)
        system = SimulatedSystem(
            small_topology(), policy_by_name("udp"),
            config=SystemConfig(dt=0.02, seed=1, warmup=0.5),
            recorder=recorder,
        )
        recorder.attach_plane(system.plane)
        injector = (
            FaultPlan()
            .node_join(start=0.6, duration=0.4)
            .node_leave(0, start=1.2, duration=0.4)
            .attach(system)
        )
        report = system.run(2.0)
        assert [(f.kind, phase) for _, f, phase in injector.applied] == [
            ("node_join", "applied"), ("node_join", "reverted"),
            ("node_leave", "applied"), ("node_leave", "reverted"),
        ]
        assert [g.node_id for g in system.plane.groups] == [
            "node-1", "node-3",
        ]
        assert system.elastic.timeline == [
            (0.0, 2), (0.6, 3), (1.0, 2), (1.2, 1), (1.6, 2),
        ]
        assert len(system.migration_log) > 0
        violations = list(recorder.finalize())
        violations.extend(check_conservation(system))
        assert violations == []
        assert report.total_output_sdos > 0
        assert 0.0 < report.cpu_utilization <= 1.0


class TestThreadedMembership:
    def make_runtime(self, elasticity):
        topology = small_topology()
        return SPCRuntime(
            topology,
            policy_by_name("udp"),
            config=RuntimeConfig(
                seed=3, warmup=0.3, dt=0.05, elasticity=elasticity
            ),
        )

    def test_scripted_join_migrate_leave(self):
        runtime = self.make_runtime(quiet_elasticity())
        node_id = runtime.add_node()
        assert node_id == "node-2"
        assert len(runtime.plane.groups) == 3
        mover = sorted(runtime.pes)[0]
        origin = runtime.placement_book.placement[mover]
        version = runtime.migrate_pes([(mover, 2)], reason="test")
        assert version is not None
        assert version.migrations == ((mover, origin, 2),)
        assert runtime.placement_book.placement[mover] == 2
        # Threaded migration is plane-only — workers never stop
        # draining their channels, so recorded downtime is zero.
        assert runtime.migration_log[-1].downtime == 0.0
        with pytest.raises(ValueError, match="migrate them off first"):
            runtime.remove_node(2)
        runtime.migrate_pes([(mover, origin)], reason="undo")
        assert runtime.remove_node(2) == "node-2"
        assert len(runtime.plane.groups) == 2

    def test_scripted_membership_parity_with_simulator(self):
        # The same membership script applied to both substrates must
        # yield identical placement epochs and assignments.
        sim = armed_system()
        threaded = self.make_runtime(quiet_elasticity())

        sim.add_node()
        threaded.add_node()
        mover = sorted(sim.runtimes)[0]
        sim.migrate_pes([(mover, 2)], reason="parity")
        threaded.migrate_pes([(mover, 2)], reason="parity")

        assert sim.placement_book.epoch == threaded.placement_book.epoch
        assert (
            sim.placement_book.placement
            == threaded.placement_book.placement
        )
        assert [g.node_id for g in sim.plane.groups] == [
            g.node_id for g in threaded.plane.groups
        ]
