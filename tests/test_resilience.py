"""Tests for the control-plane chaos harness and degradation guards.

Covers the Tier-1 validate/fallback wrapper, the lossy feedback-bus fault
wrapper, control-plane fault kinds end to end (simulator and threaded
runtime), fault validation (including directly constructed faults and
overlap rejection), and the resilience benchmark's MTTR machinery.
"""

import json
import threading

import numpy as np
import pytest

from repro.core.global_opt import GlobalOptimizationResult
from repro.core.feedback import FeedbackBus
from repro.core.policies import AcesPolicy, LockStepPolicy, UdpPolicy
from repro.core.resilience import (
    LossyFeedbackBus,
    ResilientTier1,
    Tier1Unavailable,
    validate_targets,
)
from repro.core.targets import AllocationTargets
from repro.experiments.matrix import write_bench
from repro.experiments.resilience import (
    SCENARIOS,
    chaos_system_config,
    mean_rate,
    measure_mttr,
    run_chaos_cell,
)
from repro.graph.topology import TopologySpec, generate_topology
from repro.obs.recorder import MemoryRecorder, TraceFilter
from repro.runtime.spc import (
    MAX_WORKER_RESTARTS,
    RuntimeConfig,
    SPCRuntime,
)
from repro.systems.faults import Fault, FaultPlan
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


def simple_targets(cpu=0.5):
    return AllocationTargets(
        cpu={"a": cpu}, rate_in={"a": 1.0}, rate_out={"a": 1.0}
    )


def good_result(targets=None):
    return GlobalOptimizationResult(
        targets=targets if targets is not None else simple_targets(),
        objective=1.0,
        solver="fake",
        iterations=1,
        converged=True,
        max_violation=0.0,
        messages=[],
    )


class TestValidateTargets:
    def test_valid_targets_pass(self):
        assert validate_targets(simple_targets(), {"a": 0}) == []

    def test_non_finite_rejected(self):
        targets = AllocationTargets(
            cpu={"a": float("nan")}, rate_in={"a": 1.0}, rate_out={"a": 1.0}
        )
        problems = validate_targets(targets)
        assert any("not finite" in p for p in problems)

    def test_negative_rejected(self):
        targets = AllocationTargets(
            cpu={"a": 0.5}, rate_in={"a": -1.0}, rate_out={"a": 1.0}
        )
        problems = validate_targets(targets)
        assert any("negative" in p for p in problems)

    def test_node_overcommit_rejected(self):
        targets = AllocationTargets(
            cpu={"a": 0.7, "b": 0.7},
            rate_in={"a": 1.0, "b": 1.0},
            rate_out={"a": 1.0, "b": 1.0},
        )
        problems = validate_targets(targets, {"a": 0, "b": 0})
        assert any("overcommitted" in p for p in problems)
        # Spread over two nodes the same shares are fine.
        assert validate_targets(targets, {"a": 0, "b": 1}) == []


class TestResilientTier1:
    def test_fallback_to_last_known_good(self):
        def broken(*args, **kwargs):
            raise RuntimeError("solver down")

        recorder = MemoryRecorder()
        tier1 = ResilientTier1(solver=broken, recorder=recorder)
        tier1.seed(simple_targets())
        result = tier1.solve(None, {}, {})
        assert result.solver == "fallback(seeded)"
        assert not result.converged
        assert result.targets.cpu == {"a": 0.5}
        assert tier1.fallbacks == 1
        assert recorder.counts.get("tier1_fallback") == 1
        event = next(
            e for e in recorder.events if e["kind"] == "tier1_fallback"
        )
        assert event["have_last_good"] is True

    def test_unavailable_without_last_good(self):
        def broken(*args, **kwargs):
            raise RuntimeError("solver down")

        tier1 = ResilientTier1(solver=broken)
        with pytest.raises(Tier1Unavailable):
            tier1.solve(None, {}, {})

    def test_insane_targets_trigger_fallback(self):
        def overcommitting(graph, placement, source_rates, **kwargs):
            return good_result(
                AllocationTargets(
                    cpu={"a": 0.9, "b": 0.9},
                    rate_in={"a": 1.0, "b": 1.0},
                    rate_out={"a": 1.0, "b": 1.0},
                )
            )

        tier1 = ResilientTier1(solver=overcommitting)
        tier1.seed(simple_targets())
        result = tier1.solve(None, {"a": 0, "b": 0}, {})
        assert result.solver == "fallback(seeded)"
        assert tier1.fallbacks == 1

    def test_inject_failure_hook(self):
        def fine(graph, placement, source_rates, **kwargs):
            return good_result()

        tier1 = ResilientTier1(solver=fine)
        tier1.seed(simple_targets())

        def outage():
            raise RuntimeError("injected")

        tier1.inject_failure = outage
        assert tier1.solve(None, {}, {}).solver == "fallback(seeded)"
        tier1.inject_failure = None
        assert tier1.solve(None, {}, {}).solver == "fake"


class TestLossyFeedbackBus:
    def test_parameter_validation(self):
        inner = FeedbackBus()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            LossyFeedbackBus(inner, rng, loss_probability=1.5)
        with pytest.raises(ValueError):
            LossyFeedbackBus(inner, rng, delay_multiplier=0.5)
        with pytest.raises(ValueError):
            LossyFeedbackBus(inner, rng, jitter=-1.0)

    def test_total_loss_drops_everything(self):
        inner = FeedbackBus()
        bus = LossyFeedbackBus(
            inner, np.random.default_rng(0), loss_probability=1.0
        )
        for i in range(10):
            bus.publish("c", float(i), now=0.1 * i)
        assert bus.lost == 10
        assert inner.publishes == 0
        assert bus.latest("c", 2.0) is None

    def test_partial_loss_lets_some_through(self):
        inner = FeedbackBus()
        bus = LossyFeedbackBus(
            inner, np.random.default_rng(0), loss_probability=0.5
        )
        for i in range(100):
            bus.publish("c", float(i), now=0.0)
        assert 0 < bus.lost < 100
        assert inner.publishes == 100 - bus.lost

    def test_delay_multiplier_stretches_visibility(self):
        inner = FeedbackBus(delay=0.1)
        bus = LossyFeedbackBus(
            inner, np.random.default_rng(0), delay_multiplier=3.0
        )
        bus.publish("c", 5.0, now=0.0)  # visible at ~0.3, not 0.1
        assert bus.latest("c", 0.15) is None
        assert bus.latest("c", 0.31) == 5.0

    def test_reads_and_counters_delegate(self):
        inner = FeedbackBus()
        bus = LossyFeedbackBus(inner, np.random.default_rng(0))
        bus.publish("c1", 10.0, 0.0)
        bus.publish("c2", 20.0, 0.0)
        assert bus.max_downstream_rate(["c1", "c2"], 0.0) == 20.0
        assert bus.min_downstream_rate(["c1", "c2"], 0.0) == 10.0
        assert bus.publishes == 2  # __getattr__ passthrough


class TestLossyBusUnderTheNodeTick:
    """The tick publishes through the batch entry point; a wrapper that
    let ``__getattr__`` forward it would silently skip the fault."""

    def make_system(self, control_impl):
        return SimulatedSystem(
            small_topology(), AcesPolicy(),
            config=SystemConfig(seed=7, warmup=0.0, control_impl=control_impl),
        )

    @pytest.mark.parametrize("control_impl", ["scalar", "vector"])
    def test_total_loss_publishes_nothing(self, control_impl):
        system = self.make_system(control_impl)
        inner = system.plane.bus
        system.plane.bus = LossyFeedbackBus(
            inner, np.random.default_rng(0), loss_probability=1.0
        )
        for controller in system.plane.node_controllers:
            controller.tick(0.01)
        pes = sum(len(c.records) for c in system.plane.node_controllers)
        assert pes > 0
        assert system.plane.bus.lost == pes
        assert inner.publishes == 0

    @pytest.mark.parametrize("control_impl", ["scalar", "vector"])
    def test_jitter_draws_once_per_pe_in_record_order(self, control_impl):
        system = self.make_system(control_impl)
        inner = system.plane.bus
        delivered = []
        publish = inner.publish

        def spy(pe_id, r_max, now, extra_delay=0.0):
            delivered.append((pe_id, extra_delay))
            publish(pe_id, r_max, now, extra_delay=extra_delay)

        inner.publish = spy
        system.plane.bus = LossyFeedbackBus(
            inner, np.random.default_rng(5), jitter=0.25
        )
        for controller in system.plane.node_controllers:
            controller.tick(0.01)
        record_order = [
            record.pe_id
            for controller in system.plane.node_controllers
            for record in controller.records
        ]
        twin = np.random.default_rng(5)
        assert delivered == [
            (pe_id, float(twin.random()) * 0.25) for pe_id in record_order
        ]


class TestFaultValidationSatellites:
    def make_system(self, seed=3):
        return SimulatedSystem(
            small_topology(seed=seed), AcesPolicy(),
            config=SystemConfig(seed=7, warmup=0.5),
        )

    def test_directly_constructed_fault_validated_at_attach(self):
        """Bypassing the builders must not bypass magnitude checks."""
        bad = Fault("node_slowdown", "0", start=1.0, duration=1.0,
                    magnitude=1.5)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            FaultPlan(faults=[bad]).attach(self.make_system())
        bad_loss = Fault("feedback_loss", "*", start=1.0, duration=1.0,
                         magnitude=2.0)
        with pytest.raises(ValueError, match="probability"):
            FaultPlan(faults=[bad_loss]).attach(self.make_system())

    def test_overlapping_same_resource_rejected(self):
        plan = FaultPlan()
        plan.node_slowdown(0, factor=0.5, start=1.0, duration=2.0)
        plan.node_slowdown(0, factor=0.8, start=2.0, duration=2.0)
        with pytest.raises(ValueError, match="overlapping"):
            plan.attach(self.make_system())

    def test_stall_and_crash_share_the_pe_gate(self):
        system = self.make_system()
        pe = next(iter(system.runtimes))
        plan = FaultPlan()
        plan.pe_stall(pe, start=1.0, duration=1.0)
        plan.pe_crash(pe, start=1.5, duration=1.0)
        with pytest.raises(ValueError, match="overlapping"):
            plan.attach(system)

    def test_adjacent_windows_allowed(self):
        plan = FaultPlan()
        plan.node_slowdown(0, factor=0.5, start=1.0, duration=1.0)
        plan.node_slowdown(0, factor=0.8, start=2.0, duration=1.0)
        plan.attach(self.make_system())  # no error

    def test_different_resources_compose(self):
        plan = FaultPlan()
        plan.node_slowdown(0, factor=0.5, start=1.0, duration=2.0)
        plan.feedback_loss(0.5, start=1.0, duration=2.0)
        plan.tier1_outage(start=1.0, duration=2.0)
        plan.attach(self.make_system())  # no error

    def test_unknown_node_rejected(self):
        plan = FaultPlan().controller_outage(99, start=1.0, duration=1.0)
        with pytest.raises(ValueError, match="no node"):
            plan.attach(self.make_system())


class TestControlPlaneFaultsEndToEnd:
    def run_faulted(self, build_plan, seed=3, duration=4.0, **config_kw):
        topology = small_topology(seed=seed)
        recorder = MemoryRecorder(
            trace_filter=TraceFilter.parse(
                "kind=fault|feedback_stale|tier1_fallback"
            )
        )
        params = dict(
            seed=7, warmup=1.0, dt=0.01,
            feedback_staleness_ttl=0.05,
        )
        params.update(config_kw)
        system = SimulatedSystem(
            topology, AcesPolicy(),
            config=SystemConfig(**params), recorder=recorder,
        )
        plan = FaultPlan()
        build_plan(plan, topology)
        plan.attach(system)
        report = system.run(duration)
        return system, report, recorder

    def test_feedback_loss_completes_with_stale_events(self):
        """Acceptance: heavy feedback loss degrades gracefully — the run
        completes, staleness decay fires, and output keeps flowing."""
        system, report, recorder = self.run_faulted(
            lambda plan, topo: plan.feedback_loss(
                0.9, start=1.5, duration=2.0
            )
        )
        assert report.weighted_throughput > 0
        assert recorder.counts.get("feedback_stale", 0) >= 1
        assert recorder.counts.get("fault") == 2  # applied + reverted
        assert system.plane.bus.stale_reads > 0
        assert not isinstance(system.plane.bus, LossyFeedbackBus)  # reverted

    def test_tier1_outage_serves_from_last_known_good(self):
        """Acceptance: with Tier-1 down, re-solves fall back to the last
        good targets and the system keeps serving."""
        system, report, recorder = self.run_faulted(
            lambda plan, topo: plan.tier1_outage(start=1.2, duration=2.0),
            reoptimize_interval=0.5,
        )
        assert report.weighted_throughput > 0
        assert system.tier1.fallbacks >= 1
        assert recorder.counts.get("tier1_fallback", 0) >= 1
        assert system.tier1.inject_failure is None  # reverted
        # After the window, re-solves succeed again.
        assert system.tier1.last_good is not None

    def test_controller_outage_suspends_and_recovers(self):
        system, report, recorder = self.run_faulted(
            lambda plan, topo: plan.controller_outage(
                0, start=1.5, duration=1.0
            )
        )
        assert report.weighted_throughput > 0
        assert recorder.counts.get("fault") == 2
        assert not any(system.plane.paused)  # resumed

    def test_pe_crash_loses_buffer_and_recovers(self):
        picked = {}

        def build(plan, topo):
            victim = topo.graph.intermediate_ids[0]
            picked["victim"] = victim
            plan.pe_crash(victim, start=2.0, duration=0.5)

        system, report, recorder = self.run_faulted(build)
        assert report.weighted_throughput > 0
        victim = system.runtimes[picked["victim"]]
        assert victim.buffer.telemetry.dropped > 0
        assert recorder.counts.get("fault") == 2

    def test_feedback_delay_jitter_completes(self):
        system, report, recorder = self.run_faulted(
            lambda plan, topo: plan.feedback_delay(
                5.0, start=1.5, duration=1.5, jitter=0.05
            )
        )
        assert report.weighted_throughput > 0
        assert recorder.counts.get("fault") == 2


class TestRuntimeSupervisor:
    def test_killed_worker_restarted_with_throughput(self):
        """Acceptance: a killed runtime worker is revived by the
        supervisor and the run still produces output."""
        topology = small_topology(seed=5)
        recorder = MemoryRecorder(
            trace_filter=TraceFilter.parse("kind=worker_restart")
        )
        runtime = SPCRuntime(
            topology, UdpPolicy(),
            config=RuntimeConfig(seed=3, warmup=0.4, dt=0.05),
            recorder=recorder,
        )
        victim = topology.graph.ingress_ids[0]
        plan = FaultPlan().pe_crash(victim, start=0.7, duration=0.2)
        injector = plan.attach(runtime)
        report = runtime.run(duration=1.6)

        assert report.worker_restarts >= 1
        assert runtime.pes[victim].generation >= 1
        assert report.total_output_sdos > 0
        assert recorder.counts.get("worker_restart", 0) >= 1
        event = next(
            e for e in recorder.events if e["kind"] == "worker_restart"
        )
        assert event["pe"] == victim
        # The injector's own clock: exactly the planned window.
        assert [(t, phase) for t, _, phase in injector.applied] == [
            (0.7, "applied"), (pytest.approx(0.9), "reverted"),
        ]

    def test_a_revival_the_stop_overtakes_is_a_no_op(self):
        """The supervisor checks the stop, then revives; ``run`` can
        stop every worker in between.  That revival does nothing, and
        ``run`` returns its report instead of raising."""
        topology = small_topology(seed=5)
        runtime = SPCRuntime(
            topology, UdpPolicy(),
            config=RuntimeConfig(seed=3, warmup=0.4, dt=0.05, dilation=0.25),
        )
        victim = topology.graph.ingress_ids[0]
        pe = runtime.pes[victim]
        restart, request_stop = pe.restart, pe.request_stop
        stopping = threading.Event()
        revived = []

        def request_stop_and_signal():
            request_stop()
            stopping.set()

        def restart_after_a_thread_switch():
            # The supervisor loses the CPU between its stop check and
            # the revival, until ``run`` has told every worker to stop.
            stopping.wait(timeout=5.0)
            revived.append(restart())
            return revived[-1]

        pe.request_stop = request_stop_and_signal
        pe.restart = restart_after_a_thread_switch
        # The worker dies when its current SDO ends, which at a small
        # CPU share can take over a model second.
        FaultPlan().pe_crash(victim, start=0.7, duration=0.2).attach(runtime)
        report = runtime.run(duration=3.0)

        assert revived == [False]
        assert report.worker_restarts == 0
        assert not pe.is_alive
        assert pe.generation == 0

    def test_a_worker_that_keeps_dying_is_abandoned(self):
        """Past its restart budget a worker stays dead; the run reports
        it and the other egress PEs keep producing."""
        topology = small_topology(seed=5)
        runtime = SPCRuntime(
            topology, UdpPolicy(),
            config=RuntimeConfig(seed=3, warmup=0.5, dt=0.05, dilation=0.5),
        )
        victim, *others = topology.graph.egress_ids
        pe = runtime.pes[victim]
        # Every revived thread dies as soon as it starts.
        pe._run = lambda: None
        FaultPlan().pe_crash(victim, start=0.3, duration=0.1).attach(runtime)
        report = runtime.run(duration=3.0)

        assert report.workers_abandoned == 1
        assert report.worker_restarts == MAX_WORKER_RESTARTS
        assert pe.generation == MAX_WORKER_RESTARTS
        assert not pe.is_alive
        assert others
        assert all(report.egress_detail[pe_id][1] > 0 for pe_id in others)

    def test_runtime_pe_stall_closes_and_restores_the_gate(self):
        topology = small_topology(seed=5)
        runtime = SPCRuntime(
            topology, LockStepPolicy(),
            config=RuntimeConfig(seed=3, warmup=0.5, dt=0.05, dilation=0.5),
        )
        victim = topology.graph.ingress_ids[0]
        pe = runtime.pes[victim]
        policy_gate = runtime.plane.gates[victim]
        injector = FaultPlan().pe_stall(
            victim, start=0.6, duration=0.6
        ).attach(runtime)
        closed = []

        def observer(live):
            if 0.7 < live.now() < 1.1:
                closed.append(live.plane.gates[victim](pe) is False)

        runtime.run(duration=1.0, observer=observer, observe_interval=0.25)
        assert closed and all(closed)
        assert runtime.plane.gates[victim] is policy_gate
        assert [phase for _, _, phase in injector.applied] == [
            "applied", "reverted",
        ]

    def test_runtime_applies_every_fault_kind(self):
        # The simulator's injector on the threaded runtime: all ten
        # kinds apply and revert on the runtime's model clock.
        topology = small_topology(seed=5)
        recorder = MemoryRecorder(trace_filter=TraceFilter.parse("kind=fault"))
        runtime = SPCRuntime(
            topology, AcesPolicy(),
            config=RuntimeConfig(seed=3, warmup=0.2, dt=0.05, dilation=0.5),
            recorder=recorder,
        )
        ingress = topology.graph.ingress_ids[0]
        victim = topology.graph.intermediate_ids[0]
        plan = (
            FaultPlan()
            .node_slowdown(0, factor=0.5, start=0.1, duration=0.3)
            .pe_stall(ingress, start=0.1, duration=0.3)
            .source_surge(ingress, factor=3.0, start=0.1, duration=0.3)
            .feedback_loss(0.5, start=0.1, duration=0.3)
            .tier1_outage(start=0.1, duration=0.3)
            .controller_outage(1, start=0.1, duration=0.3)
            .pe_crash(victim, start=0.5, duration=0.2)
            .feedback_delay(3.0, start=0.5, duration=0.2)
            .node_join(start=0.1, duration=0.3)
            .node_leave(2, start=0.5, duration=0.2)
        )
        injector = plan.attach(runtime)
        source = next(
            s for s in runtime.sources if s.stream_id == f"src:{ingress}"
        )
        seen = {}

        def observer(live):
            if "during" not in seen and live.now() < 0.4:
                seen["during"] = (
                    live.plane.schedulers[0].capacity,
                    source.rate,
                    live.plane.paused[1],
                    len(live.plane.groups),
                )

        runtime.run(duration=1.0, observer=observer, observe_interval=0.05)
        assert seen["during"] == (0.5, 3.0 * topology.source_rates[ingress],
                                  True, 4)
        phases = [(fault.kind, phase) for _, fault, phase in injector.applied]
        assert sorted(phases) == sorted(
            (fault.kind, phase)
            for fault in plan.faults
            for phase in ("applied", "reverted")
        )
        assert recorder.counts["fault"] == 20
        assert runtime.plane.schedulers[0].capacity == 1.0
        assert source.rate == topology.source_rates[ingress]
        assert not any(runtime.plane.paused)
        assert runtime.tier1.inject_failure is None
        assert len(runtime.plane.groups) == 3


class TestMTTRMachinery:
    def test_mean_rate_window(self):
        rates = [(0.5, 1.0), (1.0, 2.0), (1.5, 3.0), (2.0, 4.0)]
        assert mean_rate(rates, 0.5, 1.5) == pytest.approx(2.5)
        assert mean_rate(rates, 5.0, 6.0) == 0.0

    def test_mttr_immediate_recovery(self):
        rates = [(t, 10.0) for t in np.arange(0.5, 5.0, 0.5)]
        assert measure_mttr(rates, fault_end=2.0, pre_fault_rate=10.0) == (
            pytest.approx(0.5)
        )

    def test_mttr_delayed_recovery_with_smoothing(self):
        # Degraded until t=3.0, then back; smoothing over 3 bins means
        # the window mean crosses 90% a couple of bins later.
        rates = [(t, 2.0) for t in (2.5, 3.0)] + [
            (t, 10.0) for t in (3.5, 4.0, 4.5, 5.0)
        ]
        mttr = measure_mttr(rates, fault_end=2.0, pre_fault_rate=10.0)
        assert mttr == pytest.approx(2.5)

    def test_mttr_never_recovers(self):
        rates = [(t, 1.0) for t in np.arange(2.5, 6.0, 0.5)]
        assert measure_mttr(rates, fault_end=2.0, pre_fault_rate=10.0) == (
            float("inf")
        )

    def test_mttr_zero_pre_fault_rate(self):
        assert measure_mttr([], fault_end=1.0, pre_fault_rate=0.0) == 0.0


class TestChaosCells:
    def test_feedback_loss_cell_recovers(self):
        """Acceptance: a 50%-feedback-loss ACES cell completes with
        stale-feedback events and a finite MTTR."""
        topology = small_topology(seed=2)
        result = run_chaos_cell(
            topology=topology,
            policy=AcesPolicy(),
            scenario=SCENARIOS["feedback-loss"],
            config=chaos_system_config(seed=11, warmup=1.0),
            duration=4.0,
            fault_start=1.4,
            fault_duration=1.0,
        )
        assert result.error is None
        assert result.pre_fault_rate > 0
        assert result.recovered
        assert result.mttr != float("inf")
        assert result.events["fault"] == 2

    def test_tier1_outage_cell(self):
        topology = small_topology(seed=2)
        result = run_chaos_cell(
            topology=topology,
            policy=AcesPolicy(),
            scenario=SCENARIOS["tier1-outage"],
            config=chaos_system_config(seed=11, warmup=1.0),
            duration=4.0,
            fault_start=1.4,
            fault_duration=1.0,
        )
        assert result.error is None
        assert result.events["tier1_fallback"] >= 1
        assert result.weighted_throughput > 0

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_threaded_cell(self, scenario):
        # The same scenario on the threaded runtime: the simulator's
        # injector and sources through the thread-backed env, with the
        # relaxed oracles and the runtime's conservation ledger armed
        # (a violation would be the cell's error).
        result = run_chaos_cell(
            topology=small_topology(seed=2),
            policy=AcesPolicy(),
            scenario=SCENARIOS[scenario],
            config=RuntimeConfig(
                seed=11, warmup=0.5, dilation=0.25,
                feedback_staleness_ttl=0.5,
            ),
            duration=3.0,
            fault_start=1.0,
            fault_duration=0.75,
        )
        assert result.error is None
        assert result.events["fault"] == 2
        assert result.weighted_throughput > 0

    def test_bench_serialization_maps_inf_to_null(self, tmp_path):
        path = tmp_path / "bench.json"
        write_bench(
            {"cells": [{"mttr": float("inf"), "retention": 0.5}]},
            str(path),
        )
        data = json.loads(path.read_text())
        assert data["cells"][0]["mttr"] is None
        assert data["cells"][0]["retention"] == 0.5
