"""The invariant oracles: clean runs stay silent, injected bugs get caught.

The oracle subsystem is only trustworthy if it is quiet on correct
systems *and* loud on broken ones, so every invariant is tested from
both sides: full simulated runs under all three policies must produce
zero violations, and targeted corruptions (a dropped Eq. 7 clip, a
grant over the Eq. 8 cap, an over-capacity allocation round) must each
trip exactly the right oracle.
"""

import numpy as np
import pytest

from repro.check import InvariantViolation, OracleRecorder, check_conservation
from repro.control import node as control_node
from repro.core.policies import policy_by_name
from repro.graph.topology import TopologySpec, generate_topology
from repro.obs.recorder import MemoryRecorder
from repro.systems.faults import FaultPlan
from repro.systems.simulated import SimulatedSystem, SystemConfig


def small_topology(seed=7):
    spec = TopologySpec(
        num_nodes=2,
        num_ingress=1,
        num_egress=1,
        num_intermediate=3,
        calibrate_rates=False,
    )
    return generate_topology(spec, np.random.default_rng(seed))


def build_checked_system(policy_name, topology=None, **config_kwargs):
    recorder = OracleRecorder()
    system = SimulatedSystem(
        topology if topology is not None else small_topology(),
        policy_by_name(policy_name),
        config=SystemConfig(warmup=0.0, seed=3, dt=0.02, **config_kwargs),
        recorder=recorder,
    )
    recorder.attach_plane(system.plane)
    return system, recorder


class TestCleanRuns:
    @pytest.mark.parametrize("policy_name", ["aces", "udp", "lockstep"])
    def test_no_violations_on_healthy_system(self, policy_name):
        system, recorder = build_checked_system(policy_name)
        system.run(2.0)
        assert recorder.finalize() == []
        assert recorder.ok
        assert check_conservation(system) == []
        # The oracle actually saw the control traffic.
        assert recorder.counts["cpu_grant"] > 0

    def test_no_violations_under_faults(self):
        system, recorder = build_checked_system("aces")
        plan = FaultPlan()
        plan.node_slowdown(0, factor=0.5, start=0.4, duration=0.5)
        plan.pe_crash("pe-2", start=1.0, duration=0.4)
        plan.attach(system)
        system.run(2.0)
        assert recorder.finalize() == []
        assert check_conservation(system) == []

    def test_sink_forwarding(self):
        sink = MemoryRecorder()
        recorder = OracleRecorder(sink=sink)
        system = SimulatedSystem(
            small_topology(),
            policy_by_name("aces"),
            config=SystemConfig(warmup=0.0, seed=3, dt=0.02),
            recorder=recorder,
        )
        recorder.attach_plane(system.plane)
        system.run(0.5)
        assert recorder.ok
        assert len(sink.events) == sum(recorder.counts.values()) > 0

    def test_events_before_attach_are_tolerated(self):
        # Systems emit bootstrap events (initial Tier-1 solve) before the
        # plane exists; the oracle must only do payload-level checks then.
        recorder = OracleRecorder()
        recorder.emit("r_max", pe="pe-0", r_max=1.0, occupancy=0.0, rho=1.0)
        recorder.emit("tier1_resolve", trigger="initial", converged=True)
        assert recorder.ok


def _update_without_clip(self, occupancy, rho):
    """FlowController.update with the Eq. 7 ``[.]+`` clip removed."""
    self._deviations.appendleft(occupancy - self.b0)
    r_max = rho
    for lam, dev in zip(self.gains.lambdas, self._deviations):
        r_max -= lam * dev
    for mu, sur in zip(self.gains.mus, self._surpluses):
        r_max -= mu * sur
    free = max(0.0, self.capacity - occupancy)
    ceiling = free / self._dt + rho
    if r_max > ceiling:
        r_max = ceiling
    self._surpluses.appendleft(r_max - rho)
    self.last_r_max = r_max
    self.updates += 1
    return r_max


def _update_without_surplus_terms(self, occupancy, rho):
    """FlowController.update ignoring the rate-history (mu) terms."""
    self._deviations.appendleft(occupancy - self.b0)
    r_max = rho
    for lam, dev in zip(self.gains.lambdas, self._deviations):
        r_max -= lam * dev
    if r_max < 0.0:
        r_max = 0.0
    free = max(0.0, self.capacity - occupancy)
    ceiling = free / self._dt + rho
    if r_max > ceiling:
        r_max = ceiling
    self._surpluses.appendleft(r_max - rho)
    self.last_r_max = r_max
    self.updates += 1
    return r_max


def inject_update(monkeypatch, update):
    """Make the node tick's Eq. 7 pass run ``update`` for every PE.

    The tick calls the batch routine ``update_rows`` (bound by name in
    :mod:`repro.control.node`), not ``FlowController.update``; a buggy
    one-PE ``update`` is injected as the batch that loops over it.
    """

    def update_rows(rows, occupancies, rhos):
        return [
            update(row[0], occupancy, rho)
            for row, occupancy, rho in zip(rows, occupancies, rhos)
        ]

    monkeypatch.setattr(control_node, "update_rows", update_rows)


class TestInjectedBugs:
    def test_dropped_clip_is_caught(self, monkeypatch):
        inject_update(monkeypatch, _update_without_clip)
        system, recorder = build_checked_system("aces")
        # The feedback bus independently rejects negative r_max, so the
        # run dies — but the oracle has already seen the bad event.
        with pytest.raises(ValueError):
            system.run(2.0)
        assert recorder.violation_counts["r_max_nonnegative"] >= 1

    def test_dropped_surplus_terms_are_caught(self, monkeypatch):
        inject_update(monkeypatch, _update_without_surplus_terms)
        system, recorder = build_checked_system("aces")
        system.run(2.0)
        assert recorder.violation_counts["r_max_law"] >= 1
        violation = recorder.violations[0]
        assert violation.equation == "Eq. 7"
        assert violation.pe is not None


class TestSyntheticEvents:
    """Drive single oracles with hand-crafted events."""

    def attach(self, recorder):
        system = SimulatedSystem(
            small_topology(),
            policy_by_name("aces"),
            config=SystemConfig(warmup=0.0, seed=3, dt=0.02),
            recorder=recorder,
        )
        recorder.attach_plane(system.plane)
        return system

    def test_token_bucket_bounds(self):
        recorder = OracleRecorder()
        recorder.emit(
            "token_bucket", pe="pe-0", node="node-0",
            level=5.0, rate=1.0, depth=2.0,
        )
        recorder.emit(
            "token_bucket", pe="pe-0", node="node-0",
            level=-1.0, rate=1.0, depth=2.0,
        )
        assert recorder.violation_counts["token_cap"] == 1
        assert recorder.violation_counts["token_nonnegative"] == 1

    def test_negative_grant(self):
        recorder = OracleRecorder()
        recorder.emit("cpu_grant", pe="pe-0", node="node-0", cpu=-0.5, dt=0.02)
        assert recorder.violation_counts["cpu_grant_nonnegative"] == 1

    def test_buffer_occupancy_bounds(self):
        recorder = OracleRecorder()
        recorder.emit(
            "buffer_occupancy", pe="pe-0", occupancy=60, capacity=50
        )
        assert recorder.violation_counts["buffer_bounds"] == 1

    def test_node_capacity_sum(self):
        recorder = OracleRecorder()
        system = self.attach(recorder)
        plane = system.plane
        index, group = next(
            (index, group)
            for index, group in enumerate(plane.groups)
            if group.pes
        )
        node_id, size = group.node_id, len(group.pes)
        capacity = plane.schedulers[index].capacity
        pe_ids = [pe.pe_id for pe in group.pes]
        # One full allocation round where every PE gets the whole node.
        for pe_id in pe_ids[:size]:
            recorder.emit(
                "cpu_grant", pe=pe_id, node=node_id, cpu=capacity, dt=0.02
            )
        if size > 1:
            assert recorder.violation_counts["node_capacity"] == 1
        else:  # a single grant of exactly `capacity` is legal
            assert recorder.violation_counts["node_capacity"] == 0

    def test_feedback_cap(self):
        recorder = OracleRecorder()
        system = self.attach(recorder)
        group = next(group for group in system.plane.groups if group.pes)
        pe_id, node_id = group.pes[0].pe_id, group.node_id
        # A grant far above g^-1 of a tiny advertised rate.
        recorder.emit(
            "cpu_grant", pe=pe_id, node=node_id,
            cpu=1.0, dt=0.02, cap_rate=1e-6,
        )
        assert recorder.violation_counts["feedback_cap"] == 1
        # Unconstrained downstream (cap_rate None) only bounds by capacity.
        recorder.violation_counts.clear()
        recorder.emit(
            "cpu_grant", pe=pe_id, node=node_id,
            cpu=0.5, dt=0.02, cap_rate=None,
        )
        assert recorder.violation_counts["feedback_cap"] == 0

    def test_paused_node_check(self):
        recorder = OracleRecorder()
        system = self.attach(recorder)
        index, group = next(
            (index, group)
            for index, group in enumerate(system.plane.groups)
            if group.pes
        )
        pe_id, node_id = group.pes[0].pe_id, group.node_id
        system.plane.suspend_node(index)
        recorder.emit(
            "cpu_grant", pe=pe_id, node=node_id, cpu=0.1, dt=0.02
        )
        assert recorder.violation_counts["paused_node_silent"] == 1
        # Non-strict (live threaded) mode skips the racy pause check.
        relaxed = OracleRecorder(strict=False)
        relaxed.attach_plane(system.plane)
        relaxed.emit(
            "cpu_grant", pe=pe_id, node=node_id, cpu=0.1, dt=0.02
        )
        assert relaxed.violation_counts["paused_node_silent"] == 0

    def test_max_violations_cap_keeps_counting(self):
        recorder = OracleRecorder()
        emitted = OracleRecorder.MAX_VIOLATIONS + 10
        for _ in range(emitted):
            recorder.emit(
                "cpu_grant", pe="pe-0", node="node-0", cpu=-1.0, dt=0.02
            )
        assert len(recorder.violations) == OracleRecorder.MAX_VIOLATIONS
        assert recorder.violation_counts["cpu_grant_nonnegative"] == emitted

    def test_violation_serialization(self):
        violation = InvariantViolation(
            invariant="x", equation="Eq. 7", t=1.0,
            pe="pe-1", node=None, detail="d",
        )
        record = violation.as_dict()
        assert record["invariant"] == "x"
        assert record["node"] is None


class TestConservation:
    def test_flush_and_reenqueue_accounted(self):
        system, recorder = build_checked_system("aces")
        plan = FaultPlan()
        plan.pe_crash("pe-2", start=0.4, duration=0.3)
        plan.attach(system)
        system.run(1.5)
        assert check_conservation(system) == []
        flushed = sum(
            runtime.buffer.telemetry.flushed
            for runtime in system.runtimes.values()
        )
        assert flushed >= 0  # crash may or may not have caught SDOs

    def test_detects_corrupted_counter(self):
        system, _ = build_checked_system("aces")
        system.run(0.5)
        runtime = next(iter(system.runtimes.values()))
        runtime.buffer.telemetry.offered += 5
        names = {v.invariant for v in check_conservation(system)}
        assert "buffer_offer_conservation" in names
