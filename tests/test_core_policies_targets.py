"""Tests for policies and allocation targets."""

import numpy as np
import pytest

from repro.control.plane import ControlPlane, NodeGroup
from repro.core.cpu_control import (
    AcesCpuScheduler,
    StrictProportionalScheduler,
)
from repro.core.policies import (
    AcesPolicy,
    LoadSheddingPolicy,
    LockStepPolicy,
    UdpPolicy,
    policy_by_name,
)
from repro.core.targets import (
    AllocationTargets,
    fair_share_targets,
    perturb_targets,
)
from repro.graph.dag import ProcessingGraph
from repro.model.params import PEProfile
from repro.model.pe import PERuntime
from repro.model.sdo import SDO


def make_runtime(pe_id="pe-0", lambda_m=1.0):
    return PERuntime(
        PEProfile(pe_id=pe_id, lambda_m=lambda_m),
        buffer_capacity=4,
        rng=np.random.default_rng(0),
    )


class TestPolicyConstruction:
    def test_aces_validation(self):
        with pytest.raises(ValueError):
            AcesPolicy(aggregation="sideways")
        with pytest.raises(ValueError):
            AcesPolicy(scheduler="fifo")
        with pytest.raises(ValueError):
            AcesPolicy(controller="pid")

    @pytest.mark.parametrize(
        "argument", ["aggregation", "scheduler", "controller"]
    )
    def test_aces_validation_names_the_rejected_value(self, argument):
        with pytest.raises(
            ValueError, match=rf"^{argument} must be .*, got 'bogus'$"
        ):
            AcesPolicy(**{argument: "bogus"})

    def test_policy_by_name(self):
        assert isinstance(policy_by_name("aces"), AcesPolicy)
        assert isinstance(policy_by_name("udp"), UdpPolicy)
        assert isinstance(policy_by_name("lockstep"), LockStepPolicy)

    def test_policy_by_name_kwargs(self):
        policy = policy_by_name("aces", aggregation="min")
        assert policy.aggregate_feedback() == "min"

    def test_unknown_policy_name(self):
        with pytest.raises(ValueError):
            policy_by_name("tcp")

    def test_feedback_flags(self):
        assert AcesPolicy().uses_feedback
        assert not UdpPolicy().uses_feedback
        assert not LockStepPolicy().uses_feedback


def scheduler_of(policy):
    """The one scheduler a one-PE control plane builds for ``policy``."""
    plane = ControlPlane(
        policy, None, [NodeGroup("n0", [make_runtime()])],
        AllocationTargets({"pe-0": 0.5}), dt=0.01, b0=2.0,
    )
    [scheduler] = plane.schedulers
    return scheduler


class TestPolicySchedulers:
    def test_aces_makes_token_scheduler(self):
        assert AcesPolicy().token_depth_intervals == 20.0
        assert AcesPolicy(
            bucket_depth_intervals=5.0
        ).token_depth_intervals == 5.0
        assert isinstance(scheduler_of(AcesPolicy()), AcesCpuScheduler)

    def test_aces_strict_ablation(self):
        policy = AcesPolicy(scheduler="strict")
        assert policy.token_depth_intervals is None
        assert isinstance(scheduler_of(policy), StrictProportionalScheduler)

    def test_baselines_make_strict_scheduler(self):
        for policy in (UdpPolicy(), LockStepPolicy(), LoadSheddingPolicy()):
            assert policy.token_depth_intervals is None
            assert isinstance(
                scheduler_of(policy), StrictProportionalScheduler
            )


class TestControllers:
    def test_aces_lqr_gains(self):
        gains = AcesPolicy().controller_gains(0.01)
        assert gains.lambdas[0] > 0
        assert len(gains.mus) == 1

    def test_aces_proportional_ablation(self):
        policy = AcesPolicy(controller="proportional", proportional_gain=7.0)
        gains = policy.controller_gains(0.01)
        assert gains.lambdas == (7.0,)
        assert gains.mus == ()

    def test_baselines_have_no_controller(self):
        assert UdpPolicy().controller_gains(0.01) is None
        assert LockStepPolicy().controller_gains(0.01) is None


class TestGates:
    def test_udp_and_aces_have_no_gate(self):
        pe = make_runtime()
        assert UdpPolicy().make_gate(pe) is None
        assert AcesPolicy().make_gate(pe) is None

    def test_lockstep_gate_blocks_on_full_downstream(self):
        producer = make_runtime("p")
        consumer = make_runtime("c")
        producer.link_downstream(consumer)
        gate = LockStepPolicy().make_gate(producer)
        assert gate(producer)
        for i in range(4):  # fill the consumer (capacity 4)
            consumer.ingest(SDO(stream_id="s", origin_time=0.0), 0.0)
        assert not gate(producer)

    def test_lockstep_gate_requires_room_for_all_consumers(self):
        producer = make_runtime("p")
        fast = make_runtime("c1")
        slow = make_runtime("c2")
        producer.link_downstream(fast)
        producer.link_downstream(slow)
        gate = LockStepPolicy().make_gate(producer)
        for i in range(4):
            slow.ingest(SDO(stream_id="s", origin_time=0.0), 0.0)
        assert not gate(producer)  # min-flow: one full consumer blocks

    def test_lockstep_gate_accounts_for_fanout_m(self):
        producer = make_runtime("p", lambda_m=3.0)
        consumer = make_runtime("c")
        producer.link_downstream(consumer)
        gate = LockStepPolicy().make_gate(producer)
        consumer.ingest(SDO(stream_id="s", origin_time=0.0), 0.0)
        consumer.ingest(SDO(stream_id="s", origin_time=0.0), 0.0)
        # Only 2 slots free but M = 3 outputs expected.
        assert not gate(producer)


class TestShedding:
    def test_pes_shed_from_their_own_streams(self):
        """pe-15 and pe-24 have equal character sums; on equal
        occupancies they still shed different SDOs."""
        policy = LoadSheddingPolicy(threshold=0.0)
        decisions = {}
        for pe_id in ("pe-15", "pe-24"):
            pe = make_runtime(pe_id)
            for _ in range(2):  # half full: drop probability 1/2
                pe.ingest(SDO(stream_id="s", origin_time=0.0), 0.0)
            admit = policy.make_admission_filter(pe)
            decisions[pe_id] = [admit(pe, None) for _ in range(64)]
        assert decisions["pe-15"] != decisions["pe-24"]


class TestAllocationTargets:
    def chain(self):
        graph = ProcessingGraph()
        for pe_id in ("a", "b", "c", "d"):
            graph.add_pe(PEProfile(pe_id=pe_id))
        graph.add_edge("a", "b")
        graph.add_edge("c", "d")
        return graph

    def test_negative_cpu_rejected(self):
        with pytest.raises(ValueError):
            AllocationTargets(cpu={"a": -0.5})

    def test_node_utilization(self):
        targets = AllocationTargets(cpu={"a": 0.3, "b": 0.4, "c": 0.2})
        placement = {"a": 0, "b": 0, "c": 1}
        util = targets.node_utilization(placement)
        assert util[0] == pytest.approx(0.7)
        assert util[1] == pytest.approx(0.2)

    def test_validate_catches_overcommit(self):
        targets = AllocationTargets(cpu={"a": 0.7, "b": 0.7})
        with pytest.raises(ValueError):
            targets.validate({"a": 0, "b": 0})
        targets.validate({"a": 0, "b": 1})  # fine when split

    def test_fair_share_targets(self):
        graph = self.chain()
        placement = {"a": 0, "b": 0, "c": 1, "d": 1}
        targets = fair_share_targets(graph, placement)
        assert targets.cpu["a"] == pytest.approx(0.5)
        assert targets.rate_in["a"] == pytest.approx(
            graph.profile("a").rate_at(0.5)
        )
        targets.validate(placement)


class TestPerturbTargets:
    def base(self):
        return AllocationTargets(cpu={"a": 0.5, "b": 0.5, "c": 0.3})

    def test_zero_epsilon_identity(self):
        rng = np.random.default_rng(0)
        noisy = perturb_targets(self.base(), 0.0, rng)
        assert noisy.cpu == self.base().cpu

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            perturb_targets(self.base(), -0.1, np.random.default_rng(0))

    def test_perturbation_bounded(self):
        rng = np.random.default_rng(1)
        noisy = perturb_targets(self.base(), 0.2, rng)
        for pe_id, original in self.base().cpu.items():
            assert abs(noisy.cpu[pe_id] - original) <= 0.2 * original + 1e-12

    def test_renormalization_keeps_feasible(self):
        placement = {"a": 0, "b": 0, "c": 1}
        rng = np.random.default_rng(2)
        for _ in range(20):
            noisy = perturb_targets(self.base(), 0.8, rng, placement=placement)
            noisy.validate(placement)

    def test_deterministic_given_rng(self):
        a = perturb_targets(self.base(), 0.3, np.random.default_rng(5))
        b = perturb_targets(self.base(), 0.3, np.random.default_rng(5))
        assert a.cpu == b.cpu
