"""Tests for placement optimization and the egress rate probe."""

import math

import numpy as np
import pytest

from repro.core.policies import AcesPolicy
from repro.experiments.resilience import (
    EgressRateProbe,
    mean_rate,
    measure_mttr,
)
from repro.graph.dag import ProcessingGraph
from repro.graph.placement import load_balanced_placement
from repro.graph.placement_opt import optimize_placement
from repro.graph.topology import TopologySpec, generate_topology
from repro.model.params import PEProfile
from repro.systems.faults import FaultPlan
from repro.systems.simulated import SimulatedSystem, SystemConfig


class TestPlacementOptimization:
    def pathological_instance(self):
        """Two heavy pipelines crammed onto one node, one node idle."""
        graph = ProcessingGraph()
        for name in ("a", "b"):
            graph.add_pe(
                PEProfile(
                    pe_id=f"src-{name}", weight=0.0,
                    t0=0.01, t1=0.01, lambda_s=0.0,
                )
            )
            graph.add_pe(
                PEProfile(
                    pe_id=f"sink-{name}", weight=1.0,
                    t0=0.01, t1=0.01, lambda_s=0.0,
                )
            )
            graph.add_edge(f"src-{name}", f"sink-{name}")
        placement = {
            "src-a": 0, "sink-a": 0, "src-b": 0, "sink-b": 0,
        }
        rates = {"src-a": 1000.0, "src-b": 1000.0}
        return graph, placement, rates

    def test_validation(self):
        graph, placement, rates = self.pathological_instance()
        with pytest.raises(ValueError):
            optimize_placement(graph, placement, rates, num_nodes=0)
        with pytest.raises(ValueError):
            optimize_placement(
                graph, placement, rates, num_nodes=2, max_evaluations=0
            )

    def test_improves_pathological_placement(self):
        graph, placement, rates = self.pathological_instance()
        result = optimize_placement(
            graph, placement, rates, num_nodes=2, max_evaluations=30
        )
        assert result.objective > result.initial_objective * 1.2
        assert result.gain > 0.2
        # The search spread PEs across both nodes.
        assert len(set(result.placement.values())) == 2
        assert result.improvements

    def test_respects_evaluation_budget(self):
        graph, placement, rates = self.pathological_instance()
        result = optimize_placement(
            graph, placement, rates, num_nodes=2, max_evaluations=5
        )
        assert result.evaluations <= 5

    def test_no_regression_from_good_placement(self):
        spec = TopologySpec(
            num_nodes=3, num_ingress=2, num_egress=2, num_intermediate=4,
            calibrate_rates=False,
        )
        topology = generate_topology(spec, np.random.default_rng(0))
        balanced = load_balanced_placement(topology.graph, 3)
        result = optimize_placement(
            topology.graph, balanced, topology.source_rates,
            num_nodes=3, max_evaluations=12,
        )
        assert result.objective >= result.initial_objective - 1e-9

    def test_deterministic_given_rng(self):
        graph, placement, rates = self.pathological_instance()
        a = optimize_placement(
            graph, placement, rates, num_nodes=2, max_evaluations=15,
            rng=np.random.default_rng(5),
        )
        b = optimize_placement(
            graph, placement, rates, num_nodes=2, max_evaluations=15,
            rng=np.random.default_rng(5),
        )
        assert a.placement == b.placement
        assert a.objective == b.objective


class TestEgressRateProbe:
    """The chaos matrix's per-bin weighted egress rate probe."""

    def build_system(self):
        spec = TopologySpec(
            num_nodes=3, num_ingress=2, num_egress=2, num_intermediate=4,
            calibrate_rates=False,
        )
        topology = generate_topology(spec, np.random.default_rng(1))
        return SimulatedSystem(
            topology, AcesPolicy(), config=SystemConfig(seed=2, warmup=0.0)
        )

    @pytest.mark.parametrize("bin_width", [0.0, -0.5])
    def test_bin_width_validation(self, bin_width):
        with pytest.raises(ValueError):
            EgressRateProbe(self.build_system(), bin_width=bin_width)

    def test_bins_tile_the_run(self):
        system = self.build_system()
        probe = EgressRateProbe(system, bin_width=1.0)
        system.env.run(until=4.5)
        assert [time for time, _ in probe.rates()] == pytest.approx(
            [1.0, 2.0, 3.0, 4.0]
        )

    def test_warmup_reset_bin_clamps_to_zero(self):
        system = self.build_system()
        probe = EgressRateProbe(system, bin_width=0.5)
        system.env.run(until=3.25)
        system.collector.reset(system.env.now)
        system.env.run(until=5.0)
        # The reset makes the cumulative series drop once, at 3.5.
        drops = [
            index
            for index in range(1, len(probe.cumulative))
            if probe.cumulative[index] < probe.cumulative[index - 1]
        ]
        assert [probe.times[index] for index in drops] == [3.5]
        rates = probe.rates()
        assert rates[drops[0]] == (3.5, 0.0)
        assert all(rate >= 0.0 for _, rate in rates)
        assert rates[-1][1] > 0.0

    def test_pe_stall_dip_and_recovery(self):
        system = self.build_system()
        # Stall both ingress PEs: output must dip, then recover.
        plan = FaultPlan()
        for ingress in system.topology.graph.ingress_ids:
            plan.pe_stall(ingress, start=4.0, duration=1.5)
        plan.attach(system)
        probe = EgressRateProbe(system, bin_width=0.5)
        system.env.run(until=12.0)
        rates = probe.rates()
        before = mean_rate(rates, 2.0, 4.0)
        assert mean_rate(rates, 4.5, 5.5) < 0.8 * before
        assert mean_rate(rates, 8.0, 12.0) > 0.8 * before
        mttr = measure_mttr(rates, fault_end=5.5, pre_fault_rate=before)
        assert 0.0 < mttr < math.inf
