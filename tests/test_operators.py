"""Tests for semantic operator profiles and fractional emission."""

import numpy as np
import pytest

from repro.core.targets import AllocationTargets
from repro.core.policies import AcesPolicy, UdpPolicy
from repro.graph.dag import ProcessingGraph
from repro.graph.topology import Topology, TopologySpec
from repro.model.operators import (
    aggregate_pe,
    fanout_pe,
    filter_pe,
    join_pe,
    map_pe,
)
from repro.model.params import PEProfile
from repro.model.pe import PERuntime
from repro.model.sdo import SDO
from repro.systems.simulated import SystemConfig, run_system


class TestConstructors:
    def test_filter_selectivity(self):
        profile = filter_pe("f", selectivity=0.25)
        assert profile.lambda_m == 0.25
        with pytest.raises(ValueError):
            filter_pe("f", selectivity=0.0)
        with pytest.raises(ValueError):
            filter_pe("f", selectivity=1.5)

    def test_map_identity(self):
        assert map_pe("m").lambda_m == 1.0

    def test_aggregate_window(self):
        assert aggregate_pe("a", window=10).lambda_m == pytest.approx(0.1)
        with pytest.raises(ValueError):
            aggregate_pe("a", window=0)

    def test_join(self):
        assert join_pe("j").lambda_m == 1.0

    def test_fanout(self):
        assert fanout_pe("x", copies=3).lambda_m == 3.0
        with pytest.raises(ValueError):
            fanout_pe("x", copies=0.5)

    def test_kwargs_passthrough(self):
        profile = filter_pe("f", selectivity=0.5, weight=2.0, t0=0.001)
        assert profile.weight == 2.0
        assert profile.t0 == 0.001


class TestFractionalEmission:
    def runtime(self, lambda_m, deterministic=True):
        return PERuntime(
            PEProfile(
                pe_id="p", lambda_m=lambda_m,
                deterministic_m=deterministic, lambda_s=0.0,
                t0=0.001, t1=0.001,
            ),
            buffer_capacity=1000,
            rng=np.random.default_rng(0),
        )

    def test_accumulator_exact_long_run_ratio(self):
        pe = self.runtime(lambda_m=0.3)
        total = sum(pe.emission.sample() for _ in range(1000))
        assert total == pytest.approx(300, abs=1)

    def test_accumulator_fractional_above_one(self):
        pe = self.runtime(lambda_m=2.5)
        total = sum(pe.emission.sample() for _ in range(1000))
        assert total == pytest.approx(2500, abs=1)

    def test_integer_lambda_m_every_time(self):
        pe = self.runtime(lambda_m=2.0)
        assert [pe.emission.sample() for _ in range(5)] == [2, 2, 2, 2, 2]

    def test_execute_emits_fraction(self):
        pe = self.runtime(lambda_m=0.5)
        for i in range(100):
            pe.ingest(SDO(stream_id="s", origin_time=0.0), 0.0)
        emitted = []
        pe.execute(0.0, 1.0, 0.1, lambda p, s, t: emitted.append(s))
        assert pe.counters.consumed == 100
        assert len(emitted) == 50

    def test_poisson_mode_mean(self):
        pe = self.runtime(lambda_m=0.3, deterministic=False)
        total = sum(pe.emission.sample() for _ in range(20000))
        assert total / 20000 == pytest.approx(0.3, rel=0.05)


class TestFilterPipelineEndToEnd:
    def test_aggregation_pipeline_rates(self):
        """source -> filter(0.5) -> aggregate(5) -> egress rates match."""
        graph = ProcessingGraph()
        graph.add_pe(map_pe("ingest", t0=0.001, t1=0.001, lambda_s=0.0))
        graph.add_pe(
            filter_pe("filter", selectivity=0.5, t0=0.001, t1=0.001,
                      lambda_s=0.0)
        )
        graph.add_pe(
            aggregate_pe("agg", window=5, weight=1.0, t0=0.001, t1=0.001,
                         lambda_s=0.0)
        )
        graph.add_edge("ingest", "filter")
        graph.add_edge("filter", "agg")
        topology = Topology(
            spec=TopologySpec(
                num_nodes=1, num_ingress=1, num_egress=1,
                num_intermediate=1,
            ),
            graph=graph,
            placement={"ingest": 0, "filter": 0, "agg": 0},
            source_rates={"ingest": 100.0},
        )
        targets = AllocationTargets(
            cpu={"ingest": 0.2, "filter": 0.2, "agg": 0.2}
        )
        report = run_system(
            topology, UdpPolicy(), duration=20.0, targets=targets,
            config=SystemConfig(
                seed=1, warmup=5.0, source_kind="constant",
            ),
        )
        # 100/s in -> 50/s after the filter -> 10/s after 5-window agg.
        egress_rate = report.egress_detail["agg"][1] / report.duration
        assert egress_rate == pytest.approx(10.0, rel=0.1)

    def test_tier1_models_selectivity(self):
        """The optimizer's fluid rates respect fractional lambda_m."""
        from repro.core.global_opt import solve_global_allocation

        graph = ProcessingGraph()
        graph.add_pe(
            filter_pe("f", selectivity=0.2, t0=0.001, t1=0.001,
                      lambda_s=0.0)
        )
        graph.add_pe(map_pe("sink", weight=1.0, t0=0.001, t1=0.001,
                            lambda_s=0.0))
        graph.add_edge("f", "sink")
        result = solve_global_allocation(
            graph, {"f": 0, "sink": 1}, {"f": 500.0}
        )
        assert result.targets.rate_out["f"] == pytest.approx(
            0.2 * result.targets.rate_in["f"]
        )
        # The sink needs to process only the filtered stream.
        assert (
            result.targets.rate_in["sink"]
            <= result.targets.rate_out["f"] + 1e-6
        )
