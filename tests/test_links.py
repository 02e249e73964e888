"""Tests for network links and their integration into the system."""

import numpy as np
import pytest

from repro.core.policies import AcesPolicy, UdpPolicy
from repro.graph.topology import TopologySpec, generate_topology
from repro.model.links import Link
from repro.model.sdo import SDO
from repro.systems.simulated import SimulatedSystem, SystemConfig, run_system


def sdo():
    return SDO(stream_id="s", origin_time=0.0)


class TestLink:
    def test_validation(self):
        with pytest.raises(ValueError):
            Link("l", bandwidth=0.0)
        with pytest.raises(ValueError):
            Link("l", bandwidth=10.0, latency=-1.0)

    def test_serialization_time(self):
        link = Link("l", bandwidth=2.0)
        arrival = link.transfer_completion(sdo(), now=1.0)
        assert arrival == pytest.approx(1.5)

    def test_latency_added(self):
        link = Link("l", bandwidth=2.0, latency=0.25)
        arrival = link.transfer_completion(sdo(), now=0.0)
        assert arrival == pytest.approx(0.75)

    def test_fifo_serialization_queues(self):
        link = Link("l", bandwidth=0.5)
        first = link.transfer_completion(sdo(), now=0.0)
        second = link.transfer_completion(sdo(), now=0.0)
        assert first == pytest.approx(2.0)
        assert second == pytest.approx(4.0)

    def test_idle_gap_not_accumulated(self):
        link = Link("l", bandwidth=1.0)
        link.transfer_completion(sdo(), now=0.0)
        arrival = link.transfer_completion(sdo(), now=10.0)
        assert arrival == pytest.approx(11.0)

    def test_stats(self):
        link = Link("l", bandwidth=0.5)
        link.transfer_completion(sdo(), now=0.0)
        assert link.stats.transferred == 1
        assert link.stats.busy_time == pytest.approx(2.0)
        assert link.utilization(4.0) == pytest.approx(0.5)

    def test_utilization_zero_time(self):
        assert Link("l", bandwidth=1.0).utilization(0.0) == 0.0

    def test_negative_now_rejected(self):
        link = Link("l", bandwidth=1.0)
        with pytest.raises(ValueError):
            link.transfer_completion(sdo(), now=-1.0)


class TestSystemWithLinks:
    def topology(self):
        spec = TopologySpec(
            num_nodes=3,
            num_ingress=2,
            num_egress=2,
            num_intermediate=4,
            calibrate_rates=False,
        )
        return generate_topology(spec, np.random.default_rng(0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(link_bandwidth=0.0)
        with pytest.raises(ValueError):
            SystemConfig(link_latency=-1.0)

    def test_no_links_by_default(self):
        system = SimulatedSystem(
            self.topology(), UdpPolicy(),
            config=SystemConfig(seed=1, warmup=0.0),
        )
        assert system.links == {}

    def test_links_only_across_nodes(self):
        topology = self.topology()
        system = SimulatedSystem(
            topology, UdpPolicy(),
            config=SystemConfig(seed=1, warmup=0.0, link_bandwidth=1000.0),
        )
        for (src, dst), link in system.links.items():
            assert topology.placement[src] != topology.placement[dst]
        cross_edges = [
            (s, d)
            for s, d in topology.graph.edges()
            if topology.placement[s] != topology.placement[d]
        ]
        assert len(system.links) == len(cross_edges)

    def test_system_runs_with_links(self):
        report = run_system(
            self.topology(), AcesPolicy(), duration=3.0,
            config=SystemConfig(
                seed=1, warmup=1.0, link_bandwidth=10000.0,
                link_latency=0.001,
            ),
        )
        assert report.total_output_sdos > 0

    def test_slow_links_raise_latency(self):
        fast = run_system(
            self.topology(), UdpPolicy(), duration=4.0,
            config=SystemConfig(seed=1, warmup=1.0),
        )
        slow = run_system(
            self.topology(), UdpPolicy(), duration=4.0,
            config=SystemConfig(
                seed=1, warmup=1.0, link_bandwidth=10000.0,
                link_latency=0.1,
            ),
        )
        assert slow.latency.mean > fast.latency.mean + 0.05

    def test_narrow_links_throttle_throughput(self):
        wide = run_system(
            self.topology(), UdpPolicy(), duration=4.0,
            config=SystemConfig(
                seed=1, warmup=1.0, link_bandwidth=100000.0,
            ),
        )
        narrow = run_system(
            self.topology(), UdpPolicy(), duration=4.0,
            config=SystemConfig(seed=1, warmup=1.0, link_bandwidth=5.0),
        )
        assert narrow.total_output_sdos < wide.total_output_sdos
