"""Tests for the integrated simulated system."""

import math

import numpy as np
import pytest

from repro.core.policies import AcesPolicy, LockStepPolicy, UdpPolicy
from repro.core.targets import fair_share_targets
from repro.graph.dag import ProcessingGraph
from repro.graph.topology import Topology, TopologySpec, generate_topology
from repro.model.params import PEProfile
from repro.obs.profiler import PhaseProfiler
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


def quick_config(**overrides):
    params = dict(seed=1, warmup=1.0)
    params.update(overrides)
    return SystemConfig(**params)


@pytest.fixture(scope="module")
def shared_topology():
    return small_topology()


class TestConfigValidation:
    def test_invalid_buffer(self):
        with pytest.raises(ValueError):
            SystemConfig(buffer_size=0)

    def test_invalid_b0(self):
        with pytest.raises(ValueError):
            SystemConfig(b0_fraction=1.5)

    def test_invalid_dt(self):
        with pytest.raises(ValueError):
            SystemConfig(dt=0.0)

    def test_invalid_source_kind(self):
        with pytest.raises(ValueError):
            SystemConfig(source_kind="fractal")

    def test_invalid_duty(self):
        with pytest.raises(ValueError):
            SystemConfig(source_duty=0.0)

    def test_invalid_warmup(self):
        with pytest.raises(ValueError):
            SystemConfig(warmup=-1.0)


class TestConstruction:
    def test_runtimes_match_graph(self, shared_topology):
        system = SimulatedSystem(
            shared_topology, UdpPolicy(), config=quick_config()
        )
        assert set(system.runtimes) == set(shared_topology.graph.pe_ids)

    def test_edges_wired(self, shared_topology):
        system = SimulatedSystem(
            shared_topology, UdpPolicy(), config=quick_config()
        )
        for src, dst in shared_topology.graph.edges():
            assert system.runtimes[dst] in system.runtimes[src].downstream

    def test_sources_cover_ingress(self, shared_topology):
        system = SimulatedSystem(
            shared_topology, UdpPolicy(), config=quick_config()
        )
        assert len(system.sources) == len(shared_topology.graph.ingress_ids)

    def test_flow_controllers_only_for_aces(self, shared_topology):
        aces = SimulatedSystem(
            shared_topology, AcesPolicy(), config=quick_config()
        )
        udp = SimulatedSystem(
            shared_topology, UdpPolicy(), config=quick_config()
        )
        assert len(aces.plane.controllers) == len(shared_topology.graph)
        assert udp.plane.controllers == {}

    def test_targets_solved_when_missing(self, shared_topology):
        system = SimulatedSystem(
            shared_topology, UdpPolicy(), config=quick_config()
        )
        assert set(system.plane.targets.cpu) == set(
            shared_topology.graph.pe_ids
        )

    def test_explicit_targets_used(self, shared_topology):
        targets = fair_share_targets(
            shared_topology.graph, shared_topology.placement
        )
        system = SimulatedSystem(
            shared_topology, UdpPolicy(), targets=targets,
            config=quick_config(),
        )
        assert system.plane.targets is targets


class TestRun:
    def test_invalid_duration(self, shared_topology):
        system = SimulatedSystem(
            shared_topology, UdpPolicy(), config=quick_config()
        )
        with pytest.raises(ValueError):
            system.run(0.0)

    @pytest.mark.parametrize("duration", [math.nan, math.inf])
    def test_non_finite_duration(self, shared_topology, duration):
        system = SimulatedSystem(
            shared_topology, UdpPolicy(), config=quick_config()
        )
        with pytest.raises(ValueError, match="duration"):
            system.run(duration)

    @pytest.mark.parametrize("interval", [0.0, -1.0, math.nan])
    def test_invalid_observe_interval(self, shared_topology, interval):
        system = SimulatedSystem(
            shared_topology, UdpPolicy(), config=quick_config()
        )
        with pytest.raises(ValueError, match="observe_interval"):
            system.run(
                1.0, observer=lambda _: None, observe_interval=interval
            )

    @pytest.mark.parametrize("interval", [0.5, 0.7])
    def test_observation_does_not_perturb_the_run(
        self, shared_topology, interval
    ):
        # One interval divides the window, one does not.
        def build():
            return SimulatedSystem(
                shared_topology, AcesPolicy(), config=quick_config(seed=7)
            )

        plain = build()
        baseline = plain.run(3.0)
        observed = build()
        seen = []
        report = observed.run(
            3.0,
            observer=lambda live: seen.append(
                (live.env.now, live.collector.total_output())
            ),
            observe_interval=interval,
        )
        # Field for field: throughput, latency, drops_by_kind, ...
        assert report == baseline
        assert [t for t, _ in seen][-1] == observed.env.now == 4.0
        assert len(seen) == -(-3.0 // interval)
        assert seen[-1][1] == report.total_output_sdos
        # Stepping only adds until-events: one per observer call
        # against the single one of an unobserved window.
        assert observed.env.events_processed == (
            plain.env.events_processed + len(seen) - 1
        )

    @pytest.mark.parametrize(
        "policy_cls", [AcesPolicy, UdpPolicy, LockStepPolicy]
    )
    def test_produces_output(self, shared_topology, policy_cls):
        report = run_system(
            shared_topology, policy_cls(), duration=4.0,
            config=quick_config(),
        )
        assert report.total_output_sdos > 0
        assert report.weighted_throughput > 0
        assert report.latency.mean > 0
        assert report.policy == policy_cls().name

    def test_reproducible_given_seed(self, shared_topology):
        a = run_system(
            shared_topology, AcesPolicy(), duration=3.0,
            config=quick_config(seed=7),
        )
        b = run_system(
            shared_topology, AcesPolicy(), duration=3.0,
            config=quick_config(seed=7),
        )
        assert a.weighted_throughput == b.weighted_throughput
        assert a.total_output_sdos == b.total_output_sdos
        assert a.latency.mean == b.latency.mean

    def test_different_seeds_differ(self, shared_topology):
        a = run_system(
            shared_topology, AcesPolicy(), duration=3.0,
            config=quick_config(seed=7),
        )
        b = run_system(
            shared_topology, AcesPolicy(), duration=3.0,
            config=quick_config(seed=8),
        )
        assert a.total_output_sdos != b.total_output_sdos

    def test_cpu_utilization_bounded(self, shared_topology):
        report = run_system(
            shared_topology, UdpPolicy(), duration=3.0,
            config=quick_config(),
        )
        assert 0.0 < report.cpu_utilization <= 1.0 + 1e-6

    def test_occupancy_bounded_by_buffer(self, shared_topology):
        config = quick_config(buffer_size=10)
        report = run_system(
            shared_topology, UdpPolicy(), duration=3.0, config=config
        )
        assert 0.0 <= report.mean_buffer_occupancy <= 10.0

    def test_latency_exceeds_minimum_path_cost(self, shared_topology):
        """End-to-end latency is at least one service time per hop."""
        report = run_system(
            shared_topology, AcesPolicy(), duration=4.0,
            config=quick_config(),
        )
        min_cost = min(
            shared_topology.graph.profile(p).t0
            for p in shared_topology.graph.pe_ids
        )
        assert report.latency.minimum >= min_cost

    @pytest.mark.parametrize("kind", ["constant", "poisson", "onoff"])
    def test_source_kinds_run(self, shared_topology, kind):
        report = run_system(
            shared_topology, UdpPolicy(), duration=3.0,
            config=quick_config(source_kind=kind),
        )
        assert report.source_generated > 0

    def test_overload_causes_loss_somewhere(self):
        topology = small_topology(load_factor=3.0)
        report = run_system(
            topology, UdpPolicy(), duration=4.0, config=quick_config()
        )
        assert report.buffer_drops + report.source_rejections > 0

    def test_underload_is_nearly_lossless_for_aces(self):
        topology = small_topology(load_factor=0.3)
        report = run_system(
            topology, AcesPolicy(), duration=4.0, config=quick_config()
        )
        total_moved = max(1, report.source_generated)
        assert report.source_rejections / total_moved < 0.02

    def test_egress_detail_covers_all_egress(self, shared_topology):
        report = run_system(
            shared_topology, AcesPolicy(), duration=3.0,
            config=quick_config(),
        )
        assert set(report.egress_detail) == set(
            shared_topology.graph.egress_ids
        )


class TestConservation:
    def test_sdo_conservation_per_pe(self, shared_topology):
        """accepted = consumed + still-buffered (+ the one in progress)."""
        system = SimulatedSystem(
            shared_topology, AcesPolicy(), config=quick_config()
        )
        system.env.run(until=5.0)
        for runtime in system.runtimes.values():
            accepted = runtime.buffer.telemetry.accepted
            consumed = runtime.counters.consumed
            buffered = runtime.buffer.occupancy
            in_flight = 1 if runtime._current is not None else 0
            assert accepted == consumed + buffered + in_flight

    def test_emitted_equals_consumed_times_m(self, shared_topology):
        system = SimulatedSystem(
            shared_topology, UdpPolicy(), config=quick_config()
        )
        system.env.run(until=5.0)
        for runtime in system.runtimes.values():
            assert runtime.counters.emitted == runtime.counters.consumed


class TestProfilerAttribution:
    """PhaseProfiler accounting under the batched-delivery kernel path."""

    def run_profiled(self, shared_topology, policy):
        profiler = PhaseProfiler()
        system = SimulatedSystem(
            shared_topology, policy, config=quick_config(),
            profiler=profiler,
        )
        report = system.run(3.0)
        return system, profiler, report

    def test_exclusive_times_sum_to_total(self, shared_topology):
        system, profiler, report = self.run_profiled(
            shared_topology, AcesPolicy()
        )
        assert report.weighted_throughput > 0
        total = profiler.total_seconds
        assert total > 0
        assert sum(profiler.totals.values()) == pytest.approx(total)
        fractions = profiler.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_all_phases_attributed(self, shared_topology):
        """Batched flushes still report under the transport phase."""
        system, profiler, report = self.run_profiled(
            shared_topology, AcesPolicy()
        )
        assert set(profiler.totals) == {
            "event_dispatch",
            "controller_tick",
            "pe_execute",
            "transport",
        }
        assert all(count > 0 for count in profiler.counts.values())
        # One transport bracket per batch flush, not per SDO: strictly
        # fewer pushes than delivered SDOs once batching coalesces.
        delivered = sum(
            r.buffer.telemetry.accepted for r in system.runtimes.values()
        )
        assert 0 < profiler.counts["transport"] <= delivered

    def test_batches_fully_flushed(self, shared_topology):
        """Every batch at or before the clock was flushed; only arrivals
        beyond the stop horizon may remain pending."""
        system, _, _ = self.run_profiled(shared_topology, AcesPolicy())
        now = system.env.now
        assert all(at > now for at in system.dataplane.delivery_batches)

    def test_profiling_does_not_perturb_results(self, shared_topology):
        _, _, profiled = self.run_profiled(shared_topology, AcesPolicy())
        plain = run_system(
            shared_topology, AcesPolicy(), duration=3.0,
            config=quick_config(),
        )
        assert plain == profiled

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"control_impl": "vector", "control_phase_buckets": 2}],
        ids=["scalar", "vector-bucketed"],
    )
    def test_profiled_run_equals_unprofiled(self, shared_topology, overrides):
        def run(profiler):
            system = SimulatedSystem(
                shared_topology, AcesPolicy(),
                config=quick_config(**overrides), profiler=profiler,
            )
            return system.run(3.0), system.env.events_processed

        profiler = PhaseProfiler()
        assert run(profiler) == run(None)
        # Bucketed vector ticks decide in VectorEngine.control_group only.
        assert profiler.counts["controller_tick"] > 0


class TestProfilerArming:
    """The profiler patches its PHASES targets only while a run is on."""

    @staticmethod
    def originals():
        return [
            (owner, attr, vars(owner)[attr])
            for _, owner, attr in PhaseProfiler.targets()
        ]

    def assert_restored(self, originals):
        for owner, attr, original in originals:
            assert vars(owner)[attr] is original, (owner, attr)

    def test_every_phase_target_resolves(self):
        assert set(PhaseProfiler.PHASES) == {
            "event_dispatch", "controller_tick", "pe_execute", "transport",
        }
        # Through vars(): a renamed or inherited target fails here.
        for phase, owner, attr in PhaseProfiler.targets():
            assert isinstance(owner, type), phase
            assert callable(vars(owner).get(attr)), (phase, owner, attr)

    def test_targets_armed_during_the_run_and_restored_after(
        self, shared_topology
    ):
        originals = self.originals()
        armed = []

        def observer(_system):
            armed.append(all(
                vars(owner)[attr] is not original
                for owner, attr, original in originals
            ))

        system = SimulatedSystem(
            shared_topology, AcesPolicy(), config=quick_config(),
            profiler=PhaseProfiler(),
        )
        self.assert_restored(originals)
        system.run(1.0, observer=observer, observe_interval=0.5)
        assert armed == [True, True]
        self.assert_restored(originals)

    def test_targets_restored_after_a_run_that_raises(self, shared_topology):
        originals = self.originals()
        profiler = PhaseProfiler()
        system = SimulatedSystem(
            shared_topology, AcesPolicy(), config=quick_config(),
            profiler=profiler,
        )
        with pytest.raises(ValueError):
            system.run(math.nan)
        self.assert_restored(originals)
        assert profiler.totals == {}
