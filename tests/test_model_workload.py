"""Tests for workload sources (CBR, Poisson, on/off bursty)."""

import hashlib
import threading
import time

import numpy as np
import pytest

from repro.graph.topology import TopologySpec, generate_topology
from repro.model.workload import (
    SOURCE_KINDS,
    ConstantRateSource,
    OnOffSource,
    PoissonSource,
    SquareWaveSource,
    flash_crowd,
)
from repro.runtime.env import ThreadEnv
from repro.runtime.spc import RuntimeConfig
from repro.sim import Environment
from repro.sim.rng import RandomStreams
from repro.systems.build import SystemConfig, build_sources


def accepting_sink(log):
    def sink(sdo, now):
        log.append((sdo, now))
        return True

    return sink


class TestConstantRateSource:
    def test_rate_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            ConstantRateSource(env, "s", lambda sdo, now: True, rate=0.0)

    def test_deterministic_spacing(self):
        env = Environment()
        log = []
        ConstantRateSource(env, "s", accepting_sink(log), rate=10.0)
        env.run(until=1.05)
        times = [now for _, now in log]
        assert times == pytest.approx([0.1 * (i + 1) for i in range(10)])

    def test_stats_track_admission(self):
        env = Environment()
        pattern = [True, False, True, False]
        calls = {"n": 0}

        def alternating_sink(sdo, now):
            result = pattern[calls["n"] % len(pattern)]
            calls["n"] += 1
            return result

        source = ConstantRateSource(env, "s", alternating_sink, rate=10.0)
        env.run(until=0.45)
        assert source.stats.generated == 4
        assert source.stats.admitted == 2
        assert source.stats.rejected == 2
        assert source.stats.rejection_rate == pytest.approx(0.5)

    def test_origin_time_is_creation_time(self):
        env = Environment()
        log = []
        ConstantRateSource(env, "s", accepting_sink(log), rate=5.0)
        env.run(until=1.0)
        for sdo, now in log:
            assert sdo.origin_time == now

    def test_stream_id_tagging(self):
        env = Environment()
        log = []
        ConstantRateSource(env, "my-stream", accepting_sink(log), rate=10.0)
        env.run(until=0.25)
        assert all(sdo.stream_id == "my-stream" for sdo, _ in log)


class TestPoissonSource:
    def test_rate_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            PoissonSource(
                env, "s", lambda s, n: True, rate=-1.0,
                rng=np.random.default_rng(0),
            )

    def test_mean_rate_approximately_correct(self):
        env = Environment()
        log = []
        PoissonSource(
            env, "s", accepting_sink(log), rate=100.0,
            rng=np.random.default_rng(42),
        )
        env.run(until=50.0)
        measured = len(log) / 50.0
        assert measured == pytest.approx(100.0, rel=0.05)

    def test_reproducible_with_seed(self):
        def run(seed):
            env = Environment()
            log = []
            PoissonSource(
                env, "s", accepting_sink(log), rate=50.0,
                rng=np.random.default_rng(seed),
            )
            env.run(until=2.0)
            return [now for _, now in log]

        assert run(7) == run(7)
        assert run(7) != run(8)


class TestOnOffSource:
    def test_validation(self):
        env = Environment()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            OnOffSource(env, "s", lambda s, n: True, peak_rate=0.0,
                        mean_on=1.0, mean_off=1.0, rng=rng)
        with pytest.raises(ValueError):
            OnOffSource(env, "s", lambda s, n: True, peak_rate=10.0,
                        mean_on=0.0, mean_off=1.0, rng=rng)

    def test_mean_rate_property(self):
        env = Environment()
        source = OnOffSource(
            env, "s", lambda s, n: True, peak_rate=100.0,
            mean_on=1.0, mean_off=3.0, rng=np.random.default_rng(0),
        )
        assert source.mean_rate == pytest.approx(25.0)

    def test_long_run_rate_matches_mean(self):
        env = Environment()
        log = []
        source = OnOffSource(
            env, "s", accepting_sink(log), peak_rate=200.0,
            mean_on=0.5, mean_off=0.5, rng=np.random.default_rng(3),
        )
        env.run(until=100.0)
        measured = len(log) / 100.0
        assert measured == pytest.approx(source.mean_rate, rel=0.1)

    def test_burstier_than_poisson(self):
        """Variance of per-window counts far exceeds Poisson's."""

        def window_counts(make_source, windows=200, width=0.25):
            env = Environment()
            log = []
            make_source(env, accepting_sink(log))
            env.run(until=windows * width)
            counts = [0] * windows
            for _, now in log:
                index = min(windows - 1, int(now / width))
                counts[index] += 1
            return counts

        onoff = window_counts(
            lambda env, sink: OnOffSource(
                env, "s", sink, peak_rate=400.0, mean_on=0.5, mean_off=0.5,
                rng=np.random.default_rng(1),
            )
        )
        poisson = window_counts(
            lambda env, sink: PoissonSource(
                env, "s", sink, rate=200.0, rng=np.random.default_rng(1),
            )
        )
        assert np.var(onoff) > 3 * np.var(poisson)


class TestSquareWaveSource:
    def test_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            SquareWaveSource(env, "s", lambda s, n: True, peak_rate=0.0,
                             period=1.0, duty=0.5)
        with pytest.raises(ValueError):
            SquareWaveSource(env, "s", lambda s, n: True, peak_rate=10.0,
                             period=0.0, duty=0.5)
        with pytest.raises(ValueError):
            SquareWaveSource(env, "s", lambda s, n: True, peak_rate=10.0,
                             period=1.0, duty=1.5)

    def test_mean_rate_property(self):
        env = Environment()
        source = SquareWaveSource(
            env, "s", lambda s, n: True, peak_rate=80.0,
            period=2.0, duty=0.25,
        )
        assert source.mean_rate == pytest.approx(20.0)

    def test_fully_deterministic(self):
        def arrivals():
            env = Environment()
            log = []
            SquareWaveSource(
                env, "s", accepting_sink(log), peak_rate=50.0,
                period=1.0, duty=0.4,
            )
            env.run(until=10.0)
            return [now for _, now in log]

        first, second = arrivals(), arrivals()
        assert first == second
        assert len(first) == pytest.approx(50.0 * 0.4 * 10.0, rel=0.1)

    def test_silent_outside_duty_window(self):
        env = Environment()
        log = []
        SquareWaveSource(
            env, "s", accepting_sink(log), peak_rate=100.0,
            period=1.0, duty=0.5,
        )
        env.run(until=4.0)
        for _, now in log:
            # Arrivals land only in the first half of each period.
            assert (now % 1.0) <= 0.5 + 1e-9


class TestFlashCrowdSource:
    def test_validation(self):
        env = Environment()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            PoissonSource(env, "s", lambda s, n: True, rate=0.0, rng=rng,
                          shape=flash_crowd(1.0, 1.0, 4.0))
        with pytest.raises(ValueError):
            flash_crowd(surge_start=-1.0, surge_duration=1.0,
                        surge_factor=4.0)
        with pytest.raises(ValueError):
            flash_crowd(surge_start=1.0, surge_duration=1.0,
                        surge_factor=0.5)

    def test_current_rate_window(self):
        env = Environment()
        source = PoissonSource(
            env, "s", lambda s, n: True, rate=10.0,
            rng=np.random.default_rng(0),
            shape=flash_crowd(
                surge_start=5.0, surge_duration=2.0, surge_factor=4.0
            ),
        )
        assert source.current_rate(4.9) == 10.0
        assert source.current_rate(5.0) == 40.0
        assert source.current_rate(6.9) == 40.0
        assert source.current_rate(7.0) == 10.0

    def test_surge_window_is_denser(self):
        env = Environment()
        log = []
        PoissonSource(
            env, "s", accepting_sink(log), rate=50.0,
            rng=np.random.default_rng(7),
            shape=flash_crowd(
                surge_start=4.0, surge_duration=4.0, surge_factor=5.0
            ),
        )
        env.run(until=12.0)
        inside = sum(1 for _, now in log if 4.0 <= now < 8.0)
        outside = len(log) - inside
        # 4 s at 250/s vs 8 s at 50/s: the surge window dominates.
        assert inside > 1.5 * outside

    def test_reproducible_with_seed(self):
        def arrivals(seed):
            env = Environment()
            log = []
            PoissonSource(
                env, "s", accepting_sink(log), rate=30.0,
                rng=np.random.default_rng(seed),
                shape=flash_crowd(
                    surge_start=2.0, surge_duration=1.0, surge_factor=3.0
                ),
            )
            env.run(until=5.0)
            return [now for _, now in log]

        assert arrivals(9) == arrivals(9)
        assert arrivals(9) != arrivals(10)


#: sha256 of repr(first 200 origin times) per kind, taken before the
#: shaped kinds became PoissonSource shapes; every source draws its
#: arrivals exactly as it did then.
ARRIVAL_HASHES = {
    "onoff":
        "4d9122b88efc31f45dde4dd2949503cc8022a80ece27015ae319155b28a6fd7f",
    "poisson":
        "fe10a48bda29e11c15aaf9c34b268d292ca9ce7739af02b70b28fdd002606a78",
    "constant":
        "bf89dd59b7c2a23527b15ed22187e02b7b635c88dce38a09a6ad1e6f0a58789a",
    "squarewave":
        "f2f02dc281225f2d8634e02c9f438fbd85772695b08eaa791f12aae3ef9c55e5",
    "flashcrowd":
        "1e3222cf9e6064a7dc00d37f13f5d2a69679f208b854f1a8e467245e7ecd6d2b",
    "diurnal":
        "3e6a721abf0008f85f7ad1890326ddb439b0907a3f795296222e0920f9c96ee1",
    "drift":
        "d1ff32cafc7ee49db219df00c9b86595541e761552f1c157f6675625b362856f",
    "correlatedburst":
        "d9687d974087bd61348abd0e0d53afaef3cdcbc6e5c420c2cea66e5b0dc1735e",
    "driftsquare":
        "cd4815e906753fcca016a1c20c6d5da36eb8b0776b536548cf6fbb98aa7d9350",
}


def pinned_topology():
    return generate_topology(
        TopologySpec(num_nodes=3, num_ingress=2, num_egress=2,
                     num_intermediate=4, calibrate_rates=False),
        np.random.default_rng(0),
    )


#: Short periods and an early surge, so every shape moves the rate within
#: the first 200 arrivals (~0.7 s at these source rates).
PINNED_SOURCE_KNOBS = dict(
    seed=5, source_mean_on=0.1, source_surge_start=0.1,
    source_surge_duration=0.2, source_period=0.5, source_drift=1.0,
)


def arrivals_digest(times):
    assert len(times) >= 200
    return hashlib.sha256(repr(times[:200]).encode()).hexdigest()


@pytest.mark.parametrize("kind", SOURCE_KINDS)
def test_source_arrivals_are_pinned(kind):
    topology = pinned_topology()
    config = SystemConfig(source_kind=kind, **PINNED_SOURCE_KNOBS)
    env = Environment()
    times = []

    def admit(runtime, sdo, now):
        times.append(sdo.origin_time)
        return True

    build_sources(
        env, topology, config, RandomStreams(seed=config.seed),
        dict.fromkeys(topology.source_rates), admit,
    )
    env.run(until=2.0)
    assert arrivals_digest(times) == ARRIVAL_HASHES[kind]


@pytest.mark.parametrize("kind", SOURCE_KINDS)
def test_thread_env_draws_the_pinned_arrivals(kind):
    # The threaded runtime's sources: the same classes from the same RNG
    # streams, each on its own thread with its own model clock, so
    # thread timing cannot move a single arrival.  Dilation 0 runs them
    # flat out; merged in time order, the first 200 are the simulator's.
    topology = pinned_topology()
    config = RuntimeConfig(source_kind=kind, **PINNED_SOURCE_KNOBS)
    stop = threading.Event()
    env = ThreadEnv(clock=lambda: 0.0, dilation=0.0, stop=stop)
    times = []
    latest = dict.fromkeys(topology.source_rates, 0.0)

    def admit(pe_id, sdo, now):
        times.append(sdo.origin_time)
        latest[pe_id] = now
        return True

    build_sources(
        env, topology, config, RandomStreams(seed=config.seed),
        {pe_id: pe_id for pe_id in topology.source_rates}, admit,
    )
    env.start()
    deadline = time.monotonic() + 30.0
    while min(latest.values()) < 2.0 and time.monotonic() < deadline:
        time.sleep(0.01)
    stop.set()
    assert env.failures == []
    assert arrivals_digest(sorted(times)) == ARRIVAL_HASHES[kind]


class TestRetryAfterBackoff:
    def test_backoff_defers_offers(self):
        env = Environment()
        log = []
        source = ConstantRateSource(env, "s", accepting_sink(log), rate=10.0)
        source.backoff(until=0.5)
        env.run(until=1.0)
        # Offers in [0, 0.5) are withheld, not generated-and-rejected.
        assert source.stats.deferred > 0
        assert source.stats.rejected == 0
        assert all(now >= 0.5 for _, now in log)
        assert source.stats.generated == len(log)

    def test_backoff_horizon_only_extends(self):
        env = Environment()
        source = ConstantRateSource(env, "s", lambda s, n: True, rate=10.0)
        source.backoff(until=2.0)
        source.backoff(until=1.0)  # shorter horizon must not shrink it
        env.run(until=1.5)
        assert source.stats.generated == 0
        assert source.stats.deferred > 0
