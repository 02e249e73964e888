"""Tests for the threaded SPC runtime (transport, workers, orchestrator)."""

import math
import sys
import threading
import time

import numpy as np
import pytest

from repro.control.forecast import ForecastConfig, ForecastController
from repro.control.wiring import PeriodicTick
from repro.core.policies import (
    AcesPolicy,
    LoadSheddingPolicy,
    LockStepPolicy,
    UdpPolicy,
)
from repro.graph.topology import TopologySpec, generate_topology
from repro.model.params import PEProfile
from repro.model.pe import PERuntime
from repro.model.sdo import SDO
from repro.obs import MemoryRecorder
from repro.runtime.env import ThreadEnv
from repro.runtime.spc import RuntimeConfig, SPCRuntime
from repro.runtime.transport import Channel
from repro.runtime.worker import RuntimePE


def sdo(i=0):
    return SDO(stream_id="s", origin_time=float(i))


class TestChannel:
    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Channel(0)

    def test_offer_drop_on_full(self):
        channel = Channel(2)
        assert channel.offer(sdo())
        assert channel.offer(sdo())
        assert not channel.offer(sdo())
        assert channel.stats.dropped == 1
        assert channel.stats.accepted == 2

    def test_get_fifo(self):
        channel = Channel(5)
        items = [sdo(i) for i in range(3)]
        for item in items:
            channel.offer(item)
        popped = [channel.get(timeout=0.1) for _ in range(3)]
        assert all(p is i for p, i in zip(popped, items, strict=True))

    def test_get_timeout_returns_none(self):
        channel = Channel(2)
        start = time.monotonic()
        assert channel.get(timeout=0.05) is None
        assert time.monotonic() - start >= 0.04

    def test_put_blocks_until_space(self):
        channel = Channel(1)
        channel.offer(sdo())
        result = {}

        def blocked_put():
            result["ok"] = channel.put(sdo(), timeout=1.0)

        thread = threading.Thread(target=blocked_put)
        thread.start()
        time.sleep(0.05)
        channel.get(timeout=0.1)
        thread.join(timeout=1.0)
        assert result["ok"]

    def test_put_timeout_counts_drop(self):
        channel = Channel(1)
        channel.offer(sdo())
        assert not channel.put(sdo(), timeout=0.05)
        assert channel.stats.dropped == 1

    def test_occupancy_and_free(self):
        channel = Channel(3)
        channel.offer(sdo())
        assert channel.occupancy == 1
        assert channel.free == 2

    def test_concurrent_producers_consumers(self):
        channel = Channel(10)
        received = []
        done = threading.Event()

        def producer():
            for i in range(100):
                while not channel.offer(sdo(i)):
                    time.sleep(0.001)

        def consumer():
            while len(received) < 200:
                item = channel.get(timeout=0.5)
                if item is None:
                    break
                received.append(item)
            done.set()

        threads = [
            threading.Thread(target=producer),
            threading.Thread(target=producer),
            threading.Thread(target=consumer),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5.0)
        assert len(received) == 200


class TestRuntimePE:
    def make_pe(self, channel_capacity=10, **kwargs):
        defaults = dict(pe_id="pe-0", t0=0.001, t1=0.001, lambda_s=0.0)
        defaults.update(kwargs)
        return RuntimePE(
            PEProfile(**defaults),
            channel_capacity=channel_capacity,
            rng=np.random.default_rng(0),
            dilation=1.0,
        )

    @staticmethod
    def wait_for(predicate, timeout):
        deadline = time.monotonic() + timeout
        while not predicate() and time.monotonic() < deadline:
            time.sleep(0.005)
        return predicate()

    def test_start_requires_attach(self):
        pe = self.make_pe()
        with pytest.raises(RuntimeError):
            pe.start()

    def test_processes_and_emits_to_egress_sink(self):
        pe = self.make_pe()
        pe.is_egress = True
        outputs = []
        pe.attach(clock=lambda: 0.0, egress_sink=outputs.append)
        pe.allocation = 1.0
        pe.start()
        for i in range(5):
            pe.channel.offer(sdo(i))
        time.sleep(0.3)
        pe.stop()
        assert len(outputs) == 5
        assert pe.consumed == 5

    def test_emits_downstream(self):
        producer = self.make_pe(pe_id="p")
        consumer = self.make_pe(pe_id="c")
        producer.link_downstream(consumer)
        producer.attach(clock=lambda: 0.0)
        producer.allocation = 1.0
        producer.start()
        producer.channel.offer(sdo())
        time.sleep(0.2)
        producer.stop()
        assert consumer.channel.occupancy == 1

    def test_scheduler_protocol_surface(self):
        pe = self.make_pe()
        assert pe.backlog_work == 0.0
        pe.channel.offer(sdo())
        assert pe.backlog_work > 0.0
        assert pe.current_service_time == 0.001
        assert pe.processing_rate(0.5) == pytest.approx(500.0)
        assert pe.cpu_for_output_rate_now(100.0) == pytest.approx(0.1)
        assert not pe.blocked_last_interval

    def test_min_flow_gate_blocks(self):
        producer = self.make_pe(pe_id="p")
        consumer = RuntimePE(
            PEProfile(pe_id="c"),
            channel_capacity=1,
            rng=np.random.default_rng(1),
            dilation=1.0,
        )
        producer.link_downstream(consumer)
        producer.gates = {"p": LockStepPolicy().make_gate(producer)}
        producer.attach(clock=lambda: 0.0)
        producer.allocation = 1.0
        consumer.channel.offer(sdo())  # consumer full
        producer.start()
        producer.channel.offer(sdo())
        time.sleep(0.15)
        producer.stop()
        assert producer.consumed == 0  # gated the whole time

    def test_raised_share_speeds_up_the_sdo_in_service(self):
        # 0.2 CPU-s at the 0.02 floor is 10 s; raised to 1.0 after
        # 0.05 s, the rest takes under 0.2 s.
        pe = self.make_pe(t0=0.2, t1=0.2)
        pe.attach(clock=time.monotonic)
        pe.start()
        pe.channel.offer(sdo())
        time.sleep(0.05)
        pe.allocation = 1.0
        try:
            assert self.wait_for(lambda: pe.consumed == 1, 0.55)
            assert pe.cpu_used == pytest.approx(0.2)
        finally:
            pe.stop()

    def test_lowered_share_slows_down_the_sdo_in_service(self):
        # 0.05 CPU-s done at 1.0, the other 0.15 at 0.1 takes 1.5 s.
        pe = self.make_pe(t0=0.2, t1=0.2)
        pe.attach(clock=time.monotonic)
        pe.allocation = 1.0
        pe.start()
        pe.channel.offer(sdo())
        time.sleep(0.05)
        pe.allocation = 0.1
        time.sleep(0.45)
        try:
            assert pe.consumed == 0
            assert pe.cpu_used == 0.0
        finally:
            pe.stop()

    def test_stop_interrupts_the_sdo_in_service(self):
        # 1 CPU-s at the floor share is 50 s of wall.
        pe = self.make_pe(t0=1.0, t1=1.0)
        pe.is_egress = True
        outputs = []
        pe.attach(clock=time.monotonic, egress_sink=outputs.append)
        pe.start()
        pe.channel.offer(sdo())
        assert self.wait_for(lambda: pe.channel.occupancy == 0, 0.5)
        began = time.monotonic()
        pe.stop()
        assert not pe.is_alive
        assert time.monotonic() - began < 0.5
        assert pe.consumed == 0
        assert pe.cpu_used == 0.0
        assert outputs == []

    def test_share_changes_under_fast_thread_switching_lose_no_wakeup(self):
        # More workers than cores, the allocation flipped between the
        # floor and 1.0 at every switch: a lost wake-up would leave a
        # worker at the floor after the final raise, 5 s per SDO.
        count, cost = 3, 0.1
        pes = [self.make_pe(pe_id=f"pe-{i}", t0=cost, t1=cost)
               for i in range(8)]
        for pe in pes:
            pe.attach(clock=time.monotonic)
            for i in range(count):
                pe.channel.offer(sdo(i))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for pe in pes:
                pe.start()
            flips = 0
            deadline = time.monotonic() + 0.2
            while time.monotonic() < deadline:
                for pe in pes:
                    pe.allocation = float(flips % 2)
                flips += 1
            for pe in pes:
                pe.allocation = 1.0
            assert self.wait_for(
                lambda: all(pe.consumed == count for pe in pes), 1.5
            )
        finally:
            sys.setswitchinterval(interval)
            for pe in pes:
                pe.stop()
        assert flips > 10
        for pe in pes:
            assert not pe.is_alive
            assert pe.cpu_used == pytest.approx(count * cost)

    @pytest.mark.parametrize("deterministic_m", [True, False])
    @pytest.mark.parametrize("lambda_m", [0.1, 1.5, 2.5])
    def test_emits_as_many_sdos_as_the_simulator(
        self, lambda_m, deterministic_m
    ):
        count = 20
        profile = dict(lambda_m=lambda_m, deterministic_m=deterministic_m)
        pe = self.make_pe(channel_capacity=count, **profile)
        pe.is_egress = True
        outputs = []
        pe.attach(clock=lambda: 0.0, egress_sink=outputs.append)
        pe.allocation = 1.0
        for i in range(count):
            pe.channel.offer(sdo(i))
        pe.start()
        try:
            assert self.wait_for(lambda: pe.consumed == count, 2.0)
        finally:
            pe.stop()
        # The same profile and seed in the simulator's PE (a frozen
        # machine draws nothing, so M is the generator's only use).
        reference = PERuntime(
            PEProfile(pe_id="pe-0", t0=0.001, t1=0.001, lambda_s=0.0,
                      **profile),
            buffer_capacity=count,
            rng=np.random.default_rng(0),
        )
        expected = sum(reference.emission.sample() for _ in range(count))
        assert len(outputs) == pe.emitted == expected
        if deterministic_m:
            assert abs(expected - lambda_m * count) <= 1


class TestThreadEnv:
    def test_processes_keep_their_own_model_clock(self):
        stop = threading.Event()
        env = ThreadEnv(clock=lambda: 0.0, dilation=0.0, stop=stop)
        seen = []
        done = threading.Event()

        def process(step):
            for _ in range(3):
                yield env.timeout(step)
                seen.append((step, env.now))
            done.set()

        env.process(process(0.25))
        assert seen == []  # nothing runs before start()
        env.start()
        assert done.wait(5.0)
        assert seen == [(0.25, 0.25), (0.25, 0.5), (0.25, 0.75)]
        assert env.now == 0.0  # outside a process: the clock itself
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_stop_ends_a_sleeping_process(self):
        stop = threading.Event()
        env = ThreadEnv(clock=lambda: 0.0, dilation=1.0, stop=stop)

        def sleeper():
            yield env.timeout(3600.0)

        thread = env.process(sleeper())
        env.start()
        stop.set()
        env.join(timeout=1.0)
        assert not thread.is_alive()
        assert env.failures == []

    def test_a_late_tick_does_not_skew_the_forecast_rate(self):
        # Arrivals at a steady 1000/s.  One forecast tick overruns three
        # intervals (a slow re-solve) and a later one waits three
        # intervals for the lock: on the clock, each tick still divides
        # the arrivals since the last one by the time since it.  On
        # deadlines the tick after the overrun would report ~3x the
        # rate and the catch-up ticks ~0; without the guard the tick
        # behind the lock would report ~3x.
        start = time.monotonic()

        def clock():
            return time.monotonic() - start

        stop = threading.Event()
        env = ThreadEnv(clock=clock, dilation=1.0, stop=stop)
        interval = 0.05
        forecast = ForecastController(
            ForecastConfig(sample_interval=interval)
        )
        forecast.bind(
            counters={"in": lambda: int(clock() * 1000)},
            baseline={"in": 1000.0},
        )
        lock = threading.Lock()
        rates = []

        def hold_lock():
            with lock:
                time.sleep(3 * interval)

        def tick(now):
            forecast.tick(now)
            rates.append(forecast.last_rates.get("in"))
            if len(rates) == 3:
                time.sleep(3 * interval)
            elif len(rates) == 6:
                threading.Thread(target=hold_lock).start()
            elif len(rates) == 10:
                stop.set()

        periodic = PeriodicTick("forecast", interval, tick, True)
        env.process(periodic.run(env, env.guard(lock)), on_clock=True)
        env.start()
        assert stop.wait(10.0)
        env.join(timeout=1.0)
        assert env.failures == []
        assert rates[0] is None  # the first tick only takes watermarks
        assert all(600.0 < rate < 1600.0 for rate in rates[1:]), rates


class TestSPCRuntime:
    @pytest.fixture(scope="class")
    def topology(self):
        spec = TopologySpec(
            num_nodes=3,
            num_ingress=2,
            num_egress=2,
            num_intermediate=3,
            calibrate_rates=False,
        )
        return generate_topology(spec, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "policy_cls", [AcesPolicy, UdpPolicy, LockStepPolicy]
    )
    def test_end_to_end_produces_output(self, topology, policy_cls):
        runtime = SPCRuntime(
            topology,
            policy_cls(),
            config=RuntimeConfig(seed=3, warmup=0.5, dt=0.05, dilation=0.5),
        )
        # The first SDO needs ~3.2 model-s to cross this graph, and the
        # report counts nothing delivered after the window closes.
        report = runtime.run(duration=4.0)
        assert report.total_output_sdos > 0
        assert report.weighted_throughput > 0
        assert report.policy == policy_cls().name
        assert report.duration == pytest.approx(4.0, abs=0.3)

    def test_report_closes_at_the_window_edge(self, topology):
        # A tap installed the way the perf observatory installs its own:
        # through RuntimePE.attach, recording under the collector lock.
        runtime = SPCRuntime(
            topology, AcesPolicy(),
            config=RuntimeConfig(seed=3, warmup=0.5, dt=0.05, dilation=0.5),
        )
        stamps = []

        def make_sink(pe_id):
            def sink(sdo):
                with runtime.collector_lock:
                    now = runtime.now()
                    runtime.collector.record(pe_id, sdo, now)
                    stamps.append(now)

            return sink

        for pe_id, pe in runtime.pes.items():
            if pe.is_egress:
                pe.attach(clock=runtime.now, egress_sink=make_sink(pe_id))
        report = runtime.run(duration=4.0)
        # Teardown is one signal to every worker, then the joins.
        assert not any(pe.is_alive for pe in runtime.pes.values())
        opened = runtime.collector.window_start
        closed = opened + report.duration
        delivered = [t for t in stamps if opened <= t <= closed]
        assert report.total_output_sdos == len(delivered) > 0
        assert sum(
            count for _w, count, _l in report.egress_detail.values()
        ) == len(delivered)

    def test_shedding_policy_sheds(self, topology):
        # Before the shed filter ran here, this policy ran as UDP.
        recorder = MemoryRecorder()
        runtime = SPCRuntime(
            topology, LoadSheddingPolicy(),
            config=RuntimeConfig(
                seed=3, warmup=0.5, dt=0.05, dilation=0.5, buffer_size=4,
            ),
            recorder=recorder,
        )
        report = runtime.run(duration=2.0)
        assert report.drops_by_kind["shed"] > 0
        assert runtime.check_conservation() == []
        sheds = [
            event for event in recorder.by_kind("drop")
            if event["cause"] == "shed"
        ]
        assert len(sheds) == runtime.shed_drops

    def test_plane_gate_holds_the_worker(self, topology):
        # The worker checks the plane's live gate registry before each
        # get, so a gate closed through set_gate holds a PE under any
        # policy (UDP makes no gates of its own) until it is restored.
        # A 1 s warm-up: the first SDO is served at the 2% floor share
        # (no grant yet), so an ungated worker may not finish it sooner.
        runtime = SPCRuntime(
            topology, UdpPolicy(),
            config=RuntimeConfig(seed=3, warmup=1.0, dt=0.05, dilation=0.5),
        )
        pe_id = topology.graph.ingress_ids[0]
        pe = runtime.pes[pe_id]
        runtime.plane.set_gate(pe_id, lambda _: False)
        seen = []

        def observer(live):
            seen.append((pe.consumed, pe.channel.occupancy))
            if len(seen) == 1:
                live.plane.set_gate(pe_id, None)

        runtime.run(duration=2.0, observer=observer, observe_interval=0.5)
        consumed, queued = seen[0]
        assert consumed == 0 and queued > 0
        assert pe.consumed > 0

    def test_invalid_duration(self, topology):
        runtime = SPCRuntime(topology, UdpPolicy())
        with pytest.raises(ValueError):
            runtime.run(0.0)

    @pytest.mark.parametrize("duration", [math.nan, math.inf])
    def test_non_finite_duration(self, topology, duration):
        runtime = SPCRuntime(topology, UdpPolicy())
        with pytest.raises(ValueError, match="duration"):
            runtime.run(duration)

    @pytest.mark.parametrize("interval", [0.0, -1.0, math.nan])
    def test_invalid_observe_interval(self, topology, interval):
        runtime = SPCRuntime(topology, UdpPolicy())
        with pytest.raises(ValueError, match="observe_interval"):
            runtime.run(
                1.0, observer=lambda _: None, observe_interval=interval
            )

    def test_latency_measured(self, topology):
        runtime = SPCRuntime(
            topology, AcesPolicy(),
            config=RuntimeConfig(seed=4, warmup=0.5, dt=0.05, dilation=0.5),
        )
        report = runtime.run(duration=4.0)
        assert report.latency.count > 0
        assert report.latency.mean > 0

    def test_a_failed_process_fails_the_run(self, topology):
        runtime = SPCRuntime(
            topology, UdpPolicy(),
            config=RuntimeConfig(seed=3, warmup=0.1, dt=0.05, dilation=0.5),
        )

        def broken():
            yield runtime.env.timeout(0.2)
            raise RuntimeError("broken process")

        runtime.env.process(broken())
        with pytest.raises(RuntimeError, match="broken process"):
            runtime.run(duration=0.5)
        assert not any(pe.is_alive for pe in runtime.pes.values())

    def test_runtime_ledger_closes_and_catches_tampering(self, topology):
        runtime = SPCRuntime(
            topology, UdpPolicy(),
            config=RuntimeConfig(seed=3, warmup=0.1, dt=0.05, dilation=0.5),
        )
        runtime.run(duration=0.5)
        assert runtime.check_conservation() == []
        pe_id = topology.graph.ingress_ids[0]
        runtime.pes[pe_id].channel.stats.popped += 1
        runtime.sources[0].stats.admitted += 1
        found = {v.invariant for v in runtime.check_conservation()}
        assert {
            "buffer_occupancy_conservation",
            "source_conservation",
            "ingress_conservation",
        } <= found
