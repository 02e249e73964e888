"""Tests for the PE runtime entity and its quantized execution model."""

import numpy as np
import pytest

from repro.model.params import PEProfile
from repro.model.pe import PERuntime
from repro.model.sdo import SDO


def make_pe(buffer_capacity=10, seed=0, **profile_kwargs):
    defaults = dict(pe_id="pe-0", t0=0.002, t1=0.002, lambda_s=0.0)
    defaults.update(profile_kwargs)
    return PERuntime(
        PEProfile(**defaults),
        buffer_capacity=buffer_capacity,
        rng=np.random.default_rng(seed),
    )


def sdo(i=0):
    return SDO(stream_id="s", origin_time=float(i))


def collect_emissions():
    emitted = []

    def emit(pe, out, completion):
        emitted.append((out, completion))

    return emitted, emit


class TestExecution:
    def test_processes_exactly_budget_worth(self):
        pe = make_pe()
        for i in range(10):
            pe.ingest(sdo(i), 0.0)
        emitted, emit = collect_emissions()
        # budget = 0.5 * 0.01 = 5 ms; each SDO costs 2 ms -> 2 complete.
        used = pe.execute(now=0.0, dt=0.01, cpu=0.5, emit=emit)
        assert len(emitted) == 2
        assert used == pytest.approx(0.005)
        assert pe.counters.consumed == 2

    def test_partial_work_carries_over(self):
        pe = make_pe()
        for i in range(10):
            pe.ingest(sdo(i), 0.0)
        emitted, emit = collect_emissions()
        pe.execute(now=0.0, dt=0.01, cpu=0.5, emit=emit)  # 2.5 SDOs of work
        assert len(emitted) == 2
        pe.execute(now=0.01, dt=0.01, cpu=0.5, emit=emit)
        # The half-done third SDO finishes plus two more.
        assert len(emitted) == 5

    def test_zero_cpu_does_nothing(self):
        pe = make_pe()
        pe.ingest(sdo(), 0.0)
        emitted, emit = collect_emissions()
        assert pe.execute(0.0, 0.01, 0.0, emit) == 0.0
        assert emitted == []

    def test_empty_buffer_counts_starved(self):
        pe = make_pe()
        emitted, emit = collect_emissions()
        used = pe.execute(0.0, 0.01, 0.5, emit)
        assert used == 0.0
        assert pe.counters.starved_intervals == 1

    def test_completion_times_interpolated(self):
        pe = make_pe()
        for i in range(5):
            pe.ingest(sdo(i), 0.0)
        emitted, emit = collect_emissions()
        pe.execute(now=1.0, dt=0.01, cpu=0.5, emit=emit)
        # At cpu=0.5, a 2 ms SDO takes 4 ms of wall time.
        completions = [t for _, t in emitted]
        assert completions == pytest.approx([1.004, 1.008])

    def test_gate_blocks_processing(self):
        pe = make_pe()
        for i in range(5):
            pe.ingest(sdo(i), 0.0)
        emitted, emit = collect_emissions()
        used = pe.execute(0.0, 0.01, 0.5, emit, gate=lambda p: False)
        assert used == 0.0
        assert emitted == []
        assert pe.counters.blocked_intervals == 1
        assert pe.blocked_last_interval

    def test_gate_checked_per_sdo(self):
        pe = make_pe()
        for i in range(5):
            pe.ingest(sdo(i), 0.0)
        emitted, emit = collect_emissions()
        allowed = {"count": 1}

        def gate(p):
            allowed["count"] -= 1
            return allowed["count"] >= 0

        pe.execute(0.0, 0.01, 1.0, emit, gate=gate)
        assert len(emitted) == 1  # one allowed, then blocked

    def test_emits_lambda_m_outputs(self):
        pe = make_pe(lambda_m=3.0)
        pe.ingest(sdo(), 0.0)
        emitted, emit = collect_emissions()
        pe.execute(0.0, 0.01, 1.0, emit)
        assert len(emitted) == 3
        assert pe.counters.emitted == 3

    def test_emitted_sdos_inherit_origin(self):
        pe = make_pe()
        pe.ingest(SDO(stream_id="s", origin_time=42.0), 50.0)
        emitted, emit = collect_emissions()
        pe.execute(50.0, 0.01, 1.0, emit)
        assert emitted[0][0].origin_time == 42.0
        assert emitted[0][0].hops == 1

    def test_cpu_granted_accumulates(self):
        pe = make_pe()
        pe.execute(0.0, 0.01, 0.7, lambda *a: None)
        assert pe.counters.cpu_granted == pytest.approx(0.007)


class TestBacklogAndRates:
    def test_backlog_counts_buffer_and_partial(self):
        pe = make_pe()
        for i in range(4):
            pe.ingest(sdo(i), 0.0)
        assert pe.backlog_work == pytest.approx(4 * 0.002)
        # Work 1 ms into the first SDO (cpu=0.1 * 10 ms).
        pe.execute(0.0, 0.01, 0.1, lambda *a: None)
        assert pe.backlog_work == pytest.approx(3 * 0.002 + 0.001)

    def test_processing_rate_uses_current_state(self):
        pe = make_pe(t0=0.002, t1=0.020, lambda_s=0.0, rho=0.0)
        assert pe.processing_rate(0.5) == pytest.approx(250.0)
        slow = make_pe(t0=0.002, t1=0.020, lambda_s=0.0, rho=1.0)
        assert slow.processing_rate(0.5) == pytest.approx(25.0)

    def test_cpu_for_output_rate_now(self):
        pe = make_pe(t0=0.002, t1=0.020, lambda_s=0.0, rho=0.0, lambda_m=2.0)
        # 100 SDO/s out = 50 SDO/s in at 2 ms each = 0.1 CPU.
        assert pe.cpu_for_output_rate_now(100.0) == pytest.approx(0.1)
        assert pe.cpu_for_output_rate_now(0.0) == 0.0


class TestWiring:
    def test_link_downstream_symmetrical(self):
        a = make_pe()
        b = PERuntime(
            PEProfile(pe_id="pe-1"), 10, np.random.default_rng(1)
        )
        a.link_downstream(b)
        assert b in a.downstream
        assert a in b.upstream

    def test_self_link_rejected(self):
        pe = make_pe()
        with pytest.raises(ValueError):
            pe.link_downstream(pe)

    def test_ingest_respects_capacity(self):
        pe = make_pe(buffer_capacity=1)
        assert pe.ingest(sdo(), 0.0)
        assert not pe.ingest(sdo(), 0.0)


class TestSampleM:
    def test_deterministic_m(self):
        pe = make_pe(lambda_m=2.0, deterministic_m=True)
        assert all(pe.emission.sample() == 2 for _ in range(10))

    def test_poisson_m_mean(self):
        pe = make_pe(lambda_m=3.0, deterministic_m=False, seed=5)
        samples = [pe.emission.sample() for _ in range(5000)]
        assert np.mean(samples) == pytest.approx(3.0, rel=0.05)
