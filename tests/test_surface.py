"""The live metrics surface: snapshots, ``repro top``, Prometheus text."""

import csv

import numpy as np
import pytest

from repro.cli import main
from repro.core.policies import AcesPolicy
from repro.graph.topology import TopologySpec, generate_topology
from repro.obs import (
    MemoryRecorder,
    SpanTracker,
    read_events_jsonl,
    render_prometheus,
    render_top,
    snapshot,
    write_events_csv,
    write_events_jsonl,
)
from repro.runtime.spc import RuntimeConfig, SPCRuntime
from repro.systems.simulated import SimulatedSystem, SystemConfig


def small_topology(seed=1, load=2.0):
    spec = TopologySpec(
        num_nodes=2, num_ingress=2, num_egress=2, num_intermediate=4,
        load_factor=load, calibrate_rates=False,
    )
    return generate_topology(spec, np.random.default_rng(seed))


@pytest.fixture(scope="module")
def sim_state():
    recorder = MemoryRecorder()
    spans = SpanTracker(recorder=recorder)
    system = SimulatedSystem(
        small_topology(),
        AcesPolicy(),
        config=SystemConfig(seed=3, warmup=0.2, buffer_size=10),
        recorder=recorder,
        spans=spans,
    )
    system.run(2.0)
    return system, recorder, spans


class TestSnapshotSystem:
    def test_fields(self, sim_state):
        system, _, _ = sim_state
        snap = snapshot(system)
        assert snap.substrate == "sim"
        assert snap.policy == "aces"
        assert snap.t == pytest.approx(system.env.now)
        assert snap.window > 0
        assert snap.total_output == system.collector.total_output()
        assert snap.weighted_throughput > 0
        assert snap.drop_rate == pytest.approx(
            snap.buffer_drops / snap.window
        )
        assert snap.span_violations == 0
        assert snap.span_rows  # spans were armed

    def test_stream_rows(self, sim_state):
        system, _, _ = sim_state
        snap = snapshot(system)
        assert len(snap.streams) == len(system.collector.records())
        for row in snap.streams:
            assert row.count > 0
            assert 0 < row.p50_s <= row.p95_s <= row.p99_s
            assert row.sum_s > 0
            assert row.buckets
            edges = [edge for edge, _ in row.buckets]
            counts = [count for _, count in row.buckets]
            assert edges == sorted(edges)
            assert counts[-1] == row.count

    def test_pe_rows(self, sim_state):
        system, _, _ = sim_state
        snap = snapshot(system)
        assert {row.pe_id for row in snap.pes} == set(
            system.runtimes
        )
        for row in snap.pes:
            assert 0 <= row.occupancy <= row.capacity


class TestRenderTop:
    def test_sections_and_content(self, sim_state):
        system, _, _ = sim_state
        text = render_top(snapshot(system))
        assert text.startswith("repro top  [sim/aces]")
        assert "-- egress streams --" in text
        assert "-- PEs --" in text
        assert "-- latency spans (closure violations: 0) --" in text
        assert "p95_ms" in text
        # Every PE appears in the PE table.
        for pe_id in system.runtimes:
            assert pe_id in text

    def test_spanless_snapshot_omits_span_section(self):
        system = SimulatedSystem(
            small_topology(),
            AcesPolicy(),
            config=SystemConfig(seed=3, warmup=0.0, buffer_size=10),
        )
        system.run(1.0)
        text = render_top(snapshot(system))
        assert "latency spans" not in text
        assert "-- egress streams --" in text


class TestRenderPrometheus:
    def test_exposition_well_formed(self, sim_state):
        system, _, _ = sim_state
        snap = snapshot(system)
        text = render_prometheus(snap)
        assert text.endswith("\n")
        lines = text.splitlines()
        # Every non-comment line is "name{labels} value".
        for line in lines:
            if line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            assert name
            float(value)  # parses
        assert any(
            line.startswith("repro_weighted_throughput{") for line in lines
        )
        assert (
            f"repro_output_sdos_total{{substrate=\"sim\",policy=\"aces\"}} "
            f"{snap.total_output}" in lines
        )

    def test_histogram_series_consistent(self, sim_state):
        system, _, _ = sim_state
        snap = snapshot(system)
        lines = render_prometheus(snap).splitlines()
        for row in snap.streams:
            label = f'stream="{row.pe_id}"'
            buckets = [
                line for line in lines
                if line.startswith("repro_stream_latency_seconds_bucket")
                and label in line
            ]
            # +Inf terminates the series and carries the total count.
            assert buckets[-1].endswith(f'le="+Inf"}} {row.count}')
            cumulative = [int(line.rpartition(" ")[2]) for line in buckets]
            assert cumulative == sorted(cumulative)
            count_line = next(
                line for line in lines
                if line.startswith("repro_stream_latency_seconds_count")
                and label in line
            )
            assert count_line.endswith(f" {row.count}")


class TestSnapshotRuntime:
    def test_threaded_snapshot(self):
        spec = TopologySpec(
            num_nodes=2, num_ingress=1, num_egress=1, num_intermediate=3,
            calibrate_rates=False,
        )
        topology = generate_topology(spec, np.random.default_rng(0))
        spans = SpanTracker()
        runtime = SPCRuntime(
            topology,
            AcesPolicy(),
            config=RuntimeConfig(seed=3, warmup=0.3, dt=0.05, dilation=0.5),
            spans=spans,
        )
        # ~2.7 model-s until the first SDO crosses this graph.
        runtime.run(duration=4.0)
        snap = snapshot(runtime)
        assert snap.substrate == "threaded"
        assert snap.total_output > 0
        assert snap.streams
        assert snap.span_violations == 0
        text = render_top(snap)
        assert "[threaded/aces]" in text
        prom = render_prometheus(snap)
        assert 'substrate="threaded"' in prom


class TestSpanEventExport:
    def test_jsonl_and_csv_round_trip(self, sim_state, tmp_path):
        _, recorder, _ = sim_state
        events = recorder.by_kind("span")
        assert events
        jsonl = tmp_path / "spans.jsonl"
        assert write_events_jsonl(events, str(jsonl)) == len(events)
        loaded = read_events_jsonl(str(jsonl), validate=True)
        assert loaded == events
        csv_path = tmp_path / "spans.csv"
        assert write_events_csv(events, str(csv_path)) == len(events)
        with open(csv_path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(events)
        for column in ("queue", "service", "transit", "e2e", "stream"):
            assert column in rows[0]
        assert float(rows[0]["e2e"]) == pytest.approx(events[0]["e2e"])


class TestCliTop:
    ARGS = [
        "--pes", "10", "--nodes", "2", "--seed", "0", "--load", "2.0",
        "--buffer", "10", "--duration", "1.5", "--warmup", "0.3",
    ]

    def test_once_sim(self, capsys):
        assert main(["top", *self.ARGS, "--once", "--spans"]) == 0
        out = capsys.readouterr().out
        assert "repro top  [sim/aces]" in out
        assert "-- latency spans (closure violations: 0) --" in out

    def test_once_threaded(self, capsys):
        assert main(
            ["top", *self.ARGS, "--substrate", "threaded", "--once"]
        ) == 0
        out = capsys.readouterr().out
        assert "[threaded/aces]" in out
        assert "-- egress streams --" in out

    def test_prometheus_file(self, tmp_path, capsys):
        path = tmp_path / "metrics.prom"
        assert main(
            ["top", *self.ARGS, "--once", "--prometheus", str(path)]
        ) == 0
        text = path.read_text()
        assert "# TYPE repro_stream_latency_seconds histogram" in text
        assert 'le="+Inf"' in text
