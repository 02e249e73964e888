"""Tests for repro.obs: trace recording, gauges, profiling, exporters."""

import csv
import io

import numpy as np
import pytest

from repro.core.policies import AcesPolicy
from repro.graph.topology import TopologySpec, generate_topology
from repro.obs import (
    ENVELOPE_KEYS,
    EVENT_KINDS,
    GaugeRegistry,
    JsonlRecorder,
    MemoryRecorder,
    NULL_RECORDER,
    NullRecorder,
    PhaseProfiler,
    TraceFilter,
    TraceRecorder,
    read_events_jsonl,
    validate_event,
    write_events_csv,
    write_events_jsonl,
    write_gauges_csv,
)
from repro.cli import main
from repro.sim.engine import Environment
from repro.systems.simulated import SimulatedSystem, SystemConfig

#: The event kinds the acceptance criteria require a traced ACES run to emit.
REQUIRED_KINDS = {
    "r_max",
    "token_bucket",
    "cpu_grant",
    "buffer_occupancy",
    "drop",
    "tier1_resolve",
}


def small_topology(seed=1, load=2.0):
    spec = TopologySpec(
        num_nodes=2, num_ingress=2, num_egress=2, num_intermediate=4,
        load_factor=load, calibrate_rates=False,
    )
    return generate_topology(spec, np.random.default_rng(seed))


class TestTraceFilter:
    def test_empty_admits_everything(self):
        for expression in (None, "", " , "):
            f = TraceFilter.parse(expression)
            assert f.admits("drop", "pe-1", "node-0")
            assert f.admits("gauge", None, None)

    def test_kind_alternatives(self):
        f = TraceFilter.parse("kind=r_max|drop")
        assert f.admits("r_max", "pe-1", None)
        assert f.admits("drop", None, None)
        assert not f.admits("cpu_grant", "pe-1", None)

    def test_pe_and_node_terms(self):
        f = TraceFilter.parse("pe=pe-3,node=node-0")
        assert f.admits("r_max", "pe-3", "node-0")
        assert not f.admits("r_max", "pe-4", "node-0")
        assert not f.admits("r_max", "pe-3", "node-1")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown trace filter key"):
            TraceFilter.parse("stream=s-1")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            TraceFilter.parse("kind=r_max|bogus")

    def test_malformed_term_rejected(self):
        with pytest.raises(ValueError, match="not key=value"):
            TraceFilter.parse("r_max")


class TestMemoryRecorder:
    def test_emit_stamps_clock_and_counts(self):
        clock = iter([1.5, 2.5])
        recorder = MemoryRecorder()
        recorder.bind_clock(lambda: next(clock))
        recorder.emit("drop", pe="pe-1", cause="buffer_full")
        recorder.emit("r_max", pe="pe-1", r_max=3.0)
        assert [e["t"] for e in recorder.events] == [1.5, 2.5]
        assert recorder.counts == {"drop": 1, "r_max": 1}
        assert recorder.by_kind("drop")[0]["cause"] == "buffer_full"
        assert len(recorder) == 2

    def test_unbound_clock_stamps_zero(self):
        recorder = MemoryRecorder()
        recorder.emit("drop", pe="pe-1")
        assert recorder.events[0]["t"] == 0.0

    def test_filter_applies_before_recording(self):
        recorder = MemoryRecorder(
            trace_filter=TraceFilter.parse("kind=drop")
        )
        recorder.emit("r_max", pe="pe-1")
        recorder.emit("drop", pe="pe-1")
        assert [e["kind"] for e in recorder.events] == ["drop"]
        assert recorder.counts == {"drop": 1}

    def test_events_are_valid(self):
        recorder = MemoryRecorder()
        recorder.bind_clock(lambda: 0.25)
        recorder.emit("tier1_resolve", reason="initial", objective=1.0)
        assert validate_event(recorder.events[0]) == []


class TestNullRecorder:
    def test_disabled_and_inert(self):
        assert NULL_RECORDER.enabled is False
        NULL_RECORDER.emit("drop", pe="pe-1", cause="buffer_full")
        assert not NULL_RECORDER.counts

    def test_hot_paths_never_emit_when_disabled(self):
        """The zero-overhead contract: every instrumented hot path guards
        event construction with ``if recorder.enabled:``, so a run with the
        (default) NullRecorder performs one attribute read and one branch
        per potential event — ``emit`` is never reached.  That structural
        guarantee is what keeps NullRecorder runs within the <2% wall-time
        budget versus the uninstrumented seed."""

        class TrippingNull(NullRecorder):
            def emit(self, kind, pe=None, node=None, **data):
                raise AssertionError(
                    f"emit({kind!r}) called on a disabled recorder"
                )

        system = SimulatedSystem(
            small_topology(),
            AcesPolicy(),
            config=SystemConfig(seed=3, warmup=0.2, buffer_size=10),
            recorder=TrippingNull(),
        )
        report = system.run(1.0)
        assert report.total_output_sdos > 0


class TestJsonlRecorder:
    def test_lazy_open_and_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        recorder = JsonlRecorder(str(path))
        recorder.bind_clock(lambda: 0.5)
        assert not path.exists()  # opened lazily on the first event
        recorder.emit("drop", pe="pe-1", cause="shed")
        recorder.emit("gauge", pe="pe-2", name="occupancy", value=4.0)
        recorder.close()
        events = read_events_jsonl(str(path), validate=True)
        assert [e["kind"] for e in events] == ["drop", "gauge"]
        assert events[0]["cause"] == "shed"
        assert events[1]["value"] == 4.0

    def test_context_manager_closes(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlRecorder(str(path)) as recorder:
            recorder.emit("drop", pe="pe-1")
        assert len(read_events_jsonl(str(path))) == 1

    def test_accepts_open_file_object(self):
        sink = io.StringIO()
        recorder = JsonlRecorder(sink)
        recorder.bind_clock(lambda: 1.0)
        recorder.emit("r_max", pe="pe-1", r_max=2.0)
        sink.seek(0)
        events = read_events_jsonl(sink, validate=True)
        assert events[0]["r_max"] == 2.0


class TestValidateEvent:
    def good(self):
        return {"t": 1.0, "kind": "drop", "pe": "pe-1", "node": None}

    def test_good_event(self):
        assert validate_event(self.good()) == []

    def test_bad_time(self):
        assert validate_event({**self.good(), "t": "later"})
        assert validate_event({**self.good(), "t": -1.0})
        assert validate_event({**self.good(), "t": float("inf")})
        assert validate_event({**self.good(), "t": float("nan")})
        assert validate_event({**self.good(), "t": True})

    def test_bad_kind(self):
        assert validate_event({**self.good(), "kind": "explosion"})
        assert validate_event({"t": 1.0, "pe": None, "node": None})

    def test_bad_labels(self):
        assert validate_event({**self.good(), "pe": 7})
        assert validate_event({**self.good(), "node": 7})

    def test_read_jsonl_rejects_invalid(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t": -1.0, "kind": "drop", "pe": null, "node": null}\n')
        with pytest.raises(ValueError, match="line 1"):
            read_events_jsonl(str(path), validate=True)


class TestExporters:
    def events(self):
        return [
            {"t": 0.0, "kind": "drop", "pe": "pe-1", "node": None,
             "cause": "buffer_full"},
            {"t": 0.1, "kind": "tier1_resolve", "pe": None, "node": None,
             "cpu_targets": {"pe-1": 0.5}},
        ]

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        assert write_events_jsonl(self.events(), str(path)) == 2
        assert read_events_jsonl(str(path), validate=True) == self.events()

    def test_csv_columns_and_payload_union(self, tmp_path):
        path = tmp_path / "events.csv"
        assert write_events_csv(self.events(), str(path)) == 2
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert list(rows[0]) == list(ENVELOPE_KEYS) + [
            "cause", "cpu_targets",
        ]
        assert rows[0]["cause"] == "buffer_full"
        assert rows[0]["cpu_targets"] == ""
        # Structured payloads survive as JSON cells.
        assert rows[1]["cpu_targets"] == '{"pe-1":0.5}'


class TestPhaseProfiler:
    def make(self):
        clock = {"t": 0.0}

        def advance(dt):
            clock["t"] += dt

        return PhaseProfiler(clock=lambda: clock["t"]), advance

    def test_nested_phases_are_exclusive(self):
        profiler, advance = self.make()
        profiler.push("outer")
        advance(1.0)
        profiler.push("inner")
        advance(2.0)
        profiler.pop()
        advance(3.0)
        profiler.pop()
        assert profiler.totals["outer"] == pytest.approx(4.0)
        assert profiler.totals["inner"] == pytest.approx(2.0)
        assert profiler.total_seconds == pytest.approx(6.0)
        assert profiler.counts == {"outer": 1, "inner": 1}

    def test_context_manager(self):
        profiler, advance = self.make()
        with profiler.phase("only"):
            advance(0.5)
        assert profiler.totals["only"] == pytest.approx(0.5)

    def test_fractions_and_rows(self):
        profiler, advance = self.make()
        with profiler.phase("a"):
            advance(3.0)
        with profiler.phase("b"):
            advance(1.0)
        fractions = profiler.fractions()
        assert fractions["a"] == pytest.approx(0.75)
        rows = profiler.report_rows()
        assert [row["phase"] for row in rows] == ["a", "b"]  # heaviest first
        assert "a=3.000s(75%)" in profiler.one_line()

    def test_empty_profiler(self):
        profiler, _ = self.make()
        assert profiler.total_seconds == 0.0
        assert profiler.fractions() == {}
        assert profiler.one_line() == "profile: <empty>"


class TestGaugeRegistry:
    def test_cadence_validation(self):
        with pytest.raises(ValueError):
            GaugeRegistry(Environment(), cadence=0.0)

    def test_duplicate_key_rejected(self):
        registry = GaugeRegistry(Environment())
        registry.register("occupancy", lambda: 0.0, pe="pe-1")
        with pytest.raises(ValueError, match="already registered"):
            registry.register("occupancy", lambda: 1.0, pe="pe-1")
        # Same name under a different label is fine.
        registry.register("occupancy", lambda: 1.0, pe="pe-2")
        assert len(registry) == 2

    def test_samples_on_cadence(self):
        env = Environment()
        state = {"v": 0.0}
        registry = GaugeRegistry(env, cadence=0.5)
        registry.register("level", lambda: state["v"], pe="pe-1")
        registry.start()
        registry.start()  # idempotent

        def bump():
            while True:
                yield env.timeout(0.5)
                state["v"] += 1.0

        env.process(bump())
        env.run(until=2.1)
        series = registry.series("level", pe="pe-1")
        assert series.times == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])
        # The sampler was scheduled first, so at each shared timestamp it
        # observes the value from before that tick's bump.
        assert series.values == pytest.approx([0.0, 0.0, 1.0, 2.0, 3.0])

    def test_unknown_series_raises(self):
        registry = GaugeRegistry(Environment())
        with pytest.raises(KeyError, match="no gauge"):
            registry.series("missing")

    def test_recorder_receives_gauge_events(self):
        env = Environment()
        recorder = MemoryRecorder()
        recorder.bind_clock(lambda: env.now)
        registry = GaugeRegistry(env, cadence=1.0, recorder=recorder)
        registry.register("level", lambda: 7.0, node="node-0")
        registry.start()
        env.run(until=2.5)
        events = recorder.by_kind("gauge")
        assert len(events) == 3
        assert events[0]["name"] == "level"
        assert events[0]["value"] == 7.0
        assert events[0]["node"] == "node-0"
        assert all(validate_event(e) == [] for e in events)

    def test_gauges_csv_export(self, tmp_path):
        env = Environment()
        registry = GaugeRegistry(env, cadence=1.0)
        registry.register("level", lambda: 2.0, pe="pe-1")
        registry.start()
        env.run(until=1.5)
        path = tmp_path / "gauges.csv"
        assert write_gauges_csv(registry, str(path)) == 2
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0] == {
            "t": "0.0", "gauge": "level", "pe": "pe-1", "node": "",
            "value": "2.0",
        }


class TestSystemTracing:
    """End-to-end: an overloaded ACES run publishes every required kind."""

    def traced_run(self, **config):
        recorder = MemoryRecorder()
        system = SimulatedSystem(
            small_topology(),
            AcesPolicy(),
            config=SystemConfig(
                seed=3, warmup=0.2, buffer_size=10, **config
            ),
            recorder=recorder,
            gauge_cadence=0.25,
        )
        report = system.run(2.0)
        return recorder, system, report

    def test_all_required_kinds_present(self):
        recorder, _, _ = self.traced_run()
        assert REQUIRED_KINDS | {"gauge"} <= set(recorder.counts)

    def test_every_event_is_schema_valid(self):
        recorder, _, _ = self.traced_run()
        assert len(recorder) > 100
        for event in recorder:
            assert validate_event(event) == []

    def test_event_times_cover_the_run(self):
        recorder, system, _ = self.traced_run()
        times = [e["t"] for e in recorder]
        assert min(times) >= 0.0
        assert max(times) <= system.env.now

    def test_drop_events_carry_pe_and_cause(self):
        recorder, _, report = self.traced_run()
        drops = recorder.by_kind("drop")
        assert drops
        assert all(e["pe"] for e in drops)
        assert all(
            e["cause"] in ("buffer_full", "shed") for e in drops
        )

    def test_tier1_resolve_carries_cpu_targets(self):
        recorder, system, _ = self.traced_run()
        (resolve,) = recorder.by_kind("tier1_resolve")
        assert resolve["reason"] == "initial"
        assert set(resolve["cpu_targets"]) == set(
            system.topology.graph.pe_ids
        )

    def test_reoptimize_emits_further_resolves(self):
        recorder, _, _ = self.traced_run(reoptimize_interval=0.5)
        reasons = [e["reason"] for e in recorder.by_kind("tier1_resolve")]
        assert reasons[0] == "initial"
        assert "reoptimize" in reasons

    def test_profiler_attributes_phases(self):
        profiler = PhaseProfiler()
        system = SimulatedSystem(
            small_topology(),
            AcesPolicy(),
            config=SystemConfig(seed=3, warmup=0.2, buffer_size=10),
            profiler=profiler,
        )
        system.run(1.0)
        for phase in ("event_dispatch", "controller_tick", "pe_execute"):
            assert profiler.totals.get(phase, 0.0) > 0.0
        assert profiler.fractions()["controller_tick"] < 1.0


class TestCliTrace:
    def run_cli(self, tmp_path, *extra):
        path = tmp_path / "out.jsonl"
        argv = [
            "trace", "--pes", "10", "--nodes", "2", "--seed", "0",
            "--load", "2.0", "--buffer", "10",
            "--duration", "2", "--warmup", "0.5",
            "--trace", str(path), *extra,
        ]
        assert main(argv) == 0
        return path

    def test_emits_valid_jsonl_with_required_kinds(self, tmp_path, capsys):
        path = self.run_cli(tmp_path)
        events = read_events_jsonl(str(path), validate=True)
        kinds = {e["kind"] for e in events}
        assert REQUIRED_KINDS <= kinds
        assert kinds <= EVENT_KINDS
        out = capsys.readouterr().out
        assert "trace:" in out
        assert "tier1_resolve=" in out

    def test_filter_restricts_kinds(self, tmp_path):
        path = self.run_cli(tmp_path, "--trace-filter", "kind=r_max|drop")
        kinds = {
            e["kind"]
            for e in read_events_jsonl(str(path), validate=True)
        }
        assert kinds == {"r_max", "drop"}

    def test_csv_format(self, tmp_path):
        path = tmp_path / "out.csv"
        argv = [
            "trace", "--pes", "10", "--nodes", "2",
            "--duration", "1", "--warmup", "0.2",
            "--trace", str(path), "--format", "csv",
            "--trace-filter", "kind=cpu_grant",
        ]
        assert main(argv) == 0
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert rows
        assert all(row["kind"] == "cpu_grant" for row in rows)

    def test_gauges_export_and_profile(self, tmp_path, capsys):
        gauges = tmp_path / "gauges.csv"
        self.run_cli(
            tmp_path, "--gauges", str(gauges), "--profile",
            "--trace-filter", "kind=drop",
        )
        out = capsys.readouterr().out
        assert "gauges:" in out
        assert "profile:" in out
        with open(gauges, newline="") as handle:
            assert list(csv.DictReader(handle))

    def test_bad_filter_fails_fast(self, tmp_path, capsys):
        # The CLI converts the TraceFilter ValueError into exit code 2
        # with the parse error on stderr (no traceback for usage errors).
        path = tmp_path / "out.jsonl"
        argv = [
            "trace", "--pes", "10", "--nodes", "2", "--seed", "0",
            "--duration", "2", "--trace", str(path),
            "--trace-filter", "stream=s-1",
        ]
        assert main(argv) == 2
        assert "unknown trace filter key" in capsys.readouterr().err
