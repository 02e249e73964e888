"""Tests for the command-line interface."""

import pytest

from repro.check import InvariantViolation
from repro.cli import build_parser, main
from repro.runtime.spc import SPCRuntime
from repro.systems.simulated import SimulatedSystem


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])

    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.policy == "aces"
        assert args.pes == 60
        assert args.nodes == 10
        assert args.buffer == 50

    def test_figure_choices(self):
        args = build_parser().parse_args(["figure", "fig5"])
        assert args.name == "fig5"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "--pes", "12", "--nodes", "3"]) == 0
        out = capsys.readouterr().out
        assert "PEs: 12" in out
        assert "Nodes: 3" in out

    def test_solve(self, capsys):
        assert main(["solve", "--pes", "8", "--nodes", "2"]) == 0
        out = capsys.readouterr().out
        assert "objective=" in out
        assert "Tier-1 allocation targets" in out

    def test_run(self, capsys):
        code = main(
            [
                "run", "--pes", "8", "--nodes", "2",
                "--duration", "2", "--warmup", "1", "--policy", "udp",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "udp" in out
        assert "cpu=" in out

    def test_run_shedding_policy(self, capsys):
        code = main(
            [
                "run", "--pes", "8", "--nodes", "2",
                "--duration", "2", "--warmup", "1", "--policy", "shedding",
            ]
        )
        assert code == 0
        assert "shedding" in capsys.readouterr().out

    def test_compare(self, capsys):
        code = main(
            [
                "compare", "--pes", "8", "--nodes", "2",
                "--duration", "2", "--warmup", "1",
                "--policies", "aces,udp",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "aces" in out
        assert "udp" in out
        assert "weighted_throughput" in out


class TestTraceCheck:
    """The --check flag arms the invariant oracles on either substrate."""

    def _trace_args(self, tmp_path, substrate, *extra):
        return [
            "trace", "--pes", "8", "--nodes", "2",
            "--duration", "1", "--warmup", "0.5",
            "--substrate", substrate,
            "--trace", str(tmp_path / "out.jsonl"),
            "--check", *extra,
        ]

    @pytest.mark.parametrize("substrate", ["sim", "threaded"])
    def test_check_clean_run(self, tmp_path, substrate, capsys):
        assert main(self._trace_args(tmp_path, substrate)) == 0
        out = capsys.readouterr().out
        assert "oracles: all invariants held" in out

    def test_threaded_gauges_are_written(self, tmp_path, capsys):
        # The simulator's export is covered in test_obs.py.
        gauges = tmp_path / "gauges.csv"
        argv = self._trace_args(tmp_path, "threaded", "--gauges", str(gauges))
        assert main(argv) == 0
        assert "gauges: " in capsys.readouterr().out
        assert gauges.stat().st_size > 0

    @pytest.mark.parametrize(
        "substrate, cls",
        [("sim", SimulatedSystem), ("threaded", SPCRuntime)],
        ids=["sim", "threaded"],
    )
    def test_a_ledger_violation_alone_fails_the_check(
        self, tmp_path, substrate, cls, capsys, monkeypatch
    ):
        planted = InvariantViolation(
            invariant="source_conservation",
            equation="Section IV (conservation)",
            t=0.0, pe=None, node=None, detail="planted",
        )
        monkeypatch.setattr(
            cls, "check_conservation", lambda system: [planted]
        )
        assert main(self._trace_args(tmp_path, substrate)) == 1
        out = capsys.readouterr().out
        assert "all invariants held" not in out
        assert "oracles: 1 violation(s) (source_conservation=1)" in out

    def test_check_forwards_events_to_file(self, tmp_path, capsys):
        assert main(self._trace_args(tmp_path, "sim")) == 0
        assert (tmp_path / "out.jsonl").stat().st_size > 0

    def test_filter_narrows_the_file_not_the_oracles(
        self, tmp_path, capsys, monkeypatch
    ):
        # An Eq. 7 bug, and a keep-filter that stores only drops: the
        # r_max law must still be checked, and the run must still fail.
        from repro.obs import read_events_jsonl
        from tests.test_check_oracles import (
            _update_without_surplus_terms,
            inject_update,
        )

        inject_update(monkeypatch, _update_without_surplus_terms)
        args = self._trace_args(
            tmp_path, "sim", "--trace-filter", "kind=drop",
            "--load", "3", "--buffer", "5",
        )
        assert main(args) != 0
        out = capsys.readouterr().out
        assert "r_max_law" in out
        events = read_events_jsonl(str(tmp_path / "out.jsonl"))
        assert events and {e["kind"] for e in events} == {"drop"}
        assert f"trace: {len(events)} events" in out


class TestFailureModes:
    """Bad arguments exit non-zero with a message, never a traceback."""

    def test_fuzz_rejects_nonpositive_seeds(self, capsys):
        assert main(["fuzz", "--seeds", "0"]) == 2
        assert "--seeds must be positive" in capsys.readouterr().err

    def test_fuzz_rejects_unknown_policy(self, capsys):
        assert main(["fuzz", "--seeds", "1", "--policies", "teleport"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_trace_rejects_bad_filter_expression(self, capsys):
        assert main(["trace", "--trace-filter", "bogus"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_trace_rejects_unknown_filter_kind(self, capsys):
        assert main(["trace", "--trace-filter", "kind=warp"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, command",
        [
            (flag, command)
            for flag in ("--reoptimize", "--link-bandwidth")
            for command in ("trace", "top")
        ]
        # A switch, and one only ``trace`` has.
        + [("--profile", "trace")],
    )
    def test_threaded_refuses_simulator_only_flags(
        self, command, flag, tmp_path, capsys
    ):
        trace = tmp_path / "out.jsonl"
        argv = [
            command, "--pes", "8", "--nodes", "2", "--duration", "1",
            "--warmup", "0.2", "--substrate", "threaded", flag,
        ]
        if flag != "--profile":
            argv.append("0.5")
        if command == "trace":
            argv += ["--trace", str(trace)]
        assert main(argv) == 2
        assert f"error: {flag} is simulator-only" in capsys.readouterr().err
        assert not trace.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["chaos", "--smoke", "--scenarios", "meteor-strike"],
             "unknown scenarios"),
            (["admit", "--workloads", "warp"], "unknown source_kind"),
            (["elastic", "--policies", "teleport"], "unknown policy"),
            (["forecast", "--scenarios", "meteor-strike"],
             "unknown scenario"),
        ],
    )
    def test_matrix_verb_rejects_bad_input(
        self, argv, message, tmp_path, capsys
    ):
        # One table-driven handler serves the four verbs: each rejects
        # a bad axis value before running or writing anything.
        output = tmp_path / "bench.json"
        assert main([*argv, "--output", str(output)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not output.exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_chaos_rejects_nonpositive_jobs(self, jobs, tmp_path, capsys):
        # The same check, and message, as ``figure --jobs``: the fan-out
        # refuses before any cell runs or anything is written.
        output = tmp_path / "bench.json"
        argv = [
            "chaos", "--smoke", "--scenarios", "pe-crash", "--jobs", jobs,
            "--output", str(output),
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"jobs must be >= 1, got {jobs}" in err
        assert not output.exists()

    @pytest.mark.parametrize("substrate", ["sim", "threaded"])
    def test_trace_format_validation(self, substrate):
        # argparse enforces the --format choices before any run starts,
        # identically for both substrates.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["trace", "--substrate", substrate, "--format", "xml"]
            )
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("substrate", ["sim", "threaded"])
    def test_trace_format_csv_accepted(self, substrate):
        args = build_parser().parse_args(
            ["trace", "--substrate", substrate, "--format", "csv"]
        )
        assert args.format == "csv"
        assert args.substrate == substrate

    def test_trace_rejects_unknown_substrate(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "--substrate", "quantum"])


class TestFuzzCommand:
    def test_fuzz_smoke(self, tmp_path, capsys):
        output = tmp_path / "fuzz.jsonl"
        code = main(
            [
                "fuzz", "--seeds", "1", "--policies", "udp",
                "--output", str(output), "--no-shrink",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0 failure(s)" in out
        assert output.stat().st_size > 0
