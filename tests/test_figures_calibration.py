"""Tests for the per-figure experiment functions and calibration."""

import numpy as np
import pytest

from repro.experiments import figures
from repro.experiments.calibration import calibration_spec, run_calibration
from repro.experiments.config import ExperimentConfig
from repro.graph.topology import TopologySpec, generate_topology
from repro.runtime.spc import RuntimeConfig


def tiny_config():
    config = ExperimentConfig(
        name="tiny",
        spec=TopologySpec(
            num_nodes=2,
            num_ingress=2,
            num_egress=2,
            num_intermediate=2,
            calibrate_rates=False,
        ),
        duration=2.0,
        replications=1,
    )
    return config.with_system(warmup=1.0)


class TestFigureFunctions:
    def test_figure3_rows(self):
        rows = figures.figure3_latency(
            config=tiny_config(), buffer_sizes=(5, 20)
        )
        assert [row["buffer_size"] for row in rows] == [5, 20]
        for row in rows:
            assert row["aces_latency_ms"] > 0
            assert row["lockstep_latency_ms"] > 0
            assert row["aces_latency_std_ms"] >= 0

    def test_figure4_rows(self):
        rows = figures.figure4_tradeoff(
            config=tiny_config(), buffer_sizes=(5,)
        )
        assert rows[0]["aces_throughput"] > 0
        assert rows[0]["lockstep_throughput"] > 0

    def test_figure5_rows(self):
        rows = figures.figure5_burstiness(
            config=tiny_config(), lambda_s_values=(5.0, 20.0)
        )
        assert [row["lambda_s"] for row in rows] == [5.0, 20.0]
        for row in rows:
            for name in ("aces", "udp", "lockstep"):
                assert row[f"{name}_throughput"] > 0
                assert row[f"{name}_normalized"] > 0

    def test_buffer_sweep_rows(self):
        rows = figures.buffer_sweep(config=tiny_config(), buffer_sizes=(10,))
        row = rows[0]
        assert row["aces_over_udp"] > 0
        assert row["aces_over_lockstep"] > 0

    def test_robustness_rows(self):
        rows = figures.robustness(
            config=tiny_config(), error_levels=(0.0, 0.5)
        )
        assert rows[0]["epsilon"] == 0.0
        assert rows[0]["aces_relative"] == pytest.approx(1.0)
        assert rows[1]["aces_relative"] > 0


class TestCalibration:
    def test_calibration_spec_scaling(self):
        full = calibration_spec(1.0)
        assert full.num_pes == 60
        assert full.num_nodes == 10
        small = calibration_spec(0.2)
        assert small.num_pes < 20
        assert small.num_nodes >= 2

    def test_run_calibration_compares_substrates(self):
        topology = generate_topology(
            calibration_spec(scale=0.15), np.random.default_rng(0)
        )
        from repro.core.policies import UdpPolicy

        rows = run_calibration(
            topology=topology,
            policies=[UdpPolicy()],
            sim_duration=3.0,
            # The first egress SDO needs ~2.8 model-s to cross, and the
            # report counts nothing delivered after the window closes.
            runtime_duration=4.0,
            runtime_config=RuntimeConfig(
                seed=1, warmup=0.5, dt=0.05, dilation=0.5
            ),
        )
        assert len(rows) == 1
        row = rows[0]
        assert row.policy == "udp"
        assert row.simulator_throughput > 0
        assert row.runtime_throughput > 0
        # Workers serve at the live CPU share, as the simulator does, so
        # the runtime delivers well over a third of the simulator's rate.
        assert row.throughput_ratio >= 0.4


class TestCliFigurePath:
    def test_cli_figure_uses_registry(self, capsys, monkeypatch):
        from repro import cli

        calls = {}

        def fake_figure(config=None, jobs=None):
            calls["config"] = config
            calls["jobs"] = jobs
            return [{"x": 1, "y": 2.0}]

        monkeypatch.setitem(cli._FIGURES, "fig3", fake_figure)
        assert cli.main(["figure", "fig3", "--jobs", "4"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out
        assert calls["config"].spec.num_pes == 60  # quick scale
        assert calls["jobs"] == 4

    def test_cli_figure_full_flag(self, capsys, monkeypatch):
        from repro import cli

        seen = {}

        def fake_figure(config=None, jobs=None):
            seen["config"] = config
            return [{"x": 1}]

        monkeypatch.setitem(cli._FIGURES, "fig4", fake_figure)
        assert cli.main(["figure", "fig4", "--full"]) == 0
        assert seen["config"].spec.num_pes == 200
