"""Tests for the experiment harness: config, runner, sweeps, reporting."""

import numpy as np
import pytest

from repro.core.policies import AcesPolicy, UdpPolicy
from repro.core.targets import perturb_targets
from repro.experiments.config import (
    ExperimentConfig,
    calibration_experiment,
    main_experiment,
    smoke_experiment,
)
from repro.experiments.reporting import format_table, print_table
from repro.experiments.runner import (
    fluid_optimal_throughput,
    prepare_replication,
    run_cell,
)
from repro.experiments.sweeps import _apply_parameter, sweep
from repro.graph.topology import TopologySpec


def tiny_experiment(**overrides):
    params = dict(
        name="tiny",
        spec=TopologySpec(
            num_nodes=2,
            num_ingress=2,
            num_egress=2,
            num_intermediate=2,
            calibrate_rates=False,
        ),
        duration=2.0,
        replications=2,
    )
    params.update(overrides)
    config = ExperimentConfig(**params)
    return config.with_system(warmup=1.0)


class TestConfig:
    def test_named_experiments_have_paper_scales(self):
        assert calibration_experiment().spec.num_pes == 60
        assert main_experiment().spec.num_pes == 200
        assert smoke_experiment().spec.num_pes == 20

    def test_with_system_replaces_field(self):
        config = tiny_experiment().with_system(buffer_size=7)
        assert config.system.buffer_size == 7
        assert config.duration == 2.0

    def test_with_spec_replaces_field(self):
        config = tiny_experiment().with_spec(lambda_s=99.0)
        assert config.spec.lambda_s == 99.0


class TestRunner:
    def test_run_cell_summaries(self):
        cell = run_cell(tiny_experiment(), [AcesPolicy(), UdpPolicy()])
        assert set(cell.policies) == {"aces", "udp"}
        for summary in cell.policies.values():
            assert summary.weighted_throughput.count == 2
            assert len(summary.reports) == 2
            assert summary.weighted_throughput.mean > 0

    def test_requires_policy(self):
        with pytest.raises(ValueError):
            run_cell(tiny_experiment(), [])

    def test_duplicate_policy_names_rejected(self):
        with pytest.raises(ValueError):
            run_cell(tiny_experiment(), [AcesPolicy(), AcesPolicy()])

    def test_ratio(self):
        cell = run_cell(tiny_experiment(), [AcesPolicy(), UdpPolicy()])
        ratio = cell.ratio("aces", "udp")
        assert ratio == pytest.approx(
            cell.policies["aces"].weighted_throughput.mean
            / cell.policies["udp"].weighted_throughput.mean
        )

    def test_replication_is_paired(self):
        """All policies in one replication see the same topology."""
        config = tiny_experiment(replications=1)
        topology, targets, _, optimum = prepare_replication(config, 0)
        assert optimum > 0
        assert fluid_optimal_throughput(topology, targets) == (
            pytest.approx(optimum)
        )
        cell = run_cell(config, [AcesPolicy(), UdpPolicy()])
        assert set(cell.policies) == {"aces", "udp"}
        for summary in cell.policies.values():
            (report,) = summary.reports
            # Every policy is normalized by the one topology's optimum.
            assert summary.normalized_throughput.mean == pytest.approx(
                report.weighted_throughput / optimum
            )

    def test_targets_transform_applied(self):
        calls = []

        def transform(targets, topology, seed):
            calls.append(seed)
            return perturb_targets(
                targets, 0.1, np.random.default_rng(0),
                placement=topology.placement,
            )

        run_cell(
            tiny_experiment(replications=2),
            [UdpPolicy()],
            targets_transform=transform,
        )
        assert len(calls) == 2

    def test_normalized_throughput_reasonable(self):
        cell = run_cell(tiny_experiment(), [AcesPolicy()])
        normalized = cell.policies["aces"].normalized_throughput.mean
        assert 0.0 < normalized < 2.0


class TestSweeps:
    def test_apply_parameter_paths(self):
        config = tiny_experiment()
        assert _apply_parameter(config, "system.buffer_size", 9).system.buffer_size == 9
        assert _apply_parameter(config, "spec.lambda_s", 4.0).spec.lambda_s == 4.0
        assert _apply_parameter(config, "duration", 5.0).duration == 5.0

    def test_apply_parameter_unknown_section(self):
        with pytest.raises(ValueError):
            _apply_parameter(tiny_experiment(), "nope.field", 1)

    def test_sweep_runs_each_value(self):
        result = sweep(
            tiny_experiment(replications=1),
            [UdpPolicy()],
            "system.buffer_size",
            [5, 20],
        )
        assert [point.value for point in result.points] == [5, 20]
        assert all(
            point.result.policies["udp"].weighted_throughput.mean > 0
            for point in result.points
        )

    def test_sweep_requires_values(self):
        with pytest.raises(ValueError):
            sweep(tiny_experiment(), [UdpPolicy()], "system.buffer_size", [])


class TestReporting:
    def test_format_table_alignment(self):
        rows = [
            {"x": 1, "y": 2.34567},
            {"x": 10, "y": 0.5},
        ]
        text = format_table(rows)
        lines = text.splitlines()
        assert len(lines) == 4
        assert "2.35" in text
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_format_empty(self):
        assert format_table([]) == "(no rows)"

    def test_format_column_subset(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_print_table_smoke(self, capsys):
        print_table([{"a": 1}], title="demo")
        captured = capsys.readouterr()
        assert "demo" in captured.out
        assert "a" in captured.out
