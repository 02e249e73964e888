"""Tests for the one process fan-out every experiment grid runs through.

The contract under test (see ``docs/performance.md``): a grid's outcome
does not depend on ``jobs``.  ``run_cell`` prepares each replication's
topology and Tier-1 targets in the parent process and only the
fully-determined simulations fan out; every chaos cell carries its own
seeds.  Both go through ``repro.experiments.matrix.fan_out``.
"""

import typing as _t
from dataclasses import fields

import pytest

import repro.experiments.runner as runner_module
from repro.core.policies import AcesPolicy, UdpPolicy
from repro.core.targets import AllocationTargets
from repro.experiments import matrix
from repro.experiments.config import smoke_experiment
from repro.experiments.resilience import run_chaos_matrix
from repro.experiments.runner import (
    PolicySummary,
    prepare_replication,
    run_cell,
)
from repro.graph.topology import TopologySpec
from repro.metrics.stats import SummaryStats


def small_config(**overrides):
    params = dict(duration=1.0, replications=2)
    params.update(overrides)
    return smoke_experiment(**params).with_system(warmup=0.25)


def summary_numbers(summary: PolicySummary) -> _t.List[float]:
    """Flatten every SummaryStats field of a PolicySummary."""
    values: _t.List[float] = []
    for field in fields(summary):
        stats = getattr(summary, field.name)
        if isinstance(stats, SummaryStats):
            values.extend(
                [stats.mean, stats.std, stats.minimum, stats.maximum]
            )
    return values


class TestParity:
    def test_parallel_matches_serial_exactly(self):
        config = small_config()
        policies = [AcesPolicy(), UdpPolicy()]
        serial = run_cell(config, policies, jobs=1)
        parallel = run_cell(config, policies, jobs=4)

        assert set(serial.policies) == set(parallel.policies)
        for name in serial.policies:
            assert summary_numbers(serial.policies[name]) == (
                summary_numbers(parallel.policies[name])
            )
            serial_reports = serial.policies[name].reports
            parallel_reports = parallel.policies[name].reports
            assert len(serial_reports) == config.replications
            for left, right in zip(serial_reports, parallel_reports):
                assert left == right

    def test_chaos_matrix_parity_serial_vs_parallel(self, tmp_path):
        """Faulted cells write the same bytes whatever the fan-out."""
        spec = TopologySpec(
            num_nodes=4, num_ingress=4, num_egress=4, num_intermediate=12,
        )
        written = []
        for jobs in (1, 2):
            results = run_chaos_matrix(
                spec, policies=["aces"],
                scenarios=["node-slowdown", "pe-crash"],
                duration=6.0, warmup=1.5, jobs=jobs,
            )
            path = tmp_path / f"chaos-{jobs}.json"
            matrix.write_bench(results, str(path))
            written.append(path.read_bytes())
        assert written[0] == written[1]
        # The faults bit: both cells ran clean and saw their fault.
        assert [cell["error"] for cell in results["cells"]] == [None, None]
        assert all(cell["events"]["fault"] > 0 for cell in results["cells"])

    def test_targets_transform_applied_in_parent(self):
        """Transforms (often closures — unpicklable) still parallelize."""
        calls = []

        def transform(targets, topology, seed):
            calls.append(seed)
            scaled = {pe: cpu * 0.9 for pe, cpu in targets.cpu.items()}
            return AllocationTargets(
                cpu=scaled,
                rate_in=targets.rate_in,
                rate_out=targets.rate_out,
            )

        config = small_config()
        serial = run_cell(
            config, [AcesPolicy()], targets_transform=transform, jobs=1
        )
        serial_calls, calls[:] = list(calls), []
        parallel = run_cell(
            config, [AcesPolicy()], targets_transform=transform, jobs=2
        )
        assert calls == serial_calls  # one parent-side call per replication
        assert summary_numbers(serial.policies["aces"]) == (
            summary_numbers(parallel.policies["aces"])
        )


class TestFallback:
    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        def broken(*args, **kwargs):
            raise OSError("simulated pool failure")

        monkeypatch.setattr(matrix, "ProcessPoolExecutor", broken)
        config = small_config(replications=1)
        reference = run_cell(config, [AcesPolicy()], jobs=1)
        with pytest.warns(RuntimeWarning, match="process pool failed"):
            fallen_back = run_cell(config, [AcesPolicy()], jobs=4)
        assert summary_numbers(reference.policies["aces"]) == (
            summary_numbers(fallen_back.policies["aces"])
        )

    def test_default_jobs_module_knob(self, monkeypatch):
        """benchmarks/conftest.py sets DEFAULT_JOBS from REPRO_JOBS."""
        config = small_config(replications=1)
        reference = run_cell(config, [AcesPolicy()])
        monkeypatch.setattr(runner_module, "DEFAULT_JOBS", 2)
        parallel = run_cell(config, [AcesPolicy()])
        assert summary_numbers(reference.policies["aces"]) == (
            summary_numbers(parallel.policies["aces"])
        )

    def test_jobs_validation(self):
        ran = []
        with pytest.raises(ValueError, match="jobs must be >= 1, got 0"):
            matrix.fan_out(ran.append, [1, 2], jobs=0)
        assert ran == []  # checked before any task runs
        config = small_config(replications=1)
        with pytest.raises(ValueError, match="jobs must be >= 1, got 0"):
            run_cell(config, [AcesPolicy()], jobs=0)


class TestPreparation:
    def test_prepare_matches_serial_seed_derivation(self):
        """Each replication's seeds derive from its index alone."""
        config = small_config()
        for replication in range(config.replications):
            topology, targets, system_config, optimum = prepare_replication(
                config, replication
            )
            assert system_config.seed == replication * 1000 + 17
            assert optimum > 0
            assert set(targets.cpu) == set(topology.graph.pe_ids)
