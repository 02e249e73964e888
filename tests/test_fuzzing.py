"""The seeded scenario fuzzer: determinism, campaigns, and shrinking.

The acceptance bar for the fuzzer is two-sided, like the oracles': a
healthy system must fuzz clean across policies and modes, and an
intentionally broken controller must be (a) caught by the oracles on a
fuzzed scenario and (b) shrunk down to a minimal (<= 3 node) reproducer
that still fails.
"""

import json
from dataclasses import replace

import pytest

from repro.experiments.fuzzing import (
    FuzzScenario,
    generate_scenario,
    run_differential_case,
    run_fuzz_campaign,
    run_fuzz_case,
    shrink_scenario,
)
from repro.model.workload import SOURCE_KINDS

from tests.test_check_oracles import (
    _update_without_surplus_terms,
    inject_update,
)


class TestScenarioGeneration:
    def test_same_seed_same_scenario(self):
        assert generate_scenario(5) == generate_scenario(5)

    def test_different_seeds_differ(self):
        scenarios = {generate_scenario(seed) for seed in range(8)}
        assert len(scenarios) == 8

    def test_scenario_roundtrips_to_dict(self):
        scenario = generate_scenario(2)
        record = scenario.as_dict()
        assert record["seed"] == 2
        assert isinstance(record["faults"], list)
        json.dumps(record)  # JSONL-serializable

    def test_topology_is_deterministic(self):
        scenario = generate_scenario(4)
        first = scenario.build_topology()
        second = scenario.build_topology()
        assert sorted(first.placement) == sorted(second.placement)
        assert first.source_rates == second.source_rates

    def test_scenario_library_and_forecast_dimensions_drawn(self):
        scenarios = [generate_scenario(seed) for seed in range(25)]
        kinds = {scenario.source_kind for scenario in scenarios}
        assert kinds & {"diurnal", "drift", "correlatedburst", "driftsquare"}
        assert any(scenario.forecast for scenario in scenarios)
        assert any(not scenario.forecast for scenario in scenarios)


class TestFuzzCases:
    @pytest.mark.parametrize("policy_name", ["udp", "lockstep", "aces"])
    def test_simulated_case_clean(self, policy_name):
        result = run_fuzz_case(generate_scenario(1), policy_name)
        assert not result.failed, result.violations
        assert result.events > 0

    @pytest.mark.parametrize(
        "kind, seed", zip(SOURCE_KINDS, (1, 6, 27, 33, 2, 13, 20, 30, 22))
    )
    def test_threaded_case_clean(self, kind, seed):
        # Every source kind on the threaded runtime, each under a fault
        # plan the simulator's injector applies there too (seeds 1, 6,
        # 22, 27 and 33 arm the elastic tier and its membership faults).
        scenario = replace(generate_scenario(seed), source_kind=kind)
        result = run_fuzz_case(scenario, "aces", threaded=True)
        assert result.mode == "threaded"
        assert not result.failed, (result.error, result.violations)
        assert result.events > 0

    @pytest.mark.parametrize("policy_name", ["udp", "lockstep", "aces"])
    def test_differential_case_clean(self, policy_name):
        result = run_differential_case(generate_scenario(1), policy_name)
        assert not result.failed, (result.violations, result.error)
        assert not result.mismatch

    def test_campaign_writes_jsonl(self, tmp_path):
        output = tmp_path / "fuzz.jsonl"
        summary = run_fuzz_campaign(
            range(2), policies=["aces"], output=str(output)
        )
        assert summary["ok"], summary["failures"]
        lines = output.read_text().splitlines()
        assert len(lines) == summary["cases"] == 4  # 2 seeds x 2 modes
        for line in lines:
            record = json.loads(line)
            assert record["failed"] is False
            assert record["scenario"]["seed"] in (0, 1)

    def test_scenario_library_source_surge_reproducer(self):
        """Pinned campaign finding: seed 1 expands to a diurnal source
        with a ``source_surge`` fault (forecast and elastic tiers both
        armed).  The fault injector's source dispatch predated the
        scenario library and crashed with an ``AttributeError`` (no
        attribute ``peak_rate``) on the diurnal and other rate-based
        sources until the dispatch was extended; this pins the fix."""
        scenario = generate_scenario(1)
        assert scenario.source_kind == "diurnal"
        assert scenario.forecast and scenario.elasticity
        assert any(fault.kind == "source_surge" for fault in scenario.faults)
        result = run_fuzz_case(scenario, "aces")
        assert not result.failed, (result.error, result.violations)

    def test_shrink_can_disarm_forecast(self):
        from repro.experiments.fuzzing import _shrink_candidates

        scenario = generate_scenario(1)
        assert scenario.forecast
        assert replace(scenario, forecast=False) in _shrink_candidates(
            scenario
        )

    def test_campaign_is_deterministic(self, tmp_path):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        run_fuzz_campaign(range(2), policies=["udp"], output=str(first))
        run_fuzz_campaign(range(2), policies=["udp"], output=str(second))
        assert first.read_bytes() == second.read_bytes()


class TestInjectedBugShrinks:
    def test_bug_caught_and_shrunk_to_minimal_reproducer(self, monkeypatch):
        inject_update(monkeypatch, _update_without_surplus_terms)
        scenario = generate_scenario(1)
        result = run_fuzz_case(scenario, "aces")
        assert result.failed
        assert result.violation_counts.get("r_max_law", 0) >= 1

        minimal = shrink_scenario(
            scenario, lambda candidate: run_fuzz_case(candidate, "aces").failed
        )
        # Still a reproducer...
        assert run_fuzz_case(minimal, "aces").failed
        # ...and minimal: the bug needs no faults and almost no structure.
        assert minimal.num_nodes <= 3
        assert minimal.faults == ()
        assert minimal.num_intermediate == 0
        assert minimal.duration <= scenario.duration

    def test_shrink_skips_unbuildable_candidates(self):
        # A predicate that raises on some candidates (unbuildable shrink)
        # must not abort the search.
        scenario = generate_scenario(3)

        def predicate(candidate: FuzzScenario) -> bool:
            if candidate.num_nodes < scenario.num_nodes:
                raise ValueError("cannot build")
            return bool(candidate.faults)

        minimal = shrink_scenario(scenario, predicate)
        assert minimal.num_nodes == scenario.num_nodes

    def test_shrink_returns_scenario_when_nothing_helps(self):
        scenario = generate_scenario(2)
        minimal = shrink_scenario(scenario, lambda candidate: False)
        assert minimal == scenario
