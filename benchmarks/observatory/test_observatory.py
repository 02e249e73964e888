"""Checks of the observatory itself (not of the program it measures).

Run explicitly — ``testpaths`` keeps this out of the tier-1 suite::

    PYTHONPATH=src python -m pytest benchmarks/observatory -q

Takes about two minutes: one ``--quick`` set of all seven workloads in
child processes, plus one traced pass in this process.
"""

from __future__ import annotations

import copy
import importlib
import json
import pathlib
import re
import subprocess
import sys

import pytest

import compare
import run
import spec

HERE = pathlib.Path(__file__).resolve().parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def manifest():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick_set(tmp_path_factory):
    out = tmp_path_factory.mktemp("observatory") / "quick.json"
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(out)],
        capture_output=True, text=True, timeout=900,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return json.loads(out.read_text()), completed.stdout


def test_manifest_is_the_projection_of_spec(manifest):
    assert manifest == spec.manifest()
    names = (
        [w["name"] for w in manifest["workloads"]]
        + [m["name"] for m in manifest["end_to_end"]]
        + [m["name"] for m in manifest["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    metrics = manifest["end_to_end"] + manifest["per_layer"]
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    assert all(
        len(w["why"]) <= 200 and "\n" not in w["why"]
        for w in manifest["workloads"]
    )
    assert 2 <= len(manifest["workloads"]) <= 8
    assert len(manifest["per_layer"]) <= 128
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [
        {"name": "setup_s", "unit": "s", "better": "lower",
         "bound": max(m["bound"] for m in manifest["end_to_end"])}
    ]


def test_quick_set_fails_no_operation(quick_set, manifest):
    document, _stdout = quick_set
    assert set(document["workloads"]) == {w.name for w in spec.WORKLOADS}
    expected = {m["name"] for m in manifest["end_to_end"]}
    for name, entry in document["workloads"].items():
        assert entry["failed_ops"] == 0, (name, entry["failures"])
        assert entry["attempted_ops"] >= 1
        assert set(entry["metrics"]) == expected
        assert all(m["value"] != 0 for m in entry["metrics"].values()), name
    environment = document["environment"]
    assert environment["machine_ref_score"]["seconds"] >= 2.0
    assert {"python", "numpy", "scipy", "nproc"} <= set(environment)


def test_every_printed_name_is_in_the_manifest(quick_set, manifest):
    _document, stdout = quick_set
    known = {
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in manifest[key]
    }
    printed = set()
    for line in stdout.splitlines():
        words = line.split()
        if line.startswith("  ") and words and words[0] != "FAILED":
            printed.add(words[0])
        elif words and words[0].endswith(":"):
            printed.add(words[0][:-1])
    assert printed and printed <= known
    assert all(NAME.match(name) for name in printed)


@pytest.fixture(scope="module")
def traced():
    run._need_program()
    import workloads

    def stored():
        found = []
        for module_path, attr_path, _name, _raw in spec.TRACE_TARGETS:
            owner = importlib.import_module(module_path)
            *parents, attr = attr_path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            found.append(vars(owner)[attr])
        return found

    before = stored()
    result = workloads.run_workload("sim_calib_udp", 0, 1.0, True)
    return result, before, stored()


def test_tracer_restores_the_identical_objects(traced):
    _result, before, after = traced
    assert len(before) == len(spec.TRACE_TARGETS)
    assert all(a is b for a, b in zip(before, after))


def test_self_times_sum_to_the_root_span(traced):
    result, _before, _after = traced
    assert result.failed == 0, result.failures
    rows = result.trace["aggregates"]
    (root,) = [row for row in rows if row["name"] == spec.ROOT_SPAN]
    own = sum(row["self_s"] for row in rows if row["thread"] == root["thread"])
    assert own == pytest.approx(root["total_s"], rel=0.01)
    assert set(result.metrics) == {layer.name for layer in spec.PER_LAYER}
    assert result.metrics["trace.unattributed_share"].value <= 0.10
    assert result.metrics["sim.engine.events"].value > 0
    # UDP bypasses Eq. 7 and Eq. 8 entirely.
    assert result.metrics["core.flow_control.updates"].value == 0
    assert result.metrics["core.feedback.reads"].value == 0


def test_compare_passes_a_file_against_itself(quick_set):
    document, _stdout = quick_set
    _lines, regressed = compare.compare(document, document)
    assert not regressed


def test_compare_flags_a_regression_beyond_the_bound(quick_set):
    document, _stdout = quick_set
    slower = copy.deepcopy(document)
    entry = slower["workloads"]["sim_calib_aces"]["metrics"]["sim_s_per_wall_s"]
    (bound,) = [
        m.bound for m in spec.END_TO_END if m.name == "sim_s_per_wall_s"
    ]
    factor = 1.0 - bound - 0.05
    entry["value"] *= factor
    entry["runs"] = [value * factor for value in entry["runs"]]
    lines, regressed = compare.compare(document, slower)
    assert regressed
    (row,) = [
        line for line in lines
        if line.startswith("sim_calib_aces") and "sim_s_per_wall_s" in line
    ]
    assert row.endswith("worse")
    # The other direction is an improvement, not a regression.
    assert not compare.compare(slower, document)[1]
