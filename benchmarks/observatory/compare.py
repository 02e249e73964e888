#!/usr/bin/env python3
"""Apply the benchmark's bounds to two sets of runs, workload by workload.

    python3 benchmarks/observatory/compare.py parent.json change.json

Both files come from ``run.py --out`` (same ``--seed``, ``--seconds``
and ``--runs``).  One row per (workload, end-to-end metric):

* ``worse``      — B's median is worse than A's by more than the bound;
* ``unresolved`` — not worse, but the run-to-run spread of either side is
  wider than the bound, so "unchanged" cannot be claimed either.  Spread
  is the distance between the quartiles of a side's runs as a share of
  their median (max - min with fewer than four runs, unknown with one);
* ``ok``         — neither.

Failed-operation shares and behaviour digests are compared beside them.
Exits 1 if any row is ``worse`` or B fails a larger share of operations.
"""

from __future__ import annotations

import json
import statistics
import sys
import typing as _t

import spec


def spread(entry: _t.Mapping[str, _t.Any]) -> _t.Optional[float]:
    """Run-to-run spread of one metric as a share of its median."""
    runs = entry.get("runs") or [entry["value"]]
    median = statistics.median(runs)
    if len(runs) < 2 or not median:
        return None
    if len(runs) < 4:
        return (max(runs) - min(runs)) / abs(median)
    quartiles = statistics.quantiles(runs, n=4)
    return (quartiles[2] - quartiles[0]) / abs(median)


def worse_by(metric: spec.EndToEnd, a: float, b: float) -> float:
    """Share of A by which B is worse (negative when B is better)."""
    if not a:
        return 0.0
    change = (b - a) / abs(a)
    return change if metric.better == "lower" else -change


def verdict(
    metric: spec.EndToEnd,
    a: _t.Mapping[str, _t.Any],
    b: _t.Mapping[str, _t.Any],
) -> str:
    if worse_by(metric, a["value"], b["value"]) > metric.bound:
        return "worse"
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    if spreads and max(spreads) > metric.bound:
        return "unresolved"
    return "ok"


def _failed_share(entry: _t.Mapping[str, _t.Any]) -> float:
    attempted = entry["attempted_ops"]
    return entry["failed_ops"] / attempted if attempted else 0.0


def _show(value: _t.Optional[float]) -> str:
    return "   n/a" if value is None else f"{value:6.1%}"


def compare(
    a: _t.Mapping[str, _t.Any], b: _t.Mapping[str, _t.Any]
) -> _t.Tuple[_t.List[str], bool]:
    """(report lines, any regression)."""
    lines = []
    regressed = False
    for key in ("seed", "seconds", "traced"):
        if a.get(key) != b.get(key):
            lines.append(f"note: {key} differs: {a.get(key)} vs {b.get(key)}")
    ref_a = a["environment"]["machine_ref_score"]["seconds"]
    ref_b = b["environment"]["machine_ref_score"]["seconds"]
    lines.append(
        f"machine_ref_score: A {ref_a:.3f} s, B {ref_b:.3f} s "
        f"(B/A {ref_b / ref_a:.3f}; recorded, not applied)"
    )
    lines.append(
        f"{'workload':24s}{'metric':22s}{'A':>12s}{'B':>12s}"
        f"{'worse by':>10s}{'bound':>7s}{'spread A':>10s}{'spread B':>10s}"
        "  verdict"
    )
    shared = [w for w in a["workloads"] if w in b["workloads"]]
    for name in shared:
        side_a = a["workloads"][name]
        side_b = b["workloads"][name]
        for metric in spec.END_TO_END:
            if metric.name not in side_a["metrics"]:
                continue
            entry_a = side_a["metrics"][metric.name]
            entry_b = side_b["metrics"][metric.name]
            result = verdict(metric, entry_a, entry_b)
            regressed = regressed or result == "worse"
            lines.append(
                f"{name:24s}{metric.name:22s}"
                f"{entry_a['value']:12.5g}{entry_b['value']:12.5g}"
                f"{worse_by(metric, entry_a['value'], entry_b['value']):10.1%}"
                f"{metric.bound:7.0%}"
                f"{_show(spread(entry_a)):>10s}{_show(spread(entry_b)):>10s}"
                f"  {result}"
            )
        share_a = _failed_share(side_a)
        share_b = _failed_share(side_b)
        failed = "worse" if share_b > share_a else "ok"
        regressed = regressed or failed == "worse"
        digests = (
            "same"
            if side_a["sim_digests"] == side_b["sim_digests"]
            else "differs (behaviour changed)"
        )
        lines.append(
            f"{name:24s}failed ops {side_a['failed_ops']}/"
            f"{side_a['attempted_ops']} vs {side_b['failed_ops']}/"
            f"{side_b['attempted_ops']}: {failed}; sim_digest: {digests}"
        )
    for name in sorted(set(a["workloads"]) ^ set(b["workloads"])):
        lines.append(f"note: {name} is in one file only")
    return lines, regressed


def main(argv: _t.Optional[_t.Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    documents = []
    for path in args:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    lines, regressed = compare(*documents)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
