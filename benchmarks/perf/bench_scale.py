#!/usr/bin/env python
"""Extreme-scale curve: scalar vs vector control tick across topology sizes.

Scales the paper's 80-node / 200-PE main topology by each ``--multipliers``
entry, runs both Tier-2 implementations with identical phase buckets, and
writes the events/sec-vs-size curve (with per-phase wall-clock fractions
and isolated controller-tick throughput) to ``BENCH_scale.json`` at the
repo root.

``--check`` re-measures a small multiplier and gates against the
checked-in curve instead of rewriting it: the vector engine must stay
within ``--allowed-factor`` of its recorded controller-tick throughput
and must not fall behind the freshly measured scalar path.  CI runs this
mode at x1 and x10 so a regression in the array kernels fails the build
without a full curve refresh.  A refresh takes about 80 s, nearly all
of it the measured runs at x30 and x100: generating and constructing a
topology is linear in its size (``docs/performance.md``, "Set-up cost").

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_scale.py
    PYTHONPATH=src python benchmarks/perf/bench_scale.py --multipliers 1,10
    PYTHONPATH=src python benchmarks/perf/bench_scale.py --check
"""

from __future__ import annotations

import argparse
import json
import pathlib

from repro.experiments.perf import (
    BENCH_SCALE_PATH,
    measure_scale_curve,
    measure_scale_point,
)

#: --check must stay within this factor of the recorded vector numbers.
ALLOWED_FACTOR = 3.0


def run_curve(args: argparse.Namespace) -> int:
    multipliers = [int(m) for m in args.multipliers.split(",")]
    curve = measure_scale_curve(
        multipliers=multipliers,
        policy=args.policy,
        dt=args.dt,
        ticks=args.ticks,
        buckets=args.buckets,
        seed=args.seed,
        log=print,
    )
    path = pathlib.Path(args.output)
    path.write_text(json.dumps(curve, indent=2, sort_keys=True) + "\n")
    speedups = curve["controller_speedup_vector_vs_scalar"]
    print(f"wrote {path} (controller speedup per multiplier: {speedups})")
    return 0


def run_check(args: argparse.Namespace) -> int:
    path = pathlib.Path(args.output)
    if not path.exists():
        print(f"no {path} to check against; run without --check first")
        return 1
    recorded = json.loads(path.read_text())
    multiplier = int(args.multipliers.split(",")[0])
    reference = next(
        (
            point
            for point in recorded.get("points", [])
            if point["multiplier"] == multiplier
            and point["control_impl"] == "vector"
        ),
        None,
    )
    if reference is None:
        print(f"no recorded vector point for x{multiplier} in {path}")
        return 1

    fresh = {
        impl: measure_scale_point(
            multiplier,
            impl,
            policy=str(recorded.get("policy", "aces")),
            dt=float(recorded.get("dt", args.dt)),
            ticks=int(recorded.get("ticks", args.ticks)),
            buckets=recorded.get("buckets", args.buckets),
            seed=args.seed,
        )
        for impl in ("scalar", "vector")
    }
    vector_rate = fresh["vector"]["controller_pe_steps_per_sec"]
    scalar_rate = fresh["scalar"]["controller_pe_steps_per_sec"]
    recorded_rate = reference["controller_pe_steps_per_sec"]

    failures = []
    if vector_rate * ALLOWED_FACTOR < recorded_rate:
        failures.append(
            f"vector controller throughput {vector_rate:.0f} PE-steps/s is "
            f">{ALLOWED_FACTOR}x below the recorded {recorded_rate:.0f}"
        )
    if vector_rate < scalar_rate * args.min_speedup:
        failures.append(
            f"vector controller throughput {vector_rate:.0f} PE-steps/s "
            f"fell below {args.min_speedup}x the scalar path "
            f"({scalar_rate:.0f})"
        )
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print(
            f"ok: x{multiplier} vector {vector_rate:.0f} PE-steps/s "
            f"(recorded {recorded_rate:.0f}, scalar {scalar_rate:.0f})"
        )
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--multipliers", default="1,10,30,100",
        help="comma-separated topology multipliers (x80 nodes, x200 PEs); "
        "--check uses only the first entry",
    )
    parser.add_argument("--policy", default="aces")
    parser.add_argument("--dt", type=float, default=0.02)
    parser.add_argument("--ticks", type=int, default=20)
    parser.add_argument("--buckets", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default=str(BENCH_SCALE_PATH))
    parser.add_argument(
        "--check", action="store_true",
        help="gate against the checked-in curve instead of rewriting it",
    )
    parser.add_argument(
        "--min-speedup", dest="min_speedup", type=float, default=0.9,
        help="--check: vector must reach this multiple of fresh scalar "
        "controller throughput (default 0.9)",
    )
    args = parser.parse_args(argv)

    if args.check:
        return run_check(args)
    return run_curve(args)


if __name__ == "__main__":
    raise SystemExit(main())
