#!/usr/bin/env python3
"""Perf observatory: run the benchmark's workloads and print every metric.

As the driver calls it (one workload, measured in this process)::

    python3 benchmarks/observatory/run.py --workload sim_calib_aces \\
        --seed 0 --seconds 10 --trace 0

prints each metric by name with its unit and, as the last line of
standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``).

As a person calls it (a *set*: each workload in a child process of its
own, one at a time, so ``peak_rss_mb`` is per workload)::

    python3 benchmarks/observatory/run.py --out set.json          # all seven
    python3 benchmarks/observatory/run.py --workload rt_calib_aces \\
        --workload rt_calib_lockstep --runs 5 --out rt.json
    python3 benchmarks/observatory/run.py --traced --out layers.json

A set file carries the environment block (with ``machine_ref_score``)
and, per workload and metric, the median, min, max and the value of
every run; ``compare.py`` reads two of them.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time
import typing as _t

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Run leftovers (child results, span dumps); listed in .gitignore.
OUT_DIR = HERE / "out"

import spec

SET_SCHEMA = 1


def _need_program() -> None:
    """Put ``src/`` on the import path, or leave without a result."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            f"error: {src}/repro not found: the observatory measures the "
            "program in this checkout and cannot run without it",
            file=sys.stderr,
        )
        raise SystemExit(2)
    sys.path.insert(0, str(src))


# -- environment -------------------------------------------------------------


def machine_ref_score(repeats: int = 3) -> _t.Dict[str, _t.Any]:
    """Seconds a fixed pure-Python + numpy loop of about 3 s takes here
    (median of 3).

    Stored beside every set so numbers from different containers can be
    compared as ratios.  Recorded only: a short reference loop swings
    far more than a 10 s region does, so no gated metric is ever
    normalised by it.
    """
    import numpy as np

    def loop() -> float:
        start = time.perf_counter()
        total = 0
        for i in range(20_000_000):
            total += i * i % 7
        grid = np.arange(250_000, dtype=np.float64)
        for _ in range(3_000):
            grid = np.sqrt(grid * 1.0001 + 1.0)
        if total < 0 or not np.isfinite(grid).all():
            raise RuntimeError("reference loop produced nonsense")
        return time.perf_counter() - start

    runs = [loop() for _ in range(repeats)]
    return {
        "seconds": statistics.median(runs),
        "min": min(runs),
        "max": max(runs),
        "n": repeats,
    }


def environment_block() -> _t.Dict[str, _t.Any]:
    import networkx
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "machine_ref_score": machine_ref_score(),
    }


# -- one workload, in this process -------------------------------------------


def _detail(result: _t.Any) -> _t.Dict[str, _t.Any]:
    return {
        "workload": result.workload,
        "seed": result.seed,
        "correct": result.correct,
        "attempted_ops": result.attempted,
        "failed_ops": result.failed,
        "failures": result.failures,
        "sim_digest": result.digest,
        "metrics": {
            name: {"value": metric.value, "unit": metric.unit}
            for name, metric in result.metrics.items()
        },
    }


def run_one(args: argparse.Namespace) -> int:
    """Driver mode: measure, print, end with the result line."""
    _need_program()
    import workloads

    result = workloads.run_workload(
        args.workload[0], args.seed, args.seconds, bool(args.trace)
    )
    detail = _detail(result)
    print(
        f"{result.workload} seed={result.seed} seconds={args.seconds} "
        f"trace={args.trace}: {result.attempted} operations, "
        f"{result.failed} failed"
        + (f", digest {result.digest}" if result.digest else "")
    )
    for failure in result.failures:
        print(f"  FAILED {failure}")
    for name, metric in result.metrics.items():
        print(f"  {name:40s} {metric.value:16.6f} {metric.unit}")
    if result.trace is not None:
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans_{result.workload}_seed{result.seed}.json"
        spans.write_text(json.dumps(result.trace))
        print(f"  spans written to {spans.relative_to(ROOT)}")
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(detail, indent=1))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": detail["metrics"],
    }))
    return 0


# -- a set: one child process per workload -----------------------------------


def _child(
    workload: str, seed: int, seconds: float, trace: int, index: int
) -> _t.Dict[str, _t.Any]:
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"child_{workload}_{index}.json"
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--out", str(out),
    ]
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=900
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise RuntimeError(
            f"{workload}: child exited with {completed.returncode}"
        )
    detail = json.loads(out.read_text())
    out.unlink()
    return detail


def _summarise(
    runs: _t.Sequence[_t.Dict[str, _t.Any]],
) -> _t.Dict[str, _t.Any]:
    """Fold the runs of one workload: medians, spread, failures."""
    metrics = {}
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        metrics[name] = {
            "value": statistics.median(values),
            "unit": first["unit"],
            "min": min(values),
            "max": max(values),
            "n": len(values),
            "runs": values,
        }
    return {
        "attempted_ops": sum(run["attempted_ops"] for run in runs),
        "failed_ops": sum(run["failed_ops"] for run in runs),
        "failures": [f for run in runs for f in run["failures"]],
        "sim_digests": sorted({run["sim_digest"] for run in runs}),
        "metrics": metrics,
    }


def run_set(args: argparse.Namespace) -> int:
    _need_program()
    names = args.workload or [item.name for item in spec.WORKLOADS]
    for name in names:
        spec.workload(name)
    trace = int(bool(args.trace))
    results: _t.Dict[str, _t.Any] = {}
    for name in names:
        runs = [
            _child(name, args.seed, args.seconds, trace, index)
            for index in range(args.runs)
        ]
        summary = results[name] = _summarise(runs)
        print(
            f"{name}: {summary['failed_ops']}/{summary['attempted_ops']} "
            f"operations failed"
            + "".join(f", digest {d}" for d in summary["sim_digests"] if d)
        )
        for failure in summary["failures"]:
            print(f"  FAILED {failure}")
        for metric, entry in summary["metrics"].items():
            print(
                f"  {metric:40s} {entry['value']:16.6f} {entry['unit']:6s}"
                f" min {entry['min']:.6g} max {entry['max']:.6g} "
                f"n {entry['n']}"
            )
    document = {
        "schema": SET_SCHEMA,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(trace),
        "environment": environment_block(),
        "workloads": results,
    }
    if args.out:
        pathlib.Path(args.out).write_text(
            json.dumps(document, indent=1, sort_keys=True) + "\n"
        )
    failed = sum(entry["failed_ops"] for entry in results.values())
    return 1 if failed else 0


def main(argv: _t.Optional[_t.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Perf observatory (see benchmarks/observatory/README.md)"
    )
    parser.add_argument(
        "--workload", action="append", metavar="NAME",
        help="workload to run; repeat for several (default: all)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=float(spec.RUN_SECONDS),
        help="how long one run measures (default %(default)s)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: traced pass, per-layer metrics; 0: end-to-end metrics",
    )
    parser.add_argument(
        "--traced", dest="trace", action="store_const", const=1,
        help="same as --trace 1",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke mode: every workload measures for 1 s",
    )
    parser.add_argument(
        "--runs", type=int, default=None,
        help="runs per workload; giving it makes even one workload a set "
        "(medians are reported)",
    )
    parser.add_argument("--out", metavar="FILE", help="write results here")
    args = parser.parse_args(argv)
    if args.quick:
        args.seconds = 1.0
    if args.runs is not None and args.runs < 1:
        parser.error("--runs must be at least 1")
    if args.workload and len(args.workload) == 1 and args.runs is None:
        return run_one(args)
    args.runs = args.runs or 1
    return run_set(args)


if __name__ == "__main__":
    raise SystemExit(main())
