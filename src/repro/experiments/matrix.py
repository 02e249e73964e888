"""One matrix harness for the tier benchmarks.

The paper's evaluation (Section VI) is one method: same topology, same
seed, one mechanism toggled, compare.  The admission, elasticity and
forecast suites are that method three times — every cell key runs as a
``(baseline, armed)`` twin under strict invariant oracles — and the
chaos suite shares its run guard, file format and CLI flow.  What a
suite owns is how a cell key becomes a system, which fields it measures
and what its verdict asks; everything else lives here, once:

* :func:`run_observed` — one cell under a strict
  :class:`~repro.check.OracleRecorder`, the conservation ledger closed;
* :func:`run_twin_matrix` — twin pairing, ``utility_retention``, the
  ``total_violations`` / ``errors`` / ``clean`` arithmetic and the
  envelope every ``BENCH_<suite>.json`` shares;
* :func:`write_bench` — the single byte-deterministic writer;
* :func:`fan_out` — the one process fan-out every experiment grid
  (figure cells, sweeps, the chaos matrix) runs through;
* :class:`MatrixVerb` — how ``repro <verb>`` drives a suite (flags,
  smoke overrides, table columns, summary line), read by one handler in
  :mod:`repro.cli`.
"""

from __future__ import annotations

import argparse
import json
import operator
import typing as _t
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.check import OracleRecorder
from repro.core.policies import Policy
from repro.graph.topology import Topology
from repro.metrics.collectors import MetricsReport
from repro.systems.simulated import SimulatedSystem, SystemConfig
from repro.systems.substrate import Substrate

Task = _t.TypeVar("Task")
Outcome = _t.TypeVar("Outcome")
Cell = _t.Dict[str, _t.Any]
Results = _t.Dict[str, _t.Any]
#: One ``(baseline, armed)`` twin per cell key, in run order.
Pairs = _t.Sequence[_t.Tuple[Cell, Cell]]
#: A suite's own summary terms, and whether they all hold.
Verdict = _t.Tuple[_t.Dict[str, _t.Any], bool]


def guarded_run(
    system: Substrate, duration: float
) -> _t.Tuple[_t.Optional[MetricsReport], _t.Optional[str]]:
    """``system.run`` as ``(report, error)``: a cell that raises is
    recorded in its ``error`` field and the matrix carries on."""
    try:
        return system.run(duration), None
    except Exception as exc:  # noqa: BLE001 — a cell must never kill the matrix
        return None, f"{type(exc).__name__}: {exc}"


@dataclass
class ObservedRun:
    """One finished cell: the system, its report and what the oracles saw."""

    system: SimulatedSystem
    report: _t.Optional[MetricsReport]
    violations: _t.List[_t.Dict[str, object]]
    error: _t.Optional[str]

    def reported(self, name: str, default: _t.Any) -> _t.Any:
        """A report field, or ``default`` when the run raised."""
        if self.report is None:
            return default
        return getattr(self.report, name)

    def cell(self, **measured: _t.Any) -> Cell:
        """The fields every suite reports, plus the suite's own."""
        return {
            "weighted_throughput": self.reported("weighted_throughput", 0.0),
            "weighted_utility": self.reported("weighted_utility", 0.0),
            "total_output": self.reported("total_output_sdos", 0),
            "buffer_drops": self.reported("buffer_drops", 0),
            "violations": self.violations,
            # Filled by run_twin_matrix for armed cells.
            "utility_retention": None,
            "error": self.error,
            **measured,
        }


def run_observed(
    topology: Topology, policy: Policy, config: SystemConfig, duration: float
) -> ObservedRun:
    """Run one cell with strict oracles armed and the ledger closed."""
    recorder = OracleRecorder()
    system = SimulatedSystem(
        topology, policy, config=config, recorder=recorder
    )
    recorder.attach(system)
    report, error = guarded_run(system, duration)
    return ObservedRun(
        system, report, [v.as_dict() for v in recorder.finalize()], error
    )


def retention_min(pairs: Pairs) -> _t.Optional[float]:
    """The lowest ``utility_retention`` over the armed cells (None when
    no baseline produced utility to compare against)."""
    return min(
        (
            armed["utility_retention"]
            for _, armed in pairs
            if armed["utility_retention"] is not None
        ),
        default=None,
    )


def config_block(config: object, *names: str) -> _t.Dict[str, _t.Any]:
    """The named fields of a tuned config, for a matrix header."""
    return {name: getattr(config, name) for name in names}


def run_twin_matrix(
    suite: str,
    modes: _t.Tuple[str, str],
    keys: _t.Sequence[_t.Any],
    run_cell: _t.Callable[[_t.Any, str], Cell],
    verdict: _t.Callable[[Pairs], Verdict],
    header: _t.Dict[str, _t.Any],
    duration: float,
    warmup: float,
    seed: int,
) -> Results:
    """Run every key as a ``(baseline, armed)`` twin and judge the matrix.

    ``run_cell(key, mode)`` returns one :meth:`ObservedRun.cell`; the
    armed cell's ``utility_retention`` is its weighted utility relative
    to its baseline twin.  ``verdict(pairs)`` returns the suite's own
    summary terms and whether they hold; ``clean`` additionally
    requires zero oracle/conservation violations and zero cell errors.
    """
    if not keys:
        raise ValueError(f"the {suite} matrix needs at least one cell key")
    pairs: _t.List[_t.Tuple[Cell, Cell]] = []
    for key in keys:
        baseline, armed = (run_cell(key, mode) for mode in modes)
        if baseline["weighted_utility"] > 0:
            armed["utility_retention"] = (
                armed["weighted_utility"] / baseline["weighted_utility"]
            )
        pairs.append((baseline, armed))
    cells = [cell for pair in pairs for cell in pair]
    terms, holds = verdict(pairs)
    violations = sum(len(cell["violations"]) for cell in cells)
    errors = sum(1 for cell in cells if cell["error"] is not None)
    return {
        "suite": suite,
        "seed": seed,
        "duration": duration,
        "warmup": warmup,
        **header,
        "summary": {
            **terms,
            "total_violations": violations,
            "errors": errors,
            "clean": holds and violations == 0 and errors == 0,
        },
        "cells": cells,
    }


def write_bench(results: Results, path: str) -> None:
    """Write a matrix to disk, byte-deterministically (sorted keys;
    non-finite floats such as an ``inf`` MTTR serialize as null)."""

    def _clean(value: _t.Any) -> _t.Any:
        if isinstance(value, float) and not np.isfinite(value):
            return None
        if isinstance(value, dict):
            return {key: _clean(item) for key, item in value.items()}
        if isinstance(value, list):
            return [_clean(item) for item in value]
        return value

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(_clean(results), handle, indent=2, sort_keys=True)
        handle.write("\n")


def fan_out(
    run: _t.Callable[[Task], Outcome], tasks: _t.Sequence[Task], jobs: int
) -> _t.List[Outcome]:
    """``[run(task) for task in tasks]``, in task order, spread over
    ``jobs`` worker processes when ``jobs`` > 1.

    Each task must carry everything its run needs (seeds included), so
    the outcome cannot depend on which process ran it.  If the pool
    itself fails (an unpicklable task, a broken child, a platform
    without working process pools) the grid re-runs in this process,
    with a :class:`RuntimeWarning`, and a real error in a task then
    raises there as itself.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs > 1:
        try:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                return list(pool.map(run, tasks, chunksize=1))
        except Exception as exc:  # noqa: BLE001 — any pool failure
            warnings.warn(
                f"process pool failed ({type(exc).__name__}: {exc}); "
                f"running {len(tasks)} tasks in-process",
                RuntimeWarning,
                stacklevel=2,
            )
    return [run(task) for task in tasks]


# -- the CLI's view of a suite ----------------------------------------------

Flag = _t.Tuple[str, _t.Dict[str, _t.Any]]
Column = _t.Tuple[str, _t.Callable[[Cell], _t.Any]]


@dataclass(frozen=True)
class MatrixVerb:
    """How ``repro <verb>`` drives one suite.

    One handler (:func:`repro.cli.cmd_matrix`) serves every verb: apply
    the ``smoke`` overrides, ``run``, :func:`write_bench`, print one
    table row per cell and one summary line, exit 0 iff ``clean``.
    """

    help: str
    description: str
    #: ``add_argument(name, **options)`` specs, in ``--help`` order.
    flags: _t.Tuple[Flag, ...]
    #: Flag values ``--smoke`` forces (the reduced CI matrix).
    smoke: _t.Dict[str, _t.Any]
    run: _t.Callable[[argparse.Namespace], Results]
    title: _t.Callable[[Results], str]
    columns: _t.Tuple[Column, ...]
    #: ``(label, stats key)`` pairs of the summary line.
    summary: _t.Tuple[_t.Tuple[str, str], ...]
    #: The dict ``summary`` and the exit rule (``clean``) read.
    stats: _t.Callable[[Results], _t.Dict[str, _t.Any]] = (
        operator.itemgetter("summary")
    )
    #: Take the generic --pes/--nodes/... topology flags; the handler
    #: resolves them to ``args.spec``.
    topology_flags: bool = False


def flag(name: str, help: str, **options: _t.Any) -> Flag:
    return name, {"help": help, **options}


def window_flags(duration: float, warmup: float) -> _t.Tuple[Flag, Flag]:
    return (
        flag("--duration", "measured seconds", type=float, default=duration),
        flag("--warmup", "warm-up seconds", type=float, default=warmup),
    )


def output_flag(default: str) -> Flag:
    return flag(
        "--output", "benchmark JSON output file", default=default,
        metavar="PATH",
    )


def smoke_flag(help: str) -> Flag:
    return flag("--smoke", help, action="store_true")


SEED_FLAG = flag("--seed", "matrix seed", type=int, default=0)
MAX_NODES_FLAG = flag(
    "--max-nodes", "autoscaler node ceiling (default 5)",
    dest="max_nodes", type=int, default=5,
)


def csv(
    text: _t.Optional[str], default: _t.Iterable[str] = ()
) -> _t.List[str]:
    """A comma-separated flag value; empty or None means ``default``
    (the one place "all scenarios" is resolved)."""
    if not text:
        return list(default)
    return [name.strip() for name in text.split(",")]


def or_dash(key: str) -> _t.Callable[[Cell], _t.Any]:
    return lambda cell: "-" if cell[key] is None else cell[key]


def in_ms(key: str) -> _t.Callable[[Cell], float]:
    return lambda cell: cell[key] * 1000.0


def count(key: str) -> _t.Callable[[Cell], int]:
    return lambda cell: len(cell[key])


RETENTION: Column = ("retention", or_dash("utility_retention"))
OUT_IN: Column = (
    "out/in", lambda cell: f"{cell['scale_outs']}/{cell['scale_ins']}"
)
VIOLATIONS: Column = ("violations", count("violations"))
ERROR: Column = ("error", or_dash("error"))
