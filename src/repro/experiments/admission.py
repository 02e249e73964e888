"""Admission benchmark: burst matrix, plain ACES vs ACES + admission.

Every cell of the matrix runs the ACES policy on the paper-calibration
topology under one burst workload (``squarewave`` or ``flashcrowd``
sources, see :mod:`repro.model.workload`) at one burstiness scale
``lambda_s`` (the Fig. 5 knob), either *plain* or with the
:class:`~repro.control.admission.AdmissionController` front end armed,
and measures:

* **worst-stream p95** — the end-to-end p95 latency of the worst egress
  stream over the measured window (the SLO the admission front end
  defends);
* **utility retention** — the admission cell's weighted utility relative
  to its plain twin (what graceful degradation costs);
* **shed / rejected** — SDOs turned away at the admission front end;
* **transitions** — degradation-ladder activity;
* **violations** — online oracle findings plus the closed conservation
  ledger (must be empty in every cell).

The matrix is written to ``BENCH_admission.json`` by ``repro admit``;
``--smoke`` runs a reduced matrix sized for CI.  The headline acceptance
check: in every cell where plain ACES violates the SLO, ACES + admission
must hold it.  Pairing, the shared cell fields and the file envelope
live in :mod:`repro.experiments.matrix`.
"""

from __future__ import annotations

import typing as _t
from dataclasses import replace
from operator import itemgetter

import numpy as np

from repro.control.admission import AdmissionConfig
from repro.core.policies import policy_by_name
from repro.experiments import matrix
from repro.graph.topology import (
    TopologySpec,
    generate_topology,
    paper_calibration_spec,
)
from repro.systems.simulated import SystemConfig

#: The (baseline, armed) twin every (workload, lambda_s) key runs as.
MODES = ("plain", "admission")

#: Burst workloads of the matrix (both defined in repro.model.workload).
DEFAULT_WORKLOADS: _t.Tuple[str, ...] = ("squarewave", "flashcrowd")

#: Fig. 5 burstiness scales the matrix sweeps.
DEFAULT_LAMBDAS: _t.Tuple[float, ...] = (5.0, 10.0, 25.0)

#: End-to-end p95 SLO the admission front end defends (seconds).  The
#: paper-calibration topology has a multi-second latency floor under
#: congestion, so the SLO sits well above the light-load floor and well
#: below what plain ACES reaches under bursts (8-14 s).
DEFAULT_SLO_P95 = 2.5


def bench_admission_config(slo_p95: float = DEFAULT_SLO_P95) -> AdmissionConfig:
    """The tuned admission config the benchmark arms.

    Pre-emptive hysteresis bands (enter thresholds *below* the SLO
    boundary) engage the ladder before the SLO is breached; the tight
    queue fraction makes the instantaneous ingress-occupancy signal
    catch bursts the windowed-p95 signal only sees a window later.
    """
    return AdmissionConfig(
        slo_p95=slo_p95,
        queue_slo_fraction=0.1,
        pressure_window=0.25,
        min_dwell=0.5,
        enter=(0.25, 0.4, 0.6),
        exit=(0.15, 0.3, 0.45),
        shed_low_fraction=0.5,
        shed_high_fraction=0.85,
    )


def run_admission_cell(
    spec: TopologySpec,
    workload: str,
    lambda_s: float,
    mode: str,
    duration: float,
    warmup: float,
    seed: int,
    slo_p95: float,
) -> matrix.Cell:
    """One burst cell.  The topology is regenerated per cell from
    ``spec`` with ``lambda_s`` overridden (the caller's spec is left
    alone), so cells are independent and fully seeded."""
    topology = generate_topology(
        replace(spec, lambda_s=lambda_s), np.random.default_rng(seed)
    )
    run = matrix.run_observed(
        topology,
        policy_by_name("aces"),
        SystemConfig(
            seed=seed + 1,
            warmup=warmup,
            source_kind=workload,
            admission=(
                bench_admission_config(slo_p95) if mode == "admission" else None
            ),
        ),
        duration,
    )
    percentiles = sorted(run.system.collector.stream_percentiles().items())
    worst = max((row["p95"] for _, row in percentiles), default=0.0)
    controller = run.system.admission
    return run.cell(
        workload=workload,
        lambda_s=lambda_s,
        mode=mode,
        slo_p95=slo_p95,
        worst_stream_p95=worst,
        slo_met=worst <= slo_p95,
        stream_p95={pe: round(row["p95"], 6) for pe, row in percentiles},
        stream_p99={pe: round(row["p99"], 6) for pe, row in percentiles},
        source_rejections=run.reported("source_rejections", 0),
        drops_by_kind=dict(run.reported("drops_by_kind", {})),
        admission_shed=controller.total_shed if controller else 0,
        admission_rejected=controller.total_rejected if controller else 0,
        ladder_transitions=controller.ladder.transitions if controller else 0,
        final_level=controller.effective_level.name if controller else None,
    )


def _verdict(pairs: matrix.Pairs) -> matrix.Verdict:
    """``slo_defended``: wherever the plain cell violates the SLO, its
    admission twin holds it."""
    breached = [armed for plain, armed in pairs if not plain["slo_met"]]
    held = sum(1 for armed in breached if armed["slo_met"])
    terms = {
        "slo_defended": held == len(breached),
        "plain_slo_violations": len(breached),
        "admission_cells_held": held,
    }
    return terms, held == len(breached)


def run_admission_matrix(
    workloads: _t.Sequence[str] = DEFAULT_WORKLOADS,
    lambdas: _t.Sequence[float] = DEFAULT_LAMBDAS,
    duration: float = 15.0,
    warmup: float = 2.0,
    seed: int = 0,
    slo_p95: float = DEFAULT_SLO_P95,
    spec: _t.Optional[TopologySpec] = None,
) -> matrix.Results:
    """Run the (workload x lambda_s x {plain, admission}) burst matrix."""
    base = spec if spec is not None else paper_calibration_spec()
    lambdas = [float(value) for value in lambdas]
    return matrix.run_twin_matrix(
        "admission",
        MODES,
        [(workload, value) for workload in workloads for value in lambdas],
        lambda key, mode: run_admission_cell(
            base, *key, mode, duration, warmup, seed, slo_p95
        ),
        _verdict,
        {
            "slo_p95": slo_p95,
            "workloads": list(workloads),
            "lambdas": lambdas,
            "admission_config": matrix.config_block(
                bench_admission_config(slo_p95),
                "queue_slo_fraction", "pressure_window", "min_dwell",
                "enter", "exit", "shed_low_fraction", "shed_high_fraction",
                "retry_after",
            ),
        },
        duration,
        warmup,
        seed,
    )


VERB = matrix.MatrixVerb(
    help="admission burst matrix (plain ACES vs ACES + admission)",
    description=(
        "Run burst workloads (square-wave and flash-crowd sources) at "
        "several Fig. 5 burstiness scales, plain and with the "
        "SLO-aware admission front end armed, with strict invariant "
        "oracles watching every cell, and write the matrix to a JSON "
        "benchmark file.  Exits nonzero on any SLO defense failure "
        "or invariant violation."
    ),
    flags=(
        matrix.flag(
            "--workloads", "comma-separated burst workload kinds",
            default=",".join(DEFAULT_WORKLOADS),
        ),
        matrix.flag(
            "--lambdas", "comma-separated lambda_s burstiness scales",
            default="5,10,25",
        ),
        *matrix.window_flags(15.0, 2.0),
        matrix.flag(
            "--slo", "end-to-end p95 SLO the front end defends (default 2.5)",
            type=float, default=DEFAULT_SLO_P95, metavar="SECONDS",
        ),
        matrix.SEED_FLAG,
        matrix.output_flag("BENCH_admission.json"),
        matrix.smoke_flag(
            "reduced CI matrix: one workload, one lambda_s, short run"
        ),
    ),
    smoke=dict(workloads="squarewave", lambdas="10", duration=10.0, warmup=2.0),
    run=lambda args: run_admission_matrix(
        workloads=matrix.csv(args.workloads),
        lambdas=[float(value) for value in matrix.csv(args.lambdas)],
        duration=args.duration,
        warmup=args.warmup,
        seed=args.seed,
        slo_p95=args.slo,
    ),
    title=lambda results: (
        f"admission burst matrix (SLO p95 <= {results['slo_p95'] * 1000:.0f}ms)"
    ),
    columns=(
        ("workload", itemgetter("workload")),
        ("lambda_s", itemgetter("lambda_s")),
        ("mode", itemgetter("mode")),
        ("worst_p95_ms", matrix.in_ms("worst_stream_p95")),
        ("slo_met", itemgetter("slo_met")),
        ("wutil", itemgetter("weighted_utility")),
        matrix.RETENTION,
        ("shed", itemgetter("admission_shed")),
        ("rejected", itemgetter("admission_rejected")),
        ("trans", itemgetter("ladder_transitions")),
        matrix.VIOLATIONS,
        matrix.ERROR,
    ),
    summary=(
        ("plain_slo_violations", "plain_slo_violations"),
        ("held", "admission_cells_held"),
        ("violations", "total_violations"),
        ("errors", "errors"),
    ),
)
