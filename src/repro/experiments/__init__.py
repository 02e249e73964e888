"""Experiment harness: everything needed to regenerate the paper's results.

* :mod:`repro.experiments.config` — named experiment configurations
  matching the paper's Section VI-C parameter table;
* :mod:`repro.experiments.runner` — run one (topology, policy) cell,
  multi-seed averaging;
* :mod:`repro.experiments.sweeps` — parameter sweeps (buffer size,
  burstiness, allocation error);
* :mod:`repro.experiments.figures` — one function per paper figure/claim,
  returning the table of numbers behind it;
* :mod:`repro.experiments.calibration` — the SPC-runtime-vs-simulator
  calibration experiment (Section VI-C);
* :mod:`repro.experiments.matrix` — the one harness behind the tier
  matrices: observed cells, baseline-vs-armed twins, the BENCH writer;
* :mod:`repro.experiments.resilience` — the chaos/fault matrix measuring
  utility retention, MTTR, and drops under injected faults;
* :mod:`repro.experiments.admission` — the burst matrix comparing plain
  ACES against ACES with the SLO-aware admission front end;
* :mod:`repro.experiments.reporting` — plain-text rendering of results.
"""

from repro.experiments.admission import run_admission_matrix
from repro.experiments.calibration import run_calibration
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import (
    buffer_sweep,
    figure3_latency,
    figure4_tradeoff,
    figure5_burstiness,
    robustness,
)
from repro.experiments.matrix import write_bench
from repro.experiments.resilience import run_chaos_matrix
from repro.experiments.runner import CellResult, run_cell
from repro.experiments.sweeps import sweep

__all__ = [
    "CellResult",
    "ExperimentConfig",
    "buffer_sweep",
    "figure3_latency",
    "figure4_tradeoff",
    "figure5_burstiness",
    "robustness",
    "run_admission_matrix",
    "run_calibration",
    "run_cell",
    "run_chaos_matrix",
    "sweep",
    "write_bench",
]
