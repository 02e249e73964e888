"""The stream-processing model: SDOs, PEs, buffers, links, workloads.

This package implements the paper's Section III model:

* streams are sequences of Stream Data Objects (:mod:`repro.model.sdo`);
* processing elements are two-state Markov-modulated state machines that
  consume one SDO and emit ``M`` SDOs after ``T_S`` seconds of CPU work
  (:mod:`repro.model.pe`, :mod:`repro.model.statemachine`);
* each PE owns a bounded input buffer (:mod:`repro.model.buffers`);
* PEs are placed on processing nodes with normalized CPU capacity (the
  control plane's node groups, :class:`repro.control.plane.NodeGroup`);
* system input streams are generated by (possibly bursty) sources
  (:mod:`repro.model.workload`).
"""

from repro.model.buffers import BufferTelemetry, InputBuffer
from repro.model.links import Link
from repro.model.operators import (
    aggregate_pe,
    fanout_pe,
    filter_pe,
    join_pe,
    map_pe,
)
from repro.model.params import DEFAULTS, ExperimentDefaults, PEProfile
from repro.model.pe import PERuntime
from repro.model.sdo import SDO
from repro.model.statemachine import TwoStateMachine
from repro.model.workload import (
    ConstantRateSource,
    OnOffSource,
    PoissonSource,
    SourceStats,
)

__all__ = [
    "BufferTelemetry",
    "ConstantRateSource",
    "DEFAULTS",
    "ExperimentDefaults",
    "InputBuffer",
    "Link",
    "OnOffSource",
    "PERuntime",
    "PEProfile",
    "PoissonSource",
    "SDO",
    "SourceStats",
    "TwoStateMachine",
    "aggregate_pe",
    "fanout_pe",
    "filter_pe",
    "join_pe",
    "map_pe",
]
