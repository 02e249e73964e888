"""repro.obs — controller-internals tracing and run telemetry.

Three layers, all opt-in with a zero-overhead default:

* **Trace events** (:mod:`repro.obs.recorder`) — core components publish
  structured, timestamped decision events (``r_max`` updates, token-bucket
  levels, CPU grants, buffer occupancy, drops, Tier-1 re-solves) to a
  :class:`TraceRecorder`; the default :data:`NULL_RECORDER` reduces every
  publication site to one branch.
* **Gauges** (:mod:`repro.obs.gauges`) — a :class:`GaugeRegistry` samples
  per-PE/per-node state on a fixed virtual-time cadence into time-series.
* **Profiling** (:mod:`repro.obs.profiler`) — a :class:`PhaseProfiler`
  attributes wall-clock time to sim-engine phases (event dispatch,
  controller ticks, PE execution, transport) by wrapping a table of
  named functions only while a run is on; the timed code has no hooks.

Entry points: ``SimulatedSystem(..., recorder=..., profiler=...,
gauge_cadence=...)`` or the ``python -m repro trace`` CLI subcommand.
"""

from repro.obs.export import (
    read_events_jsonl,
    write_events_csv,
    write_events_jsonl,
    write_gauges_csv,
)
from repro.obs.gauges import Gauge, GaugeRegistry
from repro.obs.hist import LogHistogram
from repro.obs.profiler import PhaseProfiler
from repro.obs.spans import SpanTracker
from repro.obs.surface import (
    MetricsSnapshot,
    render_prometheus,
    render_top,
    snapshot,
)
from repro.obs.recorder import (
    ENVELOPE_KEYS,
    EVENT_KINDS,
    NULL_RECORDER,
    JsonlRecorder,
    MemoryRecorder,
    NullRecorder,
    TraceFilter,
    TraceRecorder,
    validate_event,
)

__all__ = [
    "ENVELOPE_KEYS",
    "EVENT_KINDS",
    "Gauge",
    "GaugeRegistry",
    "JsonlRecorder",
    "LogHistogram",
    "MemoryRecorder",
    "MetricsSnapshot",
    "NULL_RECORDER",
    "NullRecorder",
    "PhaseProfiler",
    "SpanTracker",
    "TraceFilter",
    "TraceRecorder",
    "read_events_jsonl",
    "render_prometheus",
    "render_top",
    "snapshot",
    "validate_event",
    "write_events_csv",
    "write_events_jsonl",
    "write_gauges_csv",
]
