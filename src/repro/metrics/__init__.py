"""Measurement: throughput, latency, loss, occupancy, and summary stats.

The paper's two headline metrics are implemented here:

* **weighted throughput** — SDOs leaving the system through egress PEs,
  weighted by each output stream's importance ``w_j`` (Section III-A);
* **end-to-end latency** — time from a source SDO entering the system to a
  derived SDO leaving through an egress PE (mean and standard deviation,
  as in Figures 3 and 4).
"""

from repro.metrics.collectors import EgressCollector, EgressRecord, MetricsReport
from repro.metrics.stats import SummaryStats, summarize

__all__ = [
    "EgressCollector",
    "EgressRecord",
    "MetricsReport",
    "SummaryStats",
    "summarize",
]
