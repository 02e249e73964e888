"""repro — a full reproduction of *Adaptive Control of Extreme-scale
Stream Processing Systems* (Amini et al., ICDCS 2006).

Quickstart::

    import numpy as np
    from repro import (
        AcesPolicy, SystemConfig, generate_topology, run_system,
        solve_global_allocation, TopologySpec,
    )

    spec = TopologySpec(num_nodes=5, num_ingress=4, num_egress=4,
                        num_intermediate=12)
    topology = generate_topology(spec, np.random.default_rng(0))
    report = run_system(topology, AcesPolicy(), duration=20.0)
    print(report.one_line())

Package layout (see DESIGN.md for the full inventory):

=====================  ====================================================
``repro.sim``          discrete-event simulation kernel (C-SIM analogue)
``repro.model``        SDOs, PEs, buffers, nodes, workload sources
``repro.graph``        processing DAG, topology generator, placement
``repro.core``         ACES: global optimization, LQR flow control,
                       token-bucket CPU control, policies
``repro.systems``      the simulated DSPS and the substrate contract
``repro.runtime``      threaded mini-SPC (real queues and worker threads)
``repro.metrics``      weighted throughput, latency, summary statistics
``repro.obs``          controller-internals tracing, gauges, profiling
``repro.experiments``  per-figure experiment harness
=====================  ====================================================
"""

from repro.core.global_opt import solve_global_allocation
from repro.core.lqr import design_gains
from repro.core.policies import (
    AcesPolicy,
    LockStepPolicy,
    Policy,
    UdpPolicy,
    policy_by_name,
)
from repro.core.targets import AllocationTargets, fair_share_targets
from repro.graph.dag import ProcessingGraph
from repro.graph.topology import Topology, TopologySpec, generate_topology
from repro.metrics.collectors import MetricsReport
from repro.model.params import DEFAULTS, PEProfile
from repro.obs import (
    GaugeRegistry,
    JsonlRecorder,
    MemoryRecorder,
    NullRecorder,
    PhaseProfiler,
    TraceFilter,
    TraceRecorder,
)
from repro.runtime.spc import RuntimeConfig, SPCRuntime
from repro.systems.simulated import SimulatedSystem, SystemConfig, run_system

__version__ = "1.0.0"

__all__ = [
    "AcesPolicy",
    "AllocationTargets",
    "DEFAULTS",
    "GaugeRegistry",
    "JsonlRecorder",
    "LockStepPolicy",
    "MemoryRecorder",
    "MetricsReport",
    "NullRecorder",
    "PEProfile",
    "PhaseProfiler",
    "Policy",
    "ProcessingGraph",
    "RuntimeConfig",
    "SPCRuntime",
    "SimulatedSystem",
    "SystemConfig",
    "Topology",
    "TopologySpec",
    "TraceFilter",
    "TraceRecorder",
    "UdpPolicy",
    "design_gains",
    "fair_share_targets",
    "generate_topology",
    "policy_by_name",
    "run_system",
    "solve_global_allocation",
    "__version__",
]
