"""What the observatory measures: workloads, metrics, traced boundaries.

Pure data, no imports from the program under test.  ``BENCHMARK.json``
at the repo root is the projection of these tables onto the driver's
schema (``test_observatory.py`` holds the two equal); everything the
schema has no room for — workload parameters, which workloads a metric
gates, which end-to-end metric a layer metric is predicted to move —
lives here and in ``README.md``.
"""

from __future__ import annotations

import typing as _t

#: How long one run measures (``run_seconds`` in BENCHMARK.json).
RUN_SECONDS = 10

SIM = "sim_*"
RT = "rt_*"
ALL = "all"


class Workload(_t.NamedTuple):
    name: str
    substrate: str  # "sim" | "rt"
    #: One line for BENCHMARK.json (<= 200 characters).
    why: str
    #: Parameters as the README table shows them.
    params: str
    policy: str
    #: Program warm-up inside the timed region, and the control
    #: interval (model seconds).
    warmup: float
    dt: float
    #: Model seconds covered per second of ``--seconds`` (fixed work, so
    #: counts and digests repeat exactly; sized on the 2-core reference
    #: box so a run measures for about ``--seconds`` of wall time).
    model_s_per_budget_s: float
    #: Full set-ups (topology + Tier-1 + construction) timed per run.
    setup_samples: int


WORKLOADS: _t.Tuple[Workload, ...] = (
    Workload(
        "sim_calib_aces", "sim",
        "Paper's headline policy at calibration scale; the scalar Tier-2 "
        "step dominates wall time, so control.node and core.*_control "
        "work shows here",
        "SimulatedSystem, paper_calibration_spec() (60 PE / 10 nodes), "
        "ACES, scalar Tier-2, on/off sources, SLSQP targets, dt=0.01, "
        "program warm-up 5 s",
        "aces", 5.0, 0.01, 12.5, 9,
    ),
    Workload(
        "sim_calib_udp", "sim",
        "Same topology under UDP bypasses Eq. 7/Eq. 8: a flow-control "
        "optimisation must show no change here, a kernel or dataplane "
        "one shows most here",
        "as sim_calib_aces with the UDP policy",
        "udp", 5.0, 0.01, 26.0, 9,
    ),
    Workload(
        "sim_x10_vector", "sim",
        "Extreme-scale point (800 nodes / 2,000 PEs): the array Tier-2 "
        "engine via ControlPlane.tick_nodes, PE/dataplane-bound, set-up "
        "dominated by generate_topology",
        "SimulatedSystem, scaled_main_spec(10), ACES, "
        "control_impl='vector', 8 phase buckets, dt=0.02, fair-share "
        "targets, no program warm-up",
        "aces", 0.0, 0.02, 0.38, 1,
    ),
    Workload(
        "sim_calib_tiers_armed", "sim",
        "Admission + elasticity + forecasting armed together: the only "
        "workload where Tier-1 re-solves, placement_opt and plane "
        "membership surgery do real work",
        "calibration topology, ACES, scenario_config('correlatedburst', "
        "'proactive', duration, 1.0, seed, max_nodes=14) + "
        "bench_admission_config(), forecast cooldown raised to one burst "
        "period",
        "aces", 1.0, 0.02, 17.0, 9,
    ),
    Workload(
        "sim_calib_observed", "sim",
        "sim_calib_aces with strict oracles and a span tracker armed, as "
        "every matrix and fuzz campaign runs: makes obs.* and "
        "check.oracles cost visible",
        "as sim_calib_aces with OracleRecorder(strict=True) attached to "
        "the plane and SpanTracker(recorder) armed",
        "aces", 5.0, 0.01, 6.5, 9,
    ),
    Workload(
        "rt_calib_aces", "rt",
        "Threaded runtime at 4x time compression, open loop, ACES: "
        "non-blocking Channel.offer transport under ~85 threads and the "
        "GIL",
        "SPCRuntime, calibration topology and targets, ACES, "
        "RuntimeConfig(dilation=0.25, warmup=2.0, dt=0.05), 12 Poisson "
        "source threads (open loop, nominal 693 SDO/model-s)",
        "aces", 2.0, 0.05, 4.0, 9,
    ),
    Workload(
        "rt_calib_lockstep", "rt",
        "Same runtime under Lock-Step: blocking Channel.put and 2 ms "
        "gate polling, so a transport change that helps offer and hurts "
        "put splits the two rt workloads",
        "as rt_calib_aces with the Lock-Step policy",
        "lockstep", 2.0, 0.05, 4.0, 9,
    ),
)


class EndToEnd(_t.NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may get worse.
    bound: float
    #: Workloads on which the metric can move (it is reported, pinned,
    #: on the others because the driver wants every metric everywhere).
    gates: str
    meaning: str


END_TO_END: _t.Tuple[EndToEnd, ...] = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25, ALL,
        "median full set-up: topology generation + bootstrap Tier-1 "
        "targets + system construction, plus the simulator reference "
        "run on rt_*",
    ),
    EndToEnd(
        "sim_s_per_wall_s", "s/s", "higher", 0.25, SIM,
        "model seconds advanced per host second over the measured "
        "region (time-to-figure); pinned near 1/dilation on rt_*",
    ),
    EndToEnd(
        "sdos_per_wall_s", "1/s", "higher", 0.25, ALL,
        "egress SDOs delivered in the measured region per host second",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.10, ALL,
        "ru_maxrss of the process that ran the workload",
    ),
    EndToEnd(
        "wt_ratio_vs_sim", "ratio", "higher", 0.15, RT,
        "weighted throughput / the simulator's on the same topology, "
        "targets, seed and model window; the workload is its own "
        "reference on sim_* (1.0 unless determinism broke)",
    ),
    EndToEnd(
        "latency_p50_model_s", "s", "lower", 0.25, ALL,
        "median end-to-end SDO latency in model seconds, exact samples "
        "from a benchmark-owned egress sink",
    ),
    EndToEnd(
        "latency_p95_model_s", "s", "lower", 0.25, ALL,
        "95th percentile of the same samples",
    ),
    EndToEnd(
        "tick_rate_ratio", "ratio", "higher", 0.10, RT,
        "control ticks taken / (controllers x model time / dt); pinned "
        "near 1 on sim_*",
    ),
)


class Layer(_t.NamedTuple):
    name: str
    unit: str
    better: str
    #: End-to-end metric this one is predicted to move ...
    moves: str
    #: ... and on which workloads.
    where: str


def _layers(
    module: str, moves: str, where: str, *metrics: _t.Tuple[str, str, str]
) -> _t.List[Layer]:
    return [
        Layer(f"{module}.{name}", unit, better, moves, where)
        for name, unit, better in metrics
    ]


_RATE = "sim_s_per_wall_s"
_CALIB_ACES = "sim_calib_aces, sim_calib_observed"
_ARMED = "sim_calib_tiers_armed"
_OBSERVED = "sim_calib_observed"

PER_LAYER: _t.Tuple[Layer, ...] = tuple(
    _layers(
        "sim.engine", _RATE,
        "every sim_*, most on sim_calib_udp and sim_x10_vector",
        ("events", "count", "lower"),
        ("self_s", "s", "lower"),
        ("events_per_s", "1/s", "higher"),
    )
    + _layers(
        "control.node", _RATE + "; tick_rate_ratio on rt_*", _CALIB_ACES,
        ("ticks", "count", "higher"),
        ("pe_steps", "count", "higher"),
        ("control_s", "s", "lower"),
        ("self_s", "s", "lower"),
        ("us_per_pe_step", "us", "lower"),
        ("tick_p50_us", "us", "lower"),
        ("tick_p95_us", "us", "lower"),
    )
    + _layers(
        "core.feedback", _RATE, _CALIB_ACES + " (about 0 on sim_calib_udp)",
        ("read_s", "s", "lower"),
        ("reads", "count", "lower"),
        ("publish_s", "s", "lower"),
        ("publishes", "count", "lower"),
    )
    + _layers(
        "core.cpu_control", _RATE, _CALIB_ACES + ", sim_calib_udp",
        ("allocate_s", "s", "lower"),
        ("allocates", "count", "lower"),
    )
    + _layers(
        "core.flow_control", _RATE, _CALIB_ACES + " (0 on sim_calib_udp)",
        ("update_s", "s", "lower"),
        ("updates", "count", "lower"),
    )
    + _layers(
        "control.vector", _RATE, "sim_x10_vector only",
        ("control_group_s", "s", "lower"),
        ("groups", "count", "lower"),
        ("pe_steps", "count", "higher"),
        ("us_per_pe_step", "us", "lower"),
    )
    + _layers(
        "control.plane", _RATE, "sim_x10_vector (tick_nodes), " + _ARMED,
        ("tick_nodes_s", "s", "lower"),
        ("reoptimize_s", "s", "lower"),
        ("reoptimizes", "count", "lower"),
        ("membership_s", "s", "lower"),
        ("membership_ops", "count", "lower"),
    )
    + _layers(
        "model.pe", _RATE + ", sdos_per_wall_s",
        "sim_x10_vector and sim_calib_udp first",
        ("execute_s", "s", "lower"),
        ("executes", "count", "lower"),
        ("consumed", "count", "higher"),
    )
    + _layers(
        "systems.dataplane", _RATE + ", sdos_per_wall_s",
        "sim_x10_vector and sim_calib_udp first",
        ("snapshot_s", "s", "lower"),
        ("apply_grants_s", "s", "lower"),
        ("apply_grants_self_s", "s", "lower"),
        ("emit_s", "s", "lower"),
        ("emits", "count", "lower"),
        ("emit_drops", "count", "lower"),
        ("admit_s", "s", "lower"),
        ("admits", "count", "lower"),
    )
    + _layers(
        "model.buffers", "sdos_per_wall_s", "every workload",
        ("offered", "count", "higher"),
        ("dropped", "count", "lower"),
        ("drop_ratio", "ratio", "lower"),
    )
    + _layers(
        "model.workload", "sdos_per_wall_s", "every sim_*",
        ("generated", "count", "higher"),
        ("rejected", "count", "lower"),
    )
    + _layers(
        "metrics.collectors", "sdos_per_wall_s", "every workload",
        ("record_s", "s", "lower"),
        ("egress_sdos", "count", "higher"),
    )
    + _layers(
        "core.global_opt", _RATE + " on " + _ARMED + "; setup_s",
        _ARMED + "; set-up of every calibration workload",
        ("solve_s", "s", "lower"),
        ("solves", "count", "lower"),
        ("solve_p50_ms", "ms", "lower"),
    )
    + _layers(
        "core.resilience", _RATE, _ARMED,
        ("fallbacks", "count", "lower"),
    )
    + _layers(
        "graph.placement_opt", _RATE, _ARMED,
        ("optimize_s", "s", "lower"),
        ("calls", "count", "lower"),
    )
    + _layers(
        "systems.simulated", _RATE + " (migrate_s); setup_s (construct_s)",
        _ARMED + "; every workload's set-up",
        ("migrate_s", "s", "lower"),
        ("construct_s", "s", "lower"),
    )
    + _layers(
        "control.admission", _RATE, _ARMED,
        ("tick_s", "s", "lower"),
        ("ticks", "count", "lower"),
        ("admit_s", "s", "lower"),
        ("admits", "count", "lower"),
        ("shed", "count", "lower"),
        ("rejected", "count", "lower"),
    )
    + _layers(
        "control.elastic", _RATE, _ARMED,
        ("observe_s", "s", "lower"),
        ("plan_s", "s", "lower"),
        ("scale_outs", "count", "lower"),
        ("scale_ins", "count", "lower"),
        ("migrations", "count", "lower"),
    )
    + _layers(
        "control.forecast", _RATE, _ARMED,
        ("tick_s", "s", "lower"),
        ("ticks", "count", "lower"),
        ("triggers", "count", "lower"),
    )
    + _layers(
        "graph.topology", "setup_s", "sim_x10_vector",
        ("generate_s", "s", "lower"),
    )
    + _layers(
        "obs.recorder", _RATE, _OBSERVED,
        ("emit_s", "s", "lower"),
        ("emits", "count", "lower"),
    )
    + _layers(
        "obs.spans", _RATE, _OBSERVED,
        ("observe_s", "s", "lower"),
        ("observes", "count", "lower"),
    )
    + _layers(
        "check.oracles",
        "none (end-of-run check; per-event checking is obs.recorder.emit_s)",
        _OBSERVED,
        ("finalize_s", "s", "lower"),
        ("violations", "count", "lower"),
    )
    + _layers(
        "check.conservation", "none (ledger closed after the measured region)",
        "every sim_*",
        ("check_s", "s", "lower"),
        ("violations", "count", "lower"),
    )
    + _layers(
        "runtime.spc",
        "sdos_per_wall_s, wt_ratio_vs_sim, latency_*, tick_rate_ratio",
        RT,
        ("run_wall_s", "s", "lower"),
        ("teardown_s", "s", "lower"),
        ("threads", "count", "lower"),
        ("cpu_s_per_model_s", "s/s", "lower"),
        ("cpu_share", "ratio", "lower"),
        ("source_rate_ratio", "ratio", "higher"),
        ("latency_p99_model_s", "s", "lower"),
        ("worker_restarts", "count", "lower"),
    )
    + _layers(
        "runtime.worker", "sdos_per_wall_s, wt_ratio_vs_sim", RT,
        ("consumed", "count", "higher"),
        ("emitted", "count", "higher"),
        ("emulated_cpu_s", "s", "higher"),
    )
    + _layers(
        "runtime.transport",
        "sdos_per_wall_s, latency_*",
        "offer_* on rt_calib_aces, put_* on rt_calib_lockstep",
        ("offers", "count", "lower"),
        ("offer_s", "s", "lower"),
        ("puts", "count", "lower"),
        ("put_s", "s", "lower"),
        ("gets", "count", "lower"),
        ("get_s", "s", "lower"),
        ("dropped", "count", "lower"),
        ("drop_ratio", "ratio", "lower"),
    )
    + _layers(
        "trace", "none (describes the traced pass itself)", "every workload",
        ("overhead_ratio", "ratio", "lower"),
        ("unattributed_share", "ratio", "lower"),
        ("profiler_gap", "ratio", "lower"),
    )
)

#: Boundaries the tracer wraps: (module, attribute path, span name, keep
#: raw spans).  Public callables only.  Module-level functions are
#: patched where they are *imported* (the name the caller resolves).
#: Tier-1 is wrapped at ``ResilientTier1.solve`` because the guard binds
#: ``solve_global_allocation`` as a default argument at class-definition
#: time, out of reach of a module-attribute patch.
TRACE_TARGETS: _t.Tuple[_t.Tuple[str, str, str, bool], ...] = (
    ("repro.sim.engine", "Environment.run", "sim.engine.run", True),
    ("repro.control.node", "NodeController.tick", "control.node.tick", True),
    ("repro.control.node", "NodeController.control",
     "control.node.control", False),
    ("repro.core.feedback", "FeedbackBus.max_downstream_rate",
     "core.feedback.read", False),
    ("repro.core.feedback", "FeedbackBus.min_downstream_rate",
     "core.feedback.read", False),
    ("repro.core.feedback", "FeedbackBus.publish",
     "core.feedback.publish", False),
    ("repro.core.cpu_control", "AcesCpuScheduler.allocate",
     "core.cpu_control.allocate", False),
    ("repro.core.cpu_control", "StrictProportionalScheduler.allocate",
     "core.cpu_control.allocate", False),
    ("repro.core.flow_control", "FlowController.update",
     "core.flow_control.update", False),
    ("repro.systems.dataplane", "SimAdapter.snapshot",
     "systems.dataplane.snapshot", False),
    ("repro.systems.dataplane", "SimAdapter.snapshot_list",
     "systems.dataplane.snapshot", False),
    ("repro.systems.dataplane", "SimAdapter.apply_grants",
     "systems.dataplane.apply_grants", False),
    ("repro.runtime.spc", "ThreadAdapter.snapshot",
     "systems.dataplane.snapshot", False),
    ("repro.runtime.spc", "ThreadAdapter.snapshot_list",
     "systems.dataplane.snapshot", False),
    ("repro.runtime.spc", "ThreadAdapter.apply_grants",
     "systems.dataplane.apply_grants", False),
    ("repro.control.plane", "ControlPlane.tick_nodes",
     "control.plane.tick_nodes", True),
    ("repro.control.plane", "ControlPlane.tick_admission",
     "control.admission.tick", False),
    ("repro.control.plane", "ControlPlane.tick_forecast",
     "control.forecast.tick", False),
    ("repro.control.plane", "ControlPlane.reoptimize",
     "control.plane.reoptimize", True),
    ("repro.control.plane", "ControlPlane.add_node",
     "control.plane.add_node", True),
    ("repro.control.plane", "ControlPlane.remove_node",
     "control.plane.remove_node", True),
    ("repro.control.plane", "ControlPlane.migrate_pes",
     "control.plane.migrate_pes", True),
    ("repro.control.vector", "VectorEngine.control_group",
     "control.vector.control_group", True),
    ("repro.control.admission", "AdmissionController.admit_ingress",
     "control.admission.admit", False),
    ("repro.control.elastic", "ScalingPolicy.observe",
     "control.elastic.observe", False),
    ("repro.systems.simulated", "plan_scale_out_placement",
     "control.elastic.plan", True),
    ("repro.systems.simulated", "plan_scale_in_placement",
     "control.elastic.plan", True),
    ("repro.systems.simulated", "optimize_placement",
     "graph.placement_opt.optimize", True),
    ("repro.systems.simulated", "SimulatedSystem.migrate_pes",
     "systems.simulated.migrate", True),
    ("repro.runtime.spc", "plan_scale_out_placement",
     "control.elastic.plan", True),
    ("repro.runtime.spc", "plan_scale_in_placement",
     "control.elastic.plan", True),
    ("repro.runtime.spc", "optimize_placement",
     "graph.placement_opt.optimize", True),
    ("repro.core.resilience", "ResilientTier1.solve",
     "core.global_opt.solve", True),
    ("repro.model.pe", "PERuntime.execute", "model.pe.execute", False),
    ("repro.systems.dataplane", "SimDataPlane.emit",
     "systems.dataplane.emit", False),
    ("repro.systems.dataplane", "SimDataPlane.admit",
     "systems.dataplane.admit", False),
    ("repro.metrics.collectors", "EgressCollector.record",
     "metrics.collectors.record", False),
    ("repro.obs.recorder", "TraceRecorder.emit", "obs.recorder.emit", False),
    ("repro.obs.spans", "SpanTracker.observe_arrival",
     "obs.spans.observe", False),
    ("repro.obs.spans", "SpanTracker.observe_queue",
     "obs.spans.observe", False),
    ("repro.obs.spans", "SpanTracker.observe_service",
     "obs.spans.observe", False),
    ("repro.obs.spans", "SpanTracker.observe_link",
     "obs.spans.observe", False),
    ("repro.obs.spans", "SpanTracker.observe_egress",
     "obs.spans.observe", False),
    ("repro.runtime.spc", "SPCRuntime.run", "runtime.spc.run", True),
    ("repro.runtime.transport", "Channel.offer",
     "runtime.transport.offer", False),
    ("repro.runtime.transport", "Channel.put",
     "runtime.transport.put", False),
    ("repro.runtime.transport", "Channel.get",
     "runtime.transport.get", False),
)

#: Span opened by the harness around the measured call of a traced pass.
ROOT_SPAN = "observatory.root"


def workload(name: str) -> Workload:
    for item in WORKLOADS:
        if item.name == name:
            return item
    raise KeyError(
        f"unknown workload {name!r}; choose from "
        f"{[item.name for item in WORKLOADS]}"
    )


def manifest() -> _t.Dict[str, _t.Any]:
    """The content BENCHMARK.json must have."""
    return {
        "command": ["python3", "benchmarks/observatory/run.py"],
        "paths": ["benchmarks/observatory"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": item.name, "why": item.why} for item in WORKLOADS
        ],
        "end_to_end": [
            {
                "name": item.name,
                "unit": item.unit,
                "better": item.better,
                "bound": item.bound,
            }
            for item in END_TO_END
        ],
        "per_layer": [
            {"name": item.name, "unit": item.unit, "better": item.better}
            for item in PER_LAYER
        ],
    }
