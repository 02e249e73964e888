"""Builds each observatory workload and measures one run of it.

One call of :func:`run_workload` is what the driver's command does for
one ``--workload``: set up (timed, several times), check that the same
seed gives the same behaviour, measure one region of fixed work sized
from ``--seconds``, check the outputs, and return the metrics.  With
tracing on, the region is halved and run twice — untraced, then under
the outside-in :class:`tracer.Tracer` — and the per-layer metrics come
from the traced pass and the program's own public counters.

Inputs come from ``seed`` alone.  The topology generator's RNG is fixed
per workload (seed 0): the topology is part of what a workload *is*,
and the gated metrics move by 10-25% between topologies.  ``seed``
drives everything stochastic inside the run — arrivals and PE service
states — through the system seed ``seed + 1``.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import resource
import statistics
import threading
import time
import typing as _t

import numpy as np

from repro.check import OracleRecorder, check_conservation
from repro.core.global_opt import solve_global_allocation
from repro.core.policies import policy_by_name
from repro.core.targets import AllocationTargets, fair_share_targets
from repro.experiments.admission import bench_admission_config
from repro.experiments.forecast import scenario_config
from repro.experiments.perf import scaled_main_spec
from repro.graph.topology import (
    Topology,
    generate_topology,
    paper_calibration_spec,
)
from repro.obs.profiler import PhaseProfiler
from repro.obs.spans import SpanTracker
from repro.runtime.spc import RuntimeConfig, SPCRuntime
from repro.systems.simulated import SimulatedSystem, SystemConfig, run_system

import layers
import spec
from tracer import Tracer

#: RNG seed of the topology generator, the same for every ``--seed``.
TOPOLOGY_SEED = 0

_RT_DILATION = 0.25


class Metric(_t.NamedTuple):
    value: float
    unit: str


class Result(_t.NamedTuple):
    workload: str
    seed: int
    correct: bool
    attempted: int
    failed: int
    #: Why each failed operation failed.
    failures: _t.List[str]
    #: End-to-end metrics (untraced run) or per-layer metrics (traced).
    metrics: _t.Dict[str, Metric]
    #: Behaviour fingerprint of the measured pass (reported, not pinned).
    digest: str
    #: Tracer dump of the traced pass (None when untraced).
    trace: _t.Optional[_t.Dict[str, _t.Any]]


class _Ops:
    """Operations attempted and failed; one operation is one pass."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: _t.List[str] = []

    def record(self, label: str, problems: _t.Sequence[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(f"{label}: {p}" for p in problems)


class _Prepared(_t.NamedTuple):
    topology: Topology
    targets: AllocationTargets
    generate_s: float
    #: Seconds in the bootstrap SLSQP solve (0 for fair-share targets).
    solve_s: float


def _prepare(workload: spec.Workload) -> _Prepared:
    """Topology and bootstrap Tier-1 targets, each timed."""
    start = time.perf_counter()
    if workload.name == "sim_x10_vector":
        topology_spec = scaled_main_spec(10)
    else:
        topology_spec = paper_calibration_spec()
    topology = generate_topology(
        topology_spec, np.random.default_rng(TOPOLOGY_SEED)
    )
    generated = time.perf_counter()
    if workload.name == "sim_x10_vector":
        # SLSQP is quadratic in PEs and irrelevant to tick cost here.
        targets = fair_share_targets(topology.graph, topology.placement)
        return _Prepared(topology, targets, generated - start, 0.0)
    targets = solve_global_allocation(
        topology.graph, topology.placement, topology.source_rates
    ).targets
    return _Prepared(
        topology, targets, generated - start,
        time.perf_counter() - generated,
    )


def _model_seconds(
    workload: spec.Workload, seconds: float
) -> _t.Tuple[float, float]:
    """(program warm-up, measured duration) in model seconds."""
    total = seconds * workload.model_s_per_budget_s
    dt = workload.dt
    duration = max(total - workload.warmup, 0.2 * total, 10 * dt)
    # Whole control intervals, so a run is a whole number of ticks.
    return workload.warmup, round(duration / dt) * dt


# -- simulated substrate -----------------------------------------------------


def _sim_config(
    workload: spec.Workload, seed: int, warmup: float, duration: float
) -> SystemConfig:
    if workload.name == "sim_x10_vector":
        return SystemConfig(
            seed=seed + 1,
            warmup=warmup,
            dt=workload.dt,
            control_impl="vector",
            control_phase_buckets=8,
        )
    if workload.name == "sim_calib_tiers_armed":
        config = scenario_config(
            "correlatedburst", "proactive", duration, warmup, seed,
            max_nodes=14,
        )
        # One proactive trigger per shared burst.  At the library's
        # 1.5 s cooldown the number of proactive re-solves is a function
        # of the sample path (13-28 per run by seed) and about one path
        # in ten sends a re-solve down the solver's projected-gradient
        # fallback (9 s, doubling the run): no bound can gate that.
        return dataclasses.replace(
            config,
            admission=bench_admission_config(),
            forecast=dataclasses.replace(
                config.forecast, cooldown=config.source_period
            ),
        )
    return SystemConfig(seed=seed + 1, warmup=warmup)


def _build_sim(
    workload: spec.Workload,
    prepared: _Prepared,
    seed: int,
    warmup: float,
    duration: float,
    **instruments: _t.Any,
) -> SimulatedSystem:
    return SimulatedSystem(
        prepared.topology,
        policy_by_name(workload.policy),
        targets=prepared.targets,
        config=_sim_config(workload, seed, warmup, duration),
        **instruments,
    )


class _SimPass(_t.NamedTuple):
    system: SimulatedSystem
    report: _t.Any
    wall_s: float
    construct_s: float
    #: (model time, age) of every SDO the collector recorded.
    samples: _t.List[_t.Tuple[float, float]]
    problems: _t.List[str]
    digest: str
    #: Seconds spent in OracleRecorder.finalize / check_conservation.
    finalize_s: float
    conservation_s: float
    oracle_violations: int
    conservation_violations: int


def _tap_collector(
    system: SimulatedSystem,
) -> _t.List[_t.Tuple[float, float]]:
    """Exact latency samples from the public collector boundary.

    The dataplane resolves ``collector.record`` at every flush, so an
    instance attribute sees each egress SDO; the program's own
    histogram quantises to 12% buckets, too coarse to gate on.
    """
    samples: _t.List[_t.Tuple[float, float]] = []
    record = system.collector.record
    append = samples.append

    def tapped(pe_id: str, sdo: _t.Any, now: float) -> None:
        append((now, sdo.age(now)))
        record(pe_id, sdo, now)

    system.collector.record = tapped  # type: ignore[method-assign]
    return samples


def _sim_digest(system: SimulatedSystem, report: _t.Any) -> str:
    # 12 significant digits, not repr: the collector merges per-egress
    # latency moments in set-iteration order, so the last bit of the
    # mean moves with PYTHONHASHSEED from one process to the next.
    fingerprint = repr((
        system.env.events_processed,
        report.total_output_sdos,
        f"{report.weighted_throughput:.12g}",
        f"{report.latency.mean:.12g}",
        sorted(report.drops_by_kind.items()),
    ))
    return hashlib.sha256(fingerprint.encode()).hexdigest()[:16]


def _sim_pass(
    workload: spec.Workload,
    prepared: _Prepared,
    seed: int,
    warmup: float,
    duration: float,
    tracer: _t.Optional[Tracer] = None,
    profiler: _t.Optional[PhaseProfiler] = None,
) -> _SimPass:
    """Construct, run and check one simulated system."""
    recorder = spans = None
    extra: _t.Dict[str, _t.Any] = {}
    if workload.name == "sim_calib_observed":
        recorder = OracleRecorder(strict=True)
        spans = SpanTracker(recorder=recorder)
        extra = {"recorder": recorder, "spans": spans}
    if profiler is not None:
        extra["profiler"] = profiler
    start = time.perf_counter()
    system = _build_sim(workload, prepared, seed, warmup, duration, **extra)
    if recorder is not None:
        recorder.attach_plane(system.plane)
    construct_s = time.perf_counter() - start
    samples = _tap_collector(system)
    run = system.run
    if tracer is not None:
        run = tracer.wrap(spec.ROOT_SPAN, run, keep_raw=True)

    gc.collect()
    start = time.perf_counter()
    report = run(duration)
    wall_s = time.perf_counter() - start

    problems: _t.List[str] = []
    finalize_s = 0.0
    oracle_violations = 0
    if recorder is not None:
        start = time.perf_counter()
        violations = list(recorder.finalize())
        finalize_s = time.perf_counter() - start
        oracle_violations = len(violations) + len(spans.violations)
        problems.extend(f"oracle: {v}" for v in violations[:5])
        problems.extend(f"span closure: {v}" for v in spans.violations[:5])
    start = time.perf_counter()
    ledger = check_conservation(system)
    conservation_s = time.perf_counter() - start
    problems.extend(f"conservation: {v}" for v in ledger[:5])
    if report.total_output_sdos <= 0:
        problems.append("no SDO reached an egress PE")
    if len(samples) < report.total_output_sdos:
        problems.append(
            f"egress tap saw {len(samples)} SDOs, the collector "
            f"{report.total_output_sdos}"
        )
    return _SimPass(
        system, report, wall_s, construct_s, samples, problems,
        _sim_digest(system, report), finalize_s, conservation_s,
        oracle_violations, len(ledger),
    )


def _tick_rate_ratio(plane: _t.Any, model_s: float, dt: float) -> float:
    controllers = plane.node_controllers
    expected = len(controllers) * model_s / dt
    return sum(c.ticks for c in controllers) / expected if expected else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_sim(
    workload: spec.Workload, seed: int, seconds: float, trace: bool
) -> Result:
    ops = _Ops()
    warmup, duration = _model_seconds(
        workload, seconds / 2 if trace else seconds
    )

    # Set-up, several times over: the driver gates its median.
    setups = []
    for _ in range(1 if trace else workload.setup_samples):
        start = time.perf_counter()
        prepared = _prepare(workload)
        _build_sim(workload, prepared, seed, warmup, duration)
        setups.append(time.perf_counter() - start)

    if trace:
        return _trace_sim(workload, prepared, seed, warmup, duration, ops)

    # Same seed, same behaviour: two short passes must agree (they
    # also warm the interpreter before the timed region).
    probe = _model_seconds(workload, max(0.3, seconds * 0.03))
    first = _sim_pass(workload, prepared, seed, *probe)
    ops.record("probe 1", first.problems)
    second = _sim_pass(workload, prepared, seed, *probe)
    problems = list(second.problems)
    if second.digest != first.digest:
        problems.append(
            f"digest {second.digest} differs from {first.digest} on "
            "the same seed"
        )
    ops.record("probe 2", problems)
    # The workload is its own reference on this substrate.
    self_ratio = (
        second.report.weighted_throughput / first.report.weighted_throughput
        if first.report.weighted_throughput else 0.0
    )
    del first, second

    measured = _sim_pass(workload, prepared, seed, warmup, duration)
    ops.record("measured", measured.problems)

    model_s = warmup + duration
    ages = sorted(age for now, age in measured.samples if now >= warmup)
    metrics = {
        "setup_s": statistics.median(setups),
        "sim_s_per_wall_s": model_s / measured.wall_s,
        "sdos_per_wall_s": len(measured.samples) / measured.wall_s,
        "peak_rss_mb": _peak_rss_mb(),
        "wt_ratio_vs_sim": self_ratio,
        "latency_p50_model_s": layers.quantile(ages, 0.50),
        "latency_p95_model_s": layers.quantile(ages, 0.95),
        "tick_rate_ratio": _tick_rate_ratio(
            measured.system.plane, model_s, workload.dt
        ),
    }
    return _result(workload, seed, ops, metrics, measured.digest, None)


def _under_tracer(
    workload: spec.Workload,
    seed: int,
    make_pass: _t.Callable[[Tracer], _t.Any],
) -> _t.Tuple[Tracer, _t.Any]:
    """One pass with the wrappers installed, removed whatever happens."""
    tracer = Tracer(run_id=f"{workload.name}-seed{seed}")
    tracer.install(spec.TRACE_TARGETS)
    try:
        return tracer, make_pass(tracer)
    finally:
        tracer.remove()


def _trace_sim(
    workload: spec.Workload,
    prepared: _Prepared,
    seed: int,
    warmup: float,
    duration: float,
    ops: _Ops,
) -> Result:
    base = _sim_pass(workload, prepared, seed, warmup, duration)
    ops.record("untraced", base.problems)

    tracer, traced = _under_tracer(
        workload, seed,
        lambda tracer: _sim_pass(
            workload, prepared, seed, warmup, duration, tracer=tracer
        ),
    )
    problems = list(traced.problems)
    if traced.digest != base.digest:
        problems.append(
            f"traced digest {traced.digest} differs from untraced "
            f"{base.digest}: tracing changed behaviour"
        )
    ops.record("traced", problems)

    profiler_gap = 0.0
    if workload.name == "sim_calib_aces":
        # Validate the outside-in attribution against the program's own
        # PhaseProfiler: one more pass, profiler armed, no wrappers.
        profiler = PhaseProfiler()
        profiled = _sim_pass(
            workload, prepared, seed, warmup, duration, profiler=profiler
        )
        ops.record("profiled", profiled.problems)
        profiler_gap = layers.profiler_gap(tracer, profiler)

    metrics = layers.sim_layers(
        tracer=tracer,
        system=traced.system,
        traced_pass=traced,
        untraced_wall_s=base.wall_s,
        untraced_events=base.system.env.events_processed,
        generate_s=prepared.generate_s,
        bootstrap_solve_s=prepared.solve_s,
        profiler_gap=profiler_gap,
    )
    return _result(
        workload, seed, ops, metrics, traced.digest, tracer.dump()
    )


# -- threaded substrate ------------------------------------------------------


class _RtPass(_t.NamedTuple):
    runtime: SPCRuntime
    wall_s: float
    cpu_s: float
    construct_s: float
    #: (model time, age, egress pe_id) of every SDO delivered.
    samples: _t.List[_t.Tuple[float, float, str]]
    #: Observer marks: (host seconds, model seconds, live threads).
    marks: _t.List[_t.Tuple[float, float, int]]
    problems: _t.List[str]


def _tap_egress(runtime: SPCRuntime) -> _t.List[_t.Tuple[float, float, str]]:
    """Benchmark-owned egress sinks, installed through the public
    ``RuntimePE.attach``: they stamp each SDO's exact age, then forward
    to the runtime's collector under its lock as the stock sink does."""
    samples: _t.List[_t.Tuple[float, float, str]] = []
    append = samples.append
    lock = runtime.collector_lock
    collector = runtime.collector
    clock = runtime.now

    def make_sink(pe_id: str) -> _t.Callable[[_t.Any], None]:
        def sink(sdo: _t.Any) -> None:
            with lock:
                now = clock()
                collector.record(pe_id, sdo, now)
            append((now, sdo.age(now), pe_id))

        return sink

    for pe_id, pe in runtime.pes.items():
        if pe.is_egress:
            pe.attach(clock=clock, egress_sink=make_sink(pe_id))
    return samples


def _join_runtime_threads(timeout: float = 10.0) -> _t.List[str]:
    """Wait for the runtime's daemon threads to notice the stop flag;
    returns the names of any still alive."""
    deadline = time.monotonic() + timeout
    main = threading.main_thread()
    for thread in threading.enumerate():
        if thread is not main:
            thread.join(max(0.0, deadline - time.monotonic()))
    return [
        thread.name
        for thread in threading.enumerate()
        if thread is not main and thread.is_alive()
    ]


def _build_rt(
    workload: spec.Workload, prepared: _Prepared, seed: int, warmup: float
) -> SPCRuntime:
    return SPCRuntime(
        prepared.topology,
        policy_by_name(workload.policy),
        targets=prepared.targets,
        config=RuntimeConfig(
            dilation=_RT_DILATION, warmup=warmup, dt=workload.dt,
            seed=seed + 1,
        ),
    )


def _rt_pass(
    workload: spec.Workload,
    prepared: _Prepared,
    seed: int,
    warmup: float,
    window: float,
    tracer: _t.Optional[Tracer] = None,
) -> _RtPass:
    start = time.perf_counter()
    runtime = _build_rt(workload, prepared, seed, warmup)
    construct_s = time.perf_counter() - start
    samples = _tap_egress(runtime)
    marks: _t.List[_t.Tuple[float, float, int]] = []

    def observer(live: SPCRuntime) -> None:
        marks.append(
            (time.perf_counter(), live.now(), threading.active_count())
        )

    run = runtime.run
    if tracer is not None:
        run = tracer.wrap(spec.ROOT_SPAN, run, keep_raw=True)
    gc.collect()
    cpu_start = time.process_time()
    start = time.perf_counter()
    report = run(window, observer=observer, observe_interval=window / 10)
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start

    problems: _t.List[str] = []
    leftover = _join_runtime_threads()
    if leftover:
        problems.append(f"threads still alive after stop: {leftover[:5]}")
    if not any(warmup <= now < warmup + window for now, _a, _p in samples):
        problems.append("no SDO reached an egress PE in the window")
    if report.workers_abandoned or report.worker_restarts:
        problems.append(
            f"{report.worker_restarts} worker restarts, "
            f"{report.workers_abandoned} abandoned"
        )
    return _RtPass(
        runtime, wall_s, cpu_s, construct_s, samples, marks, problems
    )


def _run_rt(
    workload: spec.Workload, seed: int, seconds: float, trace: bool
) -> Result:
    ops = _Ops()
    warmup = workload.warmup
    budget = seconds / 2 if trace else seconds
    window = max(budget * workload.model_s_per_budget_s - warmup, 2.0)

    setups = []
    for _ in range(1 if trace else workload.setup_samples):
        start = time.perf_counter()
        prepared = _prepare(workload)
        _build_rt(workload, prepared, seed, warmup)
        setups.append(time.perf_counter() - start)

    # The simulator on the same topology, targets, seed, sources, dt
    # and model window: the denominator of wt_ratio_vs_sim.  Made once
    # (it is deterministic) and counted into set-up.
    start = time.perf_counter()
    reference = run_system(
        prepared.topology,
        policy_by_name(workload.policy),
        duration=window,
        targets=prepared.targets,
        config=SystemConfig(
            seed=seed + 1, warmup=warmup, dt=workload.dt,
            source_kind="poisson",
        ),
    )
    reference_s = time.perf_counter() - start
    ops.record(
        "simulator reference",
        [] if reference.total_output_sdos > 0 else ["no egress SDOs"],
    )

    if trace:
        base = _rt_pass(workload, prepared, seed, warmup, window)
        ops.record("untraced", base.problems)
        tracer, traced = _under_tracer(
            workload, seed,
            lambda tracer: _rt_pass(
                workload, prepared, seed, warmup, window, tracer=tracer
            ),
        )
        ops.record("traced", traced.problems)
        metrics = layers.rt_layers(
            tracer=tracer,
            traced_pass=traced,
            untraced_cpu_s=base.cpu_s,
            warmup=warmup,
            window=window,
            generate_s=prepared.generate_s,
            bootstrap_solve_s=prepared.solve_s,
        )
        return _result(workload, seed, ops, metrics, "", tracer.dump())

    measured = _rt_pass(workload, prepared, seed, warmup, window)
    ops.record("measured", measured.problems)

    in_window = [
        (age, pe_id)
        for now, age, pe_id in measured.samples
        if warmup <= now < warmup + window
    ]
    ages = sorted(age for age, _pe in in_window)
    profile = prepared.topology.graph.profile
    weighted = sum(profile(pe_id).weight for _age, pe_id in in_window)
    marks = measured.marks
    model_rate = (
        (marks[-1][1] - marks[0][1]) / (marks[-1][0] - marks[0][0])
        if len(marks) >= 2
        else 1.0 / _RT_DILATION
    )
    metrics = {
        "setup_s": statistics.median(setups) + reference_s,
        "sim_s_per_wall_s": model_rate,
        "sdos_per_wall_s": len(in_window) / (window * _RT_DILATION),
        "peak_rss_mb": _peak_rss_mb(),
        "wt_ratio_vs_sim": (
            weighted / window / reference.weighted_throughput
            if reference.weighted_throughput else 0.0
        ),
        "latency_p50_model_s": layers.quantile(ages, 0.50),
        "latency_p95_model_s": layers.quantile(ages, 0.95),
        "tick_rate_ratio": _tick_rate_ratio(
            measured.runtime.plane, warmup + window, workload.dt
        ),
    }
    return _result(workload, seed, ops, metrics, "", None)


# -- entry point -------------------------------------------------------------


def _result(
    workload: spec.Workload,
    seed: int,
    ops: _Ops,
    values: _t.Mapping[str, float],
    digest: str,
    trace: _t.Optional[_t.Dict[str, _t.Any]],
) -> Result:
    table = spec.PER_LAYER if trace is not None else spec.END_TO_END
    missing = {item.name for item in table} - set(values)
    if missing:
        raise RuntimeError(f"{workload.name}: no value for {sorted(missing)}")
    metrics = {
        item.name: Metric(float(values[item.name]), item.unit)
        for item in table
    }
    return Result(
        workload=workload.name,
        seed=seed,
        correct=ops.failed == 0,
        attempted=ops.attempted,
        failed=ops.failed,
        failures=ops.failures,
        metrics=metrics,
        digest=digest,
        trace=trace,
    )


def run_workload(
    name: str, seed: int, seconds: float, trace: bool
) -> Result:
    """Measure one run of one workload (see the module docstring)."""
    workload = spec.workload(name)
    if seconds <= 0:
        raise ValueError("--seconds must be positive")
    if workload.substrate == "rt":
        return _run_rt(workload, seed, seconds, trace)
    return _run_sim(workload, seed, seconds, trace)
