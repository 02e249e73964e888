"""Per-layer metrics of one traced pass.

Times come from the tracer's spans (summed over parents and threads);
counts come from the program's own public counters, so on the simulated
substrate they repeat exactly for a given seed and ``--seconds``.
Every name in ``spec.PER_LAYER`` gets a value on every workload; a
layer the workload never enters reports 0.
"""

from __future__ import annotations

import statistics
import typing as _t

import spec
from tracer import Tracer

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.profiler import PhaseProfiler


def _zeroes() -> _t.Dict[str, float]:
    return {item.name: 0.0 for item in spec.PER_LAYER}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def quantile(ordered: _t.Sequence[float], q: float) -> float:
    """The q-quantile of an already sorted sample (0 when empty)."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _root(tracer: Tracer) -> _t.Tuple[float, float]:
    """(duration, self seconds) of the harness-opened root span."""
    count, total, own = tracer.by_name()[spec.ROOT_SPAN]
    if count != 1:
        raise RuntimeError(f"expected one root span, found {count}")
    return total, own


def _span_metrics(tracer: Tracer) -> _t.Dict[str, float]:
    """Metrics that are a span's total seconds, self seconds or count."""
    spans = tracer.by_name()

    def total(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[1]

    def own(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[2]

    def count(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[0]

    def membership(field: _t.Callable[[str], float]) -> float:
        return sum(
            field(f"control.plane.{op}")
            for op in ("add_node", "remove_node", "migrate_pes")
        )

    ticks = tracer.durations("control.node.tick")
    return {
        "sim.engine.self_s": own("sim.engine.run"),
        "control.node.ticks": count("control.node.tick"),
        "control.node.control_s": total("control.node.control"),
        "control.node.self_s": own("control.node.control"),
        "control.node.tick_p50_us": 1e6 * quantile(ticks, 0.50),
        "control.node.tick_p95_us": 1e6 * quantile(ticks, 0.95),
        "core.feedback.read_s": total("core.feedback.read"),
        "core.feedback.reads": count("core.feedback.read"),
        "core.feedback.publish_s": total("core.feedback.publish"),
        "core.feedback.publishes": count("core.feedback.publish"),
        "core.cpu_control.allocate_s": total("core.cpu_control.allocate"),
        "core.cpu_control.allocates": count("core.cpu_control.allocate"),
        "core.flow_control.update_s": total("core.flow_control.update"),
        "core.flow_control.updates": count("core.flow_control.update"),
        "control.vector.control_group_s": total(
            "control.vector.control_group"
        ),
        "control.vector.groups": count("control.vector.control_group"),
        "control.plane.tick_nodes_s": total("control.plane.tick_nodes"),
        "control.plane.reoptimize_s": total("control.plane.reoptimize"),
        "control.plane.membership_s": membership(total),
        "control.plane.membership_ops": membership(count),
        "control.elastic.scale_outs": count("control.plane.add_node"),
        "control.elastic.scale_ins": count("control.plane.remove_node"),
        "model.pe.execute_s": total("model.pe.execute"),
        "model.pe.executes": count("model.pe.execute"),
        "systems.dataplane.snapshot_s": total("systems.dataplane.snapshot"),
        "systems.dataplane.apply_grants_s": total(
            "systems.dataplane.apply_grants"
        ),
        "systems.dataplane.apply_grants_self_s": own(
            "systems.dataplane.apply_grants"
        ),
        "systems.dataplane.emit_s": total("systems.dataplane.emit"),
        "systems.dataplane.emits": count("systems.dataplane.emit"),
        "systems.dataplane.admit_s": total("systems.dataplane.admit"),
        "systems.dataplane.admits": count("systems.dataplane.admit"),
        "metrics.collectors.record_s": total("metrics.collectors.record"),
        "graph.placement_opt.optimize_s": total(
            "graph.placement_opt.optimize"
        ),
        "graph.placement_opt.calls": count("graph.placement_opt.optimize"),
        "systems.simulated.migrate_s": total("systems.simulated.migrate"),
        "control.admission.tick_s": total("control.admission.tick"),
        "control.admission.admit_s": total("control.admission.admit"),
        "control.admission.admits": count("control.admission.admit"),
        "control.elastic.observe_s": total("control.elastic.observe"),
        "control.elastic.plan_s": total("control.elastic.plan"),
        "control.forecast.tick_s": total("control.forecast.tick"),
        "obs.recorder.emit_s": total("obs.recorder.emit"),
        "obs.recorder.emits": count("obs.recorder.emit"),
        "obs.spans.observe_s": total("obs.spans.observe"),
        "obs.spans.observes": count("obs.spans.observe"),
        "runtime.transport.offers": count("runtime.transport.offer"),
        "runtime.transport.offer_s": total("runtime.transport.offer"),
        "runtime.transport.puts": count("runtime.transport.put"),
        "runtime.transport.put_s": total("runtime.transport.put"),
        "runtime.transport.gets": count("runtime.transport.get"),
        "runtime.transport.get_s": total("runtime.transport.get"),
    }


def _tier_counters(system: _t.Any) -> _t.Dict[str, float]:
    """Counters of the armed tiers; the same attributes on both
    substrates (``SimulatedSystem`` and ``SPCRuntime``)."""
    values: _t.Dict[str, float] = {
        "control.plane.reoptimizes": system.plane.reoptimizations,
        "control.elastic.migrations": len(system.migration_log),
    }
    if system.tier1 is not None:
        values["core.resilience.fallbacks"] = system.tier1.fallbacks
    if system.admission is not None:
        values["control.admission.ticks"] = system.admission.ticks
        values["control.admission.shed"] = system.admission.total_shed
        values["control.admission.rejected"] = (
            system.admission.total_rejected
        )
    if system.forecast is not None:
        values["control.forecast.ticks"] = system.forecast.ticks
        values["control.forecast.triggers"] = len(system.forecast.triggers)
    return values


def _solves(
    tracer: Tracer, bootstrap_solve_s: float
) -> _t.Dict[str, float]:
    """Tier-1 solves: the re-solves the traced pass made plus the
    bootstrap solve, which happens in set-up outside any span (0 when
    the workload bootstraps from fair-share targets)."""
    solves = tracer.durations("core.global_opt.solve")
    if bootstrap_solve_s:
        solves.append(bootstrap_solve_s)
    return {
        "core.global_opt.solve_s": sum(solves),
        "core.global_opt.solves": len(solves),
        "core.global_opt.solve_p50_ms": (
            1e3 * statistics.median(solves) if solves else 0.0
        ),
    }


def _pe_steps(plane: _t.Any) -> float:
    """Per-PE control steps taken: ticks x resident PEs per node (exact
    while membership is frozen, the end-of-run residency otherwise)."""
    return float(
        sum(c.ticks * len(c.records) for c in plane.node_controllers)
    )


def profiler_gap(tracer: Tracer, profiler: "PhaseProfiler") -> float:
    """|traced controller share - PhaseProfiler controller_tick share|.

    Both are shares of the measured region: the tracer's
    ``control.node.control`` total over its root span, the profiler's
    exclusive ``controller_tick`` fraction of everything it bracketed.
    """
    root_s, _own = _root(tracer)
    traced_share = _ratio(
        tracer.by_name().get("control.node.control", (0, 0.0, 0.0))[1],
        root_s,
    )
    return abs(
        traced_share - profiler.fractions().get("controller_tick", 0.0)
    )


def sim_layers(
    tracer: Tracer,
    system: _t.Any,
    traced_pass: _t.Any,
    untraced_wall_s: float,
    untraced_events: int,
    generate_s: float,
    bootstrap_solve_s: float,
    profiler_gap: float,
) -> _t.Dict[str, float]:
    values = _zeroes()
    values.update(_span_metrics(tracer))
    values.update(_tier_counters(system))
    values.update(_solves(tracer, bootstrap_solve_s))
    root_s, root_own = _root(tracer)

    plane = system.plane
    steps = _pe_steps(plane)
    if plane.control_impl == "vector":
        values["control.vector.pe_steps"] = steps
        values["control.vector.us_per_pe_step"] = 1e6 * _ratio(
            values["control.vector.control_group_s"], steps
        )
    else:
        values["control.node.pe_steps"] = steps
        values["control.node.us_per_pe_step"] = 1e6 * _ratio(
            values["control.node.control_s"], steps
        )

    runtimes = system.runtimes.values()
    offered = sum(r.buffer.telemetry.offered for r in runtimes)
    dropped = sum(r.buffer.telemetry.dropped for r in runtimes)
    values.update({
        # The untraced pass ran the same work; its wall is the honest
        # denominator for a speed.
        "sim.engine.events": untraced_events,
        "sim.engine.events_per_s": _ratio(untraced_events, untraced_wall_s),
        "model.pe.consumed": sum(r.counters.consumed for r in runtimes),
        "systems.dataplane.emit_drops": system.dataplane.emit_drops,
        "model.buffers.offered": offered,
        "model.buffers.dropped": dropped,
        "model.buffers.drop_ratio": _ratio(dropped, offered),
        "model.workload.generated": sum(
            s.stats.generated for s in system.sources
        ),
        "model.workload.rejected": sum(
            s.stats.rejected for s in system.sources
        ),
        "metrics.collectors.egress_sdos": len(traced_pass.samples),
        "graph.topology.generate_s": generate_s,
        "systems.simulated.construct_s": traced_pass.construct_s,
        "check.oracles.finalize_s": traced_pass.finalize_s,
        "check.oracles.violations": traced_pass.oracle_violations,
        "check.conservation.check_s": traced_pass.conservation_s,
        "check.conservation.violations": (
            traced_pass.conservation_violations
        ),
        "trace.overhead_ratio": _ratio(root_s, untraced_wall_s),
        # The engine's own loop is a known layer, so its self time
        # counts as attributed; what is left is the root's self time
        # (snapshots and report assembly in ``SimulatedSystem.run``).
        "trace.unattributed_share": _ratio(root_own, root_s),
        "trace.profiler_gap": profiler_gap,
    })
    return values


def rt_layers(
    tracer: Tracer,
    traced_pass: _t.Any,
    untraced_cpu_s: float,
    warmup: float,
    window: float,
    generate_s: float,
    bootstrap_solve_s: float,
) -> _t.Dict[str, float]:
    values = _zeroes()
    values.update(_span_metrics(tracer))
    runtime = traced_pass.runtime
    values.update(_tier_counters(runtime))
    values.update(_solves(tracer, bootstrap_solve_s))
    config = runtime.config
    root_s, root_own = _root(tracer)

    pes = runtime.pes.values()
    offered = sum(pe.channel.stats.offered for pe in pes)
    dropped = sum(pe.channel.stats.dropped for pe in pes)
    model_s = warmup + window
    nominal = sum(runtime.topology.source_rates.values()) * model_s
    in_window = sorted(
        age
        for now, age, _pe in traced_pass.samples
        if warmup <= now < warmup + window
    )
    steps = _pe_steps(runtime.plane)
    values.update({
        "control.node.pe_steps": steps,
        "control.node.us_per_pe_step": 1e6 * _ratio(
            values["control.node.control_s"], steps
        ),
        "model.buffers.offered": offered,
        "model.buffers.dropped": dropped,
        "model.buffers.drop_ratio": _ratio(dropped, offered),
        "metrics.collectors.egress_sdos": len(in_window),
        "graph.topology.generate_s": generate_s,
        "systems.simulated.construct_s": traced_pass.construct_s,
        "runtime.spc.run_wall_s": traced_pass.wall_s,
        # run() beyond the time the model itself needs: stopping and
        # joining the workers one by one.
        "runtime.spc.teardown_s": (
            traced_pass.wall_s - model_s * config.dilation
        ),
        "runtime.spc.threads": max(
            (threads for _w, _m, threads in traced_pass.marks), default=0
        ),
        "runtime.spc.cpu_s_per_model_s": _ratio(traced_pass.cpu_s, model_s),
        "runtime.spc.cpu_share": _ratio(
            traced_pass.cpu_s, traced_pass.wall_s
        ),
        # How late the open-loop generator ran: offered / nominal.
        "runtime.spc.source_rate_ratio": _ratio(
            sum(runtime.source_generated.values()), nominal
        ),
        "runtime.spc.latency_p99_model_s": quantile(in_window, 0.99),
        "runtime.spc.worker_restarts": runtime.worker_restarts,
        "runtime.worker.consumed": sum(pe.consumed for pe in pes),
        "runtime.worker.emitted": sum(pe.emitted for pe in pes),
        "runtime.worker.emulated_cpu_s": sum(pe.cpu_used for pe in pes),
        "runtime.transport.dropped": dropped,
        "runtime.transport.drop_ratio": _ratio(dropped, offered),
        # Wall time is pinned by the dilation here, so the cost of
        # tracing shows as processor time, not as a longer run.
        "trace.overhead_ratio": _ratio(traced_pass.cpu_s, untraced_cpu_s),
        "trace.unattributed_share": _ratio(root_own, root_s),
    })
    return values
