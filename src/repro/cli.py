"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``info``      generate a topology and print its structure
``solve``     run the Tier-1 optimization and print allocation targets
``run``       simulate one policy on a random topology
``compare``   simulate several policies on the same topology
``trace``     simulate one policy with full controller telemetry
``figure``    regenerate one of the paper's figures/claims
``calibrate`` run the simulator-vs-threaded-runtime comparison
``chaos``     run the resilience fault matrix (MTTR, utility retention)
``admit``     run the admission burst matrix (plain vs ACES + admission)
``elastic``   run the elasticity ramp matrix (static vs autoscaled)
``forecast``  run the forecasting matrix (reactive vs proactive)
``fuzz``      seeded scenario fuzzing with invariant oracles armed

Examples::

    python -m repro info --pes 60 --nodes 10
    python -m repro compare --policies aces,udp,lockstep --buffer 20
    python -m repro trace --policy aces --duration 5 --trace out.jsonl
    python -m repro trace --trace-filter kind=r_max|drop,pe=pe-3 --profile
    python -m repro trace --check --duration 5
    python -m repro figure fig5
    python -m repro chaos --smoke --output BENCH_resilience.json
    python -m repro admit --smoke --output BENCH_admission.json
    python -m repro elastic --smoke --output BENCH_elasticity.json
    python -m repro forecast --smoke --output BENCH_forecast.json
    python -m repro fuzz --seeds 100 --output fuzz.jsonl
"""

from __future__ import annotations

import argparse
import sys
import typing as _t

import numpy as np

from repro.check import OracleRecorder
from repro.core.global_opt import solve_global_allocation
from repro.core.policies import policy_by_name
from repro.experiments import (
    admission,
    elasticity,
    figures,
    forecast,
    resilience,
)
from repro.experiments.calibration import calibration_spec, run_calibration
from repro.experiments.config import calibration_experiment, main_experiment
from repro.experiments.matrix import MatrixVerb, write_bench
from repro.experiments.reporting import print_table
from repro.graph.topology import Topology, TopologySpec, generate_topology
from repro.obs.export import write_events_csv, write_gauges_csv
from repro.obs.profiler import PhaseProfiler
from repro.obs.recorder import (
    JsonlRecorder,
    MemoryRecorder,
    TraceFilter,
    TraceRecorder,
)
from repro.obs.spans import SpanTracker
from repro.obs.surface import render_prometheus, render_top, snapshot
from repro.runtime.spc import RuntimeConfig
from repro.systems.simulated import SystemConfig, build_system, run_system


def _spec_from_args(args: argparse.Namespace) -> TopologySpec:
    ingress = max(1, args.pes // 5)
    egress = max(1, args.pes // 5)
    return TopologySpec(
        num_nodes=args.nodes,
        num_ingress=ingress,
        num_egress=egress,
        num_intermediate=max(0, args.pes - ingress - egress),
        lambda_s=args.lambda_s,
        load_factor=args.load,
    )


def _topology_from_args(args: argparse.Namespace) -> Topology:
    return generate_topology(
        _spec_from_args(args), np.random.default_rng(args.seed)
    )


def _add_topology_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pes", type=int, default=60, help="total PE count")
    parser.add_argument("--nodes", type=int, default=10, help="node count")
    parser.add_argument("--seed", type=int, default=0, help="topology seed")
    parser.add_argument(
        "--lambda-s", dest="lambda_s", type=float, default=10.0,
        help="burstiness scale (paper lambda_s)",
    )
    parser.add_argument(
        "--load", type=float, default=1.2,
        help="offered load relative to fair-share capacity",
    )


def _add_run_arguments(
    parser: argparse.ArgumentParser, policy: bool = True
) -> None:
    parser.add_argument("--buffer", type=int, default=50, help="buffer size B")
    parser.add_argument(
        "--duration", type=float, default=20.0, help="measured seconds"
    )
    parser.add_argument(
        "--warmup", type=float, default=5.0, help="warm-up seconds"
    )
    parser.add_argument(
        "--reoptimize", type=float, default=None, metavar="SECONDS",
        help="refresh Tier-1 targets every SECONDS from measured rates",
    )
    parser.add_argument(
        "--link-bandwidth", dest="link_bandwidth", type=float, default=None,
        help="finite inter-node link bandwidth (SDOs / second)",
    )
    if policy:
        parser.add_argument(
            "--policy", default="aces",
            choices=("aces", "udp", "lockstep", "shedding"),
        )


def _system_config(args: argparse.Namespace) -> SystemConfig:
    return SystemConfig(
        buffer_size=args.buffer,
        warmup=args.warmup,
        seed=args.seed + 1,
        reoptimize_interval=args.reoptimize,
        link_bandwidth=args.link_bandwidth,
    )


def _substrate_config(
    args: argparse.Namespace,
) -> _t.Union[SystemConfig, RuntimeConfig]:
    """The config whose type selects ``--substrate``; the simulator-only
    flags are refused on the threaded runtime."""
    if args.substrate == "sim":
        return _system_config(args)
    for flag, value in (
        ("--reoptimize", args.reoptimize),
        ("--link-bandwidth", args.link_bandwidth),
        # A store_true flag: False means absent (``top`` has none).
        ("--profile", getattr(args, "profile", False) or None),
    ):
        if value is not None:
            raise ValueError(
                f"{flag} is simulator-only: the threaded runtime "
                "does not support it"
            )
    return RuntimeConfig(
        buffer_size=args.buffer, warmup=args.warmup, seed=args.seed + 1
    )


def cmd_info(args: argparse.Namespace) -> int:
    topology = _topology_from_args(args)
    graph = topology.graph
    print(
        f"PEs: {len(graph)} (ingress {len(graph.ingress_ids)}, "
        f"egress {len(graph.egress_ids)}, "
        f"intermediate {len(graph.intermediate_ids)})"
    )
    print(f"Edges: {len(graph.edges())}, depth: {graph.depth()}")
    print(f"Nodes: {topology.num_nodes}")
    multi = sum(
        1
        for p in graph.pe_ids
        if graph.fan_in(p) > 1 or graph.fan_out(p) > 1
    )
    print(f"Multi-IO PEs: {multi} ({multi / len(graph):.0%})")
    components = graph.connected_components()
    print(f"Connected components: {len(components)}")
    offered = sum(topology.source_rates.values())
    print(f"Offered load: {offered:.1f} SDO/s over "
          f"{len(topology.source_rates)} input streams")
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    topology = _topology_from_args(args)
    result = solve_global_allocation(
        topology.graph, topology.placement, topology.source_rates
    )
    print(
        f"solver={result.solver} objective={result.objective:.3f} "
        f"converged={result.converged} "
        f"violation={result.max_violation:.2e}"
    )
    rows = [
        {
            "pe": pe_id,
            "node": topology.placement[pe_id],
            "cpu": result.targets.cpu[pe_id],
            "rate_in": result.targets.rate_in[pe_id],
            "rate_out": result.targets.rate_out[pe_id],
            "weight": topology.graph.profile(pe_id).weight,
        }
        for pe_id in topology.graph.topological_order()
    ]
    print_table(rows, title="Tier-1 allocation targets", precision=3)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    topology = _topology_from_args(args)
    policy = policy_by_name(args.policy)
    report = run_system(
        topology, policy, duration=args.duration, config=_system_config(args)
    )
    print(report.one_line())
    print(
        f"cpu={report.cpu_utilization:.2f} "
        f"occupancy={report.mean_buffer_occupancy:.1f} "
        f"wasted={report.wasted_work_fraction:.3f} "
        f"input_loss={report.input_loss_rate:.3f}"
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    topology = _topology_from_args(args)
    targets = solve_global_allocation(
        topology.graph, topology.placement, topology.source_rates
    ).targets
    rows = []
    for name in args.policies.split(","):
        policy = policy_by_name(name.strip())
        report = run_system(
            topology,
            policy,
            duration=args.duration,
            targets=targets,
            config=_system_config(args),
        )
        pct = report.latency_percentiles
        rows.append(
            {
                "policy": report.policy,
                "weighted_throughput": report.weighted_throughput,
                "latency_ms": report.latency.mean * 1000,
                "latency_std_ms": report.latency.std * 1000,
                "latency_p50_ms": pct.get("p50", 0.0) * 1000,
                "latency_p95_ms": pct.get("p95", 0.0) * 1000,
                "latency_p99_ms": pct.get("p99", 0.0) * 1000,
                "drops": report.buffer_drops,
                "rejections": report.source_rejections,
                "cpu": report.cpu_utilization,
            }
        )
    print_table(rows, title=f"{len(topology.graph)} PEs, B={args.buffer}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    config = _substrate_config(args)
    topology = _topology_from_args(args)
    policy = policy_by_name(args.policy)
    trace_filter = TraceFilter.parse(args.trace_filter)

    # The keep-filter narrows what is *stored*.  With --check the oracle
    # sits in front unfiltered — every law is checked on every event —
    # and forwards to the file recorder, whose filter then applies.
    file_recorder: TraceRecorder
    if args.format == "csv":
        # CSV needs the column union up front, so buffer in memory.
        file_recorder = MemoryRecorder(trace_filter=trace_filter)
    else:
        file_recorder = JsonlRecorder(args.trace, trace_filter=trace_filter)
    oracle: _t.Optional[OracleRecorder] = None
    recorder: TraceRecorder = file_recorder
    if args.check:
        oracle = OracleRecorder(sink=file_recorder)
        recorder = oracle
    spans = SpanTracker(recorder=recorder) if args.spans else None
    profiler = PhaseProfiler() if args.profile else None

    system = build_system(
        topology, policy, config=config, recorder=recorder,
        profiler=profiler, spans=spans,
        gauge_cadence=args.gauge_cadence if args.gauge_cadence > 0 else None,
    )
    if oracle is not None:
        oracle.attach(system)
    report = system.run(args.duration)

    if args.format == "csv":
        assert isinstance(file_recorder, MemoryRecorder)
        write_events_csv(file_recorder.events, args.trace)
    recorder.close()

    print(report.one_line())
    stored = file_recorder.counts
    breakdown = " ".join(
        f"{kind}={count}" for kind, count in sorted(stored.items())
    )
    print(
        f"trace: {sum(stored.values())} events -> {args.trace} ({breakdown})"
    )
    if args.gauges is not None and system.gauges is None:
        print("gauges: not written (sampling disabled by --gauge-cadence 0)")
    elif args.gauges is not None:
        count = write_gauges_csv(system.gauges, args.gauges)
        print(
            f"gauges: {count} samples from {len(system.gauges)} gauges "
            f"-> {args.gauges}"
        )
    if profiler is not None:
        print(profiler.one_line())
    if spans is not None:
        rows = spans.hop_rows()
        if rows:
            print_table(rows, title="latency spans (per hop)", precision=3)
        print(
            f"spans: {spans.egress_spans} egress spans, "
            f"{len(spans.violations)} closure violation(s)"
        )
        for closure in spans.violations[:5]:
            print(f"  span_closure t={closure['t']:.3f} "
                  f"pe={closure['pe']}: {closure['detail']}")
    if oracle is not None:
        violations = oracle.finalize()
        print(oracle.summary())
        for violation in violations[:10]:
            print(
                f"  {violation.invariant} ({violation.equation}) "
                f"t={violation.t:.3f} pe={violation.pe}: {violation.detail}"
            )
        if violations:
            return 1
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Live metrics surface: per-stream percentiles, PEs, span hops."""
    config = _substrate_config(args)
    topology = _topology_from_args(args)
    policy = policy_by_name(args.policy)
    spans = SpanTracker() if args.spans else None
    watch = args.watch and not args.once

    system = build_system(topology, policy, config=config, spans=spans)

    def observer(live: _t.Any) -> None:
        print(render_top(snapshot(live)))

    system.run(
        args.duration,
        observer=observer if watch else None,
        observe_interval=args.interval,
    )
    final = snapshot(system)
    if not watch:
        print(render_top(final), end="")
    if args.prometheus is not None:
        text = render_prometheus(final)
        if args.prometheus == "-":
            print(text, end="")
        else:
            with open(args.prometheus, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"prometheus: {len(text.splitlines())} lines "
                  f"-> {args.prometheus}")
    if final.span_violations:
        print(f"error: {final.span_violations} span closure violation(s)",
              file=sys.stderr)
        return 1
    return 0


_FIGURES: _t.Dict[str, _t.Callable] = {
    "fig3": figures.figure3_latency,
    "fig4": figures.figure4_tradeoff,
    "fig5": figures.figure5_burstiness,
    "buffer-sweep": figures.buffer_sweep,
    "robustness": figures.robustness,
}


def cmd_figure(args: argparse.Namespace) -> int:
    function = _FIGURES[args.name]
    if args.full:
        config = main_experiment(duration=20.0, replications=3)
    else:
        config = calibration_experiment(
            duration=8.0, replications=2
        ).with_system(warmup=4.0)
    rows = function(config=config, jobs=args.jobs)
    print_table(rows, title=f"{args.name} ({config.name})", precision=3)
    return 0


#: The tier-matrix verbs, in ``--help`` order.  Each suite describes its
#: own flags, smoke matrix, table and summary line; one handler runs them.
MATRIX_VERBS: _t.Dict[str, MatrixVerb] = {
    "chaos": resilience.VERB,
    "admit": admission.VERB,
    "elastic": elasticity.VERB,
    "forecast": forecast.VERB,
}


def cmd_matrix(args: argparse.Namespace) -> int:
    """Run one tier matrix, write its BENCH file, print table + summary."""
    verb: MatrixVerb = args.verb
    if args.smoke:
        vars(args).update(verb.smoke)
    if verb.topology_flags:
        args.spec = _spec_from_args(args)
    results = verb.run(args)
    write_bench(results, args.output)

    cells = results["cells"]
    print_table(
        [{name: pick(cell) for name, pick in verb.columns} for cell in cells],
        title=verb.title(results),
        precision=3,
    )
    stats = verb.stats(results)
    counts = " ".join(
        f"{label}={'-' if stats[key] is None else stats[key]}"
        for label, key in verb.summary
    )
    print(f"cells={len(cells)} {counts} -> {args.output}")
    return 0 if stats["clean"] else 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.experiments.fuzzing import DEFAULT_POLICIES, run_fuzz_campaign

    if args.seeds <= 0:
        raise ValueError(f"--seeds must be positive, got {args.seeds}")
    if args.policies:
        policies = [name.strip() for name in args.policies.split(",")]
    else:
        policies = list(DEFAULT_POLICIES)
    for name in policies:
        policy_by_name(name)  # fail fast on unknown policy names

    seeds = range(args.seed_start, args.seed_start + args.seeds)
    summary = run_fuzz_campaign(
        seeds,
        policies=policies,
        differential=not args.no_differential,
        shrink=not args.no_shrink,
        output=args.output,
        log=print,
        control_impl=args.control_impl,
    )
    destination = f" -> {args.output}" if args.output else ""
    print(
        f"fuzz: {summary['cases']} cases over {summary['seeds']} seeds x "
        f"{len(policies)} policies, {len(summary['failures'])} "
        f"failure(s){destination}"
    )
    for failure in summary["failures"]:
        shrunk = failure.get("shrunk_scenario")
        where = (
            f"shrunk to seed={shrunk['seed']} nodes={shrunk['num_nodes']} "
            f"pes={shrunk['num_ingress'] + shrunk['num_egress'] + shrunk['num_intermediate']} "
            f"faults={len(shrunk['faults'])}"
            if shrunk
            else "not shrunk"
        )
        print(
            f"  seed={failure['seed']} policy={failure['policy']} "
            f"[{failure['mode']}]: "
            f"{failure['error'] or failure['violation_counts'] or 'mismatch'} "
            f"({where})"
        )
    return 0 if summary["ok"] else 1


def cmd_calibrate(args: argparse.Namespace) -> int:
    topology = generate_topology(
        calibration_spec(scale=args.scale), np.random.default_rng(args.seed)
    )
    rows = run_calibration(
        topology=topology,
        sim_duration=args.duration,
        runtime_duration=max(2.0, args.duration / 2),
        seed=args.seed,
    )
    print_table(
        [
            {
                "policy": row.policy,
                "sim_throughput": row.simulator_throughput,
                "runtime_throughput": row.runtime_throughput,
                "ratio": row.throughput_ratio,
            }
            for row in rows
        ],
        title="simulator vs threaded runtime",
        precision=2,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "ACES reproduction: adaptive control of extreme-scale stream "
            "processing systems (ICDCS 2006)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    info = subparsers.add_parser("info", help="describe a random topology")
    _add_topology_arguments(info)
    info.set_defaults(handler=cmd_info)

    solve = subparsers.add_parser("solve", help="Tier-1 allocation targets")
    _add_topology_arguments(solve)
    solve.set_defaults(handler=cmd_solve)

    run = subparsers.add_parser("run", help="simulate one policy")
    _add_topology_arguments(run)
    _add_run_arguments(run)
    run.set_defaults(handler=cmd_run)

    compare = subparsers.add_parser(
        "compare", help="simulate several policies on one topology"
    )
    _add_topology_arguments(compare)
    _add_run_arguments(compare, policy=False)
    compare.add_argument(
        "--policies", default="aces,udp,lockstep",
        help="comma-separated policy names",
    )
    compare.set_defaults(handler=cmd_compare)

    trace = subparsers.add_parser(
        "trace",
        help="simulate one policy with full controller telemetry",
        description=(
            "Run one policy and record controller-internals trace events "
            "(r_max updates, token buckets, CPU grants, buffer occupancy, "
            "drops, Tier-1 re-solves) to a JSONL/CSV file."
        ),
    )
    _add_topology_arguments(trace)
    _add_run_arguments(trace)
    trace.add_argument(
        "--trace", default="trace.jsonl", metavar="PATH",
        help="trace event output file (default trace.jsonl)",
    )
    trace.add_argument(
        "--substrate", choices=("sim", "threaded"), default="sim",
        help=(
            "execution substrate driving the shared control plane: the "
            "discrete-event simulator (default) or the threaded runtime"
        ),
    )
    trace.add_argument(
        "--trace-filter", dest="trace_filter", default=None,
        metavar="EXPR",
        help=(
            "keep-filter, e.g. kind=r_max|drop,pe=pe-3 "
            "(keys: kind, pe, node; | separates alternatives)"
        ),
    )
    trace.add_argument(
        "--format", choices=("jsonl", "csv"), default="jsonl",
        help="trace file format (csv buffers all events in memory)",
    )
    trace.add_argument(
        "--gauge-cadence", dest="gauge_cadence", type=float, default=0.1,
        metavar="SECONDS",
        help="gauge sampling period in virtual seconds (0 disables)",
    )
    trace.add_argument(
        "--gauges", default=None, metavar="PATH",
        help="also export sampled gauge series to this CSV file",
    )
    trace.add_argument(
        "--profile", action="store_true",
        help="attribute wall-clock time to sim-engine phases",
    )
    trace.add_argument(
        "--check", action="store_true",
        help=(
            "validate paper invariants (Eqs. 4/7/8, token bounds, SDO "
            "conservation) on every event; exit 1 on violation. "
            "A --trace-filter limits which events the file stores, "
            "not which are checked."
        ),
    )
    trace.add_argument(
        "--spans", action="store_true",
        help=(
            "arm per-SDO latency spans: decompose end-to-end latency into "
            "queue-wait/service/transit per hop, emit one span event per "
            "egress SDO, and print the per-hop percentile table"
        ),
    )
    trace.set_defaults(handler=cmd_trace)

    top = subparsers.add_parser(
        "top",
        help="live metrics surface (percentiles, occupancy, span hops)",
        description=(
            "Run one policy and render the live metrics surface: "
            "per-egress-stream p50/p95/p99 latency, per-PE occupancy and "
            "r_max, drop counters, and (with --spans) the per-hop "
            "queue/service/transit decomposition.  One-shot by default; "
            "--watch re-renders every --interval model seconds."
        ),
    )
    _add_topology_arguments(top)
    _add_run_arguments(top)
    top.add_argument(
        "--substrate", choices=("sim", "threaded"), default="sim",
        help="execution substrate (default: discrete-event simulator)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="render a single snapshot after the run (the default)",
    )
    top.add_argument(
        "--watch", action="store_true",
        help="re-render the surface every --interval model seconds",
    )
    top.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="watch-mode refresh period in model seconds (default 1.0)",
    )
    top.add_argument(
        "--spans", action="store_true",
        help="arm per-SDO latency spans and show the per-hop table",
    )
    top.add_argument(
        "--prometheus", default=None, metavar="PATH",
        help="also write Prometheus text exposition ('-' for stdout)",
    )
    top.set_defaults(handler=cmd_top)

    figure = subparsers.add_parser(
        "figure", help="regenerate a paper figure/claim"
    )
    figure.add_argument("name", choices=sorted(_FIGURES))
    figure.add_argument(
        "--full", action="store_true",
        help="paper scale (200 PEs / 80 nodes) instead of the quick scale",
    )
    figure.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help=(
            "fan each cell's (replication x policy) grid across N worker "
            "processes; results are identical to a serial run"
        ),
    )
    figure.set_defaults(handler=cmd_figure)

    for name, verb in MATRIX_VERBS.items():
        matrix = subparsers.add_parser(
            name, help=verb.help, description=verb.description
        )
        if verb.topology_flags:
            _add_topology_arguments(matrix)
        for flag, options in verb.flags:
            matrix.add_argument(flag, **options)
        matrix.set_defaults(handler=cmd_matrix, verb=verb)

    calibrate = subparsers.add_parser(
        "calibrate", help="simulator vs threaded runtime"
    )
    calibrate.add_argument("--scale", type=float, default=0.4)
    calibrate.add_argument("--seed", type=int, default=0)
    calibrate.add_argument("--duration", type=float, default=6.0)
    calibrate.set_defaults(handler=cmd_calibrate)

    fuzz = subparsers.add_parser(
        "fuzz",
        help="seeded scenario fuzzing with invariant oracles armed",
        description=(
            "Expand each seed into a random topology/workload/fault "
            "scenario, run it under every policy with the paper-invariant "
            "oracles armed (plus a scripted cross-substrate differential "
            "drive), log violations as JSONL, and shrink failures to "
            "minimal reproducers."
        ),
    )
    fuzz.add_argument(
        "--seeds", type=int, default=25, metavar="N",
        help="number of scenario seeds to fuzz (default 25)",
    )
    fuzz.add_argument(
        "--seed-start", dest="seed_start", type=int, default=0,
        help="first seed of the range (default 0)",
    )
    fuzz.add_argument(
        "--policies", default=None,
        help="comma-separated policy names (default udp,lockstep,aces)",
    )
    fuzz.add_argument(
        "--output", default=None, metavar="PATH",
        help="write one JSON line per fuzz case to this file",
    )
    fuzz.add_argument(
        "--no-differential", action="store_true",
        help="skip the scripted sim-vs-threaded differential pass",
    )
    fuzz.add_argument(
        "--no-shrink", action="store_true",
        help="report failures without minimizing them",
    )
    fuzz.add_argument(
        "--control-impl", dest="control_impl",
        choices=("scalar", "vector"), default="scalar",
        help="Tier-2 step implementation to fuzz (default scalar)",
    )
    fuzz.set_defaults(handler=cmd_fuzz)

    return parser


def main(argv: _t.Optional[_t.Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
