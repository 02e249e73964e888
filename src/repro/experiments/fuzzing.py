"""Seeded scenario fuzzer driving the :mod:`repro.check` oracles.

One integer seed deterministically expands into a full scenario — a
random DAG topology, a workload mix (including the scenario library:
diurnal cycles, drifting trends, correlated bursts, drifting square
waves), a fault schedule, and optional control-tier arming: an armed
autoscaler plus node_join/node_leave membership churn, and/or the
anticipatory forecasting tier — which is then run under
each transmission policy with the invariant oracles armed and the SDO
conservation ledger closed at the end.  A *differential* pass
additionally drives the simulator's and the threaded runtime's control
planes with one scripted input trace (the PR-4 parity harness) and
asserts their decision sequences are bit-identical, with strict oracles
watching both.

Three entry points:

* :func:`run_fuzz_case` — one (scenario, policy) simulated run, or
  the same scenario (sources and faults included) on the threaded
  runtime;
* :func:`run_differential_case` — one (scenario, policy) scripted
  cross-substrate drive, through :func:`drive_plane`;
* :func:`run_fuzz_campaign` — N seeds x policies x both modes, JSONL
  violation log, optional shrinking of failures.

:func:`shrink_scenario` reduces a failing scenario to a minimal
reproducer by greedily applying structure-shrinking transformations
(drop a fault, remove intermediate PEs, merge nodes, shorten the run)
while the failure persists.  Everything re-derives from the scenario
dataclass, so a shrunk reproducer is a one-liner to replay:
``run_fuzz_case(scenario, "aces")``.
"""

from __future__ import annotations

import json
import typing as _t
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from repro.check import OracleRecorder
from repro.control.admission import AdmissionConfig
from repro.control.config import ControlConfig
from repro.control.elastic import ElasticityConfig
from repro.control.forecast import ForecastConfig
from repro.core.global_opt import solve_global_allocation
from repro.core.policies import policy_by_name
from repro.experiments import matrix
from repro.graph.topology import Topology, TopologySpec, generate_topology
from repro.model.sdo import SDO
from repro.runtime.spc import RuntimeConfig
from repro.systems.faults import Fault, FaultPlan
from repro.systems.simulated import SystemConfig, build_system

#: Policies a campaign exercises by default.
DEFAULT_POLICIES: _t.Tuple[str, ...] = ("udp", "lockstep", "aces")


@dataclass(frozen=True)
class FuzzScenario:
    """A fully seeded, reconstructible fuzz case.

    Every derived artifact (topology, system config, fault plan) is a
    pure function of these fields, so persisting the scenario — or just
    its seed — is enough to replay a failure exactly.
    """

    seed: int
    num_nodes: int
    num_ingress: int
    num_egress: int
    num_intermediate: int
    load_factor: float
    source_kind: str
    buffer_size: int
    dt: float
    duration: float
    reoptimize_interval: _t.Optional[float] = None
    #: Arm the SLO-aware admission front end (deliberately aggressive
    #: thresholds so the degradation ladder actually moves within the
    #: short fuzz runs, exercising every admission oracle).
    admission: bool = False
    #: Arm the Tier-3 elastic tier (aggressive thresholds and short
    #: dwell so the autoscaler actually fires within a fuzz run);
    #: membership faults in ``faults`` require this.  In differential
    #: mode it also scripts one identical join-plus-migration into both
    #: planes mid-drive, fuzzing cross-substrate epoch parity.
    elasticity: bool = False
    #: Arm the anticipatory forecasting tier (short season and a low
    #: headroom so proactive triggers actually fire within a fuzz run,
    #: exercising the forecast oracles and the trigger paths).
    forecast: bool = False
    faults: _t.Tuple[Fault, ...] = ()

    def build_topology(self) -> Topology:
        spec = TopologySpec(
            num_nodes=self.num_nodes,
            num_ingress=self.num_ingress,
            num_egress=self.num_egress,
            num_intermediate=self.num_intermediate,
            load_factor=self.load_factor,
            calibrate_rates=False,
        )
        return generate_topology(spec, np.random.default_rng(self.seed))

    def build_config(self, control_impl: str = "scalar") -> SystemConfig:
        # warmup=0 keeps the egress collector's window equal to the whole
        # run, which is what makes the conservation ledger exact.
        admission = None
        if self.admission:
            admission = AdmissionConfig(
                slo_p95=0.2,
                queue_slo_fraction=0.3,
                pressure_window=0.25,
                min_dwell=0.2,
                retry_after=0.1,
            )
        elasticity = None
        if self.elasticity:
            # Thresholds sit clear of ACES's b0 = 0.5 buffer set-point on
            # both sides; two-interval dwell and a short cooldown let a
            # 2-3s run fire real scale-outs/ins without thrashing.
            elasticity = ElasticityConfig(
                scale_out_pressure=0.8,
                scale_in_pressure=0.2,
                min_nodes=1,
                max_nodes=self.num_nodes + 2,
                check_interval=0.3,
                dwell_intervals=2,
                cooldown=0.6,
                max_migrations_per_epoch=3,
                placement_evaluations=8,
            )
        forecast = None
        if self.forecast:
            forecast = ForecastConfig(
                season_length=4,
                sample_interval=0.2,
                horizon=2,
                headroom=1.2,
                dwell_ticks=2,
                cooldown=0.5,
            )
        return SystemConfig(
            buffer_size=self.buffer_size,
            dt=self.dt,
            warmup=0.0,
            seed=self.seed + 1,
            source_kind=self.source_kind,
            # Scale the flash-crowd surge (and the scenario-library
            # cycles/trends) into the (short) fuzz run.
            source_surge_start=round(0.4 * self.duration, 3),
            source_surge_duration=round(0.3 * self.duration, 3),
            source_period=round(0.5 * self.duration, 3),
            source_drift=0.15,
            reoptimize_interval=self.reoptimize_interval,
            control_impl=control_impl,
            admission=admission,
            elasticity=elasticity,
            forecast=forecast,
        )

    def build_runtime_config(
        self, control_impl: str = "scalar"
    ) -> RuntimeConfig:
        """The same scenario on the threaded runtime, four model seconds
        per wall second: every shared :class:`ControlConfig` field as
        :meth:`build_config` sets it (the runtime has no periodic Tier-1
        refresh)."""
        config = self.build_config(control_impl)
        return RuntimeConfig(
            dilation=0.25,
            **{f.name: getattr(config, f.name) for f in fields(ControlConfig)},
        )

    def build_plan(self) -> FaultPlan:
        return FaultPlan(list(self.faults))

    def as_dict(self) -> _t.Dict[str, object]:
        record = asdict(self)
        record["faults"] = [asdict(fault) for fault in self.faults]
        return record


def generate_scenario(seed: int) -> FuzzScenario:
    """Deterministically expand one integer seed into a scenario."""
    rng = np.random.default_rng(seed)
    scenario = FuzzScenario(
        seed=seed,
        num_nodes=int(rng.integers(1, 5)),
        num_ingress=int(rng.integers(1, 3)),
        num_egress=int(rng.integers(1, 3)),
        num_intermediate=int(rng.integers(0, 7)),
        load_factor=float(np.round(0.6 + 1.4 * rng.random(), 3)),
        source_kind=str(
            rng.choice(
                ["onoff", "poisson", "constant", "squarewave", "flashcrowd"]
            )
        ),
        buffer_size=int(rng.integers(8, 41)),
        dt=0.02,
        duration=float(np.round(2.0 + 1.5 * rng.random(), 2)),
        reoptimize_interval=1.0 if rng.random() < 0.5 else None,
        admission=bool(rng.random() < 0.4),
    )
    topology = scenario.build_topology()
    scenario = replace(
        scenario, faults=tuple(_generate_faults(rng, scenario, topology))
    )
    # Topology-mutation dimension.  Drawn strictly *after* every legacy
    # draw so pre-elasticity seeds still expand to identical scenarios;
    # armed scenarios additionally get membership churn faults.
    if rng.random() < 0.35:
        scenario = replace(
            scenario,
            elasticity=True,
            faults=scenario.faults
            + tuple(_generate_membership_faults(rng, scenario)),
        )
    # Scenario-library and forecasting dimensions.  Both drawn strictly
    # after every pre-forecasting draw, so older seeds still expand to
    # identical legacy scenarios.
    if rng.random() < 0.35:
        scenario = replace(
            scenario,
            source_kind=str(
                rng.choice(
                    ["diurnal", "drift", "correlatedburst", "driftsquare"]
                )
            ),
        )
    if rng.random() < 0.35:
        scenario = replace(scenario, forecast=True)
    return scenario


def _generate_faults(
    rng: np.random.Generator, scenario: FuzzScenario, topology: Topology
) -> _t.List[Fault]:
    """Up to three non-overlapping faults targeting real scenario state."""
    plan = FaultPlan()
    pe_ids = sorted(topology.placement)
    ingress_ids = list(topology.graph.ingress_ids)
    used: _t.Set[str] = set()
    window_end = max(scenario.duration - 0.4, 0.6)
    for _ in range(int(rng.integers(0, 4))):
        start = float(np.round(0.2 + (window_end - 0.2) * rng.random(), 2))
        duration = float(np.round(0.2 + 0.6 * rng.random(), 2))
        kind = str(
            rng.choice(
                [
                    "node_slowdown",
                    "pe_stall",
                    "pe_crash",
                    "source_surge",
                    "feedback_loss",
                    "feedback_delay",
                    "controller_outage",
                    "tier1_outage",
                ]
            )
        )
        if kind in used:
            continue
        used.add(kind)
        if kind == "node_slowdown":
            node = int(rng.integers(0, scenario.num_nodes))
            plan.node_slowdown(
                node, factor=float(np.round(0.3 + 0.6 * rng.random(), 2)),
                start=start, duration=duration,
            )
        elif kind == "pe_stall":
            used.add("pe_crash")  # shares the pe_gate resource key
            plan.pe_stall(
                str(rng.choice(pe_ids)), start=start, duration=duration
            )
        elif kind == "pe_crash":
            used.add("pe_stall")
            plan.pe_crash(
                str(rng.choice(pe_ids)), start=start, duration=duration
            )
        elif kind == "source_surge":
            plan.source_surge(
                str(rng.choice(ingress_ids)),
                factor=float(np.round(1.5 + 1.5 * rng.random(), 2)),
                start=start, duration=duration,
            )
        elif kind == "feedback_loss":
            used.add("feedback_delay")  # shares the feedback_bus key
            plan.feedback_loss(
                float(np.round(0.2 + 0.6 * rng.random(), 2)),
                start=start, duration=duration,
            )
        elif kind == "feedback_delay":
            used.add("feedback_loss")
            plan.feedback_delay(
                float(np.round(2.0 + 4.0 * rng.random(), 1)),
                start=start, duration=duration,
                jitter=float(np.round(0.05 * rng.random(), 3)),
            )
        elif kind == "controller_outage":
            plan.controller_outage(
                int(rng.integers(0, scenario.num_nodes)),
                start=start, duration=duration,
            )
        elif kind == "tier1_outage":
            if scenario.reoptimize_interval is None:
                continue  # no re-solves to fail
            plan.tier1_outage(start=start, duration=duration)
    return plan.faults


def _generate_membership_faults(
    rng: np.random.Generator, scenario: FuzzScenario
) -> _t.List[Fault]:
    """Membership churn for an elasticity-armed scenario.

    A node joins early in the run (and is evacuated and removed when
    its window ends); optionally a node also leaves afterwards.  The
    two share the ``membership`` resource key, so their windows are
    kept disjoint by construction.
    """
    plan = FaultPlan()
    join_start = float(np.round(0.2 + 0.3 * rng.random(), 2))
    join_duration = float(np.round(0.4 + 0.4 * rng.random(), 2))
    plan.node_join(
        start=join_start,
        duration=join_duration,
        cpu_capacity=float(np.round(0.5 + rng.random(), 2)),
    )
    leave_start = float(
        np.round(join_start + join_duration + 0.1 + 0.3 * rng.random(), 2)
    )
    leave_duration = float(np.round(0.2 + 0.3 * rng.random(), 2))
    victim = int(rng.integers(0, scenario.num_nodes))
    if rng.random() < 0.5 and leave_start + leave_duration < scenario.duration:
        plan.node_leave(victim, start=leave_start, duration=leave_duration)
    return plan.faults


# -- single cases -----------------------------------------------------------


@dataclass
class FuzzCaseResult:
    """Outcome of one fuzz case (simulated or differential)."""

    scenario: FuzzScenario
    policy: str
    mode: str  # "simulated" | "threaded" | "differential"
    control_impl: str = "scalar"
    violations: _t.List[_t.Dict[str, object]] = field(default_factory=list)
    violation_counts: _t.Dict[str, int] = field(default_factory=dict)
    mismatch: bool = False
    error: _t.Optional[str] = None
    events: int = 0
    #: Per-egress-stream p95 end-to-end latency (seconds) over the
    #: measured window, from the always-on streaming histograms.
    latency_p95: _t.Dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return bool(self.violations) or self.mismatch or self.error is not None

    def as_record(self) -> _t.Dict[str, object]:
        return {
            "seed": self.scenario.seed,
            "policy": self.policy,
            "mode": self.mode,
            "control_impl": self.control_impl,
            "failed": self.failed,
            "violations": self.violations,
            "violation_counts": self.violation_counts,
            "mismatch": self.mismatch,
            "error": self.error,
            "events": self.events,
            "latency_p95": self.latency_p95,
            "scenario": self.scenario.as_dict(),
        }


def run_fuzz_case(
    scenario: FuzzScenario,
    policy_name: str,
    topology: _t.Optional[Topology] = None,
    targets: _t.Optional[_t.Any] = None,
    control_impl: str = "scalar",
    threaded: bool = False,
) -> FuzzCaseResult:
    """Run one scenario under one policy with all oracles armed.

    The oracles run as strictly as the substrate allows, and the
    system's conservation ledger is closed afterwards; a run that
    raises still reports the violations observed up to the error.
    ``control_impl="vector"`` fuzzes the array-backed Tier-2 engine
    against exactly the same invariants.  ``threaded`` runs the scenario
    on the threaded runtime instead; that run is not bit-reproducible,
    so campaigns leave it out.
    """
    policy = policy_by_name(policy_name)
    result = FuzzCaseResult(
        scenario=scenario, policy=policy_name,
        mode="threaded" if threaded else "simulated",
        control_impl=control_impl,
    )
    recorder = OracleRecorder()
    if topology is None:
        topology = scenario.build_topology()
    system = build_system(
        topology, policy, targets=targets,
        config=(
            scenario.build_runtime_config(control_impl) if threaded
            else scenario.build_config(control_impl=control_impl)
        ),
        recorder=recorder,
    )
    recorder.attach(system)
    scenario.build_plan().attach(system)
    _, result.error = matrix.guarded_run(system, scenario.duration)
    result.violations = [
        violation.as_dict() for violation in recorder.finalize()
    ]
    result.violation_counts = dict(recorder.violation_counts)
    result.events = sum(recorder.counts.values())
    result.latency_p95 = {
        pe_id: round(record.hist.percentile(0.95), 6)
        for pe_id, record in sorted(system.collector.records().items())
    }
    return result


def script_step(
    pes_by_id: _t.Mapping[str, _t.Any],
    step: int,
    now: float,
    seed: int = 0,
) -> None:
    """Ingest one step of the scripted load: ``(i*3 + step*7 + seed) % 5``
    SDOs into the i-th PE (by sorted id), varied per PE, step and seed."""
    for pe_index, pe_id in enumerate(sorted(pes_by_id)):
        pe = pes_by_id[pe_id]
        for _ in range((pe_index * 3 + step * 7 + seed) % 5):
            pe.ingest(SDO(stream_id=f"script:{pe_id}", origin_time=now), now)


def drive_plane(
    plane: _t.Any,
    pes_by_id: _t.Mapping[str, _t.Any],
    steps: int,
    dt: float,
    seed: int = 0,
    join_at: _t.Optional[int] = None,
) -> _t.List[_t.Tuple[object, ...]]:
    """The scripted parity drive: scripted occupancies, hand-pumped ticks.

    Returns one ``(node id, grants, r_max, blocked)`` decision per node
    controller per step.  At step ``join_at`` the drive first joins a
    node and live-migrates the first PE onto it, so any divergence in
    how two planes regroup Tier-2 state at an epoch boundary shows up
    as a decision mismatch.
    """
    decisions: _t.List[_t.Tuple[object, ...]] = []
    for step in range(steps):
        now = (step + 1) * dt
        if step == join_at:
            index = plane.add_node(f"fuzz-join-{step}", 1.0)
            mover = sorted(pes_by_id)[0]
            plane.migrate_pes([(mover, index)], reason="fuzz")
        script_step(pes_by_id, step, now, seed)
        for controller in plane.node_controllers:
            grants = dict(zip(
                (record.pe_id for record in controller.records),
                controller.control(now),
            ))
            r_max = {
                record.pe_id: record.controller.last_r_max
                for record in controller.records
                if record.controller is not None
            }
            decisions.append(
                (controller.node_id, grants, r_max,
                 controller.last_blocked)
            )
    return decisions


def run_differential_case(
    scenario: FuzzScenario,
    policy_name: str,
    steps: int = 30,
    topology: _t.Optional[Topology] = None,
    targets: _t.Optional[_t.Any] = None,
    control_impl: str = "scalar",
) -> FuzzCaseResult:
    """Drive both substrates' control planes with one scripted trace.

    Neither system is *run* — no worker threads, no simulation events —
    so control steps are serialized and both oracles run strict.  Any
    divergence in the (grants, r_max, blocked) decision sequence is a
    parity failure; any invariant violation on either plane is reported
    with the substrate prefixed to the invariant name.
    """
    result = FuzzCaseResult(scenario=scenario, policy=policy_name,
                            mode="differential", control_impl=control_impl)
    if topology is None:
        topology = scenario.build_topology()
    if targets is None:
        targets = solve_global_allocation(
            topology.graph, topology.placement, topology.source_rates
        ).targets
    sim_recorder = OracleRecorder(strict=True)
    run_recorder = OracleRecorder(strict=True)
    shared = dict(
        buffer_size=scenario.buffer_size, dt=scenario.dt,
        seed=scenario.seed + 1, control_impl=control_impl,
    )
    system = build_system(
        topology, policy_by_name(policy_name), targets=targets,
        config=SystemConfig(feedback_delay=0.0, **shared),
        recorder=sim_recorder,
    )
    runtime = build_system(
        topology, policy_by_name(policy_name), targets=targets,
        config=RuntimeConfig(**shared), recorder=run_recorder,
    )
    sim_recorder.attach_plane(system.plane)
    run_recorder.attach_plane(runtime.plane)
    try:
        script = (
            steps, scenario.dt, scenario.seed,
            steps // 2 if scenario.elasticity else None,
        )
        sim_decisions = drive_plane(system.plane, system.pes, *script)
        run_decisions = drive_plane(runtime.plane, runtime.pes, *script)
        result.mismatch = sim_decisions != run_decisions
    except Exception as exc:  # noqa: BLE001 - a fuzz finding, not a crash
        result.error = f"{type(exc).__name__}: {exc}"
    violations = []
    for prefix, recorder in (("sim", sim_recorder), ("runtime", run_recorder)):
        for violation in recorder.finalize():
            record = violation.as_dict()
            record["invariant"] = f"{prefix}:{record['invariant']}"
            violations.append(record)
        for name, count in recorder.violation_counts.items():
            result.violation_counts[f"{prefix}:{name}"] = count
    result.violations = violations
    result.events = sum(sim_recorder.counts.values()) + sum(
        run_recorder.counts.values()
    )
    return result


# -- shrinking --------------------------------------------------------------


def _shrink_candidates(
    scenario: FuzzScenario,
) -> _t.Iterator[FuzzScenario]:
    """Strictly-smaller variants of a scenario, most aggressive first."""
    if scenario.faults:
        yield replace(scenario, faults=())
        for index in range(len(scenario.faults)):
            kept = (
                scenario.faults[:index] + scenario.faults[index + 1:]
            )
            yield replace(scenario, faults=kept)
    if scenario.admission:
        yield replace(scenario, admission=False)
    if scenario.forecast:
        yield replace(scenario, forecast=False)
    if scenario.elasticity:
        # Disarming the elastic tier also drops the membership faults
        # that require it; keeping them would fail plan validation.
        yield replace(
            scenario,
            elasticity=False,
            faults=tuple(
                fault
                for fault in scenario.faults
                if fault.kind not in ("node_join", "node_leave")
            ),
        )
    if scenario.num_intermediate > 0:
        yield replace(scenario, num_intermediate=0)
        yield replace(
            scenario, num_intermediate=scenario.num_intermediate // 2
        )
    if scenario.num_nodes > 1:
        yield replace(scenario, num_nodes=1)
        yield replace(scenario, num_nodes=scenario.num_nodes - 1)
    if scenario.num_ingress > 1:
        yield replace(scenario, num_ingress=1)
    if scenario.num_egress > 1:
        yield replace(scenario, num_egress=1)
    if scenario.reoptimize_interval is not None:
        yield replace(scenario, reoptimize_interval=None)
    if scenario.duration > 0.5:
        yield replace(
            scenario, duration=max(0.5, round(scenario.duration / 2, 2))
        )


def shrink_scenario(
    scenario: FuzzScenario,
    predicate: _t.Callable[[FuzzScenario], bool],
    max_rounds: int = 40,
) -> FuzzScenario:
    """Greedily minimize ``scenario`` while ``predicate`` keeps failing.

    ``predicate`` returns True when the candidate still reproduces the
    failure.  Candidates that cannot even be built (a shrunk topology no
    longer has a fault's target PE, say) are treated as non-reproducing
    and skipped.
    """
    for _ in range(max_rounds):
        for candidate in _shrink_candidates(scenario):
            try:
                still_failing = predicate(candidate)
            except Exception:  # noqa: BLE001 - invalid shrink, skip it
                still_failing = False
            if still_failing:
                scenario = candidate
                break
        else:
            return scenario
    return scenario


def failure_predicate(
    policy_name: str, mode: str, control_impl: str = "scalar"
) -> _t.Callable[[FuzzScenario], bool]:
    """The reproduces-the-failure test used when shrinking one case."""
    if mode == "differential":
        return lambda scenario: run_differential_case(
            scenario, policy_name, control_impl=control_impl
        ).failed
    return lambda scenario: run_fuzz_case(
        scenario, policy_name, control_impl=control_impl
    ).failed


# -- campaigns --------------------------------------------------------------


def run_fuzz_campaign(
    seeds: _t.Sequence[int],
    policies: _t.Sequence[str] = DEFAULT_POLICIES,
    differential: bool = True,
    shrink: bool = True,
    output: _t.Optional[str] = None,
    log: _t.Optional[_t.Callable[[str], None]] = None,
    control_impl: str = "scalar",
) -> _t.Dict[str, object]:
    """Fuzz every (seed, policy) pair; return a campaign summary.

    Each case appends one JSON line to ``output`` (when given).  Failing
    cases are shrunk to minimal reproducers (when ``shrink``), which are
    included in the summary's ``failures`` list.
    """
    emit = log if log is not None else (lambda _message: None)
    cases = 0
    failures: _t.List[_t.Dict[str, object]] = []
    sink: _t.Optional[_t.TextIO] = (
        open(output, "w", encoding="utf-8") if output else None
    )
    try:
        for seed in seeds:
            scenario = generate_scenario(seed)
            topology = scenario.build_topology()
            for policy_name in policies:
                results = [
                    run_fuzz_case(
                        scenario, policy_name, topology=topology,
                        control_impl=control_impl,
                    )
                ]
                if differential:
                    results.append(
                        run_differential_case(
                            scenario, policy_name, topology=topology,
                            control_impl=control_impl,
                        )
                    )
                for result in results:
                    cases += 1
                    record = result.as_record()
                    if result.failed:
                        emit(
                            f"seed {seed} policy {policy_name} "
                            f"[{result.mode}] FAILED: "
                            f"{result.error or result.violation_counts or 'mismatch'}"
                        )
                        if shrink:
                            minimal = shrink_scenario(
                                scenario,
                                failure_predicate(
                                    policy_name, result.mode, control_impl
                                ),
                            )
                            record["shrunk_scenario"] = minimal.as_dict()
                        failures.append(record)
                    if sink is not None:
                        sink.write(json.dumps(record, sort_keys=True) + "\n")
    finally:
        if sink is not None:
            sink.close()
    return {
        "cases": cases,
        "seeds": len(seeds),
        "policies": list(policies),
        "control_impl": control_impl,
        "failures": failures,
        "ok": not failures,
    }
