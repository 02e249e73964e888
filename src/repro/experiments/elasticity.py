"""Elasticity benchmark: scale-out/in ramps, static vs elastic cluster.

Every cell runs one policy on a flash-crowd workload — a surge window in
the middle of the run is the scale-out ramp, its end the scale-in ramp —
either *static* (membership frozen, the pre-elasticity system) or
*elastic* (the Tier-3 :class:`~repro.control.elastic.ElasticityConfig`
armed: the scaling policy joins nodes under pressure, live-migrates PEs
onto them, and evacuates/removes nodes when pressure subsides), and
measures:

* **utility retention** — the elastic cell's weighted utility relative
  to its static twin (scaling must not cost throughput);
* **migration downtime** — per-migration seconds until the moved PE
  consumed past its pre-migration watermark (must stay bounded);
* **epochs / migrations / peak nodes** — how much the membership
  actually moved;
* **stranded SDOs** — occupancy resident in PEs that are not in any
  control-plane group (structurally zero: the plane refuses to remove
  non-empty nodes);
* **violations** — online oracle findings plus the closed conservation
  ledger (must be empty in every cell).

The matrix is written to ``BENCH_elasticity.json`` by ``repro elastic``;
``--smoke`` runs a reduced matrix sized for CI.  Pairing, the shared
cell fields and the file envelope live in :mod:`repro.experiments.matrix`.
"""

from __future__ import annotations

import typing as _t
from operator import itemgetter

import numpy as np

from repro.control.elastic import ElasticityConfig
from repro.core.policies import policy_by_name
from repro.experiments import matrix
from repro.graph.topology import TopologySpec, generate_topology
from repro.systems.simulated import SimulatedSystem, SystemConfig

#: The (baseline, armed) twin every policy runs as.
MODES = ("static", "elastic")

#: Policies the matrix exercises by default.  UDP drains buffers toward
#: empty off-peak (exercising the scale-in edge); ACES pins occupancy at
#: b0 (exercising sustained-pressure scale-out).
DEFAULT_POLICIES: _t.Tuple[str, ...] = ("aces", "udp")

#: Per-policy workload profile (baseline load factor, surge multiplier).
#: ACES regulates overload at its ingress — r_max gating pushes excess
#: back to the sources before buffers express it — so its cells need a
#: heavy baseline before a surge shows up as sustained node pressure.
#: UDP expresses load directly in buffer fill, so a light baseline with
#: a strong surge exercises both the scale-out and the scale-in edge.
WORKLOAD_PROFILES: _t.Dict[str, _t.Tuple[float, float]] = {
    "aces": (1.0, 5.0),
    "udp": (0.8, 4.0),
}
DEFAULT_PROFILE: _t.Tuple[float, float] = (1.0, 5.0)

#: Downtime bound the benchmark asserts per migration (seconds) — one
#: hundred control intervals of the default dt.  Downtime here is
#: consumption-resume latency: time until the moved PE consumes past its
#: pre-migration watermark, which includes waiting for its first CPU
#: grant on the destination (ACES throttles hard mid-surge).  The bound
#: is well above that grant wait, well below anything a user would call
#: an outage.
DOWNTIME_BOUND = 2.0


def bench_elasticity_config(max_nodes: int) -> ElasticityConfig:
    """The tuned elastic config the benchmark arms.

    The hysteresis band straddles ACES's b0 = 0.5 occupancy set-point:
    scale-out requires sustained fill clearly above the set-point (a
    node that cannot hold its buffers at b0 is overloaded), scale-in
    requires buffers clearly below it.  The scale-out threshold sits at
    0.65 because ACES regulates overload aggressively — even a 5x flash
    crowd only lifts pressure to ~0.7 while r_max gating pushes the
    excess back to the sources — yet quiet-state pressure never holds
    above ~0.63.  Two-interval dwell plus a cooldown keeps the ramp
    edges from chattering.
    """
    return ElasticityConfig(
        scale_out_pressure=0.65,
        scale_in_pressure=0.3,
        min_nodes=2,
        max_nodes=max_nodes,
        check_interval=0.5,
        dwell_intervals=2,
        cooldown=1.5,
        max_migrations_per_epoch=4,
        placement_evaluations=12,
    )


def bench_spec(load_factor: float = 1.0) -> TopologySpec:
    """The benchmark topology: small enough for CI, loaded enough that
    the flash-crowd surge actually saturates the static cluster."""
    return TopologySpec(
        num_nodes=2,
        num_ingress=2,
        num_egress=1,
        num_intermediate=5,
        load_factor=load_factor,
    )


def scaling_fields(system: SimulatedSystem) -> matrix.Cell:
    """How much the membership moved: the fields every suite that arms
    the elastic tier reports."""
    policy = system.scaling_policy
    decisions = [
        record.decision
        for record in (policy.decisions if policy is not None else [])
    ]
    return {
        "scale_outs": decisions.count("scale_out"),
        "scale_ins": decisions.count("scale_in"),
        "migrations": len(system.migration_log),
        "peak_nodes": max(count for _, count in system.elastic.timeline),
        "final_nodes": len(system.nodes),
    }


def run_elasticity_cell(
    policy_name: str,
    mode: str,
    duration: float,
    warmup: float,
    seed: int,
    max_nodes: int,
) -> matrix.Cell:
    """One ramp cell.

    The flash-crowd surge occupies the second quarter of the measured
    window: rates ramp up at ``warmup + duration/4`` (the scale-out
    edge) and back down one quarter later (the scale-in edge), leaving
    half the window as the quiet tail where the slack signal can call
    capacity back in.
    """
    load_factor, surge_factor = WORKLOAD_PROFILES.get(
        policy_name, DEFAULT_PROFILE
    )
    topology = generate_topology(
        bench_spec(load_factor), np.random.default_rng(seed)
    )
    config = SystemConfig(
        dt=0.02,
        seed=seed + 1,
        warmup=warmup,
        source_kind="flashcrowd",
        source_surge_start=round(warmup + duration / 4.0, 3),
        source_surge_duration=round(duration / 4.0, 3),
        source_surge_factor=surge_factor,
        elasticity=(
            bench_elasticity_config(max_nodes) if mode == "elastic" else None
        ),
    )
    run = matrix.run_observed(
        topology, policy_by_name(policy_name), config, duration
    )
    system = run.system
    grouped = {
        pe.pe_id for group in system.plane.groups for pe in group.pes
    }
    downtimes = [
        record.downtime
        for record in system.migration_log
        if record.downtime is not None
    ]
    window = duration if run.report is not None else 0.0
    return run.cell(
        policy=policy_name,
        mode=mode,
        cpu_utilization=run.reported("cpu_utilization", 0.0),
        # Final placement-book epoch (0 for static cells).
        epochs=system.placement_book.epoch,
        # Max / mean observed migration downtime in seconds over the
        # migrations whose PE consumed again before the run ended.
        downtime_max=max(downtimes, default=0.0),
        downtime_mean=sum(downtimes) / len(downtimes) if downtimes else 0.0,
        downtime_bounded=max(downtimes, default=0.0) <= DOWNTIME_BOUND,
        # Integrated node-seconds over the measured window (the elastic
        # cell's capacity bill; static cells pay num_nodes * duration).
        node_seconds=round(
            system.elastic.node_seconds(warmup, warmup + window), 6
        ),
        # Occupancy resident in PEs outside every control-plane group
        # (structurally zero; a nonzero value means the buffer handoff
        # or the removal interlock broke).
        stranded_sdos=sum(
            runtime.buffer.occupancy
            for pe_id, runtime in system.runtimes.items()
            if pe_id not in grouped
        ),
        **scaling_fields(system),
    )


def _verdict(pairs: matrix.Pairs) -> matrix.Verdict:
    """Every elastic cell actually scales (a ramp that never fires the
    policy is a configuration bug, not a pass) with every migration
    inside the downtime bound, and nothing is stranded anywhere."""
    cells = [cell for pair in pairs for cell in pair]
    scaled = all(
        armed["scale_outs"] > 0 and armed["migrations"] > 0
        for _, armed in pairs
    )
    bounded = all(armed["downtime_bounded"] for _, armed in pairs)
    stranded = sum(cell["stranded_sdos"] for cell in cells)
    terms = {
        "elastic_cells_scaled": scaled,
        "downtime_bounded": bounded,
        "utility_retention_min": matrix.retention_min(pairs),
        "total_scale_outs": sum(cell["scale_outs"] for cell in cells),
        "total_scale_ins": sum(cell["scale_ins"] for cell in cells),
        "total_migrations": sum(cell["migrations"] for cell in cells),
        "total_stranded_sdos": stranded,
    }
    return terms, scaled and bounded and stranded == 0


def run_elasticity_matrix(
    policies: _t.Sequence[str] = DEFAULT_POLICIES,
    duration: float = 18.0,
    warmup: float = 1.0,
    seed: int = 0,
    max_nodes: int = 5,
) -> matrix.Results:
    """Run the (policy x {static, elastic}) ramp matrix."""
    for name in policies:
        policy_by_name(name)  # fail fast on unknown policy names
    return matrix.run_twin_matrix(
        "elasticity",
        MODES,
        list(policies),
        lambda policy, mode: run_elasticity_cell(
            policy, mode, duration, warmup, seed, max_nodes
        ),
        _verdict,
        {
            "policies": list(policies),
            "workload_profiles": {
                policy: WORKLOAD_PROFILES.get(policy, DEFAULT_PROFILE)
                for policy in policies
            },
            "downtime_bound": DOWNTIME_BOUND,
            "elasticity_config": matrix.config_block(
                bench_elasticity_config(max_nodes),
                "scale_out_pressure", "scale_in_pressure", "min_nodes",
                "max_nodes", "check_interval", "dwell_intervals", "cooldown",
                "max_migrations_per_epoch", "placement_evaluations",
            ),
        },
        duration,
        warmup,
        seed,
    )


VERB = matrix.MatrixVerb(
    help="elasticity ramp matrix (static vs autoscaled cluster)",
    description=(
        "Run flash-crowd scale-out/in ramps per policy, with the "
        "cluster membership frozen (static) and with the Tier-3 "
        "elastic tier armed (autoscaling + live PE migration), strict "
        "invariant oracles watching every cell, and write the matrix "
        "to a JSON benchmark file.  Exits nonzero if any elastic cell "
        "fails to scale, exceeds the migration downtime bound, "
        "strands SDOs, or violates an invariant."
    ),
    flags=(
        matrix.flag(
            "--policies", "comma-separated policy names (default aces,udp)",
            default=",".join(DEFAULT_POLICIES),
        ),
        *matrix.window_flags(18.0, 1.0),
        matrix.MAX_NODES_FLAG,
        matrix.SEED_FLAG,
        matrix.output_flag("BENCH_elasticity.json"),
        matrix.smoke_flag("reduced CI matrix: UDP only, short run"),
    ),
    smoke=dict(policies="udp", duration=12.0, warmup=1.0),
    run=lambda args: run_elasticity_matrix(
        policies=matrix.csv(args.policies),
        duration=args.duration,
        warmup=args.warmup,
        seed=args.seed,
        max_nodes=args.max_nodes,
    ),
    title=lambda results: (
        f"elasticity ramp matrix (downtime bound "
        f"{results['downtime_bound']:.1f}s)"
    ),
    columns=(
        ("policy", itemgetter("policy")),
        ("mode", itemgetter("mode")),
        ("wutil", itemgetter("weighted_utility")),
        matrix.RETENTION,
        matrix.OUT_IN,
        ("peak", itemgetter("peak_nodes")),
        ("final", itemgetter("final_nodes")),
        ("migrations", itemgetter("migrations")),
        ("downtime_max_ms", matrix.in_ms("downtime_max")),
        ("node_seconds", itemgetter("node_seconds")),
        ("stranded", itemgetter("stranded_sdos")),
        matrix.VIOLATIONS,
        matrix.ERROR,
    ),
    summary=(
        ("scale_outs", "total_scale_outs"),
        ("scale_ins", "total_scale_ins"),
        ("migrations", "total_migrations"),
        ("stranded", "total_stranded_sdos"),
        ("violations", "total_violations"),
        ("errors", "errors"),
    ),
)
