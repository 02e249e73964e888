"""Extreme-scale curve engine behind ``benchmarks/perf/bench_scale.py``.

:func:`measure_scale_curve` runs the paper's main topology scaled x1 to
x100 under both Tier-2 implementations and reports events/sec and the
controller tick in isolation; the result is ``BENCH_scale.json`` at the
repo root.  Kernel throughput and the cost of observation are measured
by the perf observatory (``benchmarks/observatory/``), not here.
"""

from __future__ import annotations

import os
import pathlib
import platform
import sys
import time
import typing as _t

import numpy as np

from repro.core.policies import policy_by_name
# scaled_main_spec is also imported from here by the perf observatory.
from repro.graph.topology import generate_topology, scaled_main_spec
from repro.obs.profiler import PhaseProfiler
from repro.systems.simulated import SimulatedSystem, SystemConfig

#: Version of the BENCH_scale.json schema this module writes.
BENCH_SCHEMA = 1

#: Default location of the scale-curve file (repo root).
BENCH_SCALE_PATH = (
    pathlib.Path(__file__).resolve().parents[3] / "BENCH_scale.json"
)


def measure_scale_point(
    multiplier: int,
    control_impl: str,
    policy: str = "aces",
    dt: float = 0.02,
    ticks: int = 20,
    buckets: _t.Optional[int] = 8,
    seed: int = 0,
) -> _t.Dict[str, object]:
    """One point of the events/sec-vs-size curve, with phase fractions.

    Runs the scaled main topology for ``ticks`` control intervals under
    a :class:`PhaseProfiler` and reports both whole-kernel throughput
    and the controller-tick phase in isolation:
    ``controller_pe_steps_per_sec`` is per-PE control steps divided by
    exclusive controller wall time — the number the vectorized engine
    exists to improve.  Both implementations run the same bucket count
    so the comparison isolates the array kernels, not loop scheduling.
    Tier-1 uses the fair-share split (the dense interior-point solve
    grows with the cube of the PE count and is irrelevant to tick
    cost).
    """
    from repro.core.targets import fair_share_targets

    spec = scaled_main_spec(multiplier)
    topology = generate_topology(spec, np.random.default_rng(seed))
    targets = fair_share_targets(topology.graph, topology.placement)
    duration = ticks * dt
    config = SystemConfig(
        seed=seed + 1,
        warmup=0.0,
        dt=dt,
        control_impl=control_impl,
        control_phase_buckets=buckets,
    )
    profiler = PhaseProfiler()
    system = SimulatedSystem(
        topology,
        policy_by_name(policy),
        targets=targets,
        config=config,
        profiler=profiler,
    )
    start = time.perf_counter()
    system.run(duration)
    wall = time.perf_counter() - start

    events = system.env.events_processed
    controller_seconds = profiler.totals.get("controller_tick", 0.0)
    fractions = profiler.fractions()
    num_pes = len(topology.placement)
    pe_steps = sum(
        controller.ticks * len(controller.records)
        for controller in system.plane.node_controllers
    )
    return {
        "multiplier": multiplier,
        "num_nodes": topology.num_nodes,
        "num_pes": num_pes,
        "control_impl": system.plane.control_impl,
        "control_phase_buckets": buckets,
        "policy": policy,
        "dt": dt,
        "ticks": ticks,
        "sim_seconds": duration,
        "events": events,
        "wall_seconds": round(wall, 4),
        "events_per_sec": round(events / wall, 1) if wall > 0 else 0.0,
        "controller_seconds": round(controller_seconds, 4),
        "controller_fraction": round(
            fractions.get("controller_tick", 0.0), 4
        ),
        "controller_pe_steps": pe_steps,
        "controller_pe_steps_per_sec": round(
            pe_steps / controller_seconds, 1
        )
        if controller_seconds > 0
        else 0.0,
        "phase_fractions": {
            name: round(fraction, 4)
            for name, fraction in sorted(fractions.items())
        },
    }


def measure_scale_curve(
    multipliers: _t.Sequence[int] = (1, 10, 30),
    impls: _t.Sequence[str] = ("scalar", "vector"),
    policy: str = "aces",
    dt: float = 0.02,
    ticks: int = 20,
    buckets: _t.Optional[int] = 8,
    seed: int = 0,
    log: _t.Optional[_t.Callable[[str], None]] = None,
) -> _t.Dict[str, object]:
    """The full scalar-vs-vector curve across topology multipliers.

    Returns a JSON-ready dict with one measurement per (multiplier,
    impl) and, for each multiplier present under both implementations,
    the controller-tick speedup of vector over scalar.
    """
    emit = log if log is not None else (lambda _message: None)
    points: _t.List[_t.Dict[str, object]] = []
    for multiplier in multipliers:
        for impl in impls:
            emit(f"measuring x{multiplier} {impl} ...")
            point = measure_scale_point(
                multiplier,
                impl,
                policy=policy,
                dt=dt,
                ticks=ticks,
                buckets=buckets,
                seed=seed,
            )
            emit(
                f"  x{multiplier} {point['control_impl']}: "
                f"{point['events_per_sec']} ev/s, controller "
                f"{point['controller_fraction']:.1%} of wall, "
                f"{point['controller_pe_steps_per_sec']} PE-steps/s"
            )
            points.append(point)

    speedups: _t.Dict[str, float] = {}
    by_key = {
        (p["multiplier"], p["control_impl"]): p for p in points
    }
    for multiplier in multipliers:
        scalar = by_key.get((multiplier, "scalar"))
        vector = by_key.get((multiplier, "vector"))
        if scalar and vector:
            scalar_rate = _t.cast(
                float, scalar["controller_pe_steps_per_sec"]
            )
            vector_rate = _t.cast(
                float, vector["controller_pe_steps_per_sec"]
            )
            if scalar_rate > 0:
                speedups[str(multiplier)] = round(
                    vector_rate / scalar_rate, 3
                )
    return {
        "schema": BENCH_SCHEMA,
        "environment": _environment_block(),
        "policy": policy,
        "dt": dt,
        "ticks": ticks,
        "buckets": buckets,
        "points": points,
        "controller_speedup_vector_vs_scalar": speedups,
    }


def _environment_block() -> _t.Dict[str, object]:
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": sys.platform,
    }
