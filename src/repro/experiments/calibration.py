"""The simulator-vs-runtime calibration experiment (paper Section VI-C).

The paper runs 60 PE / 10 node topologies on both the real SPC and the
C-SIM simulator to calibrate the latter.  Here the same topology and the
same Tier-1 targets are run through:

* :class:`repro.systems.simulated.SimulatedSystem` (discrete-event), and
* :class:`repro.runtime.spc.SPCRuntime` (threads + real queues),

and the weighted throughputs are compared.  Because the threaded runtime
emulates CPU with sleeps under the GIL, we compare *relative* orderings and
report the discrepancy ratio per policy rather than expecting identity.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

import numpy as np

from repro.core.global_opt import solve_global_allocation
from repro.core.policies import AcesPolicy, LockStepPolicy, Policy, UdpPolicy
from repro.graph.topology import TopologySpec, Topology, generate_topology
from repro.runtime.spc import RuntimeConfig
from repro.systems.simulated import SystemConfig, run_system


@dataclass
class CalibrationRow:
    """Simulator-vs-runtime comparison for one policy."""

    policy: str
    simulator_throughput: float
    runtime_throughput: float
    simulator_latency_ms: float
    runtime_latency_ms: float

    @property
    def throughput_ratio(self) -> float:
        """runtime / simulator; 1.0 means perfectly calibrated."""
        if self.simulator_throughput == 0:
            return float("inf")
        return self.runtime_throughput / self.simulator_throughput


def calibration_spec(scale: float = 1.0) -> TopologySpec:
    """A calibration topology; ``scale`` < 1 shrinks it for fast tests."""
    pes = max(2, int(60 * scale))
    ingress = max(1, int(12 * scale))
    egress = max(1, int(12 * scale))
    return TopologySpec(
        num_nodes=max(2, int(10 * scale)),
        num_ingress=ingress,
        num_egress=egress,
        num_intermediate=max(0, pes - ingress - egress),
    )


def run_calibration(
    topology: _t.Optional[Topology] = None,
    policies: _t.Optional[_t.Sequence[Policy]] = None,
    sim_duration: float = 10.0,
    runtime_duration: float = 4.0,
    seed: int = 0,
    runtime_config: _t.Optional[RuntimeConfig] = None,
) -> _t.List[CalibrationRow]:
    """Run the same topology through both substrates and compare.

    Both run the same source model: the runtime config's ``source_kind``
    (by default the simulator's own, bursty on/off).
    """
    if topology is None:
        topology = generate_topology(
            calibration_spec(), np.random.default_rng(seed)
        )
    if policies is None:
        policies = [AcesPolicy(), UdpPolicy(), LockStepPolicy()]

    targets = solve_global_allocation(
        topology.graph, topology.placement, topology.source_rates
    ).targets

    if runtime_config is None:
        runtime_config = RuntimeConfig(
            seed=seed + 1, source_kind=SystemConfig().source_kind
        )
    rows = []
    for policy in policies:
        sim_report = run_system(
            topology,
            policy,
            duration=sim_duration,
            targets=targets,
            config=SystemConfig(
                seed=seed + 1, warmup=3.0,
                source_kind=runtime_config.source_kind,
            ),
        )
        runtime_report = run_system(
            topology, policy, duration=runtime_duration, targets=targets,
            config=runtime_config,
        )
        rows.append(
            CalibrationRow(
                policy=policy.name,
                simulator_throughput=sim_report.weighted_throughput,
                runtime_throughput=runtime_report.weighted_throughput,
                simulator_latency_ms=sim_report.latency.mean * 1000,
                runtime_latency_ms=runtime_report.latency.mean * 1000,
            )
        )
    return rows
