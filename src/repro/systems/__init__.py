"""Runnable stream-processing systems.

:mod:`repro.systems.substrate` assembles the PEs, sources and the ACES
control tiers of either substrate; :mod:`repro.systems.simulated` is
the simulation-kernel substrate, runnable under any
:class:`~repro.core.policies.Policy`, and ``run_system`` runs either.

:mod:`repro.systems.faults` injects data-plane and control-plane faults
(slowdowns, crashes, feedback loss/delay, solver and controller outages)
into either substrate.
"""

from repro.systems.faults import Fault, FaultPlan
from repro.systems.simulated import SimulatedSystem, SystemConfig, run_system

__all__ = [
    "Fault",
    "FaultPlan",
    "SimulatedSystem",
    "SystemConfig",
    "run_system",
]
