"""ACES core: the paper's primary contribution.

Two tiers:

* **Tier 1** (:mod:`repro.core.global_opt`) — the global concave program
  that sets time-averaged CPU targets to maximize weighted throughput
  (paper Section V-B, Eqs. 3-6).
* **Tier 2** — the distributed per-node resource controller:

  * :mod:`repro.core.lqr` designs the flow-controller gains (Appendix A);
  * :mod:`repro.core.flow_control` implements the Eq. 7 rate controller;
  * :mod:`repro.core.feedback` propagates ``r_max`` upstream (Eq. 8);
  * :mod:`repro.core.cpu_control` implements the token-bucket CPU
    scheduler (Section V-D);
  * :mod:`repro.core.policies` packages ACES and the two baselines
    (UDP, Lock-Step) as pluggable transmission policies;
  * :mod:`repro.core.resilience` guards the control plane itself:
    Tier-1 validation with a last-known-good fallback, and the lossy
    feedback-bus wrapper used by fault injection.
"""

from repro.core.cpu_control import AcesCpuScheduler, StrictProportionalScheduler
from repro.core.feedback import FeedbackBus
from repro.core.flow_control import FlowController
from repro.core.global_opt import (
    GlobalOptimizationResult,
    solve_global_allocation,
)
from repro.core.lqr import LQRGains, design_gains
from repro.core.policies import AcesPolicy, LockStepPolicy, Policy, UdpPolicy
from repro.core.resilience import (
    LossyFeedbackBus,
    ResilientTier1,
    Tier1Unavailable,
    validate_targets,
)
from repro.core.targets import AllocationTargets, perturb_targets
from repro.core.utility import LogUtility

__all__ = [
    "AcesCpuScheduler",
    "AcesPolicy",
    "AllocationTargets",
    "FeedbackBus",
    "FlowController",
    "GlobalOptimizationResult",
    "LQRGains",
    "LockStepPolicy",
    "LogUtility",
    "LossyFeedbackBus",
    "Policy",
    "ResilientTier1",
    "StrictProportionalScheduler",
    "Tier1Unavailable",
    "UdpPolicy",
    "design_gains",
    "perturb_targets",
    "solve_global_allocation",
    "validate_targets",
]
