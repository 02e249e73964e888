"""Substrate-agnostic control plane (the paper's Tier-2 algorithm).

This package is the single home of the per-node control step the paper
describes in Section V — downstream feedback aggregation (Eq. 8), CPU
allocation (Section V-D), and the LQR flow-control update with upstream
``r_max`` publication (Eq. 7) — expressed against a narrow
:class:`~repro.control.adapter.SystemAdapter` protocol instead of a
concrete execution substrate.

* :class:`~repro.control.node.NodeController` runs the Tier-2 step for
  the PEs resident on one node.
* :class:`~repro.control.plane.ControlPlane` builds one controller per
  node from a :class:`~repro.core.policies.Policy`'s hook points, owns
  the shared :class:`~repro.core.feedback.FeedbackBus` and the
  :class:`~repro.core.resilience.ResilientTier1` guard, and exposes the
  operational surface (gate replacement, controller suspend/resume,
  target adoption) both substrates share.

Two substrates currently drive it: the discrete-event simulator
(:class:`repro.systems.dataplane.SimAdapter`) and the threaded mini-SPC
runtime (:class:`repro.runtime.spc.ThreadAdapter`).  A new substrate —
sharded, multi-process, remote — implements one small adapter instead of
re-implementing the controller.

For extreme scale, :mod:`repro.control.vector` provides an array-backed
implementation of the same step (``control_impl="vector"``): a
:class:`~repro.control.vector.PEIndexRegistry` maps PEs to dense
indices and a :class:`~repro.control.vector.VectorEngine` computes whole
nodes — or whole phase buckets — per tick as numpy kernels, bit-equal to
the scalar step.  Both planes run the same ``NodeController`` class.
"""

from repro.control.adapter import (
    BufferLike,
    MembershipOps,
    PELike,
    SystemAdapter,
)
from repro.control.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionLevel,
    DegradationLadder,
    LadderTransition,
)
from repro.control.elastic import (
    ElasticDriver,
    ElasticityConfig,
    MigrationRecord,
    PlacementBook,
    PlacementVersion,
    ScalingPolicy,
    plan_scale_in_placement,
    plan_scale_out_placement,
)
from repro.control.forecast import (
    ForecastConfig,
    ForecastController,
    HoltWintersForecaster,
    ProactiveTriggerRecord,
)
from repro.control.node import ControlRecord, NodeController
from repro.control.plane import ControlPlane, NodeGroup
from repro.control.vector import (
    PEIndexRegistry,
    VectorEngine,
    VectorFlowView,
    VectorNodeView,
)

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionLevel",
    "BufferLike",
    "ControlPlane",
    "ControlRecord",
    "DegradationLadder",
    "ElasticDriver",
    "ElasticityConfig",
    "ForecastConfig",
    "ForecastController",
    "HoltWintersForecaster",
    "LadderTransition",
    "MembershipOps",
    "MigrationRecord",
    "NodeController",
    "NodeGroup",
    "PEIndexRegistry",
    "PELike",
    "PlacementBook",
    "PlacementVersion",
    "ProactiveTriggerRecord",
    "ScalingPolicy",
    "SystemAdapter",
    "VectorEngine",
    "VectorFlowView",
    "VectorNodeView",
    "plan_scale_in_placement",
    "plan_scale_out_placement",
]
