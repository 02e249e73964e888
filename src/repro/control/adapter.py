"""Protocols between the control core and an execution substrate.

The controller never imports a substrate.  It sees the world through
three structural protocols:

* :class:`PELike` — the narrow per-PE surface every substrate's PE object
  already exposes (the simulator's :class:`~repro.model.pe.PERuntime` and
  the threaded runtime's :class:`~repro.runtime.worker.RuntimePE` both
  satisfy it).  The CPU schedulers in :mod:`repro.core.cpu_control` are
  written against the same protocol.
* :class:`SystemAdapter` — the two substrate operations the Tier-2
  step needs: an occupancy snapshot and grant application, lists in
  record order in and out; the CPU actually used comes back as the
  return value, for the scheduler's ``settle``.
* :class:`MembershipOps` — the three physical membership operations the
  elastic and forecasting tiers actuate through
  (:class:`~repro.control.elastic.ElasticDriver`): join a node, remove
  an empty node, live-migrate PEs.

Keeping the surface this narrow is what makes new substrates cheap: a
sharded or multi-process node subclasses
:class:`~repro.systems.substrate.Substrate`, which wires it through
:class:`~repro.control.wiring.ControlStack`, and inherits all five
control tiers, including every policy and fault-injection hook.
"""

from __future__ import annotations

import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.control.elastic import PlacementVersion
    from repro.control.node import ControlRecord
    from repro.model.params import PEProfile
    from repro.model.sdo import SDO
    from repro.obs.recorder import TraceRecorder

#: gate(pe) -> bool.  Checked before a PE may process; Lock-Step uses it
#: to refuse work while any downstream buffer lacks room.
GateFn = _t.Callable[["PELike"], bool]


class BufferLike(_t.Protocol):
    """Input-buffer observables the control plane and policies read."""

    @property
    def occupancy(self) -> int: ...

    @property
    def free(self) -> int: ...

    @property
    def capacity(self) -> int: ...


class PELike(_t.Protocol):
    """Per-PE protocol shared by every substrate's PE object.

    Attribute semantics (all already documented on the concrete classes):
    ``processing_rate(cpu)`` is the short-horizon rate ``rho_j`` at
    fractional allocation ``cpu``; ``cpu_for_output_rate_now(rate)`` is
    the state-aware inverse ``g^{-1}`` used by the Eq. 8 CPU cap, and
    ``current_service_time`` the per-SDO cost both are built on (the
    Tier-2 step reads it once per PE per tick and derives the two
    itself); ``backlog_work`` estimates queued CPU-seconds, as
    ``work_in_service`` (CPU-seconds left on the SDO being worked on;
    0.0 where the substrate cannot see it) plus occupancy times
    ``mean_work``, the mean per-SDO work ``1 / profile.rate_slope``; and
    ``blocked_last_interval`` reports reactive Lock-Step blocking (a
    substrate that blocks inside the worker, like the threaded runtime,
    simply always returns False); ``ingest(sdo, now)`` offers one SDO
    to the PE's input, as a scripted drive does.
    """

    pe_id: str
    profile: "PEProfile"
    downstream: _t.Sequence["PELike"]
    blocked_last_interval: bool
    #: Fed by a workload source (the admission front end sits here).
    is_ingress: bool
    work_in_service: float
    mean_work: float

    @property
    def buffer(self) -> BufferLike: ...

    @property
    def backlog_work(self) -> float: ...

    @property
    def current_service_time(self) -> float: ...

    def processing_rate(self, cpu: float) -> float: ...

    def cpu_for_output_rate_now(self, rate: float) -> float: ...

    def ingest(self, sdo: "SDO", now: float) -> bool: ...


class SystemAdapter(_t.Protocol):
    """The substrate surface one :class:`NodeController` drives.

    One adapter instance serves all nodes of a system; the controller
    passes its node index and resolved records into every call so the
    adapter does not need per-node state of its own.
    """

    #: Trace bus the controller publishes one ``buffer_occupancy`` row
    #: per PE per snapshot on; the null recorder on a substrate whose
    #: snapshot is not a telemetry sample.
    recorder: "TraceRecorder"

    def snapshot(
        self,
        node_index: int,
        records: _t.Sequence["ControlRecord"],
        now: float,
    ) -> _t.Sequence[float]:
        """Per-PE input-buffer occupancy ``b(n)`` at ``now``, in record
        order.

        This is the one controller observable whose measurement differs
        between substrates (the simulator folds the read into its
        occupancy-integral telemetry; the threaded runtime reads the
        live channel depth).  Taking it twice at one ``now`` must change
        nothing: the step reads it once, before allocation.
        """
        ...

    #: The name the observatory's frozen trace targets patch; ROADMAP
    #: item 1d drops them and this alias with them.
    snapshot_list = snapshot

    def apply_grants(
        self,
        node_index: int,
        records: _t.Sequence["ControlRecord"],
        fractions: _t.Sequence[float],
        now: float,
        dt: float,
    ) -> _t.Sequence[float]:
        """Put this interval's CPU fractions (record order) into effect.

        The substrate executes (or schedules) the granted work and
        returns the CPU-seconds each PE actually consumed, in record
        order, which the caller hands to the scheduler's ``settle`` so
        token balances reflect reality.
        """
        ...


class MembershipOps(_t.Protocol):
    """The physical membership operations one substrate exposes.

    :class:`~repro.control.elastic.ElasticDriver` decides *when* and
    *what*; these three methods do what only the substrate can — create
    or retire the node's execution resources and control loop, hand
    buffered SDOs across, re-wire transport — and call back into the
    driver's ``join`` / ``leave`` / ``migrate`` for the bookkeeping all
    substrates share.  The node count is ``len(plane.groups)``.
    """

    def add_node(self, cpu_capacity: float = 1.0) -> str:
        """Join a fresh empty node and start its control loop; returns
        its node_id."""
        ...

    def remove_node(self, node_index: int) -> str:
        """Remove an *empty* node; returns its node_id."""
        ...

    def migrate_pes(
        self,
        moves: _t.Sequence[_t.Tuple[str, int]],
        reason: str = "migration",
    ) -> _t.Optional["PlacementVersion"]:
        """Live-migrate ``(pe_id, target_node_index)`` moves in one
        epoch; returns the new placement version, or None when every
        move was a no-op."""
        ...
