"""Array-backed Tier-2 control tick (the vectorized engine).

The scalar :class:`~repro.control.node.NodeController` runs the paper's
per-node control step — Eq. 8 feedback aggregation, Section V-D CPU
allocation, Eq. 7 LQR flow update — as per-PE Python loops.  At paper
scale (80 nodes / 200 PEs) that loop is ~58% of wall time; multiplied
x10-x100 it dominates everything.  This module re-expresses the *same*
step as contiguous-array operations:

* :class:`PEIndexRegistry` assigns every PE a dense integer index once,
  at wiring time (node-major placement order); an epoch only regroups
  which indices each node selects.
* :class:`VectorEngine` owns the flat per-PE state arrays — token
  levels/depths, Eq. 7 deviation and surplus histories, Tier-1 CPU
  targets (which are also the token fill rates and the strict
  weights), buffer capacities, rate-model coefficients — and computes
  an entire tick for a group of nodes (one node, or a whole phase
  bucket) with numpy kernels.  Eq. 8 feedback goes through the plane's
  one :class:`~repro.core.feedback.FeedbackBus`: one batch read and one
  batch publish per tick group.
* The plane's one :class:`~repro.control.node.NodeController` class
  runs a vector plane's nodes too, handing its step to the engine.
  Two views stand where scalar objects would: :class:`VectorNodeView`
  in a node's scheduler slot (capacity, PEs, tracing identity,
  ``settle``) and :class:`VectorFlowView` in a PE's flow-controller
  slot.

Bit-exactness contract
----------------------
Every kernel reproduces the scalar implementation's floating-point
operations *in the same order*: order-sensitive reductions (the
water-fill weight totals, the work-conserving leftover sums) run as
column loops over node-major 2D arrays in the scalar iteration order,
while element-wise math relies on IEEE-754 f64 ops being identical in
numpy and CPython.  The differential tests in
``tests/test_control_vector.py`` hold scalar and vector decision
sequences bit-equal across policies and substrates.
"""

from __future__ import annotations

import typing as _t

import numpy as np

from repro.control.node import ControlRecord, occupancy_rows
from repro.core.cpu_control import bucket_depth
from repro.obs.recorder import (
    BUFFER_OCCUPANCY,
    CPU_GRANT,
    NULL_RECORDER,
    R_MAX,
    TOKEN_GRANT,
    TraceRecorder,
)

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.control.adapter import SystemAdapter
    from repro.control.plane import ControlPlane, NodeGroup
    from repro.core.lqr import LQRGains

_INF = float("inf")

__all__ = [
    "PEIndexRegistry",
    "VectorEngine",
    "VectorFlowView",
    "VectorNodeView",
    "vector_proportional_fill",
]


class PEIndexRegistry:
    """Dense integer indices for every PE, assigned once at wiring time.

    Indexing is node-major in the construction placement: node 0's PEs
    get the first indices, node 1's the next, and so on.  The PE set is
    fixed for the life of a plane (nodes join empty, migrations only
    move PEs), so an index is as stable a key as the pe_id.  What an
    epoch changes is each node's selection, set by :meth:`regroup`.
    """

    def __init__(self, groups: _t.Sequence["NodeGroup"]):
        self.index: _t.Dict[str, int] = {}
        for group in groups:
            for pe in group.pes:
                self.index[pe.pe_id] = len(self.index)
        self.size = len(self.index)
        self.node_sel: _t.List[_t.Union[slice, _t.Any]] = []

    def __len__(self) -> int:
        return self.size

    def regroup(self, groups: _t.Sequence["NodeGroup"]) -> None:
        """Each node's selection of the flat arrays, in record order: a
        slice while its PEs hold consecutive indices (always, until a
        migration), otherwise an index array."""
        index = self.index
        self.node_sel = []
        stop = 0
        for group in groups:
            pes = group.pes
            start = index[pes[0].pe_id] if pes else stop
            if all(index[pe.pe_id] == start + k for k, pe in enumerate(pes)):
                stop = start + len(pes)
                self.node_sel.append(slice(start, stop))
            else:
                self.node_sel.append(np.array(
                    [index[pe.pe_id] for pe in pes], dtype=np.int64
                ))

    def select(
        self, node_indices: _t.Sequence[int]
    ) -> _t.Union[slice, _t.Any]:
        """The nodes' selections joined in node order: one slice when
        they are adjacent slices, otherwise an index array."""
        sels = [self.node_sel[i] for i in node_indices]
        if not sels:
            return np.zeros(0, dtype=np.int64)
        if all(isinstance(s, slice) for s in sels) and all(
            a.stop == b.start for a, b in zip(sels, sels[1:])
        ):
            return slice(sels[0].start, sels[-1].stop)
        return np.concatenate([
            np.arange(s.start, s.stop, dtype=np.int64)
            if isinstance(s, slice) else s
            for s in sels
        ])


def _fill_rounds(
    demands: _t.Any, weights: _t.Any, budget: _t.Any, mask: _t.Any
) -> _t.Any:
    """Water-fill ``budget`` per row, proportional to weights, capped by
    demands — many independent nodes at once.

    Rows are nodes, columns are that node's PEs *in sorted-id order*
    (the scalar ``_proportional_fill`` iteration order).  Per-row
    accumulations run as column loops so the float-addition sequence
    matches the scalar loop exactly; dead lanes contribute ``+0.0``,
    an exact identity for the non-negative partial sums involved.
    """
    grants = np.zeros_like(demands)
    floors = np.maximum(weights, 1e-12)
    alive = mask & (demands > 1e-12)
    remaining = np.asarray(budget, dtype=np.float64).copy()
    on = (remaining > 1e-12) & alive.any(axis=1)
    cols = demands.shape[1]
    rows = demands.shape[0]
    while on.any():
        total = np.zeros(rows)
        for j in range(cols):
            total = total + np.where(alive[:, j] & on, floors[:, j], 0.0)
        scale = np.where(
            on, remaining / np.where(total > 0.0, total, 1.0), 0.0
        )
        saturated = np.zeros(rows, dtype=np.int64)
        distributed = np.zeros(rows)
        for j in range(cols):
            lane = alive[:, j] & on
            share = scale * floors[:, j]
            headroom = demands[:, j] - grants[:, j]
            sat = lane & ~(share < headroom)
            give = np.where(lane, np.where(sat, headroom, share), 0.0)
            grants[:, j] += give
            distributed += give
            alive[:, j] &= ~sat
            saturated += sat
        remaining -= np.where(on, distributed, 0.0)
        on = on & (saturated > 0) & (remaining > 1e-12) & alive.any(axis=1)
    return grants


def vector_proportional_fill(
    demands: _t.Sequence[float],
    weights: _t.Sequence[float],
    budget: float,
    order: _t.Sequence[int],
) -> _t.List[float]:
    """Single-node wrapper over the vector water-fill, with the
    positional signature of the scalar ``_proportional_fill``.

    Exists for the property tests: drives the same `_fill_rounds`
    kernel the engine uses and must agree bit-exactly with the scalar
    ``_proportional_fill``.
    """
    if not order:
        return []
    d2 = np.array([[float(demands[k]) for k in order]], dtype=np.float64)
    w2 = np.array([[float(weights[k]) for k in order]], dtype=np.float64)
    mask = np.ones((1, len(order)), dtype=bool)
    g2 = _fill_rounds(d2, w2, np.array([float(budget)]), mask)
    grants = [0.0] * len(order)
    for j, k in enumerate(order):
        grants[k] = float(g2[0, j])
    return grants


class VectorFlowView:
    """Per-PE facade over the engine's Eq. 7 state arrays.

    Exposes exactly what the rest of the system reads from a
    :class:`~repro.core.flow_control.FlowController`: ``last_r_max``,
    ``updates``, ``gains``, ``b0``, ``capacity``, ``pe_id``, ``reset``.
    """

    __slots__ = ("_engine", "_index", "pe_id")

    def __init__(self, engine: "VectorEngine", index: int, pe_id: str):
        self._engine = engine
        self._index = index
        self.pe_id = pe_id

    @property
    def gains(self) -> "LQRGains":
        gains = self._engine.gains
        assert gains is not None
        return gains

    @property
    def b0(self) -> float:
        return self._engine.b0_value

    @property
    def capacity(self) -> float:
        return float(self._engine.buf_cap[self._index])

    @property
    def last_r_max(self) -> float:
        return float(self._engine.flow_last[self._index])

    @property
    def updates(self) -> int:
        return int(self._engine.flow_updates[self._index])

    def reset(self) -> None:
        """Clear this PE's histories (mirrors FlowController.reset)."""
        engine = self._engine
        i = self._index
        engine.dev_hist[:, i] = 0.0
        engine.sur_hist[:, i] = 0.0
        engine.flow_last[i] = 0.0

    def __repr__(self) -> str:
        return (
            f"VectorFlowView(b0={self.b0}, "
            f"last_r_max={self.last_r_max:.2f})"
        )


class VectorNodeView:
    """One node's scheduler slot on a vector plane.

    Holds what the plane, the oracles and fault injection read of a
    node's scheduler: the mutable ``capacity`` knob, the resident
    ``pes``, the tracing identity and :meth:`settle`.  Allocation itself
    happens inside :meth:`VectorEngine.control_group`, and Tier-1
    targets live once, in the engine (:meth:`VectorEngine.adopt_targets`).
    """

    recorder: TraceRecorder = NULL_RECORDER
    node_id: str = ""
    _recording: bool = False

    def __init__(
        self,
        engine: "VectorEngine",
        node_index: int,
        pes: _t.Sequence[_t.Any],
        capacity: float,
    ):
        self._engine = engine
        self._node_index = node_index
        self.pes = list(pes)
        self.capacity = capacity

    def attach_tracing(self, recorder: TraceRecorder, node_id: str) -> None:
        """Bind the trace bus and this node's identity."""
        self.recorder = recorder
        self.node_id = node_id
        self._recording = recorder.enabled

    def settle(self, cpu_seconds_used: _t.Sequence[float]) -> None:
        """Charge tokens for work actually performed (CPU-seconds per
        resident PE, in placement order); a no-op without tokens."""
        engine = self._engine
        engine.settle(
            engine.registry.node_sel[self._node_index], cpu_seconds_used
        )

    def __repr__(self) -> str:
        return f"VectorNodeView(node={self.node_id!r}, pes={len(self.pes)})"


class _TickGroup:
    """Cached index geometry for one set of live nodes ticked together.

    Everything here is a function of the node-index tuple only, so one
    group is built per distinct live set (normally one per phase bucket,
    plus degraded variants while nodes are paused) and reused every tick.
    """

    def __init__(self, engine: "VectorEngine", indices: _t.Tuple[int, ...]):
        plane = engine.plane
        self.indices = indices
        self.controllers = [plane.node_controllers[i] for i in indices]
        self.views = [plane.schedulers[i] for i in indices]
        self.records: _t.List[ControlRecord] = []
        for controller in self.controllers:
            self.records.extend(controller.records)
        self.pe_ids = [record.pe_id for record in self.records]
        #: Each PE's deduplicated consumers: the Eq. 8 read's groups.
        self.downstream = [record.downstream_ids for record in self.records]
        #: The group's PEs in the flat state arrays, in record order.
        self.sel: _t.Union[slice, _t.Any] = engine.registry.select(indices)

        #: PEs per node, for cutting a flat per-PE list back into nodes.
        self.sizes = [len(c.records) for c in self.controllers]
        counts = np.array(self.sizes, dtype=np.int64)
        self.counts = counts
        self.rows = len(indices)
        self.total = int(counts.sum())
        self.cols = int(counts.max()) if self.rows and self.total else 1
        starts = np.zeros(self.rows, dtype=np.int64)
        if self.rows > 1:
            starts[1:] = np.cumsum(counts)[:-1]
        self.starts = starts
        arange_cols = np.arange(self.cols, dtype=np.int64)
        self.mask = arange_cols[None, :] < counts[:, None]
        pos2d = starts[:, None] + arange_cols[None, :]
        self.safe_pos = np.where(self.mask, pos2d, 0)

        # Water-fill lane order: per node, sorted pe_id (the scalar
        # _proportional_fill visiting order).
        order: _t.List[int] = []
        base = 0
        for controller in self.controllers:
            ids = [record.pe_id for record in controller.records]
            order.extend(
                base + k
                for k in sorted(range(len(ids)), key=ids.__getitem__)
            )
            base += len(ids)
        self.sorted_flat = np.array(order, dtype=np.int64)
        # A group of PE-less nodes has no lanes to permute (and an empty
        # sorted_flat cannot be indexed, even masked).
        self.sorted_safe_pos = (
            np.where(self.mask, self.sorted_flat[self.safe_pos], 0)
            if self.total
            else np.zeros_like(self.safe_pos)
        )


class VectorEngine:
    """Owns the flat control-state arrays and the fused tick kernels.

    One engine per :class:`~repro.control.plane.ControlPlane` in vector
    mode, built once with the plane.  Token depths come from
    :func:`~repro.core.cpu_control.bucket_depth` and levels start half
    full, as the scalar plane's buckets do, so both match bit-for-bit.
    The Tier-1 targets are one array, ``cpu_target``: the Eq. 7 rho
    floor, the token fill rates and the strict water-fill weights
    alike.  The state arrays are never reallocated: an epoch only
    regroups each node's selection of them (:meth:`regroup`).
    """

    def __init__(
        self,
        plane: "ControlPlane",
        gains: _t.Optional["LQRGains"],
    ):
        self.plane = plane
        self.adapter: "SystemAdapter" = plane.adapter
        self.registry = registry = PEIndexRegistry(plane.groups)
        self.dt = plane.dt
        self.uses_feedback = plane.uses_feedback
        self.aggregate_max = plane.aggregate_max

        flat_pes = [pe for group in plane.groups for pe in group.pes]
        size = registry.size
        self.lambda_m = np.array(
            [pe.profile.lambda_m for pe in flat_pes], dtype=np.float64
        )
        self.t0_service = np.array(
            [pe.profile.t0 for pe in flat_pes], dtype=np.float64
        )
        self.t1_service = np.array(
            [pe.profile.t1 for pe in flat_pes], dtype=np.float64
        )
        self.buf_cap = np.array(
            [float(pe.buffer.capacity) for pe in flat_pes], dtype=np.float64
        )
        # Per-SDO mean work, precomputed so backlog_work can be rebuilt
        # from the raw ``work_in_service`` attribute as array math
        # (bit-equal: same 1/slope constant, same mul-then-add order).
        self.mean_work = np.array(
            [1.0 / pe.profile.rate_slope for pe in flat_pes],
            dtype=np.float64,
        )
        self.cpu_target = np.array(
            [plane.targets.cpu.get(pe.pe_id, 0.0) for pe in flat_pes],
            dtype=np.float64,
        )
        # A bucket's rate and a strict scheduler's target are the PE's
        # cpu_target.
        self.depth_intervals = plane.token_depth_intervals
        self.is_aces = self.depth_intervals is not None
        if self.is_aces:
            self.tok_depth = self._depths(self.cpu_target.tolist())
            self.tok_level = self.tok_depth * 0.5

        self.gains = gains
        if self.uses_feedback:
            assert gains is not None
            self._lambdas = tuple(gains.lambdas)
            self._mus = tuple(gains.mus)
            self._flow_dt = float(gains.dt)
            self.b0_value = float(plane.b0)
            for pe in flat_pes:
                cap = pe.buffer.capacity
                if self.b0_value < 0 or self.b0_value > cap:
                    raise ValueError(
                        f"b0={self.b0_value} outside [0, {cap}]"
                    )
            history = len(self._lambdas)
            surplus_len = max(len(self._mus), 1)
            self.dev_hist = np.zeros((history, size), dtype=np.float64)
            self.sur_hist = np.zeros((surplus_len, size), dtype=np.float64)
        else:
            self._lambdas = ()
            self._mus = ()
            self._flow_dt = float(plane.dt)
            self.b0_value = float(plane.b0)
            self.dev_hist = None
            self.sur_hist = None
        self.flow_last = np.zeros(size, dtype=np.float64)
        self.flow_updates = np.zeros(size, dtype=np.int64)

        #: Tick groups over the plane's current node controllers and
        #: scheduler views, emptied by :meth:`regroup`.
        self._groups: _t.Dict[_t.Tuple[int, ...], _TickGroup] = {}

    # -- wiring ------------------------------------------------------------

    def regroup(self) -> None:
        """Follow the plane's current groups.

        Called by the plane at construction and at every epoch boundary,
        before it builds that epoch's node controllers and views:
        recomputes each node's selection and empties the tick-group
        cache.  No per-PE state is touched.
        """
        self.registry.regroup(self.plane.groups)
        self._groups = {}

    def group_for(self, indices: _t.Tuple[int, ...]) -> _TickGroup:
        group = self._groups.get(indices)
        if group is None:
            group = _TickGroup(self, indices)
            self._groups[indices] = group
        return group

    def adopt_targets(self, cpu: _t.Mapping[str, float]) -> None:
        """Install refreshed Tier-1 targets: the fill rates, and with
        them the bucket depths, clamping levels to the new depth with
        :meth:`ControlPlane.adopt_targets`'s comparison so banked CPU
        survives a refresh bit-for-bit."""
        target = self.cpu_target
        target[:] = [cpu.get(pe_id, 0.0) for pe_id in self.registry.index]
        if self.is_aces:
            depth = self._depths(target.tolist())
            self.tok_depth[:] = depth
            level = self.tok_level
            level[:] = np.where(depth < level, depth, level)

    def _depths(self, targets: _t.Sequence[float]) -> _t.Any:
        """:func:`~repro.core.cpu_control.bucket_depth` of each target."""
        dt, intervals = self.dt, self.depth_intervals
        assert intervals is not None
        return np.array(
            [bucket_depth(target, dt, intervals) for target in targets],
            dtype=np.float64,
        )

    # -- the fused tick ----------------------------------------------------

    def control_group(
        self, group: _TickGroup, now: float
    ) -> _t.List[_t.List[float]]:
        """Run the Tier-2 decision step for every node in the group.

        Returns one list of CPU fractions per node, in record order
        (what the scalar :meth:`NodeController.control` returns); grant
        application stays with the callers so decide-then-apply
        ordering is identical in both implementations.
        """
        if group.total == 0:
            return [[] for _ in group.controllers]
        if self.uses_feedback:
            fractions = self._control_feedback(group, now)
        else:
            fractions = self._control_gated(group, now)
        flat = fractions.tolist()
        out = []
        base = 0
        for size in group.sizes:
            out.append(flat[base:base + size])
            base += size
        return out

    def settle(
        self,
        sel: _t.Union[slice, _t.Any],
        cpu_seconds_used: _t.Sequence[float],
    ) -> None:
        """Charge the selected PEs' tokens for work actually performed.

        ``sel`` is a node's slice or a tick group's selection, with
        ``cpu_seconds_used`` in the same order.  Bit-equal to
        ``bucket.spend(min(bucket.level, used))`` per PE.
        """
        if not self.is_aces:
            return
        level = self.tok_level[sel]
        used = np.asarray(cpu_seconds_used, dtype=np.float64)
        left = level - np.where(used < level, used, level)
        self.tok_level[sel] = np.where(left > 0.0, left, 0.0)

    # -- feedback policies (ACES + ablations) ------------------------------

    def _control_feedback(self, group: _TickGroup, now: float) -> _t.Any:
        dt = self.dt
        # The plane's bus, looked up every tick so fault-injection swaps
        # take effect: one batch read and one batch publish per group,
        # through the scalar tick's two entry points.
        bus = self.plane.bus
        caps = np.array(
            bus.read_bounds(group.downstream, now, self.aggregate_max),
            dtype=np.float64,
        )
        # One state read serves both the g^{-1} bound and rho below:
        # nothing executes between the two scalar reads, so the values
        # are identical by construction.
        st = self._service_time(group)
        if self.is_aces:
            fractions = self._allocate_tokens(group, caps, dt, st)
        else:
            fractions = self._allocate_strict_feedback(group, dt)
        self._emit_grants(group, fractions, caps, dt)
        occ_f, occ_raw = self._snapshot(group, now)
        cpu_target = self.cpu_target[group.sel]
        cpu_eff = np.where(fractions < cpu_target, cpu_target, fractions)
        rho = cpu_eff / st
        r_maxes = self._flow_update(group, occ_f, rho).tolist()
        if self.plane.recorder.enabled:
            self.plane.recorder.emit_rows(
                R_MAX,
                None,
                list(zip(group.pe_ids, r_maxes, occ_raw, rho.tolist())),
            )
        # Node-then-record order, so per-message side effects of a
        # wrapper (loss and jitter draws) are the scalar tick's.
        bus.publish_rows(group.pe_ids, r_maxes, now)
        return fractions

    def _service_time(self, group: _TickGroup) -> _t.Any:
        states = np.fromiter(
            (record.pe.machine.state for record in group.records),
            dtype=np.int64,
            count=group.total,
        )
        sel = group.sel
        return np.where(states == 1, self.t1_service[sel], self.t0_service[sel])

    def _allocate_tokens(
        self, group: _TickGroup, caps: _t.Any, dt: float, st: _t.Any
    ) -> _t.Any:
        sel = group.sel
        level = self.tok_level[sel] + self.cpu_target[sel] * dt
        depth = self.tok_depth[sel]
        level = np.where(level > depth, depth, level)
        self.tok_level[sel] = level

        # g^{-1}(r): 0 at r<=0, (r/lambda_m)*T_S otherwise; +inf caps
        # propagate to +inf and vanish under the capacity min below.
        g_inv = np.where(
            caps <= 0.0, 0.0, (caps / self.lambda_m[sel]) * st
        )
        cap_node = np.array(
            [view.capacity for view in group.views], dtype=np.float64
        )
        cap_pe = np.repeat(cap_node, group.counts)
        cpu_cap = np.minimum(cap_pe, g_inv)

        backlog, occ = self._backlog_occ(group)
        work_needed = np.minimum(backlog, cpu_cap * dt)
        capped_work = np.where(work_needed > 0.0, work_needed, 0.0)
        demands = np.minimum(work_needed, level)
        demands = np.where(demands > 0.0, demands, 0.0)
        weights = occ + np.where((backlog > 0.0) & (occ == 0.0), 1.0, 0.0)

        budget = cap_node * dt
        grants = self._fill_flat(group, demands, weights, budget)
        # Work conservation, as in AcesCpuScheduler.allocate.
        leftover = budget - self._node_sums(group, grants)
        extra_demands = capped_work - grants
        extra_demands = np.where(extra_demands > 0.0, extra_demands, 0.0)
        extra = self._fill_flat(
            group,
            extra_demands,
            weights,
            np.where(leftover > 1e-12, leftover, 0.0),
        )
        return (grants + extra) / dt

    def _allocate_strict_feedback(
        self, group: _TickGroup, dt: float
    ) -> _t.Any:
        sel = group.sel
        backlog, _ = self._backlog_occ(group)
        demands = np.where(backlog > 0.0, backlog, 0.0)
        weights = self.cpu_target[sel]
        cap_node = np.array(
            [view.capacity for view in group.views], dtype=np.float64
        )
        grants = self._fill_flat(group, demands, weights, cap_node * dt)
        return grants / dt

    # -- gated (non-feedback) policies -------------------------------------

    def _control_gated(self, group: _TickGroup, now: float) -> _t.Any:
        dt = self.dt
        sel = group.sel
        blocked_flags = np.zeros(group.total, dtype=bool)
        base = 0
        for controller in group.controllers:
            blocked: _t.Set[str] = set()
            for k, record in enumerate(controller.records):
                pe = record.pe
                if pe.blocked_last_interval:
                    gate = record.gate
                    if gate is None or gate(pe):
                        pe.blocked_last_interval = False
                    else:
                        blocked.add(record.pe_id)
                        blocked_flags[base + k] = True
            controller.last_blocked = frozenset(blocked)
            base += len(controller.records)
        backlog, _ = self._backlog_occ(group)
        runnable = ~blocked_flags & (backlog > 0.0)
        demands = np.where(runnable, backlog, 0.0)
        weights = self.cpu_target[sel]
        cap_node = np.array(
            [view.capacity for view in group.views], dtype=np.float64
        )
        grants = self._fill_flat(group, demands, weights, cap_node * dt)
        fractions = grants / dt
        self._emit_grants(group, fractions, None, dt)
        return fractions

    # -- shared kernels ----------------------------------------------------

    def _backlog_occ(self, group: _TickGroup) -> _t.Tuple[_t.Any, _t.Any]:
        """``backlog_work`` and occupancy for the group, one pass each.

        Rebuilds the ``backlog_work`` property (``work_in_service +
        occupancy / rate_slope``) from raw attribute reads plus the
        precomputed ``mean_work`` array — same constant, same
        mul-then-add order, so the result is bit-equal to the scalar
        property while skipping its per-PE Python arithmetic.
        """
        occ = np.fromiter(
            (record.pe.buffer.occupancy for record in group.records),
            dtype=np.float64,
            count=group.total,
        )
        in_service = np.fromiter(
            (record.pe.work_in_service for record in group.records),
            dtype=np.float64,
            count=group.total,
        )
        return in_service + occ * self.mean_work[group.sel], occ

    def _fill_flat(
        self,
        group: _TickGroup,
        demands: _t.Any,
        weights: _t.Any,
        budget: _t.Any,
    ) -> _t.Any:
        d2 = np.where(group.mask, demands[group.sorted_safe_pos], 0.0)
        w2 = np.where(group.mask, weights[group.sorted_safe_pos], 0.0)
        g2 = _fill_rounds(d2, w2, budget, group.mask)
        flat = np.zeros(group.total, dtype=np.float64)
        flat[group.sorted_flat] = g2[group.mask]
        return flat

    def _node_sums(self, group: _TickGroup, flat: _t.Any) -> _t.Any:
        """Per-node sums in placement order (the scalar ``sum()`` order)."""
        vals2 = np.where(group.mask, flat[group.safe_pos], 0.0)
        total = np.zeros(group.rows)
        for j in range(group.cols):
            total = total + vals2[:, j]
        return total

    def _snapshot(
        self, group: _TickGroup, now: float
    ) -> _t.Tuple[_t.Any, _t.List[_t.Any]]:
        """Occupancies via the adapter, node by node.

        Returns both the float64 array (for the Eq. 7 math) and the raw
        per-PE values (ints on both substrates) so r_max trace events
        carry exactly what the scalar path emits.
        """
        raw: _t.List[_t.Any] = []
        snapshot = self.adapter.snapshot
        samples = self.adapter.recorder
        for controller in group.controllers:
            records = controller.records
            occupancies = snapshot(controller.node_index, records, now)
            if samples.enabled:
                samples.emit_rows(
                    BUFFER_OCCUPANCY, None,
                    occupancy_rows(records, occupancies),
                )
            raw.extend(occupancies)
        occ_f = np.array(raw, dtype=np.float64)
        if np.any(occ_f < 0.0):
            bad = occ_f.min()
            raise ValueError(f"occupancy must be >= 0, got {bad}")
        return occ_f, raw

    def _flow_update(
        self, group: _TickGroup, occ: _t.Any, rho: _t.Any
    ) -> _t.Any:
        """Eq. 7 for the whole group, bit-equal to FlowController.update."""
        sel = group.sel
        assert self.dev_hist is not None and self.sur_hist is not None
        dev = np.array(self.dev_hist[:, sel])
        for k in range(dev.shape[0] - 1, 0, -1):
            dev[k] = dev[k - 1]
        dev[0] = occ - self.b0_value
        sur = np.array(self.sur_hist[:, sel])

        r = rho.copy()
        for k, lam in enumerate(self._lambdas):
            r = r - lam * dev[k]
        for lag, mu in enumerate(self._mus):
            r = r - mu * sur[lag]
        r = np.where(r < 0.0, 0.0, r)
        free = self.buf_cap[sel] - occ
        free = np.where(free < 0.0, 0.0, free)
        ceiling = free / self._flow_dt + rho
        r = np.where(r > ceiling, ceiling, r)

        for lag in range(sur.shape[0] - 1, 0, -1):
            sur[lag] = sur[lag - 1]
        sur[0] = r - rho
        self.dev_hist[:, sel] = dev
        self.sur_hist[:, sel] = sur
        self.flow_last[sel] = r
        self.flow_updates[sel] += 1
        return r

    def _emit_grants(
        self,
        group: _TickGroup,
        fractions: _t.Any,
        caps: _t.Optional[_t.Any],
        dt: float,
    ) -> _t.Any:
        """Trace events per node in the scalar emission order."""
        base = 0
        for view, controller in zip(group.views, group.controllers):
            records = controller.records
            if view._recording:
                stop = base + len(records)
                ids = group.pe_ids[base:stop]
                cpus = fractions[base:stop].tolist()
                dts = (dt,) * len(records)
                if self.is_aces and caps is not None:
                    gi = self.registry.node_sel[controller.node_index]
                    view.recorder.emit_rows(
                        TOKEN_GRANT,
                        view.node_id,
                        list(zip(
                            ids,
                            self.tok_level[gi].tolist(),
                            self.cpu_target[gi].tolist(),
                            self.tok_depth[gi].tolist(),
                            cpus,
                            dts,
                            [
                                None if cap_rate == _INF else cap_rate
                                for cap_rate in caps[base:stop].tolist()
                            ],
                        )),
                    )
                else:
                    view.recorder.emit_rows(
                        CPU_GRANT, view.node_id, list(zip(ids, cpus, dts))
                    )
            base += len(records)
