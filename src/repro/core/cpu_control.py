"""Per-node CPU control (paper Section V-D).

Two schedulers share one interface (:meth:`allocate` / :meth:`settle`):

* :class:`AcesCpuScheduler` — the paper's token-bucket mechanism.  Each PE
  earns tokens at its long-term CPU target ``c̄_j`` (so long-term averages
  are maintained) and may spend accumulated tokens in proportion to its
  input-buffer occupancy, capped by the downstream feedback bound of Eq. 8
  (``c_j(n) <= g_j^{-1}(r_o,j(n))``).

* :class:`StrictProportionalScheduler` — the conventional enforcement the
  baselines use: every interval each PE receives its nominal target, and
  allocation unused by idle (or blocked, for Lock-Step) PEs is redistributed
  among the busy PEs in proportion to their targets, so long-term targets
  are met (paper Section VI, System 3 description).

Allocations are CPU *fractions*; a PE granted ``c`` may perform ``c * dt``
CPU-seconds of work in the interval.  ``settle`` reports back the work
actually performed so token balances reflect reality.  Both travel as
lists in the scheduler's placement (``pes``) order, as do the per-tick
inputs of ``allocate``: a node tick builds no pe_id-keyed mapping.

The schedulers hold no per-PE state of their own.  The control plane
creates each PE's :class:`TokenBucket` once, sized by
:func:`bucket_depth`, and hands the buckets to every epoch's
schedulers.
"""

from __future__ import annotations

import typing as _t
from operator import sub

from repro.obs.recorder import (
    CPU_GRANT,
    NULL_RECORDER,
    TOKEN_GRANT,
    TraceRecorder,
)

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.control.adapter import PELike

_INF = float("inf")


def bucket_depth(target: float, dt: float, intervals: float) -> float:
    """Depth of a Section V-D token bucket: ``intervals`` control
    intervals' fill at the PE's Tier-1 target ``c̄_j``, floored at 1e-9
    so a zero-target PE still has a bucket.

    The one depth rule of both Tier-2 engines, at construction and at
    every target refresh.
    """
    return max(target * dt * intervals, 1e-9)


class TokenBucket:
    """CPU token bucket: fills at ``rate`` CPU-fractions, capped at depth.

    A ``__slots__`` class: one bucket is filled and inspected on every
    control tick of every PE, so instance-dict overhead is measurable.
    """

    __slots__ = ("rate", "depth", "level")

    def __init__(self, rate: float, depth: float, level: float = 0.0):
        self.rate = rate
        self.depth = depth
        self.level = level

    def fill(self, dt: float) -> None:
        self.level = min(self.depth, self.level + self.rate * dt)

    def spend(self, amount: float) -> None:
        if amount > self.level + 1e-9:
            raise ValueError(
                f"overspend: {amount} tokens from a level of {self.level}"
            )
        self.level = max(0.0, self.level - amount)

    def __repr__(self) -> str:
        return (
            f"TokenBucket(rate={self.rate!r}, depth={self.depth!r}, "
            f"level={self.level!r})"
        )


def _fill_order(pes: _t.Sequence["PELike"]) -> _t.List[int]:
    """Positions of ``pes`` in sorted-id order: the visiting order of
    :func:`_proportional_fill`, resolved once per scheduler."""
    return sorted(range(len(pes)), key=lambda k: pes[k].pe_id)


def _proportional_fill(
    demands: _t.Sequence[float],
    weights: _t.Sequence[float],
    budget: float,
    order: _t.Sequence[int],
) -> _t.List[float]:
    """Distribute ``budget`` proportionally to weights, capped by demands.

    Iterative water-filling: saturated consumers drop out and their share
    is re-divided among the rest.  Work-conserving with respect to the
    demand vector.  Demands, weights and the returned grants are
    positional; consumers are visited in ``order`` (:func:`_fill_order`,
    sorted ids) so the floating-point accumulation (and therefore every
    downstream result) is deterministic.
    """
    grants = [0.0] * len(demands)
    # (position, weight floored at 1e-12) of every consumer with demand.
    active = [
        (k, 1e-12 if weights[k] < 1e-12 else weights[k])
        for k in order
        if demands[k] > 1e-12
    ]
    remaining = budget
    while active and remaining > 1e-12:
        total_weight = 0.0
        for _, floor in active:
            total_weight += floor
        scale = remaining / total_weight
        distributed = 0.0
        unsaturated = []
        for entry in active:
            k, floor = entry
            share = scale * floor
            headroom = demands[k] - grants[k]
            if share < headroom:
                grants[k] += share
                distributed += share
                unsaturated.append(entry)
            else:
                grants[k] += headroom
                distributed += headroom
        remaining -= distributed
        if len(unsaturated) == len(active):
            break
        active = unsaturated
    return grants


class AcesCpuScheduler:
    """Token-bucket CPU scheduler with Eq. 8 caps (the ACES mechanism).

    Parameters
    ----------
    pes:
        PE runtimes resident on this node.
    buckets:
        pe_id -> the PE's token bucket, filling at its Tier-1 target
        ``c̄_j``; the plane's one map, which outlives this scheduler.
    capacity:
        Node CPU capacity (1.0 normalized).

    Tracing: after :meth:`attach_tracing`, every :meth:`allocate` publishes
    one ``token_bucket`` and one ``cpu_grant`` event per resident PE, as
    one :data:`~repro.obs.recorder.TOKEN_GRANT` row batch.
    """

    #: Trace bus + node identity; overridden by :meth:`attach_tracing`.
    recorder: TraceRecorder = NULL_RECORDER
    node_id: str = ""
    #: Cached ``recorder.enabled`` so the per-tick fast path is a single
    #: attribute load (set by :meth:`attach_tracing`).
    _recording: bool = False

    def __init__(
        self,
        pes: _t.Sequence["PELike"],
        buckets: _t.Mapping[str, TokenBucket],
        capacity: float = 1.0,
    ):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.pes = list(pes)
        self.capacity = capacity
        #: The buckets in placement (``pes``) order, the order
        #: :meth:`allocate` and :meth:`settle` take their inputs in.
        self.buckets = [buckets[pe.pe_id] for pe in self.pes]
        self._order = _fill_order(self.pes)

    def allocate(
        self,
        dt: float,
        output_rate_caps: _t.Sequence[float],
        occupancies: _t.Sequence[float],
        service_times: _t.Sequence[float],
    ) -> _t.List[float]:
        """Compute this interval's CPU fractions.

        Every sequence, and the returned list, is in placement
        (``pes``) order.

        Parameters
        ----------
        dt:
            Interval length.
        output_rate_caps:
            Per-PE output-rate bound from downstream feedback (Eq. 8);
            +inf means unconstrained.
        occupancies:
            Per-PE input-buffer occupancy ``b(n)``, as snapshotted for
            this interval.
        service_times:
            Per-PE cost of one SDO in the PE's current state
            (``current_service_time``), the ``T_S`` of ``g^{-1}``.

        Returns
        -------
        list
            CPU fractions with ``sum <= capacity``.
        """
        capacity = self.capacity
        budget = capacity * dt
        demands = []
        capped_work = []
        weights = []
        for pe, bucket, cap_rate, occupancy, service_time in zip(
            self.pes, self.buckets, output_rate_caps, occupancies,
            service_times,
        ):
            # Inlined bucket.fill(dt): this is the per-tick fast path.
            level = bucket.level + bucket.rate * dt
            if level > bucket.depth:
                level = bucket.depth
            bucket.level = level

            if cap_rate == _INF:
                cpu_cap = capacity
            else:
                # State-aware inverse g^{-1} (cpu_for_output_rate_now):
                # a slow-state PE gets enough CPU to still deliver the
                # rate its consumers advertised.
                cpu_cap = (
                    0.0 if cap_rate <= 0
                    else (cap_rate / pe.profile.lambda_m) * service_time
                )
                if not cpu_cap < capacity:
                    cpu_cap = capacity

            # Bucket levels are CPU-seconds; demand is CPU-seconds too.
            backlog = pe.work_in_service + occupancy * pe.mean_work
            work_needed = cpu_cap * dt
            if not work_needed < backlog:
                work_needed = backlog
            capped_work.append(work_needed if work_needed > 0.0 else 0.0)
            demand = level if level < work_needed else work_needed
            demands.append(demand if demand > 0.0 else 0.0)
            # Occupancy-proportional spending (Section V-D); the +partial
            # term keeps a PE with in-flight work schedulable at occupancy 0.
            weights.append(
                occupancy + (1.0 if backlog > 0 and occupancy == 0 else 0.0)
            )

        order = self._order
        grants = _proportional_fill(demands, weights, budget, order)

        # Work conservation: capacity the token-limited round left over
        # goes to backlogged PEs regardless of their token balances
        # (still under the Eq. 8 caps), as a real node's OS scheduler
        # would hand it out and as the paper grants the baselines.
        leftover = budget - sum(grants)
        if leftover > 1e-12:
            extra = _proportional_fill(
                [
                    unmet if unmet > 0.0 else 0.0
                    for unmet in map(sub, capped_work, grants)
                ],
                weights,
                leftover,
                order,
            )
            grants = [grant + more for grant, more in zip(grants, extra)]

        fractions = [grant / dt for grant in grants]
        if self._recording:
            # The Eq. 8 bound each PE was capped under rides along so
            # invariant oracles can re-derive g^{-1}(r_o,j) independently.
            self.recorder.emit_rows(
                TOKEN_GRANT,
                self.node_id,
                [
                    (pe.pe_id, bucket.level, bucket.rate, bucket.depth,
                     cpu, dt, None if cap_rate == _INF else cap_rate)
                    for pe, bucket, cpu, cap_rate in zip(
                        self.pes, self.buckets, fractions,
                        output_rate_caps,
                    )
                ],
            )
        return fractions

    def attach_tracing(
        self, recorder: TraceRecorder, node_id: str
    ) -> None:
        """Bind the trace bus and this scheduler's node identity."""
        self.recorder = recorder
        self.node_id = node_id
        self._recording = recorder.enabled

    def settle(self, cpu_seconds_used: _t.Sequence[float]) -> None:
        """Charge tokens for work actually performed (CPU-seconds per
        PE, in placement order)."""
        for bucket, used in zip(self.buckets, cpu_seconds_used):
            # bucket.spend(min(level, used)), inlined: the min makes
            # spend's overspend check unreachable, and spending the
            # whole level leaves exactly 0.0.
            level = bucket.level
            if used < level:
                level -= used
                bucket.level = level if level > 0.0 else 0.0
            else:
                bucket.level = 0.0


class StrictProportionalScheduler:
    """Baseline CPU enforcement: nominal targets + busy-PE redistribution."""

    #: Trace bus + node identity; overridden by :meth:`attach_tracing`.
    recorder: TraceRecorder = NULL_RECORDER
    node_id: str = ""
    #: Cached ``recorder.enabled`` (set by :meth:`attach_tracing`).
    _recording: bool = False

    def __init__(
        self,
        pes: _t.Sequence["PELike"],
        cpu_targets: _t.Mapping[str, float],
        capacity: float = 1.0,
    ):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.pes = list(pes)
        self.capacity = capacity
        self._order = _fill_order(self.pes)
        self.update_targets(cpu_targets)

    def allocate(
        self,
        dt: float,
        blocked: _t.Optional[_t.Sequence[bool]] = None,
    ) -> _t.List[float]:
        """Grant targets to runnable PEs; redistribute the rest.

        ``blocked`` flags, in placement (``pes``) order like the
        returned fractions, the PEs that cannot run this interval
        (Lock-Step sleepers); their share is redistributed among runnable
        busy PEs in proportion to the targets, matching the paper's
        System 3.
        """
        demands = []
        for k, pe in enumerate(self.pes):
            if blocked is not None and blocked[k]:
                demands.append(0.0)
                continue
            # Read once: on the threaded runtime the channel can drain
            # between two reads.
            backlog = pe.backlog_work
            demands.append(backlog if backlog > 0 else 0.0)

        grants = _proportional_fill(
            demands, self._weights, self.capacity * dt, self._order
        )
        fractions = [grant / dt for grant in grants]
        if self._recording:
            self.recorder.emit_rows(
                CPU_GRANT,
                self.node_id,
                [(pe.pe_id, cpu, dt) for pe, cpu in zip(self.pes, fractions)],
            )
        return fractions

    def attach_tracing(
        self, recorder: TraceRecorder, node_id: str
    ) -> None:
        """Bind the trace bus and this scheduler's node identity."""
        self.recorder = recorder
        self.node_id = node_id
        self._recording = recorder.enabled

    def settle(self, cpu_seconds_used: _t.Sequence[float]) -> None:
        """No token accounting in the strict scheduler."""

    def update_targets(self, cpu_targets: _t.Mapping[str, float]) -> None:
        """Adopt refreshed Tier-1 targets."""
        self.targets = {
            pe.pe_id: float(cpu_targets.get(pe.pe_id, 0.0))
            for pe in self.pes
        }
        #: The targets in placement order: the water-fill weights.
        self._weights = list(self.targets.values())
