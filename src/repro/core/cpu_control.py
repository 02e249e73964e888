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
actually performed so token balances reflect reality.
"""

from __future__ import annotations

import typing as _t

from repro.obs.recorder import (
    CPU_GRANT,
    NULL_RECORDER,
    TOKEN_GRANT,
    TraceRecorder,
)

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.control.adapter import PELike

_INF = float("inf")


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


def _proportional_fill(
    demands: _t.Dict[str, float],
    weights: _t.Dict[str, float],
    budget: float,
) -> _t.Dict[str, float]:
    """Distribute ``budget`` proportionally to weights, capped by demands.

    Iterative water-filling: saturated consumers drop out and their share
    is re-divided among the rest.  Work-conserving with respect to the
    demand vector.  Consumers are visited in sorted-id order so the
    floating-point accumulation (and therefore every downstream result)
    is deterministic.
    """
    grants = {pe_id: 0.0 for pe_id in demands}
    # Stable iteration order once, instead of re-sorting every round.
    active = sorted(
        pe_id for pe_id, demand in demands.items() if demand > 1e-12
    )
    floors = {pe_id: max(weights[pe_id], 1e-12) for pe_id in active}
    remaining = budget
    while active and remaining > 1e-12:
        total_weight = 0.0
        for pe_id in active:
            total_weight += floors[pe_id]
        scale = remaining / total_weight
        saturated = 0
        distributed = 0.0
        for index, pe_id in enumerate(active):
            share = scale * floors[pe_id]
            headroom = demands[pe_id] - grants[pe_id]
            if share < headroom:
                grants[pe_id] += share
                distributed += share
            else:
                grants[pe_id] += headroom
                distributed += headroom
                active[index] = None  # type: ignore[call-overload]
                saturated += 1
        remaining -= distributed
        if not saturated:
            break
        active = [pe_id for pe_id in active if pe_id is not None]
    return grants


class AcesCpuScheduler:
    """Token-bucket CPU scheduler with Eq. 8 caps (the ACES mechanism).

    Parameters
    ----------
    pes:
        PE runtimes resident on this node.
    cpu_targets:
        Long-term targets ``c̄_j`` (token fill rates), from Tier 1.
    capacity:
        Node CPU capacity (1.0 normalized).
    bucket_depth_intervals:
        Token accumulation cap, expressed in multiples of ``c̄_j * dt``
        per control interval — how much unused allocation a PE may bank.
    dt:
        Control interval length (needed to size the bucket depth).

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
        cpu_targets: _t.Mapping[str, float],
        capacity: float = 1.0,
        bucket_depth_intervals: float = 20.0,
        dt: float = 0.01,
        work_conserving: bool = True,
    ):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.pes = list(pes)
        self.capacity = capacity
        self.dt = dt
        self._depth_intervals = bucket_depth_intervals
        #: When True, capacity left over after the token-limited round is
        #: re-distributed among backlogged PEs regardless of their token
        #: balances (still under the Eq. 8 caps).  This mirrors how a real
        #: node's work-conserving OS scheduler behaves and matches the
        #: redistribution the paper grants the baselines; the strict
        #: variant is kept for the ablation benchmark.
        self.work_conserving = work_conserving
        self.buckets: _t.Dict[str, TokenBucket] = {}
        for pe in self.pes:
            target = float(cpu_targets.get(pe.pe_id, 0.0))
            depth = max(target * dt * bucket_depth_intervals, 1e-9)
            self.buckets[pe.pe_id] = TokenBucket(
                rate=target, depth=depth, level=depth * 0.5
            )
        #: (pe, bucket) pairs resolved once; :meth:`allocate` runs every
        #: control interval and must not pay per-tick dict lookups.
        self._pairs: _t.List[_t.Tuple["PELike", TokenBucket]] = [
            (pe, self.buckets[pe.pe_id]) for pe in self.pes
        ]

    def allocate(
        self,
        dt: float,
        output_rate_caps: _t.Mapping[str, float],
    ) -> _t.Dict[str, float]:
        """Compute this interval's CPU fractions.

        Parameters
        ----------
        dt:
            Interval length.
        output_rate_caps:
            Per-PE output-rate bound from downstream feedback (Eq. 8);
            missing or +inf entries mean unconstrained.

        Returns
        -------
        dict
            ``pe_id -> cpu fraction`` with ``sum <= capacity``.
        """
        capacity = self.capacity
        budget = capacity * dt
        caps_get = output_rate_caps.get
        demands: _t.Dict[str, float] = {}
        capped_work: _t.Dict[str, float] = {}
        weights: _t.Dict[str, float] = {}
        # The Eq. 8 bound each PE was capped under, kept only while
        # recording so invariant oracles can re-derive g^{-1}(r_o,j)
        # independently; the disarmed hot path never builds it.
        caps_trace: _t.Optional[_t.List[_t.Optional[float]]] = (
            [] if self._recording else None
        )
        for pe, bucket in self._pairs:
            # Inlined bucket.fill(dt): this is the per-tick fast path.
            level = bucket.level + bucket.rate * dt
            if level > bucket.depth:
                level = bucket.depth
            bucket.level = level

            pe_id = pe.pe_id
            cap_rate = caps_get(pe_id, _INF)
            if caps_trace is not None:
                caps_trace.append(None if cap_rate == _INF else cap_rate)
            if cap_rate == _INF:
                cpu_cap = capacity
            else:
                # State-aware inverse g^{-1}: a slow-state PE gets enough
                # CPU to still deliver the rate its consumers advertised.
                cpu_cap = min(
                    capacity, pe.cpu_for_output_rate_now(cap_rate)
                )

            # Bucket levels are CPU-seconds; demand is CPU-seconds too.
            backlog = pe.backlog_work
            work_needed = min(backlog, cpu_cap * dt)
            capped_work[pe_id] = max(0.0, work_needed)
            demands[pe_id] = max(0.0, min(work_needed, level))
            # Occupancy-proportional spending (Section V-D); the +partial
            # term keeps a PE with in-flight work schedulable at occupancy 0.
            occupancy = pe.buffer.occupancy
            weights[pe_id] = occupancy + (
                1.0 if backlog > 0 and occupancy == 0 else 0.0
            )

        grants = _proportional_fill(demands, weights, budget)

        if self.work_conserving:
            leftover = budget - sum(grants.values())
            if leftover > 1e-12:
                extra_demands = {
                    pe_id: max(0.0, capped_work[pe_id] - grants[pe_id])
                    for pe_id in grants
                }
                extra = _proportional_fill(extra_demands, weights, leftover)
                for pe_id, grant in extra.items():
                    grants[pe_id] += grant

        fractions = {pe_id: grant / dt for pe_id, grant in grants.items()}
        if caps_trace is not None:
            self.recorder.emit_rows(
                TOKEN_GRANT,
                self.node_id,
                [
                    (pe.pe_id, bucket.level, bucket.rate, bucket.depth,
                     fractions[pe.pe_id], dt, cap_rate)
                    for (pe, bucket), cap_rate in zip(self._pairs, caps_trace)
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

    def settle(self, pe_id: str, cpu_seconds_used: float, dt: float) -> None:
        """Charge tokens for work actually performed (CPU-seconds)."""
        bucket = self.buckets[pe_id]
        bucket.spend(min(bucket.level, cpu_seconds_used))

    def token_level(self, pe_id: str) -> float:
        return self.buckets[pe_id].level

    def coefficient_arrays(
        self,
    ) -> _t.Dict[str, _t.List[_t.Any]]:
        """Bucket state as parallel lists in placement (``pes``) order.

        The array-backed control engine (:mod:`repro.control.vector`)
        seeds its contiguous token arrays from here instead of walking
        per-PE bucket objects; values are the exact floats the scalar
        path would use.
        """
        rates, depths, levels, ids = [], [], [], []
        for pe in self.pes:
            bucket = self.buckets[pe.pe_id]
            ids.append(pe.pe_id)
            rates.append(bucket.rate)
            depths.append(bucket.depth)
            levels.append(bucket.level)
        return {
            "pe_ids": ids, "rates": rates, "depths": depths,
            "levels": levels,
        }

    def update_targets(self, cpu_targets: _t.Mapping[str, float]) -> None:
        """Adopt refreshed Tier-1 targets (periodic re-optimization).

        Fill rates and depths change; accumulated balances are preserved
        up to the new depth so a refresh does not confiscate banked CPU.
        """
        for pe in self.pes:
            bucket = self.buckets[pe.pe_id]
            target = float(cpu_targets.get(pe.pe_id, 0.0))
            bucket.rate = target
            bucket.depth = max(
                target * self.dt * self._depth_intervals, 1e-9
            )
            bucket.level = min(bucket.level, bucket.depth)


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
        self.targets = {
            pe.pe_id: float(cpu_targets.get(pe.pe_id, 0.0)) for pe in pes
        }

    def allocate(
        self,
        dt: float,
        blocked: _t.Optional[_t.Set[str]] = None,
    ) -> _t.Dict[str, float]:
        """Grant targets to runnable PEs; redistribute the rest.

        ``blocked`` marks PEs that cannot run this interval (Lock-Step
        sleepers); their share is redistributed among runnable busy PEs in
        proportion to the targets, matching the paper's System 3.
        """
        blocked = blocked or set()
        demands: _t.Dict[str, float] = {}
        weights: _t.Dict[str, float] = {}
        for pe in self.pes:
            runnable = pe.pe_id not in blocked and pe.backlog_work > 0
            demands[pe.pe_id] = pe.backlog_work if runnable else 0.0
            weights[pe.pe_id] = self.targets[pe.pe_id]

        grants = _proportional_fill(demands, weights, self.capacity * dt)
        fractions = {pe_id: grant / dt for pe_id, grant in grants.items()}
        if self._recording:
            self.recorder.emit_rows(
                CPU_GRANT,
                self.node_id,
                [(pe.pe_id, fractions[pe.pe_id], dt) for pe in self.pes],
            )
        return fractions

    def attach_tracing(
        self, recorder: TraceRecorder, node_id: str
    ) -> None:
        """Bind the trace bus and this scheduler's node identity."""
        self.recorder = recorder
        self.node_id = node_id
        self._recording = recorder.enabled

    def settle(self, pe_id: str, cpu_seconds_used: float, dt: float) -> None:
        """No token accounting in the strict scheduler."""

    def coefficient_arrays(
        self,
    ) -> _t.Dict[str, _t.List[_t.Any]]:
        """Target state as parallel lists in placement (``pes``) order.

        Counterpart of :meth:`AcesCpuScheduler.coefficient_arrays` for
        the array-backed control engine.
        """
        ids = [pe.pe_id for pe in self.pes]
        return {
            "pe_ids": ids,
            "targets": [self.targets[pe_id] for pe_id in ids],
        }

    def update_targets(self, cpu_targets: _t.Mapping[str, float]) -> None:
        """Adopt refreshed Tier-1 targets."""
        self.targets = {
            pe.pe_id: float(cpu_targets.get(pe.pe_id, 0.0))
            for pe in self.pes
        }
