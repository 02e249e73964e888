"""Control-plane degradation guards (graceful degradation, not crashes).

The paper's self-stabilization claim is only as strong as the control
plane that implements it.  Three guards let the reproduction keep serving
when that control plane itself misbehaves:

* :class:`ResilientTier1` — wraps :func:`repro.core.global_opt.
  solve_global_allocation` with *sanity validation* of the returned
  targets (finite, non-negative, per-node Σc̄ ≤ the node's capacity)
  and a last-known-good fallback: when the solve fails, the previous
  targets stay installed and one ``tier1_fallback`` trace event is
  published instead of the run crashing.  The solver is deterministic,
  so a solve is one attempt: a retry could not change its outcome.
* :class:`LossyFeedbackBus` — a fault-injection wrapper over
  :class:`~repro.core.feedback.FeedbackBus` that drops each publication
  with a configurable probability and/or stretches its propagation delay
  (multiplier + uniform jitter).  Reads pass through unchanged, so the
  staleness-TTL guard in the underlying bus is what absorbs the loss.
* :func:`validate_targets` — the standalone target sanity check, usable
  anywhere targets cross a trust boundary.

The staleness-TTL guard itself lives in :class:`repro.core.feedback.
FeedbackBus` (``staleness_ttl``).
"""

from __future__ import annotations

import math
import typing as _t

from repro.core.feedback import FeedbackBus
from repro.core.global_opt import (
    GlobalOptimizationResult,
    solve_global_allocation,
)
from repro.core.targets import AllocationTargets
from repro.obs.recorder import NULL_RECORDER, TraceRecorder

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.dag import ProcessingGraph
    from repro.graph.placement import Placement

#: Σc̄ per node may exceed its capacity by at most this much (solver
#: round-off).
_NODE_CAPACITY_TOLERANCE = 1e-6


class Tier1Unavailable(RuntimeError):
    """The solve failed and no last-known-good targets exist."""


def validate_targets(
    targets: AllocationTargets,
    placement: _t.Optional[_t.Mapping[str, int]] = None,
    capacities: _t.Optional[_t.Sequence[float]] = None,
) -> _t.List[str]:
    """Sanity-check allocation targets; returns problems (empty = valid).

    Checks, in the paper's terms: every ``c̄_j`` and rate is finite and
    non-negative, and (when a placement is given) Eq. 4 holds — the CPU
    shares on each node sum to at most its capacity (``capacities`` by
    node index; None: every node 1.0).
    """
    problems: _t.List[str] = []
    for label, mapping in (
        ("cpu", targets.cpu),
        ("rate_in", targets.rate_in),
        ("rate_out", targets.rate_out),
    ):
        for pe_id, value in mapping.items():
            if not math.isfinite(value):
                problems.append(f"{label}[{pe_id}] is not finite: {value!r}")
            elif value < 0:
                problems.append(f"{label}[{pe_id}] is negative: {value}")
    if placement is not None:
        node_totals: _t.Dict[int, float] = {}
        for pe_id, share in targets.cpu.items():
            if pe_id in placement and math.isfinite(share):
                node = placement[pe_id]
                node_totals[node] = node_totals.get(node, 0.0) + share
        for node, total in sorted(node_totals.items()):
            capacity = 1.0 if capacities is None else capacities[node]
            if total > capacity + _NODE_CAPACITY_TOLERANCE:
                problems.append(
                    f"node {node} overcommitted: sum(cpu) = {total:.6f} "
                    f"> {capacity}"
                )
    return problems


class ResilientTier1:
    """Validate + last-known-good wrapper around the Tier-1 solver.

    A solve is one attempt: :func:`solve_global_allocation` is
    deterministic, so repeating a failed solve on the same inputs cannot
    change its outcome.

    Parameters
    ----------
    solver:
        The underlying solve function (defaults to
        :func:`solve_global_allocation`); injectable for tests.
    recorder:
        Trace bus for ``tier1_fallback`` events.
    """

    def __init__(
        self,
        solver: _t.Callable[..., GlobalOptimizationResult] = (
            solve_global_allocation
        ),
        recorder: _t.Optional[TraceRecorder] = None,
    ):
        self.solver = solver
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        #: Most recent validated solve result (the fallback source).
        self.last_good: _t.Optional[GlobalOptimizationResult] = None
        #: Fault hook: when set, called before each solve; raising from
        #: it simulates a solver outage (see FaultPlan.tier1_outage).
        self.inject_failure: _t.Optional[_t.Callable[[], None]] = None
        self.solves = 0
        self.fallbacks = 0

    def seed(self, targets: AllocationTargets) -> None:
        """Install externally supplied targets as the last-known-good."""
        self.last_good = GlobalOptimizationResult(
            targets=targets,
            objective=float("nan"),
            solver="seeded",
            iterations=0,
            converged=True,
            max_violation=0.0,
            messages=["seeded from externally supplied targets"],
        )

    def solve(
        self,
        graph: "ProcessingGraph",
        placement: "Placement",
        source_rates: _t.Mapping[str, float],
        reason: str = "resolve",
        capacities: _t.Optional[_t.Sequence[float]] = None,
    ) -> GlobalOptimizationResult:
        """Solve and validate; fall back to last-known-good on failure.

        ``capacities`` are the nominal node capacities by node index
        (None: every node 1.0); the solve plans within them and the
        validation checks against them.  Raises :class:`Tier1Unavailable`
        only when the solve failed *and* no previous good result exists.
        """
        self.solves += 1
        try:
            if self.inject_failure is not None:
                self.inject_failure()
            result = self.solver(
                graph,
                placement,
                source_rates,
                recorder=self.recorder,
                reason=reason,
                capacities=capacities,
            )
            problems = validate_targets(result.targets, placement, capacities)
            if problems:
                raise ValueError(
                    "tier1 targets failed validation: "
                    + "; ".join(problems[:3])
                )
        except Exception as error:  # noqa: BLE001 — any solver failure
            failure: BaseException = error
        else:
            self.last_good = result
            return result

        self.fallbacks += 1
        if self.recorder.enabled:
            self.recorder.emit(
                "tier1_fallback",
                reason=reason,
                error=repr(failure),
                have_last_good=self.last_good is not None,
            )
        if self.last_good is None:
            raise Tier1Unavailable(
                f"tier1 solve failed with no last-known-good targets "
                f"({failure!r})"
            )
        last = self.last_good
        return GlobalOptimizationResult(
            targets=last.targets,
            objective=last.objective,
            solver=f"fallback({last.solver})",
            iterations=0,
            converged=False,
            max_violation=last.max_violation,
            messages=list(last.messages)
            + [f"fallback to last-known-good after {failure!r}"],
        )


class LossyFeedbackBus:
    """Fault-injection wrapper dropping/delaying feedback publications.

    Delegates every read to the wrapped bus; :meth:`publish` drops each
    message with probability ``loss_probability`` and stretches the
    bus-wide propagation delay of the survivors by ``delay_multiplier``
    plus ``Uniform(0, jitter)`` extra seconds.  Installed and removed by
    :class:`repro.systems.faults.FaultInjector` around the fault window.
    """

    def __init__(
        self,
        inner: FeedbackBus,
        rng: _t.Any,
        loss_probability: float = 0.0,
        delay_multiplier: float = 1.0,
        jitter: float = 0.0,
    ):
        if not 0.0 <= loss_probability <= 1.0:
            raise ValueError(
                f"loss_probability must lie in [0, 1], got {loss_probability}"
            )
        if delay_multiplier < 1.0:
            raise ValueError(
                f"delay_multiplier must be >= 1, got {delay_multiplier}"
            )
        if jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {jitter}")
        self.inner = inner
        self.rng = rng
        self.loss_probability = loss_probability
        self.delay_multiplier = delay_multiplier
        self.jitter = jitter
        self.lost = 0

    def publish(self, pe_id: str, r_max: float, now: float) -> None:
        if self.loss_probability and (
            self.rng.random() < self.loss_probability
        ):
            self.lost += 1
            return
        extra = (self.delay_multiplier - 1.0) * self.inner.delay
        if self.jitter:
            extra += float(self.rng.random()) * self.jitter
        self.inner.publish(pe_id, r_max, now, extra_delay=extra)

    def publish_rows(
        self,
        pe_ids: _t.Sequence[str],
        r_maxes: _t.Sequence[float],
        now: float,
    ) -> None:
        # Message by message through :meth:`publish`, in order, so loss
        # and jitter draws are those of per-PE publication.  Defined
        # here because __getattr__ would hand the batch to the wrapped
        # bus and skip the fault.
        for pe_id, r_max in zip(pe_ids, r_maxes):
            self.publish(pe_id, r_max, now)

    def __getattr__(self, name: str) -> _t.Any:
        # Reads (read_bounds, latest, ...) and counters/config
        # (publishes, delay, staleness_ttl, ...) fall through to the
        # wrapped bus.
        return getattr(self.inner, name)
