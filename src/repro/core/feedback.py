"""Upstream feedback propagation of ``r_max`` (paper Eq. 8, Section V-E).

Each PE publishes its maximum sustainable input rate; a producer reads the
*maximum* over its consumers' published rates — the max-flow policy: produce
fast enough for your fastest consumer, let slower consumers' buffers police
themselves.

The bus models the distributed reality of the algorithm: values become
visible only after a configurable propagation delay (default one control
interval), and readers always see the most recent *visible* value, exactly
like the paper's "most recent updates on the maximum input rates received"
(Section V-E).  Nodes ticking at unsynchronized offsets therefore read
slightly stale values, which is part of what the stability analysis must
tolerate.

Graceful degradation: the original bus trusted a published value forever,
so a consumer whose publications stop (controller outage, message loss)
kept advertising its last — possibly wildly optimistic — rate.  With a
``staleness_ttl``, a value unheard-from for that long *decays* to 0 —
assume the silent consumer can absorb nothing — until a fresh
publication arrives; each decay episode publishes one ``feedback_stale``
trace event.
"""

from __future__ import annotations

import typing as _t
from bisect import insort

from repro.obs.recorder import NULL_RECORDER, TraceRecorder

_INF = float("inf")


def _drop_superseded(
    pending: _t.List[_t.Tuple[float, float]], now: float
) -> None:
    """Drop the in-flight entries no read from ``now`` on can return.

    ``pending`` is visible_at-ordered with at least two entries visible
    by ``now``; a read folds the ripe prefix down to its last entry, so
    every ripe entry but the last is already superseded.  Publishing
    PEs nobody reads (ingress PEs) would otherwise grow their list by
    one entry per tick for the whole run.
    """
    ripe = 2
    while ripe < len(pending) and pending[ripe][0] <= now:
        ripe += 1
    del pending[:ripe - 1]


class FeedbackBus:
    """Shared (but asynchronously updated) r_max blackboard.

    Parameters
    ----------
    delay:
        Propagation delay in seconds before a published value becomes
        visible to readers.  Zero models an idealized instantaneous network.
    staleness_ttl:
        When set, a value not refreshed for this long is no longer
        trusted: reads return 0 instead until a fresh publication
        becomes visible.  ``None`` (default) preserves the original
        trust-forever behavior.
    recorder:
        Optional trace bus; each stale *transition* (fresh -> stale)
        publishes one ``feedback_stale`` event for the affected PE.
    """

    def __init__(
        self,
        delay: float = 0.0,
        staleness_ttl: _t.Optional[float] = None,
        recorder: _t.Optional[TraceRecorder] = None,
    ):
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        if staleness_ttl is not None and staleness_ttl <= 0:
            raise ValueError(
                f"staleness_ttl must be positive, got {staleness_ttl}"
            )
        self.delay = delay
        self.staleness_ttl = staleness_ttl
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self._current: _t.Dict[str, float] = {}
        #: Time each current value became visible (for staleness checks).
        self._freshened_at: _t.Dict[str, float] = {}
        #: PEs currently in a stale episode (so the event fires once).
        self._stale: _t.Set[str] = set()
        #: Per-PE in-flight publications as (visible_at, value) tuples,
        #: visible_at-ordered (publications are append-ordered in time, but
        #: per-message extra delay/jitter can reorder them — see publish).
        self._pending: _t.Dict[str, _t.List[_t.Tuple[float, float]]] = {}
        self.publishes = 0
        #: Number of reads answered with 0 because the value was stale.
        self.stale_reads = 0

    def publish(
        self, pe_id: str, r_max: float, now: float, extra_delay: float = 0.0
    ) -> None:
        """Announce PE ``pe_id``'s maximum sustainable input rate.

        ``extra_delay`` adds per-message propagation delay on top of the
        bus-wide :attr:`delay` (fault injection models network jitter and
        congestion this way).
        """
        if r_max < 0:
            raise ValueError(f"{pe_id}: r_max must be >= 0, got {r_max}")
        if extra_delay < 0:
            raise ValueError(
                f"{pe_id}: extra_delay must be >= 0, got {extra_delay}"
            )
        self.publishes += 1
        if self.delay == 0.0 and extra_delay == 0.0:
            self._current[pe_id] = r_max
            self._freshened_at[pe_id] = now
            self._stale.discard(pe_id)
            return
        pending = self._pending.get(pe_id)
        if pending is None:
            pending = self._pending[pe_id] = []
        elif len(pending) > 1 and pending[1][0] <= now:
            _drop_superseded(pending, now)
        visible_at = now + self.delay + extra_delay
        if pending and pending[-1][0] > visible_at:
            # Jittered message overtaking an in-flight one: keep the list
            # visible_at-ordered so _settle's ripe-prefix scan stays valid.
            insort(pending, (visible_at, r_max))
        else:
            pending.append((visible_at, r_max))

    def publish_rows(
        self,
        pe_ids: _t.Sequence[str],
        r_maxes: _t.Sequence[float],
        now: float,
    ) -> None:
        """One node tick's publications: :meth:`publish` for each PE in
        order, without per-message extra delay."""
        immediate = self.delay == 0.0
        visible_at = now + self.delay
        pending_of = self._pending
        stale = self._stale
        for pe_id, r_max in zip(pe_ids, r_maxes):
            if r_max < 0:
                raise ValueError(f"{pe_id}: r_max must be >= 0, got {r_max}")
            self.publishes += 1
            if immediate:
                self._current[pe_id] = r_max
                self._freshened_at[pe_id] = now
                if stale:
                    stale.discard(pe_id)
                continue
            pending = pending_of.get(pe_id)
            if pending is None:
                pending_of[pe_id] = [(visible_at, r_max)]
                continue
            if len(pending) > 1 and pending[1][0] <= now:
                _drop_superseded(pending, now)
            if pending and pending[-1][0] > visible_at:
                insort(pending, (visible_at, r_max))
            else:
                pending.append((visible_at, r_max))

    def _settle(self, pe_id: str, now: float) -> None:
        pending = self._pending.get(pe_id)
        if not pending:
            return
        # Entries are visible_at-ordered; count the ripe prefix instead of
        # building filtered copies (this runs per consumer per tick).
        ripe = 0
        for visible_at, _ in pending:
            if visible_at > now:
                break
            ripe += 1
        if ripe:
            self._current[pe_id] = pending[ripe - 1][1]
            self._freshened_at[pe_id] = pending[ripe - 1][0]
            self._stale.discard(pe_id)
            del pending[:ripe]

    def _check_staleness(
        self, pe_id: str, value: float, now: float
    ) -> float:
        """Decay a value past its TTL to 0 (absorbs nothing)."""
        ttl = self.staleness_ttl
        if ttl is None:
            return value
        age = now - self._freshened_at.get(pe_id, now)
        if age <= ttl:
            return value
        self.stale_reads += 1
        if pe_id not in self._stale:
            self._stale.add(pe_id)
            if self.recorder.enabled:
                self.recorder.emit(
                    "feedback_stale",
                    pe=pe_id,
                    age=age,
                    ttl=ttl,
                    last_value=value,
                )
        return 0.0

    def latest(self, pe_id: str, now: float) -> _t.Optional[float]:
        """Most recent visible r_max for ``pe_id`` (None if never heard).

        With a :attr:`staleness_ttl`, a value older than the TTL is
        reported as 0 instead.
        """
        self._settle(pe_id, now)
        value = self._current.get(pe_id)
        if value is None:
            return None
        return self._check_staleness(pe_id, value, now)

    def max_downstream_rate(
        self, downstream_ids: _t.Sequence[str], now: float
    ) -> float:
        """Eq. 8: the producer's output-rate bound.

        ``max{r_max,i : i in D(p_j)}`` over the visible values.  Egress PEs
        (empty downstream set) and consumers that have not yet published
        are unconstrained (+inf) — before the first feedback arrives the
        system behaves optimistically, and the controller reins it in.
        """
        return self.read_bounds((downstream_ids,), now, True)[0]

    def read_bounds(
        self,
        groups: _t.Sequence[_t.Sequence[str]],
        now: float,
        aggregate_max: bool,
    ) -> _t.List[float]:
        """Eq. 8 for all of a node's producers in one call: the bound
        of each downstream-id group, :meth:`max_downstream_rate`'s with
        ``aggregate_max`` and :meth:`min_downstream_rate`'s without.

        Every consumer is read as :meth:`latest` reads it (ripe
        publications folded in, staleness decay applied), up to the
        max-flow early exit on a consumer never heard from.
        """
        current_get = self._current.get
        pending_get = self._pending.get
        stale = self._stale
        check = (
            None if self.staleness_ttl is None else self._check_staleness
        )
        bounds = []
        for downstream_ids in groups:
            bound = -_INF if aggregate_max and downstream_ids else _INF
            for pe_id in downstream_ids:
                pending = pending_get(pe_id)
                if pending and pending[0][0] <= now:
                    # _settle's ripe-prefix fold.
                    ripe = 1
                    while ripe < len(pending) and pending[ripe][0] <= now:
                        ripe += 1
                    visible_at, value = pending[ripe - 1]
                    self._current[pe_id] = value
                    self._freshened_at[pe_id] = visible_at
                    if stale:
                        stale.discard(pe_id)
                    del pending[:ripe]
                else:
                    value = current_get(pe_id)
                    if value is None:
                        if aggregate_max:
                            bound = _INF
                            break
                        continue
                if check is not None:
                    value = check(pe_id, value, now)
                if aggregate_max:
                    if value > bound:
                        bound = value
                elif value < bound:
                    bound = value
            bounds.append(bound)
        return bounds

    def min_downstream_rate(
        self, downstream_ids: _t.Sequence[str], now: float
    ) -> float:
        """The min-flow variant (ablation: ACES control + min-flow policy)."""
        return self.read_bounds((downstream_ids,), now, False)[0]
