"""Tests for the token-bucket and strict CPU schedulers."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.control.plane import make_token_buckets
from repro.core.cpu_control import (
    AcesCpuScheduler,
    StrictProportionalScheduler,
    TokenBucket,
    _fill_order,
    _proportional_fill,
)
from repro.model.params import PEProfile
from repro.model.pe import PERuntime
from repro.model.sdo import SDO

INF = float("inf")


def make_pe(pe_id, buffered=0, t0=0.002, t1=0.002, **kwargs):
    pe = PERuntime(
        PEProfile(pe_id=pe_id, t0=t0, t1=t1, lambda_s=0.0, **kwargs),
        buffer_capacity=100,
        rng=np.random.default_rng(0),
    )
    for i in range(buffered):
        pe.ingest(SDO(stream_id="s", origin_time=0.0), 0.0)
    return pe


def token_scheduler(pes, targets, capacity=1.0, dt=0.01, depth=20.0):
    """An ``AcesCpuScheduler`` over buckets made as a control plane
    makes them, ``depth`` intervals of fill deep."""
    return AcesCpuScheduler(
        pes, make_token_buckets(pes, targets, dt, depth), capacity
    )


def token_levels(scheduler):
    return [bucket.level for bucket in scheduler.buckets]


def allocate(scheduler, dt, caps=None):
    """``AcesCpuScheduler.allocate`` as a node tick calls it, with caps
    given by pe_id; returns ``pe_id -> cpu fraction``."""
    caps = caps or {}
    pes = scheduler.pes
    fractions = scheduler.allocate(
        dt,
        [caps.get(pe.pe_id, INF) for pe in pes],
        [pe.buffer.occupancy for pe in pes],
        [pe.current_service_time for pe in pes],
    )
    return {pe.pe_id: cpu for pe, cpu in zip(pes, fractions)}


def fill(demands, weights, budget):
    """``_proportional_fill`` over pe_id-keyed dicts (visited in sorted-id
    order, as every scheduler does)."""
    keys = list(demands)
    grants = _proportional_fill(
        [demands[k] for k in keys],
        [weights[k] for k in keys],
        budget,
        sorted(range(len(keys)), key=keys.__getitem__),
    )
    return dict(zip(keys, grants))


class TestTokenBucket:
    def test_fill_caps_at_depth(self):
        bucket = TokenBucket(rate=1.0, depth=0.5, level=0.4)
        bucket.fill(1.0)
        assert bucket.level == 0.5

    def test_spend_reduces_level(self):
        bucket = TokenBucket(rate=1.0, depth=1.0, level=0.5)
        bucket.spend(0.2)
        assert bucket.level == pytest.approx(0.3)

    def test_overspend_rejected(self):
        bucket = TokenBucket(rate=1.0, depth=1.0, level=0.1)
        with pytest.raises(ValueError):
            bucket.spend(0.5)


class TestProportionalFill:
    def test_splits_by_weight(self):
        grants = fill(
            {"a": 10.0, "b": 10.0}, {"a": 1.0, "b": 3.0}, 4.0
        )
        assert grants["a"] == pytest.approx(1.0)
        assert grants["b"] == pytest.approx(3.0)

    def test_caps_at_demand_and_redistributes(self):
        grants = fill(
            {"a": 0.5, "b": 10.0}, {"a": 1.0, "b": 1.0}, 4.0
        )
        assert grants["a"] == pytest.approx(0.5)
        assert grants["b"] == pytest.approx(3.5)

    def test_budget_not_exceeded(self):
        grants = fill(
            {"a": 100.0, "b": 100.0}, {"a": 1.0, "b": 2.0}, 1.0
        )
        assert sum(grants.values()) == pytest.approx(1.0)

    def test_zero_demand_gets_nothing(self):
        grants = fill(
            {"a": 0.0, "b": 5.0}, {"a": 10.0, "b": 1.0}, 2.0
        )
        assert grants["a"] == 0.0
        assert grants["b"] == pytest.approx(2.0)

    def test_empty_inputs(self):
        assert fill({}, {}, 1.0) == {}

    def test_zero_weights_still_serve_demand(self):
        grants = fill(
            {"a": 1.0, "b": 1.0}, {"a": 0.0, "b": 0.0}, 1.0
        )
        assert sum(grants.values()) == pytest.approx(1.0)


class TestAcesCpuScheduler:
    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            token_scheduler([], {}, capacity=0.0)

    def test_allocations_respect_node_capacity(self):
        pes = [make_pe("a", buffered=50), make_pe("b", buffered=50)]
        scheduler = token_scheduler(pes, {"a": 0.5, "b": 0.5})
        allocations = allocate(scheduler, 0.01)
        assert sum(allocations.values()) <= 1.0 + 1e-9

    def test_idle_pe_gets_nothing(self):
        pes = [make_pe("a", buffered=0), make_pe("b", buffered=50)]
        scheduler = token_scheduler(pes, {"a": 0.5, "b": 0.5})
        allocations = allocate(scheduler, 0.01)
        assert allocations["a"] == 0.0
        assert allocations["b"] > 0.0

    def test_occupancy_weighting_favours_congested(self):
        pes = [make_pe("a", buffered=5), make_pe("b", buffered=50)]
        # Give both big targets so tokens aren't binding.
        scheduler = token_scheduler(
            pes, {"a": 0.5, "b": 0.5}, capacity=0.2, depth=1000.0
        )
        allocations = allocate(scheduler, 0.01)
        assert allocations["b"] > allocations["a"]

    def test_eq8_cap_bounds_allocation(self):
        pe = make_pe("a", buffered=100)
        scheduler = token_scheduler([pe], {"a": 1.0})
        # Output cap 100 SDO/s at t=2 ms and lambda_m=1 -> cpu cap 0.2.
        allocations = allocate(scheduler, 0.01, {"a": 100.0})
        assert allocations["a"] <= 0.2 + 1e-9

    def test_zero_cap_blocks_pe(self):
        pe = make_pe("a", buffered=100)
        scheduler = token_scheduler([pe], {"a": 1.0})
        allocations = allocate(scheduler, 0.01, {"a": 0.0})
        assert allocations["a"] == 0.0

    def test_work_conserving_round_uses_leftover(self):
        # 'a' is token-poor (tiny target) but has lots of work; with
        # work conservation it should receive most of the node.
        pe = make_pe("a", buffered=100)
        scheduler = token_scheduler([pe], {"a": 0.01})
        allocations = allocate(scheduler, 0.01)
        assert allocations["a"] > 0.5

    def test_settle_spends_tokens(self):
        pe = make_pe("a", buffered=100)
        scheduler = token_scheduler([pe], {"a": 0.5})
        [before] = token_levels(scheduler)
        scheduler.settle([before / 2])
        assert token_levels(scheduler) == [pytest.approx(before / 2)]

    def test_long_term_average_tracks_target_under_contention(self):
        """Two always-busy PEs with unequal targets split the node 50/50
        in occupancy terms but tokens keep long-term shares near targets
        when both are equally backlogged and capacity is scarce — the
        Section V contract between Tier 1 and Tier 2, on the scheduler
        every ACES node runs, with shallow and deep buckets."""
        for depth in (5.0, 20.0):
            totals = run_backlogged({"a": 0.2, "b": 0.8}, depth)
            share_a = totals["a"] / (totals["a"] + totals["b"])
            assert share_a == pytest.approx(0.2, abs=0.05)

    @pytest.mark.parametrize(
        "targets",
        [{"a": 0.1, "b": 0.4}, {"a": 0.05, "b": 0.6, "c": 0.1}],
    )
    def test_slack_capacity_goes_to_backlogged_pes(self, targets):
        """Targets that leave slack: every always-backlogged PE still
        gets at least its target on the long run, and the node hands out
        its whole capacity."""
        ticks, dt = 500, 0.01
        totals = run_backlogged(targets, 20.0, ticks, dt)
        for pe_id, target in targets.items():
            assert totals[pe_id] / (ticks * dt) >= target
        assert sum(totals.values()) == pytest.approx(ticks * dt)


def run_backlogged(targets, depth, ticks=500, dt=0.01):
    """CPU-seconds granted to each of a set of always-backlogged PEs on
    one capacity-1 node over ``ticks`` intervals, tokens settled."""
    pes = [make_pe(pe_id, buffered=100) for pe_id in targets]
    scheduler = token_scheduler(pes, targets, dt=dt, depth=depth)
    totals = dict.fromkeys(targets, 0.0)
    for _ in range(ticks):
        allocations = allocate(scheduler, dt)
        for pe_id, cpu in allocations.items():
            totals[pe_id] += cpu * dt
        scheduler.settle([cpu * dt for cpu in allocations.values()])
    return totals


class TestStrictProportionalScheduler:
    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            StrictProportionalScheduler([], {}, capacity=-1.0)

    def test_allocates_by_target(self):
        pes = [make_pe("a", buffered=50), make_pe("b", buffered=50)]
        scheduler = StrictProportionalScheduler(pes, {"a": 0.25, "b": 0.75})
        allocations = scheduler.allocate(0.01)
        assert allocations == [pytest.approx(0.25), pytest.approx(0.75)]

    def test_blocked_pe_share_redistributed(self):
        pes = [make_pe("a", buffered=50), make_pe("b", buffered=50)]
        scheduler = StrictProportionalScheduler(pes, {"a": 0.5, "b": 0.5})
        allocations = scheduler.allocate(0.01, blocked=[True, False])
        assert allocations == [0.0, pytest.approx(1.0)]

    def test_idle_pe_share_redistributed(self):
        pes = [make_pe("a", buffered=0), make_pe("b", buffered=50)]
        scheduler = StrictProportionalScheduler(pes, {"a": 0.5, "b": 0.5})
        allocations = scheduler.allocate(0.01)
        assert allocations[1] == pytest.approx(1.0)

    def test_settle_is_noop(self):
        pes = [make_pe("a", buffered=5)]
        scheduler = StrictProportionalScheduler(pes, {"a": 1.0})
        scheduler.settle([123.0])  # must not raise

    def test_backlog_read_once_per_pe(self):
        # On the threaded runtime the channel can drain between two
        # reads of a PE's backlog: a PE seen runnable must get the
        # demand of that same read, not a later zero.
        class DrainingBuffer:
            def __init__(self):
                self.reads = 0

            @property
            def occupancy(self):
                self.reads += 1
                return 3 if self.reads == 1 else 0

        pe = make_pe("a")
        pe.buffer = DrainingBuffer()
        scheduler = StrictProportionalScheduler([pe], {"a": 1.0})
        allocations = scheduler.allocate(0.01)
        assert pe.buffer.reads == 1
        # Three SDOs of 2 ms queued against a 10 ms interval.
        assert allocations == [pytest.approx(0.6)]


# -- the dict-keyed implementation this module replaced, as reference --------


def reference_fill(demands, weights, budget):
    """The parent commit's ``_proportional_fill`` (pe_id-keyed dicts)."""
    grants = {pe_id: 0.0 for pe_id in demands}
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
                active[index] = None
                saturated += 1
        remaining -= distributed
        if not saturated:
            break
        active = [pe_id for pe_id in active if pe_id is not None]
    return grants


def reference_allocate(scheduler, dt, output_rate_caps):
    """The parent commit's ``AcesCpuScheduler.allocate`` body, reading
    every input through the per-PE API and keyed by pe_id."""
    capacity = scheduler.capacity
    budget = capacity * dt
    demands, capped_work, weights = {}, {}, {}
    for pe, bucket in zip(scheduler.pes, scheduler.buckets):
        bucket.fill(dt)
        level = bucket.level
        pe_id = pe.pe_id
        cap_rate = output_rate_caps.get(pe_id, INF)
        if cap_rate == INF:
            cpu_cap = capacity
        else:
            cpu_cap = min(capacity, pe.cpu_for_output_rate_now(cap_rate))
        backlog = pe.backlog_work
        work_needed = min(backlog, cpu_cap * dt)
        capped_work[pe_id] = max(0.0, work_needed)
        demands[pe_id] = max(0.0, min(work_needed, level))
        occupancy = pe.buffer.occupancy
        weights[pe_id] = occupancy + (
            1.0 if backlog > 0 and occupancy == 0 else 0.0
        )
    grants = reference_fill(demands, weights, budget)
    leftover = budget - sum(grants.values())
    if leftover > 1e-12:
        extra_demands = {
            pe_id: max(0.0, capped_work[pe_id] - grants[pe_id])
            for pe_id in grants
        }
        extra = reference_fill(extra_demands, weights, leftover)
        for pe_id, grant in extra.items():
            grants[pe_id] += grant
    return {pe_id: grant / dt for pe_id, grant in grants.items()}


#: Ids whose sorted order is not their placement order.
SHUFFLED_IDS = ["pe-10", "pe-2", "pe-1", "pe-03", "pe-7", "pe-0"]

_values = st.one_of(
    st.just(0.0), st.floats(min_value=0.0, max_value=20.0, allow_nan=False)
)


@settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    demands=st.lists(_values, min_size=1, max_size=6),
    weights=st.lists(_values, min_size=6, max_size=6),
    budget=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=100.0)),
)
def test_property_fill_equals_the_dict_reference(demands, weights, budget):
    ids = SHUFFLED_IDS[: len(demands)]

    class PE:
        def __init__(self, pe_id):
            self.pe_id = pe_id

    order = _fill_order([PE(pe_id) for pe_id in ids])
    assert [ids[k] for k in order] == sorted(ids)
    grants = _proportional_fill(demands, weights, budget, order)
    reference = reference_fill(
        dict(zip(ids, demands)), dict(zip(ids, weights)), budget
    )
    assert grants == [reference[pe_id] for pe_id in ids]


@settings(
    max_examples=200, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n_pes=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
    capacity=st.floats(min_value=0.05, max_value=1.0),
    ticks=st.integers(min_value=1, max_value=4),
)
def test_property_allocate_equals_the_dict_reference(
    n_pes, seed, capacity, ticks
):
    """Bit-equal fractions and token levels, tick after tick: all-zero
    demands, +inf caps, a zero cap, slow-state service times, in-service
    work at occupancy 0 and the work-conserving second round included."""
    rng = np.random.default_rng(seed)

    def build():
        pes = []
        for pe_id in SHUFFLED_IDS[:n_pes]:
            pes.append(make_pe(
                pe_id, t0=0.002, t1=0.02,
                lambda_m=float(rng_profile.uniform(0.5, 3.0)),
            ))
        targets = {
            pe.pe_id: float(rng_profile.uniform(0.0, 1.0 / n_pes))
            for pe in pes
        }
        return pes, token_scheduler(pes, targets, capacity=capacity)

    rng_profile = np.random.default_rng(seed)
    pes, scheduler = build()
    rng_profile = np.random.default_rng(seed)
    twin_pes, twin = build()

    for _ in range(ticks):
        caps = {}
        for pe, twin_pe in zip(pes, twin_pes):
            buffered = int(rng.choice([0, 0, rng.integers(1, 40)]))
            in_service = float(rng.choice([0.0, rng.uniform(0.0, 0.02)]))
            state = int(rng.integers(0, 2))
            for each in (pe, twin_pe):
                while not each.buffer.is_empty:
                    each.buffer.pop(0.0)
                for _ in range(buffered):
                    each.ingest(SDO(stream_id="s", origin_time=0.0), 0.0)
                each.work_in_service = in_service
                each.machine._state = state
            caps[pe.pe_id] = float(
                rng.choice([INF, INF, 0.0, rng.uniform(0.0, 500.0)])
            )
        fractions = allocate(scheduler, 0.01, caps)
        reference = reference_allocate(twin, 0.01, caps)
        assert fractions == reference
        assert list(fractions) == [pe.pe_id for pe in pes]
        used = [
            float(rng.uniform(0.0, 1.0)) * cpu * 0.01
            for cpu in fractions.values()
        ]
        scheduler.settle(used)
        for bucket, amount in zip(twin.buckets, used):
            bucket.spend(min(bucket.level, amount))
        assert token_levels(scheduler) == token_levels(twin)
