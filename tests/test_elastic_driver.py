"""A third substrate in 40 lines: ``ElasticDriver`` over a fake
``MembershipOps``.

The machine check behind ``docs/architecture.md``'s claim that a
substrate is a ``SystemAdapter``, three membership operations and a
ticker: :class:`FakeSubstrate` has no simulation kernel and starts no
thread — its PEs are un-started ``RuntimePE`` objects and its "ticker"
is the test calling ``driver.tick(now)`` — yet the whole elastic tier
and the forecasting tier's actuation run on it unchanged.
"""

import numpy as np
import pytest

from repro.control import ControlPlane, ElasticDriver, NodeGroup
from repro.control.elastic import ElasticityConfig
from repro.control.plane import resolve_initial_targets
from repro.core.policies import UdpPolicy
from repro.core.resilience import ResilientTier1
from repro.graph.topology import TopologySpec, generate_topology
from repro.model.sdo import SDO
from repro.obs.recorder import NULL_RECORDER
from repro.runtime.spc import ThreadAdapter
from repro.runtime.worker import RuntimePE

CAPACITY = 10


class FakeSubstrate:
    """In-memory MembershipOps: node "loops" are two lists of names."""

    def __init__(self, topology, elasticity):
        graph = topology.graph
        rng = np.random.default_rng(0)
        self.now = 0.0
        self.pes = {
            pe_id: RuntimePE(graph.profile(pe_id), CAPACITY, rng, 1.0)
            for pe_id in graph.topological_order()
        }
        tier1 = ResilientTier1()
        self.plane = ControlPlane(
            UdpPolicy(),
            ThreadAdapter(lambda: self.now, NULL_RECORDER),
            groups=[
                NodeGroup(
                    f"node-{n}",
                    [
                        pe for pe_id, pe in self.pes.items()
                        if topology.placement[pe_id] == n
                    ],
                )
                for n in range(topology.num_nodes)
            ],
            targets=resolve_initial_targets(tier1, topology),
            dt=0.05,
            b0=CAPACITY / 2,
            tier1=tier1,
        )
        self.driver = ElasticDriver(self.plane, self, topology, elasticity)
        self.started, self.retired = [], []

    def add_node(self, cpu_capacity=1.0):
        node_id = self.driver.next_node_id()
        self.driver.join(node_id, cpu_capacity, self.now)
        self.started.append(node_id)
        return node_id

    def remove_node(self, node_index):
        self.retired.append(self.driver.leave(node_index, self.now))
        return self.retired[-1]

    def migrate_pes(self, moves, reason="migration"):
        return self.driver.migrate(moves, reason, self.now, self.pes)


@pytest.fixture
def fake():
    topology = generate_topology(
        TopologySpec(
            num_nodes=2, num_ingress=2, num_egress=1, num_intermediate=5
        ),
        np.random.default_rng(0),
    )
    return FakeSubstrate(
        topology,
        ElasticityConfig(
            scale_out_pressure=0.8,
            scale_in_pressure=0.2,
            min_nodes=2,
            max_nodes=4,
            check_interval=0.5,
            dwell_intervals=2,
            cooldown=2.0,
            max_migrations_per_epoch=4,
            placement_evaluations=4,
        ),
    )


def tick(fake, now):
    fake.now = now
    fake.driver.tick(now)


def grouped(plane):
    return {
        pe.pe_id: index
        for index, group in enumerate(plane.groups)
        for pe in group.pes
    }


def test_scripted_pressure_drives_the_whole_tier(fake):
    driver, plane, book = fake.driver, fake.plane, fake.driver.book
    assert driver.pressure() == (0.0, 0.0)
    assert driver.timeline == [(0.0, 2)]

    # Saturate every channel: hot-spot pressure 1.0 for two dwell
    # intervals fires a scale-out.
    for pe in fake.pes.values():
        while pe.channel.offer(SDO(stream_id="script", origin_time=0.0)):
            pass
    assert driver.pressure() == (1.0, 1.0)
    tick(fake, 0.5)
    assert len(plane.groups) == 2
    tick(fake, 1.0)
    assert [g.node_id for g in plane.groups] == ["node-0", "node-1", "node-2"]
    assert fake.started == ["node-2"]
    assert book.epoch == 1 and book.current.reason == "scale_out"
    assert book.num_nodes == 3
    moved = book.current.migrations
    assert moved and {to for _, _, to in moved} == {2}
    assert [
        (r.pe_id, r.from_node, r.to_node, r.epoch, r.t, r.handoff_occupancy)
        for r in driver.migration_log
    ] == [
        (pe_id, f"node-{old}", "node-2", 1, 1.0, CAPACITY)
        for pe_id, old, _ in moved
    ]
    assert grouped(plane) == dict(book.placement)
    assert plane.reoptimizations == 1

    # Idle channels: slack pressure 0 for two dwell intervals past the
    # cooldown fires a scale-in (evacuate -> remove -> renumber).
    for pe in fake.pes.values():
        pe.channel.clear()
    tick(fake, 2.5)  # inside the cooldown: streak builds, nothing fires
    assert len(plane.groups) == 3
    tick(fake, 3.0)
    assert len(plane.groups) == 2
    assert fake.retired and fake.retired[0] not in {
        g.node_id for g in plane.groups
    }
    assert [v.reason for v in book.versions[2:]] == ["scale_in", "scale_in"]
    assert book.num_nodes == 2
    assert grouped(plane) == dict(book.placement)
    assert driver.timeline == [(0.0, 2), (1.0, 3), (3.0, 2)]
    assert [d.decision for d in driver.scaling_policy.decisions] == [
        "scale_out", "scale_in",
    ]

    # A proactive request inside the shared cooldown is vetoed by the
    # same ScalingPolicy the reactive loop uses; nothing moves.
    epoch = book.epoch
    fake.now = 3.5
    assert driver.proactive_scale_out(3.5) is False
    assert len(plane.groups) == 2 and book.epoch == epoch
    assert len(driver.scaling_policy.decisions) == 2
    # ...and past it the same call is granted.
    fake.now = 5.0
    assert driver.proactive_scale_out(5.0) is True
    assert fake.started[-1] == "node-3"  # ordinals are never reused

    # Evacuation down to one node works; the last node is refused.
    fake.now = 6.0
    while len(plane.groups) > 1:
        assert driver.evacuate_and_remove(0, "test") is True
    log_length, epoch = len(driver.migration_log), book.epoch
    assert driver.evacuate_and_remove(0, "test") is False
    assert len(plane.groups) == 1
    assert (len(driver.migration_log), book.epoch) == (log_length, epoch)
    assert set(grouped(plane)) == set(fake.pes)


def test_node_seconds_is_additive_and_clamped(fake):
    driver = fake.driver
    driver.timeline[:] = [(0.0, 2), (1.0, 3), (3.0, 2)]
    whole = driver.node_seconds(0.0, 4.0)
    assert whole == pytest.approx(2 * 1.0 + 3 * 2.0 + 2 * 1.0)
    for split in (0.4, 1.0, 2.2, 3.0, 3.9):
        assert driver.node_seconds(0.0, split) + driver.node_seconds(
            split, 4.0
        ) == pytest.approx(whole)
    # Before the timeline starts there are no nodes to integrate;
    # past its last step the final count holds.
    assert driver.node_seconds(-5.0, 0.0) == 0.0
    assert driver.node_seconds(-5.0, 4.0) == pytest.approx(whole)
    assert driver.node_seconds(4.0, 6.0) == pytest.approx(2 * 2.0)
    assert driver.node_seconds(2.0, 2.0) == 0.0


def test_migrate_validates_and_filters(fake):
    driver = fake.driver
    mover = next(iter(fake.pes))
    home = driver.book.placement[mover]
    with pytest.raises(KeyError, match="unknown PE"):
        fake.migrate_pes([("pe-nope", 0)])
    with pytest.raises(ValueError, match="outside"):
        fake.migrate_pes([(mover, 2)])
    assert fake.migrate_pes([(mover, home)]) is None
    assert driver.book.epoch == 0 and driver.migration_log == []
