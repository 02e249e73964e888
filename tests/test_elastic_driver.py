"""A third substrate in 50 lines: ``ControlStack`` over a fake
``MembershipOps``.

The machine check behind ``docs/architecture.md``'s claim that a
substrate is a ``SystemAdapter``, three membership operations and a
ticker: :class:`FakeSubstrate` has no simulation kernel and starts no
thread — its PEs are un-started ``RuntimePE`` objects, its clock is a
float and its "ticker" is the test calling the ticks
``ControlStack.periodic`` lists — yet all five tiers are wired through
the one entry point both real substrates use, and the whole elastic
tier and the forecasting tier's actuation run on it unchanged.
"""

import inspect

import numpy as np
import pytest

from repro.control import SystemAdapter
from repro.control.admission import AdmissionConfig
from repro.control.config import ControlConfig
from repro.control.elastic import ElasticityConfig
from repro.control.forecast import ForecastConfig
from repro.control.wiring import ControlStack
from repro.core.policies import UdpPolicy, policy_by_name
from repro.graph.topology import TopologySpec, generate_topology
from repro.metrics.collectors import EgressCollector
from repro.model.sdo import SDO
from repro.runtime.spc import RuntimeConfig, SPCRuntime, ThreadAdapter
from repro.runtime.worker import RuntimePE
from repro.systems.dataplane import SimAdapter
from repro.systems.simulated import SimulatedSystem, SystemConfig

CAPACITY = 10


class FakeSubstrate:
    """An adapter, a clock and three membership operations; node "loops"
    are two lists of names."""

    def __init__(self, topology, config):
        graph = topology.graph
        rng = np.random.default_rng(0)
        ingress = set(graph.ingress_ids)
        self.now = 0.0
        self.pes = {
            pe_id: RuntimePE(
                graph.profile(pe_id), config.buffer_size, rng, 1.0,
                is_ingress=pe_id in ingress,
            )
            for pe_id in graph.topological_order()
        }
        collector = EgressCollector()
        for pe_id in graph.egress_ids:
            collector.register(pe_id, graph.profile(pe_id).weight)
        #: Offered SDOs per source, scripted by the tests.
        self.generated = {pe_id: 0 for pe_id in sorted(topology.source_rates)}
        self.stack = ControlStack(
            UdpPolicy(),
            topology,
            config,
            adapter=ThreadAdapter(),
            ops=self,
            pes=self.pes,
            collector=collector,
            clock=lambda: self.now,
        )
        self.stack.bind_sources({
            pe_id: (lambda p=pe_id: self.generated[p])
            for pe_id in self.generated
        })
        self.plane = self.stack.plane
        self.driver = self.stack.elastic
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


def small_topology():
    return generate_topology(
        TopologySpec(
            num_nodes=2, num_ingress=2, num_egress=1, num_intermediate=5
        ),
        np.random.default_rng(0),
    )


@pytest.fixture
def fake():
    # All five tiers armed: the stack must wire every one of them on a
    # substrate that is nothing but the three protocol pieces.
    return FakeSubstrate(
        small_topology(),
        ControlConfig(
            buffer_size=CAPACITY,
            dt=0.05,
            admission=AdmissionConfig(),
            forecast=ForecastConfig(
                alpha=1.0, sample_interval=0.5, dwell_ticks=1, cooldown=2.0,
            ),
            elasticity=ElasticityConfig(
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


# -- the wiring and the adapter, machine-checked ---------------------------


def test_stack_wires_and_lists_every_armed_tier(fake):
    stack, plane, driver = fake.stack, fake.plane, fake.driver
    assert plane.tier1 is stack.tier1 and stack.tier1.last_good is not None
    assert plane.admission is stack.admission is not None
    assert plane.forecast is stack.forecast is not None
    assert sorted(stack.admission.streams) == sorted(
        pe_id for pe_id, pe in fake.pes.items() if pe.is_ingress
    )
    ticks = stack.periodic()
    assert [(t.name, t.interval, t.mutates) for t in ticks] == [
        ("elastic", 0.5, True),
        ("admission", 0.05, False),
        ("forecast", 0.5, True),
    ]

    # The test is the ticker: a scripted 3x surge on every source, fed
    # through the listed ticks, fires the forecasting tier, whose
    # re-solve and scale-out go through the elastic driver and spend
    # the autoscaler's own cooldown.
    rates = fake.stack.topology.source_rates
    for step in range(1, 4):
        fake.now = 0.5 * step
        for pe_id, rate in rates.items():
            fake.generated[pe_id] += int(3 * rate * 0.5) + 1
        for periodic in ticks:
            periodic.tick(fake.now)
    assert stack.admission.ticks == 3 and stack.forecast.ticks == 2
    assert [t.scaled_out for t in stack.forecast.triggers] == [True]
    assert fake.started == ["node-2"] and len(plane.groups) == 3
    assert [d.decision for d in driver.scaling_policy.decisions] == [
        "scale_out"
    ]
    assert plane.reoptimizations == 2  # proactive + post-scale-out
    assert grouped(plane) == dict(driver.book.placement)


def test_disarmed_stack_is_inert():
    fake = FakeSubstrate(
        small_topology(), ControlConfig(buffer_size=CAPACITY, dt=0.05)
    )
    assert fake.stack.periodic() == []
    assert fake.stack.admission is None and fake.stack.forecast is None
    assert fake.driver.scaling_policy is None


@pytest.mark.parametrize("adapter", [SimAdapter, ThreadAdapter])
def test_adapters_define_exactly_the_protocol(adapter):
    def public(cls):
        return {
            name for name, member in vars(cls).items()
            if inspect.isfunction(member) and not name.startswith("_")
        }

    protocol = public(SystemAdapter)
    assert protocol == {"snapshot", "snapshot_list", "apply_grants"}
    # ``bind`` is SimAdapter's own late-construction step, not an
    # operation the controller calls.
    assert public(adapter) - {"bind"} == protocol


def _membership_script(system, pes):
    """add_node -> migrate_pes -> remove_node (through the driver's
    evacuation, so surviving node indices shift)."""
    system.add_node()
    mover = sorted(pes)[0]
    assert system.migrate_pes([(mover, 2)], reason="test") is not None
    assert system.elastic.evacuate_and_remove(0, "test") is True
    plane, book = system.plane, system.placement_book
    assert [g.node_id for g in plane.groups] == ["node-1", "node-2"]
    assert plane.node_index("node-0") is None
    assert plane.node_index("node-2") == 1
    assert book.num_nodes == 2 and grouped(plane) == dict(book.placement)
    assert set(grouped(plane)) == set(pes)


def test_disarmed_simulator_follows_membership():
    from repro.check import check_conservation

    system = SimulatedSystem(
        small_topology(), policy_by_name("udp"),
        config=SystemConfig(seed=3, warmup=0.0, dt=0.05),
    )
    assert system.elasticity is None
    system.env.run(until=1.0)
    _membership_script(system, system.runtimes)
    # One node list: the system's nodes are the plane's groups.
    assert system.nodes is system.plane.groups
    # The node tickers followed: each survivor keeps ticking under its
    # new index, and the departed node's loop has returned.
    before = [c.ticks for c in system.plane.node_controllers]
    system.env.run(until=2.0)
    after = [c.ticks for c in system.plane.node_controllers]
    assert [b - a for a, b in zip(before, after)] == [20, 20]
    assert check_conservation(system) == []


def test_disarmed_runtime_follows_membership():
    runtime = SPCRuntime(
        small_topology(), policy_by_name("udp"),
        config=RuntimeConfig(seed=3, warmup=0.2, dt=0.05, dilation=0.5),
    )
    assert runtime.elasticity is None
    _membership_script(runtime, runtime.pes)
    pumps = [t.name for t in runtime.env.threads if t.name.startswith("ctl-")]
    assert pumps == ["ctl-node-0", "ctl-node-1", "ctl-node-2"]
    runtime.run(0.4)
    # node-0's pump retired on its first tick; the survivors' ticked.
    assert all(c.ticks > 0 for c in runtime.plane.node_controllers)
    assert not any(
        t.is_alive() for t in runtime.env.threads if t.name == "ctl-node-0"
    )


def test_bucketed_system_refuses_membership():
    from repro.systems.faults import FaultPlan

    system = SimulatedSystem(
        small_topology(), policy_by_name("udp"),
        config=SystemConfig(seed=3, dt=0.05, control_phase_buckets=2),
    )
    for operation in (
        system.add_node,
        lambda: system.migrate_pes([(sorted(system.runtimes)[0], 1)]),
        lambda: system.remove_node(1),
    ):
        with pytest.raises(RuntimeError, match="control_phase_buckets"):
            operation()
    assert len(system.plane.groups) == 2 and system.placement_book.epoch == 0
    # ...and a membership fault is refused at attach, by the same rule.
    with pytest.raises(RuntimeError, match="node_join requires per-node"):
        FaultPlan().node_join(start=0.5, duration=0.5).attach(system)
