"""The node tick's call path and its byte-exact trace.

Two pins on the Tier-2 step as a whole, beside the per-layer tests:

* a *guard*: a node tick goes through the batch entry points (one call
  per layer, and for the vector engine one feedback-bus read and publish
  per tick group) and never through the one-PE API those are tested
  against — so a later change cannot quietly fall back to a call chain
  per PE;
* a *golden trace*: the full event list of a short calibration run
  hashes to the constants of the commit before the tick went
  positional, for each policy and both control implementations.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.control.vector import VectorEngine, VectorNodeView
from repro.core.cpu_control import AcesCpuScheduler
from repro.core.feedback import FeedbackBus
from repro.core.flow_control import FlowController
from repro.core.policies import policy_by_name
from repro.core.targets import fair_share_targets
from repro.graph.topology import generate_topology, paper_calibration_spec
from repro.model.pe import PERuntime
from repro.obs.recorder import MemoryRecorder
from repro.systems.simulated import SimulatedSystem, SystemConfig

@pytest.fixture(scope="module")
def calibration():
    topology = generate_topology(
        paper_calibration_spec(), np.random.default_rng(0)
    )
    return topology, fair_share_targets(topology.graph, topology.placement)


def build(calibration, policy, control_impl, recorder=None):
    topology, targets = calibration
    return SimulatedSystem(
        topology,
        policy_by_name(policy),
        targets=targets,
        config=SystemConfig(seed=1, warmup=0.0, control_impl=control_impl),
        recorder=recorder,
    )


#: The one-PE API of each layer: what a tick must not call per PE.
PER_PE_API = [
    (FeedbackBus, "publish"),
    (FeedbackBus, "latest"),
    (FeedbackBus, "max_downstream_rate"),
    (FeedbackBus, "min_downstream_rate"),
    (FlowController, "update"),
    (PERuntime, "processing_rate"),
    (PERuntime, "cpu_for_output_rate_now"),
]


@pytest.mark.parametrize("control_impl", ["scalar", "vector"])
def test_a_tick_is_one_call_per_layer(calibration, control_impl, monkeypatch):
    calls = {}

    def count(owner, name):
        original = vars(owner)[name]
        key = f"{owner.__name__}.{name}"
        calls[key] = 0

        def counted(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return key

    per_pe = [count(owner, name) for owner, name in PER_PE_API]
    settled = []
    for scheduler in (AcesCpuScheduler, VectorNodeView):
        original = scheduler.settle

        def settle(self, used, _original=original):
            settled.append(used)
            return _original(self, used)

        monkeypatch.setattr(scheduler, "settle", settle)
    engine_settle = count(VectorEngine, "settle")
    engine_groups = count(VectorEngine, "control_group")
    batch = [
        count(FeedbackBus, "read_bounds"),
        count(FeedbackBus, "publish_rows"),
    ]

    system = build(calibration, "aces", control_impl)
    assert system.plane.control_impl == control_impl
    system.run(0.5)

    ticks = sum(c.ticks for c in system.plane.node_controllers)
    assert ticks == 10 * 50
    assert {key: calls[key] for key in per_pe} == dict.fromkeys(per_pe, 0)
    # One Eq. 8 read and one publication per node tick (scalar) or per
    # tick group (vector), through the plane's one FeedbackBus.
    groups = calls[engine_groups] if control_impl == "vector" else ticks
    assert groups > 0
    assert {key: calls[key] for key in batch} == dict.fromkeys(batch, groups)
    # Settled per node, with one list of CPU-seconds in record order.
    assert len(settled) == ticks
    assert all(isinstance(used, list) for used in settled)
    assert [len(used) for used in settled[:10]] == [
        len(c.records) for c in system.plane.node_controllers
    ]
    if control_impl == "vector":
        assert calls[engine_settle] == ticks


#: sha256 of ``json.dumps(recorder.events, sort_keys=True)`` of a
#: 2-model-second run, taken at the parent of the positional tick.
#: The ACES rows were re-pinned when the Eq. 7 gains moved from SciPy's
#: Riccati solve to the numpy doubling solve (gains within 1e-13
#: relative); fed SciPy's solution, the run still reproduces the
#: earlier hash (c9c815ce...), with the same 48,411 events.
GOLDEN = {
    ("aces", "scalar"): (
        48411,
        "40c1a42233698233d471be933467152ea981ff2a978572af5586dca119992e18",
    ),
    ("aces", "vector"): (
        48411,
        "40c1a42233698233d471be933467152ea981ff2a978572af5586dca119992e18",
    ),
    ("udp", "scalar"): (
        12390,
        "881f2f5e467edac244f7fc0774413341184eb0d8420e85953cca5fc158b433cd",
    ),
    ("lockstep", "scalar"): (
        12335,
        "e23868852547acd8ca28030e4859cb2b61d2dc60cef1bc297835091ff5e70496",
    ),
}


@pytest.mark.parametrize("policy, control_impl", sorted(GOLDEN))
def test_golden_trace(calibration, policy, control_impl):
    recorder = MemoryRecorder()
    system = build(calibration, policy, control_impl, recorder)
    assert system.plane.control_impl == control_impl
    system.run(2.0)
    payload = json.dumps(recorder.events, sort_keys=True).encode()
    assert (
        len(recorder.events), hashlib.sha256(payload).hexdigest()
    ) == GOLDEN[policy, control_impl]
