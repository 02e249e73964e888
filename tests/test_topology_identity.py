"""Generated topologies are pinned byte for byte.

The generator's bookkeeping may change (ISSUE 20 made it incremental);
what it generates may not: every matrix cell, fuzz seed, ``BENCH_*.json``
and ``sim_digest`` is downstream of these draws.  ``FINGERPRINTS`` was
computed at the commit *before* the incremental generator landed;
``python tests/test_topology_identity.py`` reprints it from whatever
``repro`` is on ``PYTHONPATH``.
"""

import hashlib

import numpy as np
import pytest

from repro.graph.topology import (
    TopologySpec,
    generate_topology,
    paper_calibration_spec,
    paper_main_spec,
    scaled_main_spec,
)


def _saturated(num_ingress: int, num_egress: int) -> TopologySpec:
    """34 PEs / 3 nodes with one end 15x wider than the rest, so the
    backbone runs out of open slots and takes the saturated fallback;
    ``avg_degree=2.5`` is unreachable, so enrichment exhausts
    ``max_attempts``."""
    return TopologySpec(
        num_nodes=3,
        num_ingress=num_ingress,
        num_egress=num_egress,
        num_intermediate=2,
        avg_degree=2.5,
        calibrate_rates=False,
    )


SPECS = {
    "calibration": paper_calibration_spec,
    "main": lambda: paper_main_spec(calibrate_rates=False),
    "main_avg_degree_1.6": lambda: paper_main_spec(
        calibrate_rates=False, avg_degree=1.6
    ),
    "main_random_placement": lambda: paper_main_spec(
        calibrate_rates=False, placement_strategy="random"
    ),
    # Every load ties, so the placement's tie-break is what is pinned.
    "main_homogeneous": lambda: paper_main_spec(
        calibrate_rates=False, service_heterogeneity=1.0
    ),
    "main_multi_io_0.6": lambda: paper_main_spec(
        calibrate_rates=False, multi_io_fraction=0.6
    ),
    "fan_out_saturated": lambda: _saturated(num_ingress=2, num_egress=30),
    "fan_in_saturated": lambda: _saturated(num_ingress=30, num_egress=2),
    "x3": lambda: scaled_main_spec(3),
    "x10": lambda: scaled_main_spec(10),
}

FINGERPRINTS = {
    ("calibration", 0): "b0184fd61ac43dad",
    ("calibration", 1): "002ad526b8dbcb4a",
    ("calibration", 2): "99db169a8883f993",
    ("calibration", 3): "c74f1ee3e0ef9516",
    ("calibration", 4): "51d98bbd8ae251c3",
    ("main", 0): "16582875b2ef72cc",
    ("main", 1): "180b7807ad52ddd5",
    ("main", 2): "5d3dafca469d7522",
    ("main_avg_degree_1.6", 0): "57f21c79cab4d86a",
    ("main_avg_degree_1.6", 1): "7c14c29c3b777cfa",
    ("main_avg_degree_1.6", 2): "ef8cbb5017068fda",
    ("main_random_placement", 0): "ee3556ea97ef0a21",
    ("main_random_placement", 1): "7fa516ff8975d98d",
    ("main_random_placement", 2): "8323f3b4d5e8a1f8",
    ("main_homogeneous", 0): "1b3588d9a32b2d68",
    ("main_homogeneous", 1): "0628b1dc18cfa178",
    ("main_homogeneous", 2): "9070bb3a7f5b66cd",
    ("main_multi_io_0.6", 0): "8d4b9315435209bb",
    ("main_multi_io_0.6", 1): "c0f6da9353af934d",
    ("main_multi_io_0.6", 2): "d30310795bbd61e3",
    ("fan_out_saturated", 0): "c368e29ac71ba341",
    ("fan_out_saturated", 1): "95f81206c848b5da",
    ("fan_out_saturated", 2): "8ec2520e88ae9488",
    ("fan_in_saturated", 0): "dcf0fe66559d497c",
    ("fan_in_saturated", 1): "99616326c1514f65",
    ("fan_in_saturated", 2): "09d6505df0f76588",
    ("x3", 0): "045c540e0e1a9346",
    ("x3", 1): "62b96b5c56ee5257",
    ("x3", 2): "677963265364304b",
    ("x10", 0): "2de35c9885cae842",
    ("x10", 1): "e52f0cbbfa6e37a4",
    ("x10", 2): "2b6690084cf1f868",
}


def fingerprint(spec: TopologySpec, seed: int) -> str:
    topology = generate_topology(spec, np.random.default_rng(seed))
    graph = topology.graph
    profiles = [graph.profile(pe_id) for pe_id in graph.pe_ids]
    content = repr(
        (
            # Between them, insertion order as far as the graph keeps it.
            graph.edges(),
            [graph.upstream(pe_id) for pe_id in graph.pe_ids],
            list(topology.placement.items()),
            list(topology.source_rates.items()),
            topology.layers,
            [(p.pe_id, p.weight, p.t0, p.t1) for p in profiles],
        )
    )
    return hashlib.sha256(content.encode()).hexdigest()[:16]


def test_every_spec_is_pinned():
    assert {name for name, _ in FINGERPRINTS} == set(SPECS)


@pytest.mark.parametrize("name,seed", FINGERPRINTS)
def test_generated_topology_is_pinned(name, seed):
    assert fingerprint(SPECS[name](), seed) == FINGERPRINTS[(name, seed)]


@pytest.mark.parametrize("side", ["fan_out", "fan_in"])
def test_saturated_specs_reach_the_fallback(side):
    """The two saturated rows pin the relaxed-cap fallback only while
    they still reach it."""
    spec = SPECS[f"{side}_saturated"]()
    graph = generate_topology(spec, np.random.default_rng(0)).graph
    degrees = map(getattr(graph, side), graph.pe_ids)
    assert max(degrees) > getattr(spec, f"max_{side}")


if __name__ == "__main__":
    print("FINGERPRINTS = {")
    for name, seed in FINGERPRINTS:
        print(f'    ("{name}", {seed}): "{fingerprint(SPECS[name](), seed)}",')
    print("}")
