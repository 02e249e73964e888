"""Random topology generator, replicating the paper's tool (Section VI-A).

    "The topologies for the simulation were generated through a topology
    generation tool that takes as input the number of CPUs in the system,
    the number of ingress, egress and intermediate PEs in the system, and
    the average degree of interconnectivity between the PEs.  The output of
    the generator is a PE graph, the assignment of the PEs to the CPUs, the
    time-averaged CPU allocations of the PEs and the parameters for each
    PE."

We generate a layered DAG: ingress PEs form layer 0, intermediate PEs are
spread over interior layers, egress PEs form the last layer.  A backbone
pass guarantees every PE lies on an ingress->egress path; an enrichment pass
adds extra edges until the requested average degree (or the paper's 20%
multi-input/multi-output fraction) is reached, honouring the fan-in <= 3 and
fan-out <= 4 caps.
"""

from __future__ import annotations

import bisect
import typing as _t
from dataclasses import dataclass, field

import numpy as np

from repro.graph.dag import GraphValidationError, ProcessingGraph
from repro.graph.placement import (
    Placement,
    load_balanced_placement,
    random_placement,
)
from repro.model.calibration import calibrate_profile
from repro.model.params import DEFAULTS, PEProfile


@dataclass
class TopologySpec:
    """Inputs to the topology generator (the paper's tool interface)."""

    num_nodes: int
    num_ingress: int
    num_egress: int
    num_intermediate: int
    #: Target average interconnection degree (edges per PE).  ``None`` lets
    #: the multi-io fraction alone drive edge enrichment (the paper's
    #: default parameterization fixes the multi-io fraction at 20%).
    avg_degree: _t.Optional[float] = None
    max_fan_in: int = DEFAULTS.max_fan_in
    max_fan_out: int = DEFAULTS.max_fan_out
    multi_io_fraction: float = DEFAULTS.multi_io_fraction
    #: Offered load relative to a fair CPU share per PE; > 1 means the
    #: proffered load exceeds available resources (the paper's regime).
    load_factor: float = 1.2
    #: Egress weights are drawn uniformly from this range.
    weight_range: _t.Tuple[float, float] = (0.5, 2.0)
    #: Per-PE service-cost heterogeneity: each PE's (t0, t1) pair is scaled
    #: by a factor drawn log-uniformly from [1/h, h].  Heterogeneous costs
    #: are what create the paper's Figure-2 rate mismatches among the
    #: consumers of a shared stream; h = 1 disables the effect.
    service_heterogeneity: float = 2.0
    #: PE state-machine parameters (paper defaults).
    lambda_s: float = DEFAULTS.lambda_s
    lambda_m: float = DEFAULTS.lambda_m
    rho: float = DEFAULTS.rho
    t0: float = DEFAULTS.t0
    t1: float = DEFAULTS.t1
    placement_strategy: str = "load_balanced"
    #: Measure each PE's rate model empirically (paper footnote 3) rather
    #: than trusting the analytic stationary-mix approximation, which is
    #: only exact in the long-dwell (very bursty) limit.
    calibrate_rates: bool = True

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if self.num_ingress <= 0 or self.num_egress <= 0:
            raise ValueError("need at least one ingress and one egress PE")
        if self.num_intermediate < 0:
            raise ValueError("num_intermediate must be >= 0")
        if self.max_fan_in < 1 or self.max_fan_out < 1:
            raise ValueError("fan caps must be >= 1")
        if not 0.0 <= self.multi_io_fraction <= 1.0:
            raise ValueError("multi_io_fraction must lie in [0, 1]")
        if self.load_factor <= 0:
            raise ValueError("load_factor must be positive")
        if self.avg_degree is not None and self.avg_degree < 0:
            raise ValueError("avg_degree must be >= 0")
        if self.weight_range[0] > self.weight_range[1]:
            raise ValueError("weight_range must be (low, high), low <= high")
        if self.service_heterogeneity < 1.0:
            raise ValueError("service_heterogeneity must be >= 1")
        if self.placement_strategy not in ("load_balanced", "random"):
            raise ValueError(
                f"unknown placement strategy {self.placement_strategy!r}"
            )

    @property
    def num_pes(self) -> int:
        return self.num_ingress + self.num_egress + self.num_intermediate


@dataclass
class Topology:
    """Generator output: graph, placement, and source rates."""

    spec: TopologySpec
    graph: ProcessingGraph
    placement: Placement
    #: Offered input rate (SDO/s) per ingress PE id.
    source_rates: _t.Dict[str, float]
    layers: _t.List[_t.List[str]] = field(default_factory=list)

    @property
    def num_nodes(self) -> int:
        return self.spec.num_nodes

    def pes_on_node(self, node: int) -> _t.List[str]:
        return [pe for pe, n in self.placement.items() if n == node]


def _build_layers(spec: TopologySpec) -> _t.List[_t.List[str]]:
    """Assign PE ids to layers: ingress, interior layers, egress."""
    ingress = [f"pe-{i}" for i in range(spec.num_ingress)]
    intermediate = [
        f"pe-{spec.num_ingress + i}" for i in range(spec.num_intermediate)
    ]
    egress = [
        f"pe-{spec.num_ingress + spec.num_intermediate + i}"
        for i in range(spec.num_egress)
    ]

    layers: _t.List[_t.List[str]] = [ingress]
    if intermediate:
        width = max(1, (spec.num_ingress + spec.num_egress) // 2)
        num_layers = max(1, round(len(intermediate) / width))
        per_layer = -(-len(intermediate) // num_layers)  # ceil division
        for start in range(0, len(intermediate), per_layer):
            layers.append(intermediate[start : start + per_layer])
    layers.append(egress)
    return layers


class _Wiring:
    """The generator's edge bookkeeping, kept as edges are added.

    Fan-in and fan-out only grow, so eligibility only lapses: each layer
    keeps three pools that only shrink — PEs with no consumer yet, with
    fan-out below the cap, with fan-in below the cap — beside plain
    degree counters and the edge and multi-io counts.  :meth:`connect`
    is the one place an edge is added and all of them are updated.

    A PE is handled as its position in the concatenated layers, which
    grows along and across layers, so every pool stays sorted in layer
    order and a concatenation of pools reads in that order too.
    """

    def __init__(
        self,
        graph: ProcessingGraph,
        layers: _t.Sequence[_t.Sequence[str]],
        spec: TopologySpec,
    ):
        self.graph = graph
        self.max_fan_in = spec.max_fan_in
        self.max_fan_out = spec.max_fan_out
        self.ids: _t.List[str] = []
        self.layer_of: _t.List[int] = []
        #: The PEs of each layer, as a range of positions.
        self.positions: _t.List[range] = []
        for depth, layer in enumerate(layers):
            start = len(self.ids)
            self.ids.extend(layer)
            self.layer_of.extend([depth] * len(layer))
            self.positions.append(range(start, len(self.ids)))
        self.fan_in = [0] * len(self.ids)
        self.fan_out = [0] * len(self.ids)
        self.no_consumer = [list(layer) for layer in self.positions]
        self.fan_out_open = [list(layer) for layer in self.positions]
        self.fan_in_open = [list(layer) for layer in self.positions]
        self.edges = 0
        #: PEs with fan-in or fan-out above 1.
        self.multi_io = 0

    def connect(self, producer: int, consumer: int) -> None:
        """Add the edge — the graph may reject it — then account for it."""
        self.graph.add_edge(self.ids[producer], self.ids[consumer])
        self.edges += 1
        self.fan_out[producer] = fan_out = self.fan_out[producer] + 1
        self.fan_in[consumer] = fan_in = self.fan_in[consumer] + 1
        if fan_out == 1:
            _discard(self.no_consumer[self.layer_of[producer]], producer)
        if fan_out == self.max_fan_out:
            _discard(self.fan_out_open[self.layer_of[producer]], producer)
        if fan_in == self.max_fan_in:
            _discard(self.fan_in_open[self.layer_of[consumer]], consumer)
        if fan_out == 2 and self.fan_in[producer] < 2:
            self.multi_io += 1
        if fan_in == 2 and self.fan_out[consumer] < 2:
            self.multi_io += 1


def _discard(pool: _t.List[int], pe: int) -> None:
    """Remove ``pe`` from a sorted pool that holds it."""
    del pool[bisect.bisect_left(pool, pe)]


def _draw(
    rng: np.random.Generator, *choices: _t.Sequence[_t.Sequence[int]]
) -> _t.Optional[int]:
    """Draw uniformly from the first non-empty choice.

    A choice is a run of per-layer pools read as their concatenation,
    which is never built: the drawn index is resolved by cumulative
    length.  Returns ``None``, without drawing, when every choice is
    empty; the caller's fallback is then a single PE, which needs no
    draw (``integers(0, 1)`` consumes no generator state).
    """
    for pools in choices:
        total = sum(map(len, pools))
        if total:
            index = int(rng.integers(0, total))
            for pool in pools:
                if index < len(pool):
                    return pool[index]
                index -= len(pool)
    return None


def generate_topology(spec: TopologySpec, rng: np.random.Generator) -> Topology:
    """Generate a random topology satisfying ``spec``.

    Deterministic for a given ``rng`` state.  The produced graph always
    validates as a DAG with full ingress/egress reachability.  The fan
    caps hold on the paper's specs and their scaled versions, but are
    not guaranteed: where a layer is much wider than everything before
    (or after) it, the backbone runs out of open slots and relaxes the
    cap on the least-loaded PE, because reachability comes first.
    """
    layers = _build_layers(spec)
    graph = ProcessingGraph()

    # -- profiles --------------------------------------------------------
    egress_ids = set(layers[-1])
    for layer in layers:
        for pe_id in layer:
            if pe_id in egress_ids:
                low, high = spec.weight_range
                weight = float(rng.uniform(low, high))
            else:
                # Only system-output streams carry positive weight in the
                # effectiveness metric (paper Section III-A); interior PEs
                # matter solely through the flow constraints.
                weight = 0.0
            h = spec.service_heterogeneity
            if h > 1.0:
                log_scale = rng.uniform(-np.log(h), np.log(h))
                scale = float(np.exp(log_scale))
            else:
                scale = 1.0
            profile = PEProfile(
                pe_id=pe_id,
                weight=weight,
                t0=spec.t0 * scale,
                t1=spec.t1 * scale,
                lambda_s=spec.lambda_s,
                rho=spec.rho,
                lambda_m=spec.lambda_m,
            )
            if spec.calibrate_rates:
                profile = calibrate_profile(profile)
            graph.add_pe(profile)

    wiring = _Wiring(graph, layers, spec)
    no_consumer = wiring.no_consumer
    fan_out_open = wiring.fan_out_open
    fan_in_open = wiring.fan_in_open

    # -- backbone: every non-ingress PE gets one upstream ------------------
    for depth in range(1, len(layers)):
        for consumer in wiring.positions[depth]:
            # Prefer producers that do not yet have a consumer: this keeps
            # the backbone close to a matching, so the multi-input/output
            # fraction is controlled by the enrichment pass below rather
            # than by backbone randomness.
            producer = _draw(
                rng,
                no_consumer[depth - 1 : depth],
                fan_out_open[depth - 1 : depth],
                fan_out_open[:depth],
            )
            if producer is None:
                # All earlier PEs saturated: relax the cap minimally by
                # picking the least-loaded producer.
                producer = min(
                    range(wiring.positions[depth].start),
                    key=lambda p: (wiring.fan_out[p], wiring.ids[p]),
                )
            wiring.connect(producer, consumer)

    # -- backbone: every non-egress PE gets one downstream ------------------
    for depth in range(len(layers) - 1):
        # Copied: connecting a PE takes it out of the pool.
        for producer in list(no_consumer[depth]):
            consumer = _draw(
                rng,
                fan_in_open[depth + 1 : depth + 2],
                fan_in_open[depth + 1 :],
            )
            if consumer is None:
                consumer = min(
                    range(wiring.positions[depth].stop, len(wiring.ids)),
                    key=lambda p: (wiring.fan_in[p], wiring.ids[p]),
                )
            wiring.connect(producer, consumer)

    # -- enrichment: extra edges for multi-io fraction / average degree -----
    target_edges = wiring.edges
    if spec.avg_degree is not None:
        target_edges = max(
            target_edges, int(round(spec.avg_degree * spec.num_pes))
        )
    target_multi = int(round(spec.multi_io_fraction * spec.num_pes))

    attempts = 0
    max_attempts = 50 * spec.num_pes
    while (
        wiring.edges < target_edges or wiring.multi_io < target_multi
    ) and attempts < max_attempts:
        attempts += 1
        layer_index = int(rng.integers(0, len(layers) - 1))
        producers = fan_out_open[layer_index : layer_index + 1]
        consumers = fan_in_open[layer_index + 1 :]
        if not any(producers) or not any(consumers):
            continue
        producer = _draw(rng, producers)
        consumer = _draw(rng, consumers)
        try:
            wiring.connect(producer, consumer)
        except GraphValidationError:
            continue

    graph.validate(
        expected_ingress=set(layers[0]),
        expected_egress=set(layers[-1]),
    )

    # -- placement ---------------------------------------------------------
    if spec.placement_strategy == "random":
        placement = random_placement(graph, spec.num_nodes, rng)
    else:
        placement = load_balanced_placement(graph, spec.num_nodes)

    # -- offered source rates ------------------------------------------------
    # A PE's fair CPU share is its node capacity divided by the resident PE
    # count; the offered load multiplies the rate sustainable at that share.
    residents: _t.Dict[int, int] = {}
    for node in placement.values():
        residents[node] = residents.get(node, 0) + 1
    source_rates: _t.Dict[str, float] = {}
    for pe_id in graph.ingress_ids:
        profile = graph.profile(pe_id)
        share = 1.0 / residents[placement[pe_id]]
        source_rates[pe_id] = spec.load_factor * profile.rate_at(share)

    return Topology(
        spec=spec,
        graph=graph,
        placement=placement,
        source_rates=source_rates,
        layers=layers,
    )


def paper_calibration_spec(**overrides: object) -> TopologySpec:
    """The 60 PE / 10 node calibration topology (paper Section VI-C)."""
    params: _t.Dict[str, object] = dict(
        num_nodes=DEFAULTS.calibration_nodes,
        num_ingress=12,
        num_egress=12,
        num_intermediate=DEFAULTS.calibration_pes - 24,
    )
    params.update(overrides)
    return TopologySpec(**params)  # type: ignore[arg-type]


def paper_main_spec(**overrides: object) -> TopologySpec:
    """The 200 PE / 80 node main topology (paper Section VI-C)."""
    params: _t.Dict[str, object] = dict(
        num_nodes=DEFAULTS.main_nodes,
        num_ingress=40,
        num_egress=40,
        num_intermediate=DEFAULTS.main_pes - 80,
    )
    params.update(overrides)
    return TopologySpec(**params)  # type: ignore[arg-type]


def scaled_main_spec(multiplier: int) -> TopologySpec:
    """The paper's 80-node / 200-PE main topology scaled ``multiplier``x.

    Rate calibration is disabled: at x100 (8,000 nodes / 20,000 PEs) the
    per-PE empirical rate calibration (``calibration.effective_rate``)
    would dwarf the measurement itself, and the scale curves built on it
    compare control-tick cost, not workload realism.
    """
    return paper_main_spec(
        num_nodes=80 * multiplier,
        num_ingress=40 * multiplier,
        num_egress=40 * multiplier,
        num_intermediate=120 * multiplier,
        calibrate_rates=False,
    )
