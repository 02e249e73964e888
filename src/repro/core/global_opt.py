"""Tier 1: the global weighted-throughput optimization (paper Section V-B).

The program, in the paper's notation::

    maximize    sum_j  w_j * U(r̄_out,j)                          (Eq. 3)
    subject to  sum_{j in node i} c̄_j <= C_i      for all nodes   (Eq. 4)
                r̄_in,j <= r̄_out,i   for every edge i -> j         (Eq. 5)
                r̄_in,j <= source rate       for ingress PEs
                r̄_in,j  = h_j(c̄_j) = a_j c̄_j - b_j                (Eq. 6)
                r̄_out,j = m_j * r̄_in,j

with decision variables ``c̄_j`` (one CPU share per PE) and ``C_i`` node
``i``'s nominal CPU capacity (1.0 unless a node joined with another
capacity; the paper normalizes every node to 1).  The objective is
concave and the feasible set is a polytope, so every local optimum is
global and the optimal *weighted* PEs' rates are unique (``U`` is strictly
concave).  The optimum is not a point, though: a zero-weight PE whose
producers have slack may take any share along a face of optimal points,
and which one a solve returns depends on the solver's path.

The one solver is SciPy's SLSQP on the exact program, with each linear
constraint block's matrix as its exact Jacobian.  Its point is clipped to
the box, projected exactly onto the node capacity simplices and swept
feasible in topological order; a stop that SLSQP reports as failed keeps
that feasible point and is marked ``converged=False``.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field

import numpy as np

from repro.core.targets import AllocationTargets
from repro.core.utility import LogUtility
from repro.graph.dag import ProcessingGraph
from repro.graph.placement import Placement, residents_by_node
from repro.obs.recorder import TraceRecorder


#: The common concave utility ``U`` of Eq. 3.
_UTILITY = LogUtility()


@dataclass
class GlobalOptimizationResult:
    """Solver output: targets plus diagnostics."""

    targets: AllocationTargets
    objective: float
    solver: str
    iterations: int
    converged: bool
    max_violation: float
    messages: _t.List[str] = field(default_factory=list)


class _Program:
    """Vectorized view of the optimization program."""

    def __init__(
        self,
        graph: ProcessingGraph,
        placement: Placement,
        source_rates: _t.Mapping[str, float],
        capacities: _t.Optional[_t.Sequence[float]] = None,
    ):
        self.graph = graph
        self.placement = placement
        self.pe_ids = graph.topological_order()
        self.index = {pe_id: k for k, pe_id in enumerate(self.pe_ids)}
        n = len(self.pe_ids)

        profiles = [graph.profile(p) for p in self.pe_ids]
        self.slope = np.array([pr.rate_slope for pr in profiles])
        self.overhead = np.array([pr.overhead for pr in profiles])
        self.mult = np.array([pr.lambda_m for pr in profiles])
        self.weight = np.array([pr.weight for pr in profiles])

        # Node membership: one index array per node that hosts a PE,
        # and that node's capacity.
        num_nodes = 1 + max((placement[p] for p in self.pe_ids), default=-1)
        residents = residents_by_node(self.pe_ids, placement, num_nodes)
        hosting = [node for node in range(num_nodes) if residents[node]]
        self.node_members: _t.List[np.ndarray] = [
            np.array([self.index[p] for p in residents[node]], dtype=int)
            for node in hosting
        ]
        self.node_bound = np.array(
            [1.0 if capacities is None else capacities[node]
             for node in hosting],
            dtype=float,
        )

        # Flow constraints are per *consumer*: a PE's input buffer merges
        # all of its upstream streams, so the fluid constraint is
        # r_in,j <= sum_{i in U(j)} r_out,i.  (The paper writes Eq. 5 per
        # edge; for single-input PEs — the overwhelming majority — the two
        # forms coincide, and the sum form matches the merged-buffer
        # semantics of the simulator and of the SPC runtime.)
        self.consumers = [
            self.index[pe_id]
            for pe_id in self.pe_ids
            if graph.upstream(pe_id)
        ]
        self.producer_sets = [
            np.array(
                [self.index[u] for u in graph.upstream(self.pe_ids[k])],
                dtype=int,
            )
            for k in self.consumers
        ]

        # Ingress caps.
        self.ingress = np.array(
            [self.index[p] for p in graph.ingress_ids], dtype=int
        )
        self.ingress_rate = np.array(
            [float(source_rates.get(p, np.inf)) for p in graph.ingress_ids]
        )

        # Bounds: c in [b/a, C_i] so that h(c) >= 0 everywhere and no
        # PE plans for more than its node.
        self.lower = self.overhead / self.slope
        self.upper = np.ones(n)
        for members, bound in zip(self.node_members, self.node_bound):
            self.upper[members] = bound

        # The three constraint blocks are linear, residual = A @ c - b
        # (<= 0 when satisfied); each A is its block's exact Jacobian.
        # Node capacity (Eq. 4): 0/1 incidence, sum of shares <= C_i.
        self.node_matrix = np.zeros((len(self.node_members), n))
        for row, members in enumerate(self.node_members):
            self.node_matrix[row, members] = 1.0
        # Flow (Eq. 5): slope_j c_j - sum_i mult_i slope_i c_i
        #   <= overhead_j - sum_i mult_i overhead_i.
        self.flow_matrix = np.zeros((len(self.consumers), n))
        self.flow_bound = np.zeros(len(self.consumers))
        for row, (consumer, producers) in enumerate(
            zip(self.consumers, self.producer_sets)
        ):
            self.flow_matrix[row, consumer] = self.slope[consumer]
            self.flow_matrix[row, producers] = -(
                self.mult[producers] * self.slope[producers]
            )
            self.flow_bound[row] = self.overhead[consumer] - float(
                (self.mult[producers] * self.overhead[producers]).sum()
            )
        # Ingress: slope_k c_k <= rate + overhead_k; a row with no finite
        # rate is all zeros (never binds).
        finite = np.isfinite(self.ingress_rate)
        self.ingress_matrix = np.zeros((len(self.ingress), n))
        self.ingress_matrix[finite.nonzero()[0], self.ingress[finite]] = (
            self.slope[self.ingress[finite]]
        )
        self.ingress_bound = np.where(
            finite, self.ingress_rate + self.overhead[self.ingress], 0.0
        )

    # -- model -----------------------------------------------------------

    def rate_in(self, c: np.ndarray) -> np.ndarray:
        return self.slope * c - self.overhead

    def rate_out(self, c: np.ndarray) -> np.ndarray:
        return self.mult * self.rate_in(c)

    def objective(self, c: np.ndarray) -> float:
        rates = np.maximum(self.rate_out(c), 0.0)
        return float(
            sum(
                w * _UTILITY.value(r)
                for w, r in zip(self.weight, rates)
                if w > 0
            )
        )

    def objective_gradient(self, c: np.ndarray) -> np.ndarray:
        rates = np.maximum(self.rate_out(c), 0.0)
        grad = np.zeros_like(c)
        for k, (w, r) in enumerate(zip(self.weight, rates)):
            if w > 0:
                grad[k] = w * _UTILITY.derivative(r) * self.mult[k] * self.slope[k]
        return grad

    # -- constraint residuals (<= 0 when satisfied) -----------------------

    def node_residuals(self, c: np.ndarray) -> np.ndarray:
        return self.node_matrix @ c - self.node_bound

    def flow_residuals(self, c: np.ndarray) -> np.ndarray:
        """Per-consumer residuals: r_in,j - sum of upstream r_out (<= 0 ok)."""
        return self.flow_matrix @ c - self.flow_bound

    def ingress_residuals(self, c: np.ndarray) -> np.ndarray:
        return self.ingress_matrix @ c - self.ingress_bound

    def max_violation(self, c: np.ndarray) -> float:
        residuals = np.concatenate(
            [
                self.node_residuals(c),
                self.flow_residuals(c),
                self.ingress_residuals(c),
                self.lower - c,
                c - self.upper,
            ]
        )
        return float(np.maximum(residuals, 0.0).max(initial=0.0))

    def initial_guess(self) -> np.ndarray:
        c = np.zeros(len(self.pe_ids))
        for members, bound in zip(self.node_members, self.node_bound):
            c[members] = bound / len(members)
        return np.clip(c, self.lower, self.upper)

    def to_targets(self, c: np.ndarray) -> AllocationTargets:
        rin = np.maximum(self.rate_in(c), 0.0)
        rout = self.mult * rin
        return AllocationTargets(
            cpu={p: float(c[k]) for p, k in self.index.items()},
            rate_in={p: float(rin[k]) for p, k in self.index.items()},
            rate_out={p: float(rout[k]) for p, k in self.index.items()},
        )


def _project_node_capacity(program: _Program, c: np.ndarray) -> np.ndarray:
    """Project c onto box [lower, upper] intersect node simplices.

    Exact per-node projection: clip to the box, and for a node over its
    capacity ``C`` find the shift ``tau`` with ``sum clip(c - tau, lo, hi)
    = C`` exactly.  That sum is piecewise linear and non-increasing in
    ``tau``, with breakpoints ``c - hi`` and ``c - lo``, so the root is
    found by interpolating across the first breakpoint whose mass is
    <= C.
    """
    projected = np.clip(c, program.lower, program.upper)
    for members, bound in zip(program.node_members, program.node_bound):
        if projected[members].sum() <= bound:
            continue
        values = c[members]
        low = program.lower[members]
        high = program.upper[members]
        breaks = np.sort(np.concatenate([values - high, values - low]))
        mass = np.clip(values - breaks[:, None], low, high).sum(axis=1)
        below = np.flatnonzero(mass <= bound)
        if not below.size:  # the lower bounds alone exceed the node
            projected[members] = low
            continue
        j = below[0]
        tau = breaks[j]
        if j:  # linear between breaks[j - 1] (mass > C) and breaks[j]
            tau -= (bound - mass[j]) * (breaks[j] - breaks[j - 1]) / (
                mass[j - 1] - mass[j]
            )
        projected[members] = np.clip(values - tau, low, high)
    return projected


def _feasibility_sweep(program: _Program, c: np.ndarray) -> np.ndarray:
    """Make c exactly feasible by clamping consumers below producers.

    Walk PEs in topological order; cap each PE's input rate at the min of
    its producers' output rates (and the source rate for ingress), reducing
    its CPU share accordingly.  Capacity constraints are untouched (shares
    only shrink).
    """
    c = c.copy()
    rin = program.rate_in(c)
    rout = program.rate_out(c)
    order = program.pe_ids
    for pe_id in order:
        k = program.index[pe_id]
        upstream = program.graph.upstream(pe_id)
        limit = np.inf
        if upstream:
            limit = sum(rout[program.index[producer]] for producer in upstream)
        position = np.where(program.ingress == k)[0]
        if position.size:
            limit = min(limit, program.ingress_rate[position[0]])
        if rin[k] > limit:
            rin[k] = max(0.0, limit)
            c[k] = (rin[k] + program.overhead[k]) / program.slope[k]
            rout[k] = program.mult[k] * rin[k]
    return c


def _solve_slsqp(
    program: _Program,
) -> _t.Tuple[np.ndarray, int, bool, _t.List[str]]:
    from scipy.optimize import minimize

    def negative_objective(c: np.ndarray) -> float:
        return -program.objective(c)

    def negative_gradient(c: np.ndarray) -> np.ndarray:
        return -program.objective_gradient(c)

    # Each block is linear, -(A c - b) >= 0, so its Jacobian is the
    # constant -A: SLSQP never finite-differences a constraint.
    constraints = [
        {
            "type": "ineq",
            "fun": lambda c, A=matrix, b=bound: b - A @ c,
            "jac": lambda c, A=matrix: -A,
        }
        for matrix, bound in (
            (program.node_matrix, program.node_bound),
            (program.flow_matrix, program.flow_bound),
            (program.ingress_matrix, program.ingress_bound),
        )
        if len(matrix)
    ]

    bounds = list(zip(program.lower, program.upper))
    result = minimize(
        negative_objective,
        program.initial_guess(),
        jac=negative_gradient,
        bounds=bounds,
        constraints=constraints,
        method="SLSQP",
        options={"maxiter": 500, "ftol": 1e-9},
    )
    c = np.clip(result.x, program.lower, program.upper)
    c = _project_node_capacity(program, c)
    c = _feasibility_sweep(program, c)
    converged = bool(result.success)
    messages = [] if converged else [str(result.message)]
    # Status 8 ("positive directional derivative for linesearch") at a
    # feasible point is a stop at working precision: ftol is absolute
    # against objectives in the tens to hundreds, so the linesearch runs
    # out of representable progress before the test fires.
    if result.status == 8 and program.max_violation(c) <= 1e-9:
        converged = True
        messages = [
            "SLSQP status 8 (positive directional derivative for "
            "linesearch) at a feasible point: accepted as converged"
        ]
    return c, int(result.nit), converged, messages


def solve_global_allocation(
    graph: ProcessingGraph,
    placement: Placement,
    source_rates: _t.Mapping[str, float],
    recorder: _t.Optional["TraceRecorder"] = None,
    reason: str = "solve",
    capacities: _t.Optional[_t.Sequence[float]] = None,
) -> GlobalOptimizationResult:
    """Solve the Tier-1 program and return allocation targets.

    Parameters
    ----------
    graph, placement:
        The processing graph and PE-to-node assignment.
    source_rates:
        Offered time-averaged input rate per ingress PE id (SDO/s).
        Missing entries are treated as unconstrained.
    recorder:
        Optional trace bus; when given, the solve publishes one
        ``tier1_resolve`` event carrying the new ``c̄_j`` targets.
    reason:
        Tag recorded on the event (``"initial"``, ``"reoptimize"``, ...).
    capacities:
        Nominal CPU capacity of each node, by node index (the ``C_i`` of
        Eq. 4); None means every node has capacity 1.0.
    """
    program = _Program(graph, placement, source_rates, capacities)

    c, iterations, converged, messages = _solve_slsqp(program)
    targets = program.to_targets(c)
    result = GlobalOptimizationResult(
        targets=targets,
        objective=program.objective(c),
        solver="slsqp",
        iterations=iterations,
        converged=converged,
        max_violation=program.max_violation(c),
        messages=messages,
    )
    if recorder is not None and recorder.enabled:
        recorder.emit(
            "tier1_resolve",
            reason=reason,
            solver=result.solver,
            objective=result.objective,
            converged=result.converged,
            iterations=result.iterations,
            max_violation=result.max_violation,
            cpu_targets={
                pe_id: round(share, 6)
                for pe_id, share in result.targets.cpu.items()
            },
        )
    return result
