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

The one solver is a primal-dual interior-point method (Mehrotra's
predictor-corrector, numpy only) on the exact program: its multipliers
are the paper's Lagrange multipliers of Eqs. 4-5, and it stops once the
mean complementarity is at most 1e-10 and both KKT residuals are at
round-off, so the point it returns is feasible to round-off and
certified optimal to within the duality gap.  A solve that reaches the
iteration cap returns its last iterate with ``converged=False``.
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


#: A solve stops once the mean complementarity ``s . lam / m`` is at
#: most this and each residual entry is at most ``_ROUND_OFF`` of the
#: magnitudes it sums; past ``_MAX_ITERATIONS`` Newton steps it gives up.
_MU_TOLERANCE = 1e-10
_ROUND_OFF = 1e-13
_MAX_ITERATIONS = 100
#: Every row of ``G c <= h`` is relaxed by this much, so a program whose
#: constraints pin a PE (a zero-rate source and all downstream of it)
#: still has an interior and bounded multipliers.
_RELAXATION = 1e-14
#: Relative diagonal jitter for a Newton solve whose reduced matrix is
#: singular in floating point (ratios ``lam/s`` spread over ~20 decades
#: near the optimum); only that one solve is regularized.
_JITTER = 1e-12


def _solve_interior_point(
    program: _Program,
) -> _t.Tuple[np.ndarray, int, bool, _t.List[str]]:
    """Minimize ``phi = -(Eq. 3)`` over ``G c <= h`` (Mehrotra's
    predictor-corrector primal-dual interior-point method).

    ``G`` stacks the node rows (Eq. 4), the flow rows (Eq. 5), the
    finite-rate ingress rows and ``-I`` for the lower box ``c >= b/a``;
    the upper box ``c_j <= C_i`` follows from the node row, since the
    lower box is non-negative.  Each Newton step solves the reduced
    system ``(H + G' diag(lam/s) G) dc = -r_d + G'((r_c - lam r_p)/s)``
    (``H``, ``phi``'s Hessian, is diagonal over the weighted PEs) and
    backtracks until the KKT residual falls.  The start is infeasible
    (slacks ``max(h - G c, 1)``, multipliers 1): no phase-I pass.
    """
    finite = np.isfinite(program.ingress_rate)
    matrix = np.vstack([
        program.node_matrix, program.flow_matrix,
        program.ingress_matrix[finite], -np.eye(len(program.pe_ids)),
    ])
    bound = _RELAXATION + np.concatenate([
        program.node_bound, program.flow_bound,
        program.ingress_bound[finite], -program.lower,
    ])
    magnitude = np.abs(matrix)
    rows = len(bound)
    # phi = -sum_j w_j log(margin_j) over the weighted PEs, where
    # margin = 1 + r_out and gain_j = d r_out,j / d c_j.
    weight = program.weight
    weighted = weight > 0
    gain = program.mult * program.slope

    def residuals(c, s, lam):
        gradient = -weight * gain / (1.0 + program.rate_out(c))
        return gradient, gradient + matrix.T @ lam, matrix @ c + s - bound

    c = program.initial_guess()
    s = np.maximum(bound - matrix @ c, 1.0)
    lam = np.ones(rows)
    for iterations in range(_MAX_ITERATIONS + 1):
        gradient, r_dual, r_primal = residuals(c, s, lam)
        mu = float(s @ lam) / rows
        if mu <= _MU_TOLERANCE and np.all(
            np.abs(r_primal)
            <= _ROUND_OFF * (1.0 + magnitude @ np.abs(c) + s + np.abs(bound))
        ) and np.all(
            np.abs(r_dual)
            <= _ROUND_OFF * (1.0 + np.abs(gradient) + magnitude.T @ lam)
        ):
            return c, iterations, True, []
        if iterations == _MAX_ITERATIONS:
            break
        margin = 1.0 + program.rate_out(c)
        ratio = lam / s
        reduced = matrix.T @ (ratio[:, None] * matrix)
        reduced[np.diag_indices_from(reduced)] += weight * (gain / margin) ** 2

        def direction(r_comp):
            rhs = -r_dual + matrix.T @ ((r_comp - lam * r_primal) / s)
            try:
                dc = np.linalg.solve(reduced, rhs)
            except np.linalg.LinAlgError:
                jitter = _JITTER * np.diag(reduced)
                dc = np.linalg.solve(reduced + np.diag(jitter), rhs)
            dlam = ratio * (matrix @ dc + r_primal) - r_comp / s
            return dc, -(r_comp + s * dlam) / lam, dlam

        def step_to_boundary(dc, ds, dlam):
            """The largest step keeping s, lam and the margins positive."""
            values = np.concatenate([s, lam, margin[weighted]])
            steps = np.concatenate([ds, dlam, (gain * dc)[weighted]])
            shrinking = steps < 0
            return float(
                (-values[shrinking] / steps[shrinking]).min(initial=np.inf)
            )

        dc, ds, dlam = direction(s * lam)  # predictor (affine scaling)
        alpha = min(1.0, step_to_boundary(dc, ds, dlam))
        sigma = (float((s + alpha * ds) @ (lam + alpha * dlam)) / rows / mu) ** 3
        # Centre no lower than a tenth of the stopping mu: below it the
        # ratios lam/s only make the reduced system ill-conditioned.
        target = max(sigma * mu, 0.1 * _MU_TOLERANCE)
        dc, ds, dlam = direction(s * lam + ds * dlam - target)
        alpha = min(1.0, 0.99 * step_to_boundary(dc, ds, dlam))

        def merit(r_d, r_p, s, lam):
            r_c = s * lam - target
            return float(np.sqrt(r_d @ r_d + r_p @ r_p + r_c @ r_c))

        # Backtrack until the KKT residual falls: a full Newton step on
        # the log objective can overshoot and cycle.
        start = merit(r_dual, r_primal, s, lam)
        for _ in range(40):
            trial = (c + alpha * dc, s + alpha * ds, lam + alpha * dlam)
            if merit(*residuals(*trial)[1:], *trial[1:]) <= (
                1.0 - 1e-4 * alpha
            ) * start:
                break
            alpha *= 0.5
        c, s, lam = trial
    return c, _MAX_ITERATIONS, False, [
        f"interior point stopped at the {_MAX_ITERATIONS}-iteration cap: "
        f"mu={mu:.3g}, primal residual={np.abs(r_primal).max():.3g}, "
        f"dual residual={np.abs(r_dual).max():.3g}"
    ]


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

    c, iterations, converged, messages = _solve_interior_point(program)
    # The iterate may leave the box by round-off (the rows are relaxed
    # by _RELAXATION, and a zero-rate source pins shares at b/a = 0) or
    # by more (a stop at the cap); targets need c >= 0.
    c = np.clip(c, program.lower, program.upper)
    targets = program.to_targets(c)
    result = GlobalOptimizationResult(
        targets=targets,
        objective=program.objective(c),
        solver="interior-point",
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
