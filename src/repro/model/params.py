"""Model parameters: PE profiles and the paper's default experiment values.

The paper (Section VI-C) fixes the following defaults, reproduced in
:data:`DEFAULTS`:

* buffer size ``B = 50`` SDOs, controller set-point ``b0 = B/2``;
* maximum fan-out 4, maximum fan-in 3;
* 20% of PEs have multiple inputs or multiple outputs;
* PE state-machine parameters ``lambda_s = 10``, ``lambda_m = 1``,
  ``rho = 0.5``, ``T0 = 2 ms``, ``T1 = 20 ms``.

Parameter interpretation (documented in DESIGN.md Section 4): each PE has two
processing states with per-SDO costs ``T0`` (fast) and ``T1`` (slow); dwell
times in each state are exponential with means proportional to ``lambda_s``,
scaled so ``rho`` is the stationary fraction of time spent in the slow state.
``lambda_m`` is the mean number of output SDOs emitted per consumed SDO.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class ExperimentDefaults:
    """The paper's default simulation parameters (Section VI-C)."""

    buffer_size: int = 50
    target_occupancy_fraction: float = 0.5  # b0 = B/2
    max_fan_out: int = 4
    max_fan_in: int = 3
    multi_io_fraction: float = 0.20
    lambda_s: float = 10.0
    lambda_m: float = 1.0
    rho: float = 0.5
    t0: float = 0.002  # 2 ms per SDO in the fast state
    t1: float = 0.020  # 20 ms per SDO in the slow state
    calibration_pes: int = 60
    calibration_nodes: int = 10
    main_pes: int = 200
    main_nodes: int = 80


DEFAULTS = ExperimentDefaults()


@dataclass
class PEProfile:
    """Static description of one processing element.

    Parameters
    ----------
    pe_id:
        Unique string identifier, e.g. ``"pe-17"``.
    weight:
        Importance weight ``w_j``; only the weights of egress PEs enter the
        weighted-throughput objective, but every PE carries one.
    t0, t1:
        Per-SDO processing cost (CPU-seconds at full allocation) in the fast
        and slow state respectively.
    lambda_s:
        Burstiness scale: mean state dwell times are
        ``lambda_s * (t0 + t1)/2 * 2 * (1 - rho)`` for state 0 and
        ``... * rho`` for state 1, giving a stationary slow-state fraction
        of ``rho`` and longer bursts for larger ``lambda_s``.
    rho:
        Stationary fraction of time spent in the slow state (state 1).
    lambda_m:
        Mean output count ``M`` (SDOs emitted per SDO consumed).  Values
        below 1 model *selective* operators — a filter with selectivity
        0.3 emits on average 0.3 SDOs per input, an aggregator over
        10-SDO windows has ``lambda_m = 0.1``.
    deterministic_m:
        When True (default) emission counts follow a deterministic
        accumulator: each consumed SDO adds ``lambda_m`` and the integer
        part is emitted, so the long-run ratio is exactly ``lambda_m``
        with minimal variance.  When False, ``M`` is Poisson with mean
        ``lambda_m``.
    overhead:
        The ``b`` constant of the paper's rate model ``h(c) = a*c - b``
        (SDO/s of fixed overhead); ``a`` is derived from the mean service
        time.
    """

    pe_id: str
    weight: float = 1.0
    t0: float = DEFAULTS.t0
    t1: float = DEFAULTS.t1
    lambda_s: float = DEFAULTS.lambda_s
    rho: float = DEFAULTS.rho
    lambda_m: float = DEFAULTS.lambda_m
    deterministic_m: bool = True
    overhead: float = 0.0
    #: Empirically measured ``a`` constant of ``h(c) = a c - b`` (SDO/s per
    #: CPU unit).  When set (see :mod:`repro.model.calibration`) it replaces
    #: the analytic approximation in :attr:`rate_slope`; the paper likewise
    #: determines these constants empirically (footnote 3).
    calibrated_rate_slope: _t.Optional[float] = None
    metadata: _t.Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError(f"{self.pe_id}: weight must be >= 0")
        if self.t0 <= 0 or self.t1 <= 0:
            raise ValueError(f"{self.pe_id}: processing times must be > 0")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"{self.pe_id}: rho must lie in [0, 1]")
        if self.lambda_s < 0:
            raise ValueError(f"{self.pe_id}: lambda_s must be >= 0")
        if self.lambda_m <= 0:
            raise ValueError(f"{self.pe_id}: lambda_m must be > 0")
        if self.overhead < 0:
            raise ValueError(f"{self.pe_id}: overhead must be >= 0")

    # -- derived quantities --------------------------------------------------

    @property
    def mean_service_time(self) -> float:
        """Effective CPU-seconds per SDO under the stationary state mix.

        State dwell times are *wall-clock* exponential (paper Section VI-B),
        so over a long window a fully-allocated PE completes
        ``(1-rho)/t0 + rho/t1`` SDOs per CPU-second — the time-weighted
        arithmetic mean of the per-state rates, not ``1/E[T_S]``.  The
        effective mean service time is the reciprocal of that rate; it is
        what the fluid rate model ``h(c)`` and all backlog estimates use.
        """
        effective_rate = (1.0 - self.rho) / self.t0 + self.rho / self.t1
        return 1.0 / effective_rate

    @property
    def per_sdo_state_mix_cost(self) -> float:
        """Naive per-SDO expectation ``(1-rho) t0 + rho t1`` (reference only).

        This is the mean cost if states were re-sampled per SDO; with
        wall-clock dwells it *overestimates* effective cost because fewer
        SDOs complete while the PE sits in the slow state.
        """
        return (1.0 - self.rho) * self.t0 + self.rho * self.t1

    @property
    def rate_slope(self) -> float:
        """The ``a`` constant of ``h(c) = a*c - b`` (SDO/s per CPU unit).

        Prefers the empirical calibration when present; otherwise the
        stationary-mix analytic value (exact in the long-dwell limit).
        """
        if self.calibrated_rate_slope is not None:
            return self.calibrated_rate_slope
        return 1.0 / self.mean_service_time

    def rate_at(self, cpu: float) -> float:
        """Input rate ``h(c) = a*c - b`` sustainable at CPU allocation ``c``."""
        return max(0.0, self.rate_slope * cpu - self.overhead)

    def cpu_for_rate(self, rate: float) -> float:
        """Inverse rate model ``h^{-1}(r)``: CPU needed for input rate ``r``."""
        if rate <= 0:
            return 0.0
        return (rate + self.overhead) / self.rate_slope

    def output_rate_at(self, cpu: float) -> float:
        """Output rate ``g(c) = lambda_m * h(c)`` at CPU allocation ``c``."""
        return self.lambda_m * self.rate_at(cpu)

    def cpu_for_output_rate(self, rate: float) -> float:
        """Inverse output model ``g^{-1}(r)`` used by the Eq. 8 CPU cap."""
        return self.cpu_for_rate(rate / self.lambda_m)

    def dwell_means(self) -> _t.Tuple[float, float]:
        """Mean dwell times (state 0, state 1) implied by lambda_s and rho.

        The base time unit is the average of the two service times; the
        dwell means are split so the stationary slow-state probability is
        ``rho`` and the total cycle scales linearly with ``lambda_s``.
        """
        base = self.lambda_s * (self.t0 + self.t1)
        return (base * (1.0 - self.rho), base * self.rho)

    def scaled(self, **changes: object) -> "PEProfile":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)  # type: ignore[arg-type]
