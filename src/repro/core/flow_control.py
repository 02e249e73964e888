"""The per-PE flow controller: paper Eq. 7.

Every control interval the PE computes its *maximum sustainable input rate*

    r_max(n) = [rho(n) - sum_{k=0}^{K} lambda_k (b(n-k) - b0)
                       - sum_{l=1}^{L} mu_l (r_max(n-l) - rho(n-l))]+

from its current processing rate ``rho(n)``, its input-buffer occupancy
history, and its own recent rate decisions.  The result is advertised
upstream through the :class:`~repro.core.feedback.FeedbackBus`.

On top of the LQR law we apply one physical safety clamp: the PE can never
admit more than (free buffer space + expected drain) in one interval.  The
clamp only ever reduces ``r_max`` and cannot destabilize the loop.
"""

from __future__ import annotations

import typing as _t
from collections import deque

from repro.core.lqr import LQRGains


class FlowController:
    """Implements Eq. 7 for one PE.

    Parameters
    ----------
    gains:
        Designed gains (see :func:`repro.core.lqr.design_gains`).
    target_occupancy:
        The set-point ``b0`` in SDOs.
    buffer_capacity:
        Total buffer size ``B`` (for the safety clamp).
    pe_id:
        Identity the owning node controller publishes this PE's
        ``r_max`` trace rows under (:meth:`update` itself is silent).
    """

    def __init__(
        self,
        gains: LQRGains,
        target_occupancy: float,
        buffer_capacity: float,
        pe_id: str = "",
    ):
        if target_occupancy < 0 or target_occupancy > buffer_capacity:
            raise ValueError(
                f"b0={target_occupancy} outside [0, {buffer_capacity}]"
            )
        self.gains = gains
        self.b0 = float(target_occupancy)
        self.capacity = float(buffer_capacity)
        self.pe_id = pe_id
        #: Hot-path caches: gains are immutable once designed, and update()
        #: runs once per PE per control interval.
        self._lambdas = tuple(gains.lambdas)
        self._mus = tuple(gains.mus)
        self._dt = float(gains.dt)

        history = gains.buffer_lags + 1
        self._deviations: _t.Deque[float] = deque(
            [0.0] * history, maxlen=history
        )
        surplus_len = max(gains.rate_lags, 1)
        self._surpluses: _t.Deque[float] = deque(
            [0.0] * surplus_len, maxlen=surplus_len
        )
        self.last_r_max = 0.0
        self.updates = 0
        #: This controller as :func:`update_rows` reads it.  The deques
        #: are only ever mutated in place, so the row stays current.  The
        #: last field marks the designed default (one buffer lag, one
        #: rate lag), which the batch evaluates unrolled.
        self.row = (
            self, self._deviations, self._surpluses, self._lambdas,
            self._mus, self.b0, self.capacity, self._dt,
            len(self._lambdas) == 2 and len(self._mus) == 1,
        )

    def update(self, occupancy: float, rho: float) -> float:
        """Compute r_max(n) from current occupancy and processing rate.

        Parameters
        ----------
        occupancy:
            Input-buffer occupancy ``b(n)`` in SDOs.
        rho:
            Current processing rate ``rho(n)`` in SDO/s (the rate the CPU
            controller lets this PE drain its buffer at).

        Returns
        -------
        float
            The maximum sustainable input rate (SDO/s), >= 0.
        """
        return update_rows((self.row,), (occupancy,), (rho,))[0]

    def coefficient_arrays(
        self,
    ) -> _t.Dict[str, _t.Tuple[float, ...]]:
        """Eq. 7 coefficients and histories as plain tuples (newest
        first), for diagnostics."""
        return {
            "lambdas": self._lambdas,
            "mus": self._mus,
            "deviations": tuple(self._deviations),
            "surpluses": tuple(self._surpluses),
        }

    def reset(self) -> None:
        """Clear histories (e.g. after a reconfiguration)."""
        for _ in range(len(self._deviations)):
            self._deviations.appendleft(0.0)
        for _ in range(len(self._surpluses)):
            self._surpluses.appendleft(0.0)
        self.last_r_max = 0.0

    def __repr__(self) -> str:
        return (
            f"FlowController(b0={self.b0}, last_r_max={self.last_r_max:.2f})"
        )


def update_rows(
    rows: _t.Sequence[_t.Tuple[_t.Any, ...]],
    occupancies: _t.Sequence[float],
    rhos: _t.Sequence[float],
) -> _t.List[float]:
    """Eq. 7 for many PEs in one pass (a node tick's worth).

    ``rows[k]`` is a controller's :attr:`FlowController.row` (resolved
    once at wiring); the controller is updated with ``(occupancies[k],
    rhos[k])`` and its ``r_max(n)`` returned at position ``k``.
    """
    r_maxes = []
    for (
        controller, deviations, surpluses, lambdas, mus, b0, capacity, dt,
        unrolled,
    ), occupancy, rho in zip(rows, occupancies, rhos):
        if occupancy < 0:
            raise ValueError(f"occupancy must be >= 0, got {occupancy}")
        # Newest-first histories: deviations[0] is b(n) - b0.
        deviation = occupancy - b0
        deviations.appendleft(deviation)
        if unrolled:
            # Two lambdas, one mu: no iterator per PE.
            r_max = (
                rho
                - lambdas[0] * deviation
                - lambdas[1] * deviations[1]
                - mus[0] * surpluses[0]
            )
        else:
            r_max = rho
            for lam, deviation in zip(lambdas, deviations):
                r_max -= lam * deviation
            for mu, surplus in zip(mus, surpluses):
                r_max -= mu * surplus
        if r_max < 0.0:
            r_max = 0.0
        # Physical clamp: in one interval the buffer cannot accept more
        # than its free space plus what processing will drain.
        free = capacity - occupancy
        if free < 0.0:
            free = 0.0
        ceiling = free / dt + rho
        if r_max > ceiling:
            r_max = ceiling
        surpluses.appendleft(r_max - rho)
        controller.last_r_max = r_max
        controller.updates += 1
        r_maxes.append(r_max)
    return r_maxes
