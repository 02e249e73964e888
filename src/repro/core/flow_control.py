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
        if occupancy < 0:
            raise ValueError(f"occupancy must be >= 0, got {occupancy}")

        # Newest-first histories: _deviations[0] is b(n) - b0.
        deviations = self._deviations
        surpluses = self._surpluses
        deviations.appendleft(occupancy - self.b0)

        r_max = rho
        for lam, deviation in zip(self._lambdas, deviations):
            r_max -= lam * deviation
        for mu, surplus in zip(self._mus, surpluses):
            r_max -= mu * surplus

        if r_max < 0.0:
            r_max = 0.0

        # Physical clamp: in one interval the buffer cannot accept more
        # than its free space plus what processing will drain.
        free = self.capacity - occupancy
        if free < 0.0:
            free = 0.0
        ceiling = free / self._dt + rho
        if r_max > ceiling:
            r_max = ceiling

        surpluses.appendleft(r_max - rho)
        self.last_r_max = r_max
        self.updates += 1
        return r_max

    def coefficient_arrays(
        self,
    ) -> _t.Dict[str, _t.Tuple[float, ...]]:
        """Eq. 7 coefficients and histories as plain tuples (newest
        first), for the array-backed control engine and diagnostics."""
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
