"""The utility function of the weighted-throughput objective.

The paper parameterizes PE utilities as ``U_j(r) = w_j * U(r)`` with a
single strictly increasing, concave, differentiable ``U`` shared by all PEs
(Section V-B), and names ``x``, ``log(x + 1)`` and ``1 - exp(-x)`` as
examples.  This reproduction runs ``U(x) = log(x + 1)`` everywhere: Tier 1
maximizes it and every report scores it (:class:`LogUtility`).
"""

from __future__ import annotations

import math


class LogUtility:
    """``U(x) = log(x + 1)``: proportional-fairness flavoured."""

    name = "log"

    def value(self, x: float) -> float:
        """U(x) for x >= 0."""
        if x < 0:
            raise ValueError(f"utility argument must be >= 0, got {x}")
        return math.log1p(x)

    def __call__(self, x: float) -> float:
        return self.value(x)
