"""LQR design of the flow-controller gains (paper Eq. 7 / Appendix A).

The controlled plant is the fluid buffer of one PE::

    b(n+1) = b(n) + dt * (r_in(n) - rho(n))

With the control input defined as the *input-rate surplus*
``u(n) = r_max(n) - rho(n)`` (assuming the upstream complies with the
advertised ``r_max``), the plant is a discrete single integrator.  The
paper's Eq. 7 controller,

    r_max(n) = [rho(n) - sum_k lambda_k (b(n-k) - b0)
                       - sum_l mu_l (r_max(n-l) - rho(n-l))]+

is exactly state feedback ``u(n) = -G s(n)`` on the augmented state

    s(n) = (b(n)-b0, ..., b(n-K)-b0, u(n-1), ..., u(n-L)).

We therefore design ``G`` as the infinite-horizon LQR for the augmented
system with cost ``sum_n q (b(n)-b0)^2 + r u(n)^2``, solving the discrete
algebraic Riccati equation.  ``lambda_k = G_k`` and ``mu_l = G_{K+l}``.

The Riccati equation is solved in numpy by the structured doubling
algorithm (:func:`solve_dare`): from ``G = B R^-1 B^T`` and ``H = Q``,
each step sets ``W = I + G H`` and

    A <- A W^-1 A,   G <- G + A W^-1 G A^T,   H <- H + A^T H W^-1 A,

so ``H`` doubles the horizon of the Riccati recursion and converges
quadratically to the stabilising solution ``P``.  It stops once
``||H_{k+1} - H_k||_1 <= 1e-14 ||H_{k+1}||_1`` and raises if that has
not happened within a fixed number of steps.

LQR guarantees the closed loop is asymptotically stable (all eigenvalues of
``A - B G`` strictly inside the unit circle); :func:`closed_loop_poles`
exposes them so tests can assert the guarantee.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

import numpy as np

_DOUBLING_TOLERANCE = 1e-14
_DOUBLING_STEPS = 64


@dataclass(frozen=True)
class LQRGains:
    """Designed controller gains for Eq. 7."""

    lambdas: _t.Tuple[float, ...]  # buffer-deviation taps, k = 0..K
    mus: _t.Tuple[float, ...]  # rate-surplus taps, l = 1..L
    dt: float
    q: float
    r: float
    delay_steps: int = 0

    @property
    def buffer_lags(self) -> int:
        """K: the number of extra buffer-history taps."""
        return len(self.lambdas) - 1

    @property
    def rate_lags(self) -> int:
        """L: the number of rate-surplus history taps."""
        return len(self.mus)


def _augmented_system(
    dt: float, buffer_lags: int, rate_lags: int, delay_steps: int = 0
) -> _t.Tuple[np.ndarray, np.ndarray]:
    """Build (A, B) for the history-augmented single integrator.

    ``delay_steps`` models the feedback/actuation delay of the distributed
    system: the advertised ``r_max(n)`` only affects arrivals ``delay_steps``
    intervals later (upstream reads it on its next tick).  With a non-zero
    delay the optimal feedback uses the ``u``-history taps — this is what
    makes the paper's mu terms non-trivial.
    """
    if delay_steps < 0:
        raise ValueError("delay_steps must be >= 0")
    if delay_steps > rate_lags:
        raise ValueError(
            f"rate_lags ({rate_lags}) must cover delay_steps ({delay_steps})"
        )
    dim = (buffer_lags + 1) + rate_lags
    A = np.zeros((dim, dim))
    B = np.zeros((dim, 1))

    # Current buffer deviation: x(n+1) = x(n) + dt * u(n - delay).
    A[0, 0] = 1.0
    base = buffer_lags + 1
    if delay_steps == 0:
        B[0, 0] = dt
    else:
        A[0, base + delay_steps - 1] = dt
    # Buffer-history shift registers.
    for k in range(1, buffer_lags + 1):
        A[k, k - 1] = 1.0
    # Rate-surplus history: slot ``base`` stores u(n); the rest shift.
    if rate_lags > 0:
        B[base, 0] = 1.0
        for l in range(1, rate_lags):
            A[base + l, base + l - 1] = 1.0
    return A, B


def solve_dare(
    A: np.ndarray, B: np.ndarray, Q: np.ndarray, R: np.ndarray
) -> np.ndarray:
    """The stabilising solution ``P`` of the discrete algebraic Riccati
    equation ``P = A^T P A - A^T P B (R + B^T P B)^-1 B^T P A + Q``.

    Structured doubling (module docstring).  Raises
    :class:`numpy.linalg.LinAlgError` when the iteration has not met its
    stopping rule within ``_DOUBLING_STEPS`` steps, as it cannot when
    ``(A, B)`` is not stabilisable.
    """
    eye = np.eye(A.shape[0])
    G = B @ np.linalg.solve(R, B.T)
    H = Q
    # An unstabilisable pair drives A and H to inf and then nan; the
    # stopping rule never holds on those, so the cap below raises.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_DOUBLING_STEPS):
            W = eye + G @ H
            W_inv_A = np.linalg.solve(W, A)
            H_next = H + A.T @ H @ W_inv_A
            G = G + A @ np.linalg.solve(W, G) @ A.T
            A = A @ W_inv_A
            change = np.linalg.norm(H_next - H, 1)
            H = H_next
            if change <= _DOUBLING_TOLERANCE * np.linalg.norm(H, 1):
                return H
    raise np.linalg.LinAlgError(
        f"Riccati doubling did not converge in {_DOUBLING_STEPS} steps"
    )


def design_gains(
    dt: float,
    q: float = 1.0,
    r: float = 0.001,
    buffer_lags: int = 1,
    rate_lags: int = 1,
    delay_steps: int = 1,
) -> LQRGains:
    """Design Eq. 7 gains by solving the discrete algebraic Riccati equation.

    Parameters
    ----------
    dt:
        Control interval (seconds).
    q:
        Weight on squared buffer deviation ``(b - b0)^2``.  Large ``q``
        (relative to ``r``) makes the controller chase ``b0`` aggressively
        (the paper's "if lambda_k are large ... the PE tries to make b equal
        b0").
    r:
        Weight on squared rate surplus ``(r_max - rho)^2``.  Large ``r``
        makes the controller equalize input and processing rates instead.
    buffer_lags:
        K — number of *additional* buffer-history taps beyond the current
        sample (Eq. 7 sums ``k = 0..K``).
    rate_lags:
        L — number of rate-surplus history taps (Eq. 7 sums ``l = 1..L``).
    delay_steps:
        Actuation delay in control intervals (the feedback propagation
        delay of the distributed system; default one interval).
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if q <= 0 or r <= 0:
        raise ValueError("q and r must be positive")
    if buffer_lags < 0 or rate_lags < 0:
        raise ValueError("lag counts must be >= 0")

    A, B = _augmented_system(dt, buffer_lags, rate_lags, delay_steps)
    dim = A.shape[0]
    Q = np.zeros((dim, dim))
    Q[0, 0] = q
    # A vanishing penalty on the history slots keeps Q positive definite,
    # so (A, Q) is detectable and the Riccati solution stabilising.
    for index in range(1, dim):
        Q[index, index] = 1e-9 * q
    R = np.array([[r]])

    P = solve_dare(A, B, Q, R)
    gain = np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A).ravel()

    lambdas = tuple(float(g) for g in gain[: buffer_lags + 1])
    mus = tuple(float(g) for g in gain[buffer_lags + 1 :])
    return LQRGains(
        lambdas=lambdas, mus=mus, dt=dt, q=q, r=r, delay_steps=delay_steps
    )


def closed_loop_poles(gains: LQRGains) -> np.ndarray:
    """Eigenvalues of the closed-loop matrix ``A - B G``.

    LQR guarantees all magnitudes are < 1 (asymptotic stability); tests
    assert this for a range of designs.
    """
    A, B = _augmented_system(
        gains.dt, gains.buffer_lags, gains.rate_lags, gains.delay_steps
    )
    G = np.array([list(gains.lambdas) + list(gains.mus)])
    return np.linalg.eigvals(A - B @ G)


def is_stable(gains: LQRGains, margin: float = 0.0) -> bool:
    """True when every closed-loop pole lies inside the unit circle."""
    return bool(np.all(np.abs(closed_loop_poles(gains)) < 1.0 - margin))


def proportional_gains(dt: float, gain: float) -> LQRGains:
    """A naive proportional controller (ablation baseline).

    ``r_max(n) = rho(n) - gain * (b(n) - b0)`` — no history, hand-tuned
    gain instead of the Riccati solution.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    return LQRGains(lambdas=(gain,), mus=(), dt=dt, q=float("nan"), r=float("nan"))
