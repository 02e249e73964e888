"""Transmission/control policies: ACES and the paper's two baselines.

A :class:`Policy` packages every behavioural difference between the three
evaluated systems (paper Section VI):

* **System 1 — ACES** (:class:`AcesPolicy`): LQR flow control (Eq. 7),
  upstream feedback with the max-flow aggregation (Eq. 8), token-bucket
  CPU scheduling with occupancy-proportional spending.
* **System 2 — UDP** (:class:`UdpPolicy`): no feedback; senders emit
  regardless of downstream occupancy and full buffers drop; nominal CPU
  enforcement.
* **System 3 — Lock-Step** (:class:`LockStepPolicy`): min-flow blocking;
  a sender sleeps while any downstream buffer lacks room, and its CPU is
  redistributed among the other resident PEs; nominal CPU enforcement.

The :class:`AcesPolicy` constructor exposes the paper's design knobs
(controller weights, ``b0``, feedback aggregation, scheduler kind), which
the ablation benchmarks vary one at a time.
"""

from __future__ import annotations

import typing as _t

from repro.core.lqr import LQRGains, design_gains, proportional_gains

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.control.adapter import PELike


class Policy:
    """Base class: behavioural hooks consumed by the simulated system."""

    name: str = "abstract"
    #: Does the system run Eq. 7 flow control and publish r_max feedback?
    uses_feedback: bool = False
    #: The node CPU scheduler: the Section V-D token buckets, this many
    #: intervals' fill deep (``AcesCpuScheduler``), or None for strict
    #: proportional enforcement (``StrictProportionalScheduler``).
    token_depth_intervals: _t.Optional[float] = None

    def make_gate(
        self, pe: "PELike"
    ) -> _t.Optional[_t.Callable[["PELike"], bool]]:
        """Per-PE processing gate; None means never blocked."""
        return None

    def controller_gains(self, dt: float) -> _t.Optional[LQRGains]:
        """Flow-controller gains, or None when the policy has no controller."""
        return None

    def aggregate_feedback(self) -> str:
        """'max' (Eq. 8 max-flow) or 'min' (min-flow ablation)."""
        return "max"

    def make_admission_filter(
        self, pe: "PELike"
    ) -> _t.Optional[_t.Callable[["PELike", object], bool]]:
        """Optional early-drop filter applied before a buffer offer.

        Returning a callable lets a policy shed load *before* it occupies
        buffer space (the load-shedding baseline); ``None`` means every
        SDO is offered to the buffer.
        """
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class AcesPolicy(Policy):
    """System 1: the paper's ACES controller.

    Parameters
    ----------
    q, r:
        LQR weights (buffer-deviation vs rate-surplus penalties).
    buffer_lags, rate_lags:
        Controller history lengths K and L of Eq. 7.
    aggregation:
        ``"max"`` for the paper's max-flow policy (Eq. 8); ``"min"`` is the
        min-flow ablation that isolates the policy choice from the
        controller.
    scheduler:
        ``"tokens"`` for the paper's token-bucket CPU control; ``"strict"``
        swaps in the baseline enforcement (ablation).
    controller:
        ``"lqr"`` for Riccati-designed gains; ``"proportional"`` for the
        naive P controller ablation (with gain ``proportional_gain``).
    bucket_depth_intervals:
        Token accumulation cap in units of one interval's fill.
    """

    name = "aces"
    uses_feedback = True

    def __init__(
        self,
        q: float = 1.0,
        r: float = 0.001,
        buffer_lags: int = 1,
        rate_lags: int = 1,
        delay_steps: int = 1,
        aggregation: str = "max",
        scheduler: str = "tokens",
        controller: str = "lqr",
        proportional_gain: float = 5.0,
        bucket_depth_intervals: float = 20.0,
    ):
        if aggregation not in ("max", "min"):
            raise ValueError(
                f"aggregation must be 'max' or 'min', got {aggregation!r}"
            )
        if scheduler not in ("tokens", "strict"):
            raise ValueError(
                f"scheduler must be 'tokens' or 'strict', got {scheduler!r}"
            )
        if controller not in ("lqr", "proportional"):
            raise ValueError(
                "controller must be 'lqr' or 'proportional', "
                f"got {controller!r}"
            )
        self.q = q
        self.r = r
        self.buffer_lags = buffer_lags
        self.rate_lags = rate_lags
        self.delay_steps = delay_steps
        self.aggregation = aggregation
        self.scheduler = scheduler
        self.controller = controller
        self.proportional_gain = proportional_gain
        self.bucket_depth_intervals = bucket_depth_intervals

    @property
    def token_depth_intervals(self) -> _t.Optional[float]:
        return (
            self.bucket_depth_intervals if self.scheduler == "tokens" else None
        )

    def controller_gains(self, dt: float) -> LQRGains:
        if self.controller == "proportional":
            return proportional_gains(dt, self.proportional_gain)
        return design_gains(
            dt,
            q=self.q,
            r=self.r,
            buffer_lags=self.buffer_lags,
            rate_lags=self.rate_lags,
            delay_steps=self.delay_steps,
        )

    def aggregate_feedback(self) -> str:
        return self.aggregation

    def __repr__(self) -> str:
        return (
            f"AcesPolicy(q={self.q}, r={self.r}, "
            f"aggregation={self.aggregation!r}, scheduler={self.scheduler!r})"
        )


class UdpPolicy(Policy):
    """System 2: fire-and-forget emission, drop on overflow."""

    name = "udp"
    uses_feedback = False


class LockStepPolicy(Policy):
    """System 3: min-flow blocking back-pressure (reliable delivery).

    A PE may start an SDO only when *every* downstream buffer can accept
    the outputs it will produce; otherwise it sleeps for the interval and
    its CPU share is redistributed on its node.
    """

    name = "lockstep"
    uses_feedback = False

    def make_gate(
        self, pe: "PELike"
    ) -> _t.Optional[_t.Callable[["PELike"], bool]]:
        expected_m = max(1, int(round(pe.profile.lambda_m)))

        def gate(runtime: "PELike") -> bool:
            return all(
                consumer.buffer.free >= expected_m
                for consumer in runtime.downstream
            )

        return gate


class LoadSheddingPolicy(Policy):
    """The load-shedding baseline (paper Section II, Zdonik et al. [19]).

    Like UDP, senders never block; additionally each PE sheds incoming
    SDOs *probabilistically* once its input buffer passes a threshold,
    ramping linearly from drop-probability 0 at ``threshold * B`` to 1 at
    a full buffer.  Shedding early (before the buffer fills) is the
    classical way to keep queues short without feedback; the comparison
    against ACES isolates what closed-loop control adds over open-loop
    dropping.
    """

    name = "shedding"
    uses_feedback = False

    def __init__(self, threshold: float = 0.6, seed: int = 12345):
        if not 0.0 <= threshold < 1.0:
            raise ValueError(f"threshold must lie in [0, 1), got {threshold}")
        self.threshold = threshold
        self.seed = seed

    def make_admission_filter(
        self, pe: "PELike"
    ) -> _t.Callable[["PELike", object], bool]:
        import zlib

        import numpy as np

        # Keyed on the whole id, so distinct PEs draw distinct streams.
        rng = np.random.default_rng([self.seed, zlib.crc32(pe.pe_id.encode())])
        threshold = self.threshold

        def admit(runtime: "PELike", sdo: object) -> bool:
            occupancy = runtime.buffer.occupancy
            capacity = runtime.buffer.capacity
            start = threshold * capacity
            if occupancy <= start:
                return True
            drop_probability = (occupancy - start) / max(
                1e-9, capacity - start
            )
            return bool(rng.random() >= drop_probability)

        return admit


def policy_by_name(name: str, **kwargs: object) -> Policy:
    """Factory: 'aces', 'udp', 'lockstep', or 'shedding' (plus kwargs)."""
    registry: _t.Dict[str, _t.Type[Policy]] = {
        "aces": AcesPolicy,
        "udp": UdpPolicy,
        "lockstep": LockStepPolicy,
        "shedding": LoadSheddingPolicy,
    }
    try:
        cls = registry[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; choose from {sorted(registry)}"
        ) from None
    return cls(**kwargs)  # type: ignore[arg-type]
