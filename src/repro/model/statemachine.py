"""Two-state Markov-modulated PE state machine (paper Section VI-B).

A PE alternates between a fast state (0) and a slow state (1).  Dwell times
in each state are exponentially distributed; the per-SDO processing cost is
``T0`` or ``T1`` depending on the state at the moment processing starts.
Longer dwell times (larger ``lambda_s``) mean the PE stays slow (or fast)
for long stretches — the paper's definition of processing burstiness.

The machine advances *lazily*: it pre-samples only the next transition time
and catches up when asked about a later instant, so it is O(number of
transitions) regardless of how often it is queried.
"""

from __future__ import annotations

import numpy as np

from repro.model.params import PEProfile
from repro.sim.rng import exponential


class TwoStateMachine:
    """Lazy continuous-time two-state Markov chain.

    Parameters
    ----------
    profile:
        The PE profile supplying ``t0``, ``t1``, ``lambda_s`` and ``rho``.
    rng:
        Dedicated random generator (one per PE for reproducibility).

    The machine starts at virtual time 0.
    """

    def __init__(self, profile: PEProfile, rng: np.random.Generator):
        self.profile = profile
        self._rng = rng
        self._time = 0.0
        self._dwell_means = profile.dwell_means()
        self.transitions = 0

        # Degenerate cases: lambda_s == 0 or rho in {0, 1} freeze the chain.
        if profile.lambda_s == 0.0 or profile.rho in (0.0, 1.0):
            self._frozen = True
            self._state = 1 if profile.rho >= 1.0 else 0
            self._next_transition = float("inf")
            return

        self._frozen = False
        # Start from the stationary distribution.
        self._state = 1 if rng.random() < profile.rho else 0
        self._next_transition = self._time + self._sample_dwell(self._state)

    def _sample_dwell(self, state: int) -> float:
        return exponential(self._rng, self._dwell_means[state])

    @property
    def state(self) -> int:
        """Current state without advancing time."""
        return self._state

    @property
    def now(self) -> float:
        """The time up to which the machine has been advanced."""
        return self._time

    def advance_to(self, time: float) -> int:
        """Advance the chain to ``time`` and return the state there."""
        if time < self._time:
            raise ValueError(
                f"cannot rewind state machine from {self._time} to {time}"
            )
        if not self._frozen:
            while self._next_transition <= time:
                self._time = self._next_transition
                self._state = 1 - self._state
                self.transitions += 1
                self._next_transition = self._time + self._sample_dwell(self._state)
        self._time = time
        return self._state

    def service_time_at(self, time: float) -> float:
        """Per-SDO processing cost for work started at ``time``."""
        state = self.advance_to(time)
        return self.profile.t1 if state == 1 else self.profile.t0

    def expected_service_time(self) -> float:
        """Stationary mean per-SDO cost (for the fluid model)."""
        return self.profile.mean_service_time
