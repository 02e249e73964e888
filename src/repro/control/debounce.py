"""One debounce for the three threshold tiers.

Admission, elasticity and forecasting each turn a noisy pressure signal
into a rare action.  Each tier decides per observation what it *wants*
(an action, or None); :class:`Debounce` decides *when* it may act:

* it fires on the ``dwell``-th consecutive observation that wants the
  same action — a different want, or None, restarts the count;
* never while ``now - last < cooldown`` after its last firing;
* never while ``now < not_before``.

Observations made while it may not fire still count, so a want that
outlasts the cooldown fires on the first observation after it.  The
comparison is written once, here, as ``now - last >= cooldown``: in that
form the spacing of the firings is exactly what
:class:`~repro.check.oracles.OracleRecorder` checks, with no slack.
``docs/architecture.md`` ("Debounce") lists each tier's parameters.
"""

from __future__ import annotations

import typing as _t


class Debounce:
    """Dwell + cooldown over a stream of wanted actions."""

    __slots__ = (
        "dwell", "cooldown", "not_before", "want", "streak", "last",
        "firings",
    )

    def __init__(self, dwell: int, cooldown: float) -> None:
        self.dwell = dwell
        self.cooldown = cooldown
        #: No firing before this instant; a tier that warms up sets it
        #: when it binds.
        self.not_before = float("-inf")
        #: The action the current streak wants (None: nothing).
        self.want: _t.Any = None
        #: Consecutive observations wanting :attr:`want` since the last
        #: firing.
        self.streak = 0
        #: Instant of the last firing (None before the first).
        self.last: _t.Optional[float] = None
        #: Every firing instant, in order.
        self.firings: _t.List[float] = []

    def spaced(self, earlier: float, now: float) -> bool:
        """True when ``now`` is at least one cooldown after ``earlier``."""
        return now - earlier >= self.cooldown

    def cooled(self, now: float) -> bool:
        """True when the cooldown since the last firing has passed."""
        return self.last is None or self.spaced(self.last, now)

    def observe(self, want: _t.Any, now: float) -> bool:
        """Count one observation; True when it may fire now.

        The caller acts (or vetoes) and calls :meth:`fire` when it does.
        """
        if want is None:
            self.streak = 0
        elif want == self.want:
            self.streak += 1
        else:
            self.streak = 1
        self.want = want
        return (
            self.streak >= self.dwell
            and self.cooled(now)
            and now >= self.not_before
        )

    def fire(self, now: float) -> None:
        """Record a firing at ``now``: the streak restarts, the cooldown
        starts."""
        self.streak = 0
        self.last = now
        self.firings.append(now)
