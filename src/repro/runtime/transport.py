"""Bounded inter-PE channels with per-policy admission semantics.

A :class:`Channel` is the runtime's counterpart of the simulator's
:class:`~repro.model.buffers.InputBuffer`: a thread-safe bounded FIFO with
telemetry.  ``offer`` is the UDP/ACES admission (drop on full); ``put``
with a timeout is the Lock-Step blocking admission.
"""

from __future__ import annotations

import threading
import typing as _t
from collections import deque
from dataclasses import dataclass

from repro.model.sdo import SDO


@dataclass
class ChannelStats:
    offered: int = 0
    accepted: int = 0
    dropped: int = 0
    popped: int = 0
    #: Accepted SDOs lost to :meth:`Channel.clear` (also in ``dropped``).
    flushed: int = 0


class Channel:
    """Thread-safe bounded SDO queue feeding one PE."""

    def __init__(self, capacity: int, name: str = "channel"):
        if capacity <= 0:
            raise ValueError(f"{name}: capacity must be positive")
        self.capacity = capacity
        self.name = name
        self._items: _t.Deque[SDO] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        #: ``telemetry`` is the simulator buffer's name for the counters.
        self.stats = self.telemetry = ChannelStats()

    @property
    def occupancy(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def free(self) -> int:
        with self._lock:
            return self.capacity - len(self._items)

    def offer(self, sdo: SDO) -> bool:
        """Non-blocking admission; False (and a drop) when full."""
        with self._lock:
            self.stats.offered += 1
            if len(self._items) >= self.capacity:
                self.stats.dropped += 1
                return False
            self._items.append(sdo)
            self.stats.accepted += 1
            self._not_empty.notify()
            return True

    def put(self, sdo: SDO, timeout: _t.Optional[float] = None) -> bool:
        """Blocking admission (Lock-Step); False only on timeout."""
        with self._not_full:
            self.stats.offered += 1
            if not self._not_full.wait_for(
                lambda: len(self._items) < self.capacity, timeout=timeout
            ):
                self.stats.dropped += 1
                return False
            self._items.append(sdo)
            self.stats.accepted += 1
            self._not_empty.notify()
            return True

    def clear(self) -> int:
        """Discard everything queued, counting each SDO as a drop.

        Models buffer loss when the owning worker crashes; returns the
        number of SDOs lost.
        """
        with self._lock:
            lost = len(self._items)
            self._items.clear()
            self.stats.dropped += lost
            self.stats.flushed += lost
            self._not_full.notify_all()
            return lost

    def get(self, timeout: _t.Optional[float] = None) -> _t.Optional[SDO]:
        """Pop the oldest SDO, waiting up to ``timeout``; None on timeout."""
        with self._not_empty:
            if not self._not_empty.wait_for(
                lambda: len(self._items) > 0, timeout=timeout
            ):
                return None
            sdo = self._items.popleft()
            self.stats.popped += 1
            self._not_full.notify()
            return sdo

    def __repr__(self) -> str:
        return f"Channel({self.name}, {self.occupancy}/{self.capacity})"
