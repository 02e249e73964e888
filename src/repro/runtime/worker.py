"""PE worker threads for the SPC runtime.

Each :class:`RuntimePE` pairs one worker thread with one input
:class:`~repro.runtime.transport.Channel`.  The worker:

1. waits for an SDO (or for Lock-Step clearance),
2. emulates ``T_S`` CPU-seconds of work by sleeping ``T_S / c`` dilated
   wall-seconds at its current fractional allocation ``c``,
3. emits the derived SDOs downstream (or into the egress collector).

The fractional allocation is written by the node's control thread; the
worker reads it per SDO.  ``RuntimePE`` also exposes the small protocol the
CPU schedulers consume (``pe_id``, ``profile``, ``buffer.occupancy``,
``backlog_work``, ``cpu_for_output_rate_now``), so the same scheduler code
drives both substrates.
"""

from __future__ import annotations

import threading
import time
import typing as _t

import numpy as np

from repro.model.params import PEProfile
from repro.model.sdo import SDO
from repro.model.statemachine import TwoStateMachine
from repro.runtime.transport import Channel

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.control.adapter import GateFn
    from repro.obs.spans import SpanTracker

#: Floor on the fractional allocation while emulating work, so a starved
#: worker cannot sleep unboundedly long on one SDO.
_MIN_SHARE = 0.02


class RuntimePE:
    """One PE (worker thread + input channel) in the threaded runtime."""

    def __init__(
        self,
        profile: PEProfile,
        channel_capacity: int,
        rng: np.random.Generator,
        dilation: float,
        is_ingress: bool = False,
        is_egress: bool = False,
    ):
        self.profile = profile
        self.pe_id = profile.pe_id
        #: Mean CPU-seconds per SDO (see PERuntime.mean_work).
        self.mean_work = 1.0 / profile.rate_slope
        self.channel = Channel(channel_capacity, name=f"{profile.pe_id}:in")
        #: The channel under the simulator buffer's name (``occupancy``,
        #: ``free``, ``capacity``), which schedulers and gates read.
        self.buffer = self.channel
        self.machine = TwoStateMachine(profile, rng)
        self._machine_lock = threading.Lock()
        self.dilation = dilation
        self.is_ingress = is_ingress
        self.is_egress = is_egress

        self.downstream: _t.List["RuntimePE"] = []
        #: Current fractional allocation, written by the node controller.
        self.allocation = 0.0
        #: Blocking admission (Lock-Step) vs drop-on-full (ACES/UDP).
        self.blocking_emission = False
        #: The control plane's live gate registry (pe_id -> gate or
        #: None), checked before each ``get``; empty means ungated.
        self.gates: _t.Mapping[str, _t.Optional["GateFn"]] = {}

        self.consumed = 0
        self.emitted = 0
        self.cpu_used = 0.0  # emulated CPU-seconds
        #: Armed latency-span tracker (set by SPCRuntime; None = disarmed).
        self.spans: _t.Optional["SpanTracker"] = None
        self._egress_sink: _t.Optional[_t.Callable[[SDO], None]] = None
        self._clock: _t.Optional[_t.Callable[[], float]] = None

        self._stop = threading.Event()
        self._crash = threading.Event()
        #: Incremented on every restart (thread generation).
        self.generation = 0
        #: True once start() ran (so a supervisor can tell "not yet
        #: started" apart from "died").
        self.started = False
        self._thread = threading.Thread(
            target=self._run, name=f"pe-{profile.pe_id}", daemon=True
        )

    # -- scheduler protocol --------------------------------------------------

    #: The worker's in-progress SDO is invisible to the controller:
    #: backlog is channel occupancy alone (0.0 + x == x, bit for bit).
    work_in_service = 0.0

    @property
    def backlog_work(self) -> float:
        # Same float-op order as PERuntime.backlog_work (occupancy times
        # reciprocal slope), so the substrate parity test stays bit-exact.
        return self.channel.occupancy * self.mean_work

    @property
    def current_service_time(self) -> float:
        return self.profile.t1 if self.machine.state == 1 else self.profile.t0

    def processing_rate(self, cpu: float) -> float:
        return cpu / self.current_service_time

    def cpu_for_output_rate_now(self, rate: float) -> float:
        if rate <= 0:
            return 0.0
        return (rate / self.profile.lambda_m) * self.current_service_time

    #: The threaded runtime blocks inside the worker and is never
    #: pre-empted, so this stays False (clearing it is a no-op).
    blocked_last_interval = False

    # -- wiring -----------------------------------------------------------

    def link_downstream(self, other: "RuntimePE") -> None:
        self.downstream.append(other)

    def attach(
        self,
        clock: _t.Callable[[], float],
        egress_sink: _t.Optional[_t.Callable[[SDO], None]] = None,
    ) -> None:
        self._clock = clock
        self._egress_sink = egress_sink

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self._clock is None:
            raise RuntimeError(f"{self.pe_id}: attach() before start()")
        self.started = True
        self._thread.start()

    def request_stop(self) -> None:
        """Tell the worker to exit without waiting for it."""
        self._stop.set()

    def stop(self, timeout: float = 2.0) -> None:
        self.request_stop()
        self._thread.join(timeout=timeout)

    @property
    def is_alive(self) -> bool:
        """Whether the worker thread is currently running."""
        return self._thread.is_alive()

    def kill(self, timeout: float = 2.0) -> int:
        """Simulate a worker crash: the thread dies, buffered input is lost.

        Returns the number of SDOs lost with the channel.  The PE stays
        dead until :meth:`restart` (normally invoked by the runtime's
        supervisor thread).
        """
        self._crash.set()
        lost = self.channel.clear()
        self._thread.join(timeout=timeout)
        return lost

    def restart(self) -> bool:
        """Revive a crashed worker with a fresh thread (counters persist).

        Returns False, and does nothing, once the worker was told to
        stop: a supervisor's revival can race the runtime's stop.
        """
        if self._thread.is_alive():
            raise RuntimeError(f"{self.pe_id}: cannot restart a live worker")
        if self._stop.is_set():
            return False
        self._crash.clear()
        self.generation += 1
        self._thread = threading.Thread(
            target=self._run,
            name=f"pe-{self.pe_id}-g{self.generation}",
            daemon=True,
        )
        self._thread.start()
        return True

    # -- worker loop --------------------------------------------------------

    def _run(self) -> None:
        poll = 0.002
        while not self._stop.is_set():
            if self._crash.is_set():
                return  # simulated crash: the worker dies mid-flight
            gate = self.gates.get(self.pe_id)
            if gate is not None and not gate(self):
                time.sleep(poll)
                continue

            sdo = self.channel.get(timeout=poll)
            if sdo is None:
                continue

            assert self._clock is not None
            started = self._clock()
            spans = self.spans
            if spans is not None:
                spans.observe_queue(self.pe_id, sdo, started)
            share = max(self.allocation, _MIN_SHARE)
            with self._machine_lock:
                cost = self.machine.service_time_at(started)
            time.sleep(cost / share * self.dilation)
            self.cpu_used += cost
            self.consumed += 1
            self._emit(sdo, started)

    def _emit(self, sdo: SDO, started: float) -> None:
        spans = self.spans
        parent_span = None
        now = 0.0
        if spans is not None:
            assert self._clock is not None
            now = self._clock()
            spans.observe_service(self.pe_id, sdo, now - started)
            parent_span = sdo.span
        count = max(1, int(round(self.profile.lambda_m)))
        for _ in range(count):
            derived = sdo.derive(stream_id=self.pe_id)
            if parent_span is not None:
                derived.span = [
                    parent_span[0], parent_span[1], parent_span[2], now, now,
                ]
            self.emitted += 1
            if self.is_egress or not self.downstream:
                if self._egress_sink is not None:
                    self._egress_sink(derived)
                continue
            if parent_span is None:
                for consumer in self.downstream:
                    if self.blocking_emission:
                        consumer.channel.put(derived, timeout=1.0)
                    else:
                        consumer.channel.offer(derived)
                continue
            # Spans armed: fan-out beyond the first consumer gets an
            # independent copy (downstream workers mutate the span).
            first = True
            for consumer in self.downstream:
                payload = derived if first else derived.fanout_copy()
                first = False
                if self.blocking_emission:
                    consumer.channel.put(payload, timeout=1.0)
                else:
                    consumer.channel.offer(payload)

    def __repr__(self) -> str:
        return f"RuntimePE({self.pe_id}, q={self.channel.occupancy})"
