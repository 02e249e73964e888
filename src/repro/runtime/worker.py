"""PE worker threads for the SPC runtime.

Each :class:`RuntimePE` pairs one worker thread with one input
:class:`~repro.runtime.transport.Channel`.  The worker:

1. waits for an SDO (or for Lock-Step clearance),
2. emulates ``T_S`` CPU-seconds of work at its live fractional
   allocation ``c``: it waits ``remaining / c`` dilated wall-seconds,
   and when ``c`` changes mid-SDO it keeps the work done at the old
   share and serves the rest at the new one (``PERuntime.execute``'s
   carry-over of partial work),
3. emits ``M`` derived SDOs downstream (or into the egress collector),
   counted by the simulator's :class:`~repro.model.pe.EmissionCount`.

The fractional allocation is written by the node's control thread, which
wakes a worker in service when the value changes.  ``RuntimePE`` also
exposes the small protocol the CPU schedulers consume (``pe_id``,
``profile``, ``buffer.occupancy``, ``backlog_work``,
``cpu_for_output_rate_now``), so the same scheduler code drives both
substrates.
"""

from __future__ import annotations

import threading
import time
import typing as _t

import numpy as np

from repro.model.params import PEProfile
from repro.model.pe import EmissionCount
from repro.model.sdo import SDO
from repro.model.statemachine import TwoStateMachine
from repro.obs.recorder import NULL_RECORDER, TraceRecorder
from repro.runtime.transport import Channel

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.control.adapter import GateFn
    from repro.control.plane import AdmissionFn
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
        #: Output SDOs per consumed SDO; a Poisson count draws from the
        #: machine's generator, so it is drawn under the machine's lock.
        self.emission = EmissionCount(profile, rng)
        self._machine_lock = threading.Lock()
        self.dilation = dilation
        self.is_ingress = is_ingress
        self.is_egress = is_egress

        self.downstream: _t.List["RuntimePE"] = []
        self._allocation = 0.0
        #: Set to cut a service wait short: an allocation change while
        #: :attr:`_in_service`, or a stop.
        self._wake = threading.Event()
        self._in_service = False
        #: Blocking admission (Lock-Step) vs drop-on-full (ACES/UDP).
        self.blocking_emission = False
        #: The control plane's live gate registry (pe_id -> gate or
        #: None), checked before each ``get``; empty means ungated.
        self.gates: _t.Mapping[str, _t.Optional["GateFn"]] = {}
        #: The policy's shed filter on this PE's input (None: no
        #: shedding), run by whoever offers it an SDO.
        self.shed_filter: "AdmissionFn" = None
        #: Trace bus for the ``drop{cause="shed"}`` events.
        self.recorder: TraceRecorder = NULL_RECORDER

        self.consumed = 0
        self.emitted = 0
        #: Emitted SDOs a downstream shed filter refused; like the other
        #: counters, written only by this worker's thread.
        self.shed = 0
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

    @property
    def allocation(self) -> float:
        """Current fractional allocation, written by the node controller."""
        return self._allocation

    @allocation.setter
    def allocation(self, value: float) -> None:
        if value != self._allocation:
            self._allocation = value
            if self._in_service:
                self._wake.set()

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

    def ingest(self, sdo: SDO, now: float) -> bool:
        """Offer an SDO to this PE's input channel; False when dropped
        (``now`` is unused: the channel keeps no timestamps)."""
        return self.channel.offer(sdo)

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
        """Tell the worker to exit without waiting for it.  An SDO in
        service is abandoned: neither emitted nor counted as consumed."""
        self._stop.set()
        self._wake.set()

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
            with self._machine_lock:
                cost = self.machine.service_time_at(started)
            if not self._serve(cost):
                return  # stopped mid-SDO
            self.cpu_used += cost
            self.consumed += 1
            self._emit(sdo, started)

    def _serve(self, work: float) -> bool:
        """Emulate ``work`` CPU-seconds at the live allocation.

        Waits ``work / share`` dilated wall-seconds; an allocation change
        ends the wait early, the work done at the old share is deducted
        and the rest is served at the new one.  A crash does not cut the
        SDO short.  Returns False when a stop did.
        """
        wake = self._wake
        dilation = self.dilation
        self._in_service = True
        try:
            while True:
                # Clear before reading the share: a change written after
                # the read sets the event again.
                wake.clear()
                if self._stop.is_set():
                    return False
                share = max(self._allocation, _MIN_SHARE)
                began = time.monotonic()
                if not wake.wait(work / share * dilation):
                    return True
                work -= (time.monotonic() - began) / dilation * share
                if work <= 0.0:
                    return True
        finally:
            self._in_service = False

    def _emit(self, sdo: SDO, started: float) -> None:
        spans = self.spans
        parent_span = None
        now = 0.0
        if spans is not None:
            assert self._clock is not None
            now = self._clock()
            spans.observe_service(self.pe_id, sdo, now - started)
            parent_span = sdo.span
        with self._machine_lock:
            count = self.emission.sample()
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
            # With spans armed, fan-out beyond the first consumer gets an
            # independent copy (downstream workers mutate the span).
            first = True
            for consumer in self.downstream:
                payload = (
                    derived if first or parent_span is None
                    else derived.fanout_copy()
                )
                first = False
                shed_filter = consumer.shed_filter
                if shed_filter is not None and not shed_filter(
                    consumer, payload
                ):
                    self.shed += 1
                    consumer.trace_shed()
                elif self.blocking_emission:
                    consumer.channel.put(payload, timeout=1.0)
                else:
                    consumer.channel.offer(payload)

    def trace_shed(self) -> None:
        """Publish a ``drop{cause="shed"}`` event at this PE's input, as
        the simulator's data plane does."""
        if self.recorder.enabled:
            self.recorder.emit(
                "drop",
                pe=self.pe_id,
                cause="shed",
                occupancy=self.channel.occupancy,
                capacity=self.channel.capacity,
            )

    def __repr__(self) -> str:
        return f"RuntimePE({self.pe_id}, q={self.channel.occupancy})"
