"""System-input stream sources (workload generators).

A source is a process that creates SDOs and pushes them into the ingress
PEs' input buffers via a *sink callable*.  It runs on either substrate:
as a kernel process of the simulator's
:class:`~repro.sim.engine.Environment`, or on a thread of the threaded
runtime's :class:`~repro.runtime.env.ThreadEnv`, which gives each
process the same sequence of ``now`` values the kernel would.  Three
traffic models cover the paper's evaluation needs:

* :class:`ConstantRateSource` — deterministic CBR traffic;
* :class:`PoissonSource` — memoryless arrivals;
* :class:`OnOffSource` — two-state Markov-modulated (bursty) arrivals, the
  network-side counterpart of the PE processing burstiness.
* :class:`SquareWaveSource` — deterministic adversarial on/off square
  wave: CBR at ``peak_rate`` for the ON share of every ``period``,
  silence otherwise (the worst case for a reactive controller, since
  every burst edge is a step), optionally under a linear peak drift.

A :class:`PoissonSource` may carry a rate *shape*, a pure function of
the base rate and time.  :func:`flash_crowd` is the canonical
flash-crowd overload (one surge window); the forecasting scenario
library adds three more, each deterministic given the seeded RNG, and
the drifting square wave:

* :func:`diurnal` — a sinusoidally modulated rate (the daily load
  cycle, compressed to simulation scale): the predictable-periodic
  workload a seasonal forecaster should anticipate almost perfectly.
* :func:`linear_drift` — a linearly drifting mean rate: the slow
  organic-growth trend where a trend-aware forecaster beats a flat one.
* :func:`correlated_burst` — a *shared* deterministic burst window
  schedule: every source shaped with the same parameters bursts in the
  same windows, modeling correlated multi-source load (one upstream
  event driving all ingress streams at once).
* ``SquareWaveSource(drift=...)`` — the adversarial square wave composed
  with a linear peak-rate drift: step edges (worst case for reactive
  control) on top of a trend (worst case for a memoryless forecaster).

Sources tag each SDO with its creation time, which seeds the end-to-end
latency measurement at the egress.  Every source honours
:meth:`_SourceBase.backoff`: an admission front end answering 429-style
hands the source a retry-after horizon and the source stops *offering*
(not generating decisions) until the horizon passes — open-loop clients
that retry later, not closed-loop clients that vanish.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

import numpy as np

from repro.model.sdo import SDO
from repro.sim.rng import exponential

#: Every source model ``repro.systems.build.build_sources`` can
#: instantiate.  The first five are the original set; the last four are
#: the forecasting scenario library.
SOURCE_KINDS = (
    "onoff",
    "poisson",
    "constant",
    "squarewave",
    "flashcrowd",
    "diurnal",
    "drift",
    "correlatedburst",
    "driftsquare",
)

#: The environment a source runs in: the simulator's ``Environment`` or
#: the threaded runtime's ``ThreadEnv`` (``now``, ``timeout``, ``process``).
Env = _t.Any

#: A sink accepts (sdo, now) and returns True when the SDO was admitted.
Sink = _t.Callable[[SDO, float], bool]

#: A rate shape maps (base rate, now) to the instantaneous mean rate.
RateShape = _t.Callable[[float, float], float]


@dataclass
class SourceStats:
    """Counters for one source."""

    generated: int = 0
    admitted: int = 0
    rejected: int = 0
    #: Offers withheld while honouring an admission retry-after horizon.
    #: Deferred SDOs are never generated, so the conservation identity
    #: ``generated == admitted + rejected`` is unaffected.
    deferred: int = 0

    @property
    def rejection_rate(self) -> float:
        if self.generated == 0:
            return 0.0
        return self.rejected / self.generated


class _SourceBase:
    """Common machinery: the arrival loop and admission accounting."""

    def __init__(self, env: Env, stream_id: str, sink: Sink):
        self.env = env
        self.stream_id = stream_id
        self.sink = sink
        self.stats = SourceStats()
        self._held_until = 0.0
        self.process = env.process(self._run())

    def _interarrival(self) -> float:
        raise NotImplementedError

    def _run(self) -> _t.Generator:
        while True:
            gap = self._interarrival()
            if gap > 0:
                yield self.env.timeout(gap)
            else:
                # Zero-gap sources still need to yield control.
                yield self.env.timeout(0.0)
            self._emit_one()

    def backoff(self, until: float) -> None:
        """429-style retry-after: hold all offers until ``until``.

        Horizons only ever extend (a shorter retry-after never shortens
        an existing hold), so concurrent rejections compose safely.
        """
        if until > self._held_until:
            self._held_until = until

    def _emit_one(self) -> None:
        now = self.env.now
        if now < self._held_until:
            self.stats.deferred += 1
            return
        sdo = SDO(stream_id=self.stream_id, origin_time=now)
        self.stats.generated += 1
        if self.sink(sdo, now):
            self.stats.admitted += 1
        else:
            self.stats.rejected += 1


class ConstantRateSource(_SourceBase):
    """Deterministic arrivals at ``rate`` SDO/s."""

    def __init__(self, env: Env, stream_id: str, sink: Sink, rate: float):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = rate
        super().__init__(env, stream_id, sink)

    def _interarrival(self) -> float:
        return 1.0 / self.rate


class PoissonSource(_SourceBase):
    """Poisson arrivals at mean ``rate`` SDO/s, optionally shaped in time.

    With a ``shape`` the instantaneous mean rate is ``shape(rate, now)``
    (see :func:`flash_crowd`, :func:`diurnal`, :func:`linear_drift`,
    :func:`correlated_burst`).  Each interarrival is drawn from the
    exponential at the rate in effect when it is drawn — a standard
    non-homogeneous approximation, exact wherever the rate is locally
    flat relative to the gap and deterministic given the seeded RNG
    either way.  ``rate`` stays the base every shape scales, so a
    surge that multiplies it surges any shape.
    """

    def __init__(
        self,
        env: Env,
        stream_id: str,
        sink: Sink,
        rate: float,
        rng: np.random.Generator,
        shape: _t.Optional[RateShape] = None,
    ):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = rate
        self.shape = shape
        self._rng = rng
        super().__init__(env, stream_id, sink)

    def current_rate(self, now: float) -> float:
        """Instantaneous mean arrival rate at ``now``."""
        shape = self.shape
        return self.rate if shape is None else shape(self.rate, now)

    def _interarrival(self) -> float:
        return exponential(self._rng, 1.0 / self.current_rate(self.env.now))


def flash_crowd(
    surge_start: float, surge_duration: float, surge_factor: float
) -> RateShape:
    """Poisson background with one flash-crowd surge window.

    The rate multiplies by ``surge_factor`` inside ``[surge_start,
    surge_start + surge_duration)`` — the canonical breaking-news /
    thundering-herd overload a latency SLO has to survive.
    """
    if surge_start < 0 or surge_duration < 0:
        raise ValueError("surge_start and surge_duration must be >= 0")
    if surge_factor < 1.0:
        raise ValueError(f"surge_factor must be >= 1, got {surge_factor}")
    surge_end = surge_start + surge_duration

    def shape(rate: float, now: float) -> float:
        if surge_start <= now < surge_end:
            return rate * surge_factor
        return rate

    return shape


def diurnal(period: float, amplitude: float, phase: float = 0.0) -> RateShape:
    """A sinusoidal (diurnal) rate cycle.

    The rate is ``rate * (1 + amplitude * sin(2*pi*(t - phase)/period))``
    — always positive because ``amplitude`` must lie in [0, 1): the
    predictable-periodic load a seasonal forecaster should anticipate
    almost perfectly.
    """
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    if not 0.0 <= amplitude < 1.0:
        raise ValueError(f"amplitude must lie in [0, 1), got {amplitude}")

    def shape(rate: float, now: float) -> float:
        cycle = 2.0 * np.pi * (now - phase) / period
        return rate * (1.0 + amplitude * float(np.sin(cycle)))

    return shape


def linear_drift(drift: float) -> RateShape:
    """A linearly drifting mean rate, ``rate * (1 + drift * t)``.

    Floored at 5% of the base rate, so a negative drift can slow the
    stream to a trickle but never stop (or reverse) it.  ``drift`` is
    the relative slope per second: 0.05 means +5% load per simulated
    second — the organic-growth trend where a trend-aware forecaster
    beats a flat one.
    """

    def shape(rate: float, now: float) -> float:
        return max(0.05 * rate, rate * (1.0 + drift * now))

    return shape


def correlated_burst(
    period: float, burst_duration: float, burst_factor: float
) -> RateShape:
    """A shared deterministic burst schedule.

    Every ``period`` seconds the rate multiplies by ``burst_factor`` for
    ``burst_duration`` seconds.  The schedule is a pure function of time
    (no RNG), so every source shaped with the same parameters bursts in
    exactly the same windows — correlated multi-source overload, the
    case where per-stream reactive control underestimates the aggregate
    surge.
    """
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    if not 0.0 <= burst_duration <= period:
        raise ValueError(
            "burst_duration must lie in [0, period], got "
            f"{burst_duration} (period {period})"
        )
    if burst_factor < 1.0:
        raise ValueError(f"burst_factor must be >= 1, got {burst_factor}")

    def shape(rate: float, now: float) -> float:
        if (now % period) < burst_duration:
            return rate * burst_factor
        return rate

    return shape


class OnOffSource(_SourceBase):
    """Markov-modulated on/off arrivals (bursty network traffic).

    During an ON period (exponential, mean ``mean_on``) SDOs arrive as a
    Poisson process at ``peak_rate``; during an OFF period (mean
    ``mean_off``) nothing arrives.  The long-run average rate is
    ``peak_rate * mean_on / (mean_on + mean_off)``.
    """

    def __init__(
        self,
        env: Env,
        stream_id: str,
        sink: Sink,
        peak_rate: float,
        mean_on: float,
        mean_off: float,
        rng: np.random.Generator,
    ):
        if peak_rate <= 0:
            raise ValueError(f"peak_rate must be positive, got {peak_rate}")
        if mean_on <= 0 or mean_off < 0:
            raise ValueError("mean_on must be > 0 and mean_off >= 0")
        self.peak_rate = peak_rate
        self.mean_on = mean_on
        self.mean_off = mean_off
        self._rng = rng
        self._on_until = 0.0
        super().__init__(env, stream_id, sink)

    @property
    def mean_rate(self) -> float:
        """Long-run average arrival rate."""
        duty = self.mean_on / (self.mean_on + self.mean_off)
        return self.peak_rate * duty

    def _run(self) -> _t.Generator:
        while True:
            on_duration = exponential(self._rng, self.mean_on)
            self._on_until = self.env.now + on_duration
            while self.env.now < self._on_until:
                gap = exponential(self._rng, 1.0 / self.peak_rate)
                if self.env.now + gap > self._on_until:
                    yield self.env.timeout(self._on_until - self.env.now)
                    break
                yield self.env.timeout(gap)
                self._emit_one()
            off_duration = exponential(self._rng, self.mean_off)
            if off_duration > 0:
                yield self.env.timeout(off_duration)


class SquareWaveSource(_SourceBase):
    """Deterministic adversarial on/off square wave.

    Every ``period`` seconds the source emits CBR traffic at the current
    peak rate for ``duty * period`` seconds, then goes silent for the
    remainder.  Unlike :class:`OnOffSource` there is no randomness at
    all: the burst edges are steps at exactly predictable instants,
    which is the hardest shape for a reactive controller (no gradual
    ramp to react to) and the easiest to assert on in tests.

    The peak rate drifts as ``peak_rate * (1 + drift * t)`` (floored at
    5% of ``peak_rate``), read once per burst, so a change to
    ``peak_rate`` takes effect at the next burst.  With the default
    ``drift=0`` the long-run average rate is ``peak_rate * duty``; a
    nonzero drift puts a trend under the step edges, which defeats a
    memoryless forecaster as the edges defeat reactive control.
    """

    def __init__(
        self,
        env: Env,
        stream_id: str,
        sink: Sink,
        peak_rate: float,
        period: float,
        duty: float,
        drift: float = 0.0,
    ):
        if peak_rate <= 0:
            raise ValueError(f"peak_rate must be positive, got {peak_rate}")
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if not 0.0 < duty <= 1.0:
            raise ValueError(f"duty must lie in (0, 1], got {duty}")
        self.peak_rate = peak_rate
        self.period = period
        self.duty = duty
        self.drift = drift
        super().__init__(env, stream_id, sink)

    @property
    def mean_rate(self) -> float:
        """Long-run average arrival rate (without drift)."""
        return self.peak_rate * self.duty

    def current_peak(self, now: float) -> float:
        """Drifted peak rate at ``now``."""
        return max(
            0.05 * self.peak_rate,
            self.peak_rate * (1.0 + self.drift * now),
        )

    def _run(self) -> _t.Generator:
        on_duration = self.duty * self.period
        off_duration = self.period - on_duration
        while True:
            gap = 1.0 / self.current_peak(self.env.now)
            burst_end = self.env.now + on_duration
            while self.env.now + gap <= burst_end:
                yield self.env.timeout(gap)
                self._emit_one()
            remainder = burst_end - self.env.now
            if remainder > 0:
                yield self.env.timeout(remainder)
            if off_duration > 0:
                yield self.env.timeout(off_duration)
            else:
                yield self.env.timeout(0.0)
