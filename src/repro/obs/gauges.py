"""Fixed-cadence gauge sampling into time-series.

Trace events (:mod:`repro.obs.recorder`) capture *decisions* as they
happen; gauges capture *state* on a regular virtual-time cadence — buffer
occupancy, token-bucket levels, the last advertised ``r_max`` — producing
the uniformly sampled series the paper's Figures 3–5 style plots need.

A :class:`GaugeRegistry` owns named per-PE/per-node gauges (zero-argument
callables) and one simulation process that samples every registered gauge
each ``cadence`` seconds into a :class:`~repro.metrics.timeseries.TimeSeries`.
When a recorder is attached, each sample is additionally published as a
``gauge`` trace event, so gauge data lands in the same JSONL stream as the
decision events.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

from repro.metrics.timeseries import TimeSeries
from repro.obs.recorder import NULL_RECORDER, TraceRecorder
from repro.sim.engine import Environment


@dataclass
class Gauge:
    """One registered gauge: a named, labelled state sampler."""

    name: str
    fn: _t.Callable[[], float]
    pe: _t.Optional[str] = None
    node: _t.Optional[str] = None

    @property
    def key(self) -> _t.Tuple[str, _t.Optional[str], _t.Optional[str]]:
        return (self.name, self.pe, self.node)


class GaugeRegistry:
    """Samples registered gauges on a fixed virtual-time cadence.

    Parameters
    ----------
    env:
        The simulation environment whose clock drives sampling.
    cadence:
        Sampling period in virtual seconds.
    recorder:
        Optional trace recorder; every sample is then also emitted as a
        ``gauge`` event (name + value payload).
    """

    def __init__(
        self,
        env: Environment,
        cadence: float = 0.1,
        recorder: TraceRecorder = NULL_RECORDER,
    ):
        if cadence <= 0:
            raise ValueError(f"cadence must be positive, got {cadence}")
        self.env = env
        self.cadence = cadence
        self.recorder = recorder
        self._gauges: _t.List[Gauge] = []
        self._series: _t.Dict[
            _t.Tuple[str, _t.Optional[str], _t.Optional[str]], TimeSeries
        ] = {}
        self._started = False

    def register(
        self,
        name: str,
        fn: _t.Callable[[], float],
        pe: _t.Optional[str] = None,
        node: _t.Optional[str] = None,
    ) -> Gauge:
        """Add a gauge; duplicate (name, pe, node) keys are rejected."""
        gauge = Gauge(name=name, fn=fn, pe=pe, node=node)
        if gauge.key in self._series:
            raise ValueError(f"gauge {gauge.key} already registered")
        self._gauges.append(gauge)
        label = name if pe is None and node is None else (
            f"{name}[{pe or node}]"
        )
        self._series[gauge.key] = TimeSeries(name=label)
        return gauge

    def start(self) -> None:
        """Begin the sampling process (idempotent)."""
        if self._started:
            return
        self._started = True
        self.env.process(self._loop())

    def _loop(self) -> _t.Generator:
        while True:
            self.sample_all()
            yield self.env.timeout(self.cadence)

    def sample_all(self) -> None:
        """Sample every gauge once at the current virtual time."""
        now = self.env.now
        recorder = self.recorder
        record = recorder.enabled
        for gauge in self._gauges:
            value = float(gauge.fn())
            self._series[gauge.key].append(now, value)
            if record:
                recorder.emit(
                    "gauge",
                    pe=gauge.pe,
                    node=gauge.node,
                    name=gauge.name,
                    value=value,
                )

    # -- access ------------------------------------------------------------

    @property
    def names(self) -> _t.List[str]:
        return sorted({g.name for g in self._gauges})

    def series(
        self,
        name: str,
        pe: _t.Optional[str] = None,
        node: _t.Optional[str] = None,
    ) -> TimeSeries:
        try:
            return self._series[(name, pe, node)]
        except KeyError:
            raise KeyError(
                f"no gauge ({name!r}, pe={pe!r}, node={node!r}); "
                f"registered: {sorted(self._series)}"
            ) from None

    def to_rows(self) -> _t.Iterator[_t.Dict[str, object]]:
        """Flatten every sample into export-ready rows."""
        for (name, pe, node), series in sorted(
            self._series.items(),
            key=lambda kv: (kv[0][0], kv[0][1] or "", kv[0][2] or ""),
        ):
            for t, value in series:
                yield {
                    "t": t,
                    "gauge": name,
                    "pe": pe,
                    "node": node,
                    "value": value,
                }

    def __len__(self) -> int:
        return len(self._gauges)
