"""Process-oriented discrete-event simulation kernel.

This package is the reproduction's analogue of the C-SIM library used by the
paper: a small, deterministic, process-oriented discrete-event simulator.
Processes are Python generators that yield events; the engine advances a
virtual clock from event to event.

Public API::

    env = Environment()
    env.process(my_generator(env))
    env.run(until=10.0)

The kernel keeps only what the model runs on: events, timeouts, generator
processes (a process is itself an event, so its failure surfaces), timed
callbacks (``call_at``/``schedule`` with ``URGENT``/``NORMAL`` priority) and
``run`` to a time or to queue exhaustion.  The model's processes yield only
timeouts, which is also all that
:class:`~repro.runtime.env.ThreadEnv` offers them on the threaded runtime.
It is self-contained (no third-party simulation dependency), so the model
in :mod:`repro.model` runs on a substrate we fully control.
"""

from repro.sim.engine import Environment, SimulationError
from repro.sim.events import Event, Timeout
from repro.sim.process import Process
from repro.sim.rng import RandomStreams

__all__ = [
    "Environment",
    "Event",
    "Process",
    "RandomStreams",
    "SimulationError",
    "Timeout",
]
