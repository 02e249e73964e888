"""Each substrate class adds to the shared assembly only what differs.

:class:`~repro.systems.substrate.Substrate` builds the control tiers,
sources, gauges, tickers, membership operations and the measured window
once; its docstring states the contract a substrate fills in.  This
guard keeps the substrates that thin: ``vars(cls)``, dunders aside,
holds only contract names plus the listed remainder, each entry with
its reason (as ``test_unused_imports.py`` lists the modules nothing
imports).
"""

import pytest

from repro.runtime.spc import SPCRuntime
from repro.systems.simulated import SimulatedSystem
from repro.systems.substrate import Substrate

#: What a substrate supplies, as ``Substrate``'s docstring names it.
CONTRACT = {
    "make_pe",
    "bind_plane",
    "admit",
    "start_node_ticker",
    "start_periodic",
    "crash_pe",
    "window_counters",
    "shed_drops",
    "collector_lock",
    "membership_lock",
    "substrate",
    "worker_restarts",
    "workers_abandoned",
}

#: Names a substrate class defines beyond the contract, and why each stays.
REMAINDER = {
    SimulatedSystem: {
        "migrate_pes": (
            "buffer handoff, link re-wiring and downtime watch; also a "
            "trace target the perf observatory resolves through vars()"
        ),
        "require_node_tickers": (
            "phase-bucketed loops are index-bound and refuse membership "
            "changes"
        ),
        "_bucket_loop": "the shared loop of one control_phase_buckets run",
    },
    SPCRuntime: {
        "run": (
            "starts the workers and the supervisor and tears them down; "
            "a trace target the perf observatory resolves through vars()"
        ),
        "now": "the dilated wall clock its ThreadEnv and workers read",
        "_supervise": "revives dead worker threads with bounded backoff",
    },
}


def _defined(cls):
    return {
        name for name in vars(cls)
        if not (name.startswith("__") and name.endswith("__"))
    }


@pytest.mark.parametrize(
    "cls", [SimulatedSystem, SPCRuntime], ids=["sim", "threaded"]
)
def test_a_substrate_defines_only_the_contract_and_its_remainder(cls):
    extra = _defined(cls) - CONTRACT - set(REMAINDER[cls])
    assert not extra, (
        f"{cls.__name__} defines {sorted(extra)}: move it into Substrate, "
        "or list it in REMAINDER with its reason"
    )


@pytest.mark.parametrize(
    "cls", [SimulatedSystem, SPCRuntime], ids=["sim", "threaded"]
)
def test_every_remainder_entry_is_still_defined(cls):
    stale = set(REMAINDER[cls]) - _defined(cls)
    assert not stale, f"stale REMAINDER entries for {cls.__name__}: {stale}"


def test_the_contract_is_the_one_the_base_class_states():
    missing = {
        name for name in CONTRACT if f"``{name}" not in Substrate.__doc__
    }
    assert not missing, f"Substrate's docstring does not name {missing}"
