"""Each substrate class adds to the shared assembly only what differs,
and nothing else asks which substrate it holds.

:class:`~repro.systems.substrate.Substrate` builds the control tiers,
sources, gauges, tickers, membership operations and the measured window
once; its docstring states the contract a substrate fills in.  This
guard keeps the substrates that thin: ``vars(cls)``, dunders aside,
holds only contract names plus the listed remainder, each entry with
its reason (as ``test_unused_imports.py`` lists the modules nothing
imports).

The converse guard walks every module outside ``systems/`` and
``runtime/`` and fails where one picks behaviour by substrate instead of
reading the contract: an ``isinstance`` against a substrate or its
config, duck-typing a PE by its ``channel``, comparing ``.substrate``,
choosing the oracles' strictness, or naming the threaded ledger.  The
exceptions, each with its reason, are :data:`ASKS_ALLOWED`.
"""

import ast
import pathlib

import numpy as np
import pytest

from repro.check import InvariantViolation, OracleRecorder
from repro.core.policies import AcesPolicy
from repro.graph.topology import TopologySpec, generate_topology
from repro.runtime.spc import RuntimeConfig, SPCRuntime
from repro.systems.simulated import SimulatedSystem, SystemConfig, build_system
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
    "strict_oracles",
    "check_conservation",
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


@pytest.mark.parametrize(
    "config, strict",
    [(SystemConfig(), True), (RuntimeConfig(), False)],
    ids=["sim", "threaded"],
)
def test_attach_takes_strictness_and_ledger_from_the_substrate(
    config, strict
):
    topology = generate_topology(
        TopologySpec(num_nodes=2, num_ingress=1, num_egress=1,
                     num_intermediate=2),
        np.random.default_rng(0),
    )
    oracle = OracleRecorder()
    oracle.strict = None  # attach, not the default, must set it
    system = build_system(
        topology, AcesPolicy(), config=config, recorder=oracle
    )
    oracle.attach(system)
    assert type(system).strict_oracles is strict
    assert oracle.strict is strict
    broken = InvariantViolation(
        invariant="source_conservation", equation="Section IV",
        t=0.0, pe=None, node=None, detail="planted",
    )
    system.check_conservation = lambda: [broken]
    assert oracle.finalize() == [broken]
    assert oracle.violation_counts == {"source_conservation": 1}


# -- nothing outside the substrates asks which one it holds -------------------

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
#: The packages that may know which substrate they are.
SUBSTRATE_PACKAGES = ("systems", "runtime")
#: Classes an ``isinstance`` would pick a substrate by.
SUBSTRATE_TYPES = {
    "RuntimeConfig", "SystemConfig", "SPCRuntime", "SimulatedSystem",
}
#: The threaded ledger's old public name, which no caller may use.
OLD_LEDGER = "check_" + "runtime_conservation"
#: Functions outside the substrate packages that may ask, and why.
ASKS_ALLOWED = {
    "repro.cli._substrate_config": (
        "parses --substrate into the config whose type selects the "
        "substrate"
    ),
}


def _names(node):
    """The bare names an ``isinstance`` class argument lists."""
    items = node.elts if isinstance(node, ast.Tuple) else [node]
    for item in items:
        if isinstance(item, ast.Name):
            yield item.id
        elif isinstance(item, ast.Attribute):
            yield item.attr


def _question(node):
    """What ``node`` asks about the substrate, or None."""
    if isinstance(node, ast.Compare):
        sides = [node.left, *node.comparators]
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops) and any(
            isinstance(side, ast.Attribute) and side.attr == "substrate"
            for side in sides
        ):
            return "a .substrate == comparison"
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
    if name == "isinstance" and len(node.args) == 2:
        hits = SUBSTRATE_TYPES.intersection(_names(node.args[1]))
        if hits:
            return f"isinstance against {sorted(hits)}"
    if (
        name == "hasattr"
        and len(node.args) == 2
        and isinstance(node.args[1], ast.Constant)
        and node.args[1].value == "channel"
    ):
        return 'hasattr(_, "channel")'
    if name == "OracleRecorder" and any(
        keyword.arg == "strict" and not isinstance(keyword.value, ast.Constant)
        for keyword in node.keywords
    ):
        return "OracleRecorder(strict=<non-constant>)"
    return None


def _walk(node, scope, found):
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            inner = f"{scope}.{child.name}"
        question = _question(child)
        if question is not None:
            found.append((inner, child.lineno, question))
        _walk(child, inner, found)


def substrate_questions():
    """``(qualified scope, line, question)`` for every place outside
    the substrate packages that asks which substrate it holds."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[0] in SUBSTRATE_PACKAGES:
            continue
        if parts[-1] == "__init__":
            parts = parts[:-1]
        module = ".".join(("repro",) + parts)
        source = path.read_text()
        for line, text in enumerate(source.splitlines(), 1):
            if OLD_LEDGER in text:
                found.append((module, line, f"names {OLD_LEDGER}"))
        _walk(ast.parse(source), module, found)
    return found


def test_nothing_outside_the_substrates_asks_which_one_it_holds():
    asks = [ask for ask in substrate_questions() if ask[0] not in ASKS_ALLOWED]
    assert not asks, (
        "read the Substrate contract instead (strict_oracles, "
        f"check_conservation(), PELike.ingest): {asks}"
    )


def test_every_allowed_asker_still_asks():
    asking = {scope for scope, _, _ in substrate_questions()}
    stale = set(ASKS_ALLOWED) - asking
    assert not stale, f"stale ASKS_ALLOWED entries: {stale}"


# -- Tier-2 state is built in one module --------------------------------------

#: The classes of Tier-2 state: per-PE token buckets, per-node schedulers.
TIER2_STATE = {"TokenBucket", "AcesCpuScheduler", "StrictProportionalScheduler"}
#: The one module that constructs them, once per plane (buckets) or per
#: epoch (schedulers).
TIER2_HOME = "repro.control.plane"


def tier2_constructions():
    """``(module, line, class)`` for every call of a Tier-2 state class
    under ``src/repro``."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        module = ".".join(("repro",) + parts)
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (
                func.id if isinstance(func, ast.Name)
                else getattr(func, "attr", "")
            )
            if name in TIER2_STATE:
                found.append((module, node.lineno, name))
    return found


def test_tier2_state_is_constructed_only_by_the_plane():
    found = tier2_constructions()
    elsewhere = [call for call in found if call[0] != TIER2_HOME]
    assert not elsewhere, (
        f"build Tier-2 state in {TIER2_HOME} and hand it over: "
        f"{elsewhere}"
    )
    built = {name for _, _, name in found}
    assert built == TIER2_STATE, f"stale TIER2_STATE: {TIER2_STATE - built}"
