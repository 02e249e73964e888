"""Every control option serves a workload: a census of the config fields.

A field of the six config classes that nothing outside ``tests/`` sets
is a code path no workload runs, or a constant dressed as a knob.  The
census walks the AST of ``src/repro`` and ``benchmarks/``; a field
counts as set by a keyword at a call to one of the classes, a keyword at
``replace``, ``with_system`` or ``.update``, or a ``"system.<field>"``
sweep path — unless the value is a literal equal to the field's default.
"""

import ast
import dataclasses
import functools
import pathlib
import re

from repro.control.admission import AdmissionConfig
from repro.control.config import ControlConfig
from repro.control.elastic import ElasticityConfig
from repro.control.forecast import ForecastConfig
from repro.runtime.spc import RuntimeConfig
from repro.systems.simulated import SystemConfig

ROOT = pathlib.Path(__file__).resolve().parent.parent
CLASSES = {
    cls.__name__: cls
    for cls in (ControlConfig, SystemConfig, RuntimeConfig,
                AdmissionConfig, ElasticityConfig, ForecastConfig)
}

#: Model parameters every workload runs at one value: each is part of
#: the model the paper or the scenario library describes, not a second
#: code path.
ALLOWED_UNSET = {
    "SystemConfig.link_latency": "inter-node propagation delay; the "
    "paper's intra-cluster transport is instantaneous",
    "ControlConfig.source_amplitude": "depth of the diurnal cycle",
    "ControlConfig.source_duty": "ON fraction of the bursty sources",
    "ForecastConfig.alpha": "Holt-Winters level smoothing",
    "ForecastConfig.beta": "Holt-Winters trend smoothing",
    "ForecastConfig.gamma": "Holt-Winters seasonal smoothing",
    "ForecastConfig.horizon": "how many samples ahead a forecast looks",
    "ForecastConfig.dwell_ticks": "forecasts over headroom before a fire",
}


def fields(cls):
    return {field.name: field.default for field in dataclasses.fields(cls)}


def owner(cls, name):
    """``Class.field``, named after the most basic class declaring it."""
    for base in reversed(cls.__mro__):
        if base in CLASSES.values() and name in fields(base):
            return f"{base.__name__}.{name}"


def every_field():
    return {
        owner(cls, name) for cls in CLASSES.values() for name in fields(cls)
    }


def census():
    found = set()
    for root in (ROOT / "src" / "repro", ROOT / "benchmarks"):
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Constant):
                    match = re.fullmatch(r"system\.(\w+)", str(node.value))
                    if match and match[1] in fields(SystemConfig):
                        found.add(owner(SystemConfig, match[1]))
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                callee = getattr(func, "id", getattr(func, "attr", None))
                if callee in CLASSES:
                    candidates = [CLASSES[callee]]
                elif callee == "with_system":
                    candidates = [SystemConfig]
                elif callee in ("replace", "update"):
                    candidates = list(CLASSES.values())
                else:
                    continue
                for keyword in node.keywords:
                    name = keyword.arg
                    having = [c for c in candidates if name in fields(c)]
                    try:
                        value = ast.literal_eval(keyword.value)
                        default = all(fields(c)[name] == value for c in having)
                    except ValueError:
                        default = False
                    if not default:
                        found.update(owner(c, name) for c in having)
    return found


def test_every_config_field_serves_a_workload():
    unset = sorted(every_field() - census() - set(ALLOWED_UNSET))
    assert unset == [], (
        f"config fields nothing outside tests/ sets: {unset}; delete each "
        "with the code only its other values reach, or allow-list it"
    )


def test_allow_list_is_current():
    assert set(ALLOWED_UNSET) <= every_field()
    assert set(ALLOWED_UNSET) & census() == set()


# -- constructors ------------------------------------------------------------
#
# The same question one layer down: a defaulted ``__init__`` parameter of
# a class in ``src/repro`` that nothing outside ``tests/`` passes with a
# non-default value is a constant dressed as an argument.  A call feeds
# a class's ``__init__`` when it names the class (or a subclass that
# inherits the constructor), when it is ``super().__init__(...)`` inside
# a subclass, or when it is ``cls(...)`` inside the class.  A keyword
# counts by name and a positional argument by its index, unless the
# value is the default itself; a ``*``/``**`` splat counts as passing
# every parameter it could reach.

#: Reasons a parameter may keep a default that no caller moves.
MODEL = "paper model parameter"
SEAM = "test seam"
FROZEN = "frozen-observatory caller"

ALLOWED_DEFAULT_ONLY = {
    "AcesPolicy.q": MODEL,
    "AcesPolicy.r": MODEL,
    "AcesPolicy.buffer_lags": MODEL,
    "AcesPolicy.rate_lags": MODEL,
    "AcesPolicy.delay_steps": MODEL,
    "AcesPolicy.bucket_depth_intervals": MODEL,
    "LoadSheddingPolicy.threshold": MODEL,
    "LoadSheddingPolicy.seed": MODEL,
    "ResilientTier1.solver": SEAM,
    "PhaseProfiler.clock": SEAM,
    "OracleRecorder.strict": FROZEN,
}


@functools.lru_cache(maxsize=None)
def parsed():
    return [
        (path, ast.parse(path.read_text()))
        for root in (ROOT / "src" / "repro", ROOT / "benchmarks")
        for path in sorted(root.rglob("*.py"))
    ]


@functools.lru_cache(maxsize=None)
def classes():
    """Class name -> ClassDef, for every class in ``src/repro``."""
    found = {}
    for path, tree in parsed():
        if ROOT / "src" / "repro" not in path.parents:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                assert node.name not in found, f"two classes {node.name}"
                found[node.name] = node
    return found


def base_names(node):
    return [getattr(base, "id", getattr(base, "attr", None))
            for base in node.bases]


def init_owner(name):
    """The class whose ``__init__`` a call to class ``name`` runs."""
    node = classes().get(name)
    if node is None:
        return None
    if any(isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"
           for stmt in node.body):
        return name
    for base in base_names(node):
        owner = init_owner(base)
        if owner is not None:
            return owner
    return None


def signature(name):
    """``(positional names after self, {defaulted name: default AST})``."""
    init = next(stmt for stmt in classes()[name].body
                if isinstance(stmt, ast.FunctionDef)
                and stmt.name == "__init__")
    args = init.args
    positional = [arg.arg for arg in (*args.posonlyargs, *args.args)][1:]
    defaults = dict(zip(positional[len(positional) - len(args.defaults):],
                        args.defaults))
    defaults.update(
        (arg.arg, default)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    )
    return positional, defaults


def every_parameter():
    return {
        f"{name}.{parameter}"
        for name in classes() if init_owner(name) == name
        for parameter in signature(name)[1]
    }


def is_default(value, default):
    try:
        return ast.literal_eval(value) == ast.literal_eval(default)
    except ValueError:
        return ast.dump(value) == ast.dump(default)


def fed_classes(call, enclosing):
    """Names of the classes whose ``__init__`` ``call`` runs."""
    func = call.func
    if (isinstance(func, ast.Attribute) and func.attr == "__init__"
            and isinstance(func.value, ast.Call)
            and getattr(func.value.func, "id", None) == "super"):
        return base_names(enclosing) if enclosing is not None else []
    if isinstance(func, ast.Name) and func.id == "cls" and enclosing:
        return [enclosing.name]
    return [getattr(func, "id", getattr(func, "attr", None))]


def passed(call, owner):
    positional, defaults = signature(owner)
    for index, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            yield from (name for name in positional[index:]
                        if name in defaults)
            return
        if index < len(positional) and positional[index] in defaults:
            if not is_default(arg, defaults[positional[index]]):
                yield positional[index]
    for keyword in call.keywords:
        if keyword.arg is None:
            yield from defaults
        elif keyword.arg in defaults and not is_default(
            keyword.value, defaults[keyword.arg]
        ):
            yield keyword.arg


def constructor_census():
    found = set()

    def visit(node, enclosing):
        for child in ast.iter_child_nodes(node):
            inner = child if isinstance(child, ast.ClassDef) else enclosing
            if isinstance(child, ast.Call):
                for name in fed_classes(child, enclosing):
                    owner = init_owner(name)
                    if owner is not None:
                        found.update(
                            f"{owner}.{parameter}"
                            for parameter in passed(child, owner)
                        )
            visit(child, inner)

    for _, tree in parsed():
        visit(tree, None)
    return found


def test_every_constructor_argument_has_a_caller():
    unset = sorted(
        every_parameter() - constructor_census() - set(ALLOWED_DEFAULT_ONLY)
    )
    assert unset == [], (
        f"constructor parameters nothing outside tests/ sets: {unset}; "
        "delete each (a constant, or a value a later binding sets), or "
        "allow-list it with one of the three reasons"
    )


def test_constructor_allow_list_is_current():
    assert set(ALLOWED_DEFAULT_ONLY) <= every_parameter()
    assert set(ALLOWED_DEFAULT_ONLY) & constructor_census() == set()
    assert set(ALLOWED_DEFAULT_ONLY.values()) <= {MODEL, SEAM, FROZEN}
