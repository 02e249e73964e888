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
