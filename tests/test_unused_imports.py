"""Nothing under ``src/repro`` is imported, or kept, for nothing.

Three ``ast`` walks:

* pyflakes' F401 (the container has no ``ruff``/``pyflakes``): no module
  imports a name it never uses.  A name is *used* when it is loaded
  anywhere in the module, appears inside a string annotation, or is
  listed in ``__all__``; an import carrying ``# noqa: F401`` (or a bare
  ``# noqa``) on any of its lines is exempt, as are ``__future__`` and
  star imports.
* no module is unused.  A module is *used* when something under
  ``src/repro`` other than its own package ``__init__``, or under
  ``benchmarks/`` or ``examples/``, imports it or a name its package
  re-exports from it.  Tests do not count.  The exceptions, each with
  its reason, are :data:`UNUSED_ALLOWED`.
* one process fan-out: only ``experiments/matrix.py`` imports
  ``concurrent.futures`` or ``multiprocessing``.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
MODULES = sorted(SRC.rglob("*.py"))
#: Files whose imports make a module used.
IMPORTERS = MODULES + sorted(
    path
    for folder in ("benchmarks", "examples")
    for path in (ROOT / folder).rglob("*.py")
)

#: Modules nothing uses yet, and why each stays.
UNUSED_ALLOWED: dict = {}


def _names(tree):
    return {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
    }


def unused_imports(source):
    """``(lineno, name)`` of every import binding the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [
                alias.asname or alias.name.split(".")[0]
                for alias in node.names
            ]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [
                alias.asname or alias.name
                for alias in node.names
                if alias.name != "*"
            ]
        else:
            continue
        span = " ".join(lines[node.lineno - 1:node.end_lineno])
        _, _, noqa = span.partition("# noqa")
        if noqa and (not noqa.startswith(":") or "F401" in noqa):
            continue
        for name in names:
            bound.setdefault(name, node.lineno)

    used = _names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            # A quoted annotation ("ControlRecord", "_t.List[SDO]").
            try:
                used |= _names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(
        (lineno, name) for name, lineno in bound.items() if name not in used
    )


@pytest.mark.parametrize(
    "path", MODULES, ids=lambda path: str(path.relative_to(SRC))
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_walk_sees_what_it_should():
    source = '''
from __future__ import annotations
import os
import sys  # noqa: F401
import json  # noqa: E501
import typing as _t
from a import b, c as d, e
from f import (  # noqa
    g,
)
from h import i
__all__ = ["e"]
def fn(x: "_t.List[b]") -> None:
    return d
'''
    assert unused_imports(source) == [(3, "os"), (5, "json"), (11, "i")]


# -- unused modules ----------------------------------------------------------


def module_name(path):
    """``repro.a.b`` for ``src/repro/a/b.py``; a package's ``__init__``
    is the package itself."""
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


PATH_OF = {module_name(path): path for path in MODULES}
PACKAGES = {name for name, path in PATH_OF.items() if path.stem == "__init__"}


def _from_imports(tree):
    """``(module, [(name, bound_as)])`` of every absolute import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, []
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module, [
                (alias.name, alias.asname or alias.name)
                for alias in node.names
            ]


def _reexports():
    """package -> bound name -> (source module, source name)."""
    table = {}
    for package in PACKAGES:
        tree = ast.parse(PATH_OF[package].read_text())
        table[package] = {
            bound: (module, name)
            for module, names in _from_imports(tree)
            for name, bound in names
        }
    return table


REEXPORTS = _reexports()


def _modules_behind(package, name):
    """The modules a package's re-export of ``name`` comes through."""
    source = REEXPORTS.get(package, {}).get(name)
    if source is None or source[0] not in PATH_OF:
        return set()
    module, original = source
    return {module} | _modules_behind(module, original)


def modules_used_by(path):
    """Every ``repro`` module the file at ``path`` imports."""
    used = set()
    for module, names in _from_imports(ast.parse(path.read_text())):
        if module in PATH_OF:
            used.add(module)
        for name, _ in names:
            submodule = f"{module}.{name}"
            if submodule in PATH_OF:
                used.add(submodule)
            else:
                used |= _modules_behind(module, name)
    return used


def unused_modules():
    """Modules (packages and ``__main__`` aside) nothing counts as using."""
    used = set()
    for path in IMPORTERS:
        importer = module_name(path) if path.is_relative_to(SRC) else None
        for module in modules_used_by(path):
            # A package's own __init__ re-exporting a module is not a use.
            if importer != module.rpartition(".")[0]:
                used.add(module)
    return {
        name
        for name in PATH_OF
        if name not in PACKAGES
        and not name.endswith(".__main__")
        and name not in used
    }


def test_no_unused_modules():
    assert unused_modules() == set(UNUSED_ALLOWED)


def test_the_module_walk_follows_reexports():
    # `from repro.sim import Environment` reaches the engine module
    # through the package's re-export.
    assert "repro.sim.engine" in modules_used_by(
        ROOT / "benchmarks" / "bench_components.py"
    )
    assert all(name in PATH_OF for name in UNUSED_ALLOWED)


# -- one process fan-out -----------------------------------------------------

#: The one module allowed to create a process pool.
FAN_OUT = SRC / "experiments" / "matrix.py"
POOL_MODULES = ("concurrent.futures", "multiprocessing")


def pool_imports(source):
    """``(lineno, module)`` of every import of a process-pool module."""
    hits = []
    for module, names in _from_imports(ast.parse(source)):
        # ``from concurrent import futures`` imports the module too.
        for candidate in (module, *(f"{module}.{name}" for name, _ in names)):
            if any(
                candidate == pool or candidate.startswith(pool + ".")
                for pool in POOL_MODULES
            ):
                hits.append(candidate)
                break
    return hits


def test_one_process_fan_out():
    offenders = {
        str(path.relative_to(SRC)): pool_imports(path.read_text())
        for path in MODULES
        if path != FAN_OUT
    }
    assert {path: hits for path, hits in offenders.items() if hits} == {}
    assert pool_imports(FAN_OUT.read_text()) == ["concurrent.futures"]


def test_the_pool_walk_sees_every_form():
    source = """
import multiprocessing
import multiprocessing.pool as mp
from concurrent.futures import ProcessPoolExecutor
from concurrent import futures
import os
"""
    assert pool_imports(source) == [
        "multiprocessing", "multiprocessing.pool", "concurrent.futures",
        "concurrent.futures",
    ]
