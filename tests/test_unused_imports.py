"""No module under ``src/repro`` imports a name it never uses.

The container has no ``ruff``/``pyflakes``; this is pyflakes' F401 as
an ``ast`` walk.  A name is *used* when it is loaded anywhere in the
module, appears inside a string annotation, or is listed in
``__all__``; an import carrying ``# noqa: F401`` (or a bare ``# noqa``)
on any of its lines is exempt, as are ``__future__`` and star imports.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
MODULES = sorted(SRC.rglob("*.py"))


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
