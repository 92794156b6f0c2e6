"""Static checks on the package source and its public names.

The package computes in exact arithmetic only: no source file may write a
float literal, call ``float``, or import from ``math`` anything beyond the
integer functions below.  And it keeps no dead code: every private
top-level function or class is named somewhere outside its own definition.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

import statepoly

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "statepoly").glob("*.py"))
INTEGER_MATH = {"gcd", "lcm", "comb", "prod", "isqrt"}


def float_uses(tree: ast.AST) -> list[str]:
    """Each float literal, ``float`` call and non-integer ``math`` import,
    with its line."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append(f"line {node.lineno}: call of float")
        elif isinstance(node, ast.Import):
            found += [f"line {node.lineno}: import {a.name}" for a in node.names if a.name == "math"]
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [
                f"line {node.lineno}: math.{a.name}" for a in node.names if a.name not in INTEGER_MATH
            ]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_source_uses_no_floats(path):
    assert float_uses(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_check_finds_each_kind_of_float_use():
    source = "from math import gcd, sqrt\nimport math\nx = 0.5\ny = float(3)\nz = 2j\n"
    assert float_uses(ast.parse(source)) == [
        "line 1: math.sqrt",
        "line 2: import math",
        "line 3: literal 0.5",
        "line 4: call of float",
        "line 5: literal 2j",
    ]


def test_every_public_name_resolves():
    missing = [name for name in statepoly.__all__ if not hasattr(statepoly, name)]
    assert missing == []
    assert len(set(statepoly.__all__)) == len(statepoly.__all__)


def names_in(node: ast.AST) -> Counter:
    """How often each identifier is named under ``node``: as a name, an
    attribute or an imported name."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.name
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
    )


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Each private top-level function or class that no source names outside
    its own definition, as ``file: name``."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    everywhere = sum((names_in(tree) for tree in trees.values()), Counter())
    return [
        f"{name}: {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and everywhere[node.name] == names_in(node)[node.name]
    ]


def test_every_private_name_is_used():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unreferenced_private_names(sources) == []


def test_the_scan_finds_an_unused_private_helper():
    sources = {
        "a.py": (
            "def _used():\n    return 1\n\n"
            "def _helper():\n    return 2\n\n"
            "def _loop(n):\n    return _loop(n - 1)\n\n"
            "class _Kept:\n    pass\n\n"
            "def __getattr__(name):\n    raise AttributeError(name)\n"
        ),
        "b.py": "from a import _Kept\nvalue = _used()\n",
    }
    assert unreferenced_private_names(sources) == ["a.py: _helper", "a.py: _loop"]
