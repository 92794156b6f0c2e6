"""The benchmark's tracer finds every callable it wraps.

``perfbench/tracing.py`` lists ``(module, qualified name)`` targets and
reports any it cannot find as missing, so a rename in the package would
quietly drop a per-layer metric.  This test resolves each target the way the
tracer does: a module attribute, or a method in its class's own namespace.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets() -> tuple[tuple[str, str], ...]:
    """``TARGETS`` as written in the tracer's source (read, not imported)."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


@pytest.mark.parametrize("module_name, qualname", _targets())
def test_tracer_target_resolves(module_name, qualname):
    module = importlib.import_module(module_name)
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        target = vars(getattr(module, cls_name)).get(attr)
    else:
        target = getattr(module, qualname, None)
    assert callable(target), f"{module_name}.{qualname} is not defined"
