"""The benchmark's traced run wraps named semmatch functions; each name must
resolve, or the traced run stops before it measures anything."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_names() -> list[tuple[str, str]]:
    """TRACED as written in perfbench/tracing.py, read without importing it."""
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED list in {TRACING}")


def test_every_traced_function_resolves():
    names = traced_names()
    assert names
    for mod_name, func_name in names:
        module = importlib.import_module(f"semmatch.{mod_name}")
        assert callable(getattr(module, func_name, None)), f"semmatch.{mod_name}.{func_name}"
