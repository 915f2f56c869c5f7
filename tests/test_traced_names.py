"""The names that `perfbench/tracing.py` wraps exist in the loaded matalg.

The tracer looks each function up as a module attribute and each method
in its class's `__dict__`; a name that a refactor drops would otherwise
surface only in a traced benchmark run.  The lists are read from the
file as literals, without importing or changing it.
"""

import ast
import importlib
from pathlib import Path

import pytest

import matalg
from matalg import exactlin

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced(name):
    """The literal value assigned to `name` at the top level of the file."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACING}")


@pytest.mark.parametrize("span, module, attr", _traced("FUNCTIONS"))
def test_traced_function_is_a_module_attribute(span, module, attr):
    assert module == "matalg" or module.startswith("matalg.")
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("span, cls, attr", _traced("METHODS"))
def test_traced_method_is_defined_on_its_class(span, cls, attr):
    assert attr in vars(getattr(exactlin, cls))
    assert getattr(matalg, cls) is getattr(exactlin, cls)
