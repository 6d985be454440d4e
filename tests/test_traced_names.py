"""The benchmark's tracer wraps coincalc functions by name: each name it
lists must still exist, or only a traced benchmark run would notice."""

import ast
import importlib
import os

import pytest

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _traced():
    """TRACED from perfbench/tracer.py, read from its source, not imported."""
    with open(TRACER, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TRACED")


TRACED = _traced()


@pytest.mark.parametrize("module, path, name", TRACED, ids=[t[2] for t in TRACED])
def test_traced_name_resolves(module, path, name):
    # As the tracer looks it up: a method in its class's own namespace, a
    # function in its module's.
    owner_name, _, attr = path.rpartition(".")
    owner = importlib.import_module(f"coincalc.{module}")
    if owner_name:
        owner = getattr(owner, owner_name)
    assert callable(vars(owner).get(attr)), name
