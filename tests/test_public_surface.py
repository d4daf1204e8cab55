"""The names other code relies on still exist.

`perfbench/tracing.py` swaps wrappers in for the attributes in its
TARGETS table, and `perfbench/check.py` and `run.py` call the package
directly; deleting one of those names breaks `run.py --trace 1` or the
benchmark's checks without failing any other test. The benchmark files
are compiled from their source here, so no bytecode is written beside
them.
"""

import ast
import types
from pathlib import Path

import pytest

import vocabforge

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def tracing_module():
    path = PERFBENCH / "tracing.py"
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         module.__dict__)
    return module


def test_every_traced_attribute_resolves():
    targets = tracing_module().TARGETS
    assert targets
    for owner, attr, name, _ in targets:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_every_public_name_imports():
    assert len(set(vocabforge.__all__)) == len(vocabforge.__all__)
    for name in vocabforge.__all__:
        assert hasattr(vocabforge, name), name
    namespace = {}
    exec("from vocabforge import *", namespace)
    assert set(vocabforge.__all__) <= set(namespace)


@pytest.mark.parametrize("script", sorted(p.name for p in PERFBENCH.glob("*.py")))
def test_benchmark_uses_existing_names(script):
    """Every `from vocabforge... import x`, and every `module.x` on a
    module imported that way, names something that exists."""
    tree = ast.parse((PERFBENCH / script).read_text(encoding="utf-8"))
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                "vocabforge"):
            source = __import__(node.module, fromlist=["*"])
            for alias in node.names:
                value = getattr(source, alias.name, None)
                assert value is not None, f"{node.module}.{alias.name}"
                if isinstance(value, types.ModuleType):
                    modules[alias.asname or alias.name] = value
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and isinstance(node.ctx, ast.Load)):
            assert hasattr(modules[node.value.id], node.attr), (
                f"{node.value.id}.{node.attr}")
