"""The names other code relies on still exist, and every name the
package defines has a user.

`perfbench/tracing.py` swaps wrappers in for the attributes in its
TARGETS table, and `perfbench/check.py` and `run.py` call the package
directly; deleting one of those names breaks `run.py --trace 1` or the
benchmark's checks without failing any other test. The benchmark files
are compiled from their source here, so no bytecode is written beside
them.
"""

import ast
import types
from collections import Counter
from pathlib import Path

import pytest

import vocabforge

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


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


# Where a name in the package counts as used: the package itself, the
# benchmark, the scripts, and the acceptance tests with the fixtures they
# import. The other tests do not count, so a name only they call fails.
# Nor does the package's __init__.py: its imports and __all__ strings
# re-export names, they do not use them.
USERS = (ROOT / "src", PERFBENCH, ROOT / "scripts",
         ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "conftest.py")
REEXPORTS = ROOT / "src" / "vocabforge" / "__init__.py"


def names_in(tree):
    """Every name tree mentions: variables, attributes, imported names,
    and whole string constants (`getattr` and the tracer's TARGETS name
    attributes by string)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_definition_has_a_user():
    """Each function, class and method in src/vocabforge/*.py (dunders
    aside) is named somewhere in USERS outside its own body.

    The match is by name alone, ignoring whose attribute it is: a method
    that shares its name with anything used counts as used. So the scan
    can miss a dead name, but it never flags a live one.
    """
    files = [p for place in USERS
             for p in ([place] if place.is_file() else sorted(place.rglob("*.py")))]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}
    used = Counter()
    for path, tree in trees.items():
        if path != REEXPORTS:
            used.update(names_in(tree))
    unused = []
    for path in sorted((ROOT / "src" / "vocabforge").glob("*.py")):
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            members = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                members += [(f"{node.name}.{sub.name}", sub) for sub in node.body
                            if isinstance(sub, ast.FunctionDef)]
            for qualified, definition in members:
                name = definition.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                # a use inside its own body (recursion) does not count
                if used[name] <= Counter(names_in(definition))[name]:
                    unused.append(f"{path.stem}.{qualified}")
    assert not unused, f"defined but used only by tests: {', '.join(unused)}"
