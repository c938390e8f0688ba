"""``src/`` holds no code that only the tests use.

Every function, class and method defined in the package must be named, as
a ``Name`` or an ``Attribute``, somewhere in the package outside its own
definition. Dunders are exempt (Python calls them), and so are the CLI's
stage bodies, which ``@_stage`` registers by decorating them. A helper
that only the tests call belongs in ``tests/oracles.py``.
"""

import ast
from collections import Counter
from pathlib import Path

import intxn_pipeline

PACKAGE = Path(intxn_pipeline.__file__).parent

# Definitions allowed to go unnamed in the package; keep it empty.
ALLOWED: set[str] = set()


def _names(node: ast.AST) -> Counter:
    """How often each identifier is named within ``node``."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


def _registered(node: ast.AST) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "_stage"
        for d in getattr(node, "decorator_list", ())
    )


def _definitions(tree: ast.Module):
    """(qualified name, node) of each function, class and method in ``tree``."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, kinds):
                yield prefix + child.name, child
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)

    return walk(tree, "")


def test_every_definition_in_src_is_used_in_src():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    named = sum(map(_names, trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__") or _registered(node):
                continue
            if named[name] - _names(node)[name] <= 0:
                unused.append(f"{module}:{qualname}")
    assert sorted(set(unused) - ALLOWED) == []
