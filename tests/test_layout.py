"""``src/`` holds no code that only the tests use, ``tests/oracles.py``
none that no test uses, and each file format that more than one module
writes lives in one module.

Every function, class and method defined in the package must be named, as
a ``Name`` or an ``Attribute``, somewhere in the package outside its own
definition. Dunders are exempt (Python calls them), and so are the CLI's
stage bodies, which ``@_stage`` registers by decorating them. A helper
that only the tests call belongs in ``tests/oracles.py``, and each of its
definitions must be named by a test module or by a definition so named.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import intxn_pipeline

PACKAGE = Path(intxn_pipeline.__file__).parent
TESTS = Path(__file__).parent

# Definitions allowed to go unnamed in the package; keep it empty.
ALLOWED: set[str] = set()


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


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
    trees = _trees()
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


def test_each_file_format_is_written_in_one_module():
    # KML is read and written in review, GeoJSON in discovery; other
    # modules, synth included, write them through those two.
    xml_importers, geojson_modules = set(), set()
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
            else:
                names = []
            if any(name == "xml.etree" or name.startswith("xml.etree.") for name in names):
                xml_importers.add(module)
            if isinstance(node, ast.Constant) and node.value == "FeatureCollection":
                geojson_modules.add(module)
    assert xml_importers == {"review.py"}
    assert geojson_modules == {"discovery.py"}


def test_every_oracle_is_reached_from_a_test():
    tree = ast.parse((TESTS / "oracles.py").read_text())
    # The names the test modules use, and those the oracles' module-level
    # statements use, which run on import.
    reached = set().union(*(_names(ast.parse(p.read_text())) for p in TESTS.glob("test_*.py")))
    left = dict(_definitions(tree))
    kinds = (ast.FunctionDef, ast.ClassDef)
    reached.update(*(_names(node) for node in tree.body if not isinstance(node, kinds)))
    while hits := [qualname for qualname, node in left.items() if node.name in reached]:
        for qualname in hits:
            reached.update(_names(left.pop(qualname)))
    unreached = [q for q, node in left.items() if not re.fullmatch("__.*__", node.name)]
    assert sorted(unreached) == []
