"""Module boundaries inside the package: no module reaches into another
module's private names or another object's private attributes."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "treemajor"
MODULES = sorted(PACKAGE.glob("*.py"))

# The brute-force enumeration oracle codes plain Prufer adjacency lists
# without building a Tree for each of the n^(n-2) labeled trees.
ALLOWED_PRIVATE_IMPORTS = {("enumeration", "trees", "_free_code_adj")}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(path: Path) -> list[tuple[str, str, str]]:
    """(importing module, source module, name) for each underscore name a
    module imports from another treemajor module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            source = node.module or ""
        elif (node.module or "").startswith("treemajor."):
            source = node.module.split(".", 1)[1]
        else:
            continue
        found.extend((path.stem, source, a.name) for a in node.names if _private(a.name))
    return found


def foreign_private_attributes(path: Path) -> list[tuple[str, int, str]]:
    """(module, line, attribute) for each underscore attribute read on
    anything other than ``self``."""
    return [
        (path.stem, node.lineno, node.attr)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and _private(node.attr)
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    ]


def test_package_modules_found():
    assert {"trees", "realize", "enumeration", "verify"} <= {p.stem for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_private_imports_across_modules(path):
    assert set(private_imports(path)) <= ALLOWED_PRIVATE_IMPORTS


OUTSIDE_TREES = [p for p in MODULES if p.stem != "trees"]


@pytest.mark.parametrize("path", OUTSIDE_TREES, ids=lambda p: p.stem)
def test_no_private_attributes_outside_trees(path):
    assert foreign_private_attributes(path) == []


def test_guards_catch_violations(tmp_path):
    bad = tmp_path / "realize.py"
    bad.write_text(
        "from .trees import _adjacency, chain\n"
        "from treemajor.transfers import _helper\n"
        "def f(t):\n"
        "    self = t\n"
        "    return t._adj, self._code, t.__class__\n"
    )
    assert private_imports(bad) == [
        ("realize", "trees", "_adjacency"),
        ("realize", "transfers", "_helper"),
    ]
    assert foreign_private_attributes(bad) == [("realize", 5, "_adj")]
