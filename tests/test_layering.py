"""Module boundaries inside the package: no module reaches into another
module's private names or another object's private attributes, every
definition outside a module's public names is used, each argument check's
message is written once, in its helper, and the package exports exactly
the modules' public names."""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import pytest

import treemajor
from treemajor import errors

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "treemajor"
MODULES = sorted(PACKAGE.glob("*.py"))


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


def unused_imports(path: Path) -> list[str]:
    """Each name a module imports (from ``__future__`` aside) and never
    reads, sorted."""
    module = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {
        node.id
        for node in ast.walk(module)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(imported - read)


def _reads(node: ast.AST) -> set[str]:
    return {
        n.id for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def unread_definitions(paths: list[Path]) -> list[tuple[str, str]]:
    """(module, name) for each module-level function or class outside its
    module's ``__all__`` that no statement of these modules reads, its own
    definition aside (a recursive call is not a use)."""
    modules = {p.stem: ast.parse(p.read_text()) for p in paths}
    statements = [(s, _reads(s)) for m in modules.values() for s in m.body]
    found = []
    for stem, module in modules.items():
        public = set()
        for s in module.body:
            if isinstance(s, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in s.targets
            ):
                public = set(ast.literal_eval(s.value))
        found.extend(
            (stem, s.name)
            for s in module.body
            if isinstance(s, (ast.FunctionDef, ast.ClassDef))
            and s.name not in public
            and not any(s.name in read for other, read in statements if other is not s)
        )
    return found


# Each argument check's message text (or raise), and the one helper, as
# (module, function), that writes it; every other site calls the helper.
CHECKS = {
    "int": ("must be an int, got", ("errors", "require_int")),
    "ints": ("must be ints, got", ("errors", "require_ints")),
    "node-count": ("needs n >=", ("errors", "require_node_count")),
    "bound": ("supports n <=", ("errors", "require_bound")),
    "delta-sequence": ("must be a DeltaSequence", ("sequences", "require_delta_sequence")),
    "tree": ("must be a Tree", ("trees", "require_tree")),
    "not-tree-feasible": ("raise NotTreeFeasible", ("sequences", "validate_tree_sequence")),
}


def message_sites(paths: list[Path], message: str) -> list[tuple[str, str | None]]:
    """(module, module-level function or class) for each occurrence of
    ``message``; None outside any."""
    found = []
    for path in paths:
        text = path.read_text()
        spans = [
            (s.lineno, s.end_lineno, s.name)
            for s in ast.parse(text).body
            if isinstance(s, (ast.FunctionDef, ast.ClassDef))
        ]
        for k, line in enumerate(text.splitlines(), start=1):
            owner = next((name for a, b, name in spans if a <= k <= b), None)
            found.extend([(path.stem, owner)] * line.count(message))
    return found


def test_package_modules_found():
    assert {"trees", "realize", "enumeration", "verify"} <= {p.stem for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_private_imports_across_modules(path):
    assert private_imports(path) == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.stem != "__init__"], ids=lambda p: p.stem
)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("check", CHECKS, ids=str)
def test_one_helper_per_check(check):
    # every site that makes this check calls the helper that owns its text
    message, owner = CHECKS[check]
    assert message_sites(MODULES, message) == [owner]


def test_every_internal_definition_is_read():
    # a helper left out of __all__ and read nowhere in the package is dead
    assert unread_definitions(MODULES) == []


def test_package_exports_are_the_module_exports():
    # each module's __all__, plus the exception classes of errors.py
    exported = {
        k for k, v in vars(treemajor).items()
        if not k.startswith("_") and not isinstance(v, ModuleType)
    }
    declared = {
        name
        for p in MODULES
        if p.stem != "__init__"
        for name in getattr(importlib.import_module(f"treemajor.{p.stem}"), "__all__", [])
    }
    exceptions = {
        k for k, v in vars(errors).items()
        if isinstance(v, type) and issubclass(v, Exception)
    }
    assert exported == declared | exceptions


# The public surface, module by module: ``from treemajor import *`` binds
# exactly these names and the submodules, so a name dropped from a
# module's ``__all__`` shows here.
PUBLIC_NAMES = {
    "errors": """BoundExceeded DegreeRuleViolation DonorIsLeaf DonorWouldVanish
        InvalidPlan LengthMismatch NonPositiveDegree NotConnected NotMajorized
        NotTreeFeasible ParseError SameRank TreeMajorError WouldDisconnect""",
    "sequences": """CONVEX_TEST_FAMILY ComparisonResult DeltaSequence LorenzCurve
        compare convex_functional lorenz_curve majorization_gap
        parse_sequence prefix_sums validate_tree_sequence""",
    "transfers": """TransferPlan TransferStep basic_transfer format_plan
        plan_from_dict plan_to_dict plan_transfers replay""",
    "trees": """Branch CanonicalCode Graph Tree apply_moves branches_at
        canonical_code chain complete_graph cycle_graph
        delta_sequence format_tree is_isomorphic legal_moves move_branch
        parse_tree star tree_from_dict tree_to_dict tree_to_dot""",
    "realize": """MoveTrace format_trace realize_direct
        realize_from_chain replay_plan_on_tree trace_from_dict trace_to_dict""",
    "enumeration": """CENSUS_MAX_NODES MAX_NODES delta_census enumerate_trees
        tree_from_prufer trees_with_delta""",
    "verify": """DEFAULT_SEED REACHABILITY_MAX_NODES OrderReport
        ReachabilityCertificate certify_reachability check_certificate
        check_total_order closure_is_closed covering_relations find_move_trace
        find_unreachable_pair hasse_diagram random_connected_graph
        reachability_closure reachable_classes standard_graph_suite
        verify_chain_minimality verify_convex_monotonicity
        verify_majorization_reachability""",
}


def test_star_import_binds_the_pinned_surface():
    bound = {}
    exec("from treemajor import *", bound)
    del bound["__builtins__"]
    bound.pop("cli", None)  # a package attribute once anything imports it
    expected = {}
    for module, names in PUBLIC_NAMES.items():
        source = importlib.import_module(f"treemajor.{module}")
        expected[module] = source
        expected.update((name, getattr(source, name)) for name in names.split())
    assert len(expected) == 85 + 7
    assert bound.keys() == expected.keys()
    for name, value in expected.items():
        assert bound[name] is value, name


def test_errors_exports_exactly_its_exception_classes():
    exceptions = {
        k for k, v in vars(errors).items()
        if isinstance(v, type) and issubclass(v, Exception)
    }
    assert len(exceptions) == 14
    assert sorted(errors.__all__) == sorted(exceptions)


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
        "def g(n):\n"
        "    raise TypeError(f'node count must be an int, got {n!r}')\n"
    )
    # one hand-written copy of every check's text, each in g
    copies = tmp_path / "verify.py"
    copies.write_text(
        "def g():\n"
        + "".join(f"    {message!r}\n" for message, _ in CHECKS.values())
    )
    assert private_imports(bad) == [
        ("realize", "trees", "_adjacency"),
        ("realize", "transfers", "_helper"),
    ]
    assert foreign_private_attributes(bad) == [("realize", 5, "_adj")]
    assert unused_imports(bad) == ["_adjacency", "_helper", "chain"]
    for message, owner in CHECKS.values():
        assert message_sites([copies], message) == [("verify", "g")] != [owner]
    assert message_sites([bad], CHECKS["int"][0]) == [("realize", "g")]
    helpers = tmp_path / "trees.py"
    helpers.write_text(
        "__all__ = ['api']\n"
        "def api(n):\n"
        "    return _used(n)\n"
        "def _used(n):\n"
        "    return n\n"
        "def _unread(n):\n"
        "    return n\n"
        "def _recursive(n):\n"
        "    return _recursive(n - 1) if n else 0\n"
        "class _Unread:\n"
        "    pass\n"
    )
    assert unread_definitions([bad, helpers]) == [
        ("realize", "f"), ("realize", "g"),
        ("trees", "_unread"), ("trees", "_recursive"), ("trees", "_Unread"),
    ]
