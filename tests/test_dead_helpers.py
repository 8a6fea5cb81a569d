"""Every module-level private function or class of the package has a user.

A private helper (a name starting with `_`) is read somewhere under
`src/gvcalc/` outside its own definition: as a name, an attribute, or an
imported name.  A helper whose last caller went away fails here.

The single-class guards that once lived in their own modules were folded
into `errors._require`; each such module now guards its class through that
call and defines no guard of its own again.  The same holds for the 1-form
guards, folded into `exterior._require_one_forms`.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest
from test_stdlib_only import SOURCES


def references(node: ast.AST) -> Counter:
    """Every name read, attribute taken and name imported under a node."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            out.update(a.name for a in sub.names)
    return out


TREES = {path: ast.parse(path.read_text(), str(path)) for path in SOURCES}
USES = sum((references(tree) for tree in TREES.values()), Counter())

HELPERS = [
    (path, node)
    for path, tree in TREES.items()
    for node in tree.body
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
]


def test_the_package_has_private_helpers():
    assert len(HELPERS) > 20


@pytest.mark.parametrize(
    "path, node", HELPERS, ids=[f"{path.name}:{node.name}" for path, node in HELPERS]
)
def test_every_private_helper_is_used(path: Path, node: ast.AST):
    # a helper that only calls itself is still unused
    outside = USES[node.name] - references(node)[node.name]
    assert outside > 0, f"{path.name}: {node.name} is never used"


# (module, deleted guard, class it guarded): the class is now guarded by
# `errors._require(cls, ...)` in that module
RETIRED_GUARDS = [
    ("field.py", "_require_chart", "Chart"),
    ("field.py", "_require_polys", "MultiPoly"),
    ("gv.py", "_require_sequence", "GVSequence"),
    ("transverse.py", "_require_triple", "Triple"),
    ("zseries.py", "_require_series", "FormalOmega"),
]


def calls(tree: ast.AST, name: str) -> list[ast.Call]:
    """Every call of the plain name `name` under a node."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name
    ]


def require_classes(tree: ast.AST) -> set[str]:
    """The class names passed first to `_require(...)` under a node, alone or
    in a tuple."""
    out = set()
    for node in calls(tree, "_require"):
        if node.args:
            first = node.args[0]
            names = first.elts if isinstance(first, ast.Tuple) else [first]
            out.update(n.id for n in names if isinstance(n, ast.Name))
    return out


def defined(tree: ast.AST) -> set[str]:
    """The module-level function and class names of a module."""
    return {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def module_tree(module: str) -> ast.AST:
    (tree,) = [tree for path, tree in TREES.items() if path.name == module]
    return tree


def test_require_classes_reads_a_tuple():
    tree = ast.parse("_require(A, 'a', x)\n_require((B, C), 'b', x)\nf(D)\n")
    assert require_classes(tree) == {"A", "B", "C"}


@pytest.mark.parametrize(
    "module, guard, cls",
    RETIRED_GUARDS,
    ids=[f"{module}:{guard}" for module, guard, _ in RETIRED_GUARDS],
)
def test_retired_guard_is_errors_require(module: str, guard: str, cls: str):
    tree = module_tree(module)
    assert guard not in defined(tree), f"{module}: {guard} is back; use errors._require"
    assert cls in require_classes(tree), f"{module} no longer guards {cls}"


# (module, deleted 1-form guard): that module now takes its 1-forms through
# `exterior._require_one_forms`
RETIRED_FORM_GUARDS = [("transverse.py", "_check_form")]


@pytest.mark.parametrize(
    "module, guard", RETIRED_FORM_GUARDS, ids=[f"{m}:{g}" for m, g in RETIRED_FORM_GUARDS]
)
def test_retired_form_guard_is_require_one_forms(module: str, guard: str):
    tree = module_tree(module)
    assert guard not in defined(tree), f"{module}: {guard} is back; use _require_one_forms"
    assert calls(tree, "_require_one_forms"), f"{module} no longer guards its 1-forms"
