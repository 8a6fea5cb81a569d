"""Every module-level private function or class of the package has a user.

A private helper (a name starting with `_`) is read somewhere under
`src/gvcalc/` outside its own definition: as a name, an attribute, or an
imported name.  A helper whose last caller went away fails here.
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
