"""Every name a module imports is used in that module.

`__init__.py` is skipped: it imports names only to re-export them.
"""

import ast
from pathlib import Path

import pytest
from test_stdlib_only import SOURCES

MODULES = [path for path in SOURCES if path.name != "__init__.py"]


def unused_imports(path: Path) -> set[str]:
    """Names bound by the imports of one source file and never read in it."""
    tree = ast.parse(path.read_text(), str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path) == set()
