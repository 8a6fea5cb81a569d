"""Only `intpoly.py` and `field.py` know how a monomial key is packed.

A key packs the total degree and the exponents into fields of `W` bits
(`intpoly` has the layout).  `field.py` moves polynomials between charts on
those keys (`_drop_variable`, `_append_variable`); every other module goes
through those helpers.  A module that imports the field width, its masks,
the packing functions or the guard bits from `intpoly` could shift keys by
hand, so it fails here.
"""

import ast

import pytest
from test_stdlib_only import SOURCES

LAYOUT = {"W", "MASK", "HALF", "_pack", "_unpack", "_guards"}


def layout_imports(tree: ast.AST) -> list[str]:
    """The layout names imported from `intpoly`, relatively or absolutely."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "intpoly":
            names += [a.name for a in node.names if a.name in LAYOUT]
    return names


def test_the_checker_sees_each_import():
    source = (
        "from .intpoly import W, _mul_terms\n"
        "from gvcalc.intpoly import _pack as p, _guards\n"
        "from .field import W\n"
        "from . import intpoly\n"
    )
    assert layout_imports(ast.parse(source)) == ["W", "_pack", "_guards"]


def test_field_reads_the_layout():
    (path,) = [path for path in SOURCES if path.name == "field.py"]
    assert layout_imports(ast.parse(path.read_text(), str(path)))


@pytest.mark.parametrize(
    "path",
    [p for p in SOURCES if p.name not in ("field.py", "intpoly.py")],
    ids=lambda path: path.name,
)
def test_no_other_module_reads_the_key_layout(path):
    names = layout_imports(ast.parse(path.read_text(), str(path)))
    assert not names, f"{path.name} imports {names} from intpoly; use the field.py helpers"
