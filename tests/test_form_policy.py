"""Only `exterior.py` decides what a 1-form argument is, and only `errors.py`
raises a boundary `ChartMismatch`.

Every other module takes its 1-form arguments through
`exterior._require_one_forms`, which refuses anything but a `DiffForm` of
degree 1 and forms on different charts.  A module that compares `<x>.degree`
with 1 itself would bring back a second answer, so it fails here.

Chart agreement at a public entry goes through `errors._require_same_chart`.
The one other place that raises `ChartMismatch` is the `_check` method that
`MultiPoly` and `DiffForm` run on every arithmetic operation.
"""

import ast

import pytest
from test_stdlib_only import SOURCES


def degree_one_tests(tree: ast.AST) -> list[int]:
    """The lines of every comparison between some `<x>.degree` and 1."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(
                isinstance(a, ast.Attribute) and a.attr == "degree" for a in operands
            ) and any(isinstance(a, ast.Constant) and a.value == 1 for a in operands):
                lines.append(node.lineno)
    return lines


def chart_mismatch_raises(tree: ast.AST) -> list[tuple[str, int]]:
    """(enclosing function, line) of every `raise ChartMismatch(...)`."""
    out = []
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Raise)
                    and isinstance(node.exc, ast.Call)
                    and isinstance(node.exc.func, ast.Name)
                    and node.exc.func.id == "ChartMismatch"
                ):
                    out.append((func.name, node.lineno))
    return out


def module(name: str) -> ast.AST:
    (path,) = [path for path in SOURCES if path.name == name]
    return ast.parse(path.read_text(), str(path))


def test_the_checkers_see_each_form():
    source = (
        "w.degree != 1\n1 == w.degree\nw.degree == 0\nlen(w) == 1\n"
        "a < w.degree <= 1\nw.degree\n"
        "def f():\n    raise ChartMismatch('x')\n"
    )
    tree = ast.parse(source)
    assert degree_one_tests(tree) == [1, 2, 5]
    assert chart_mismatch_raises(tree) == [("f", 8)]


def test_exterior_holds_the_form_guard():
    assert degree_one_tests(module("exterior.py"))


def test_errors_holds_the_chart_guard():
    assert [name for name, _ in chart_mismatch_raises(module("errors.py"))] == [
        "_require_same_chart"
    ]


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "exterior.py"], ids=lambda path: path.name
)
def test_no_module_decides_what_a_one_form_is(path):
    lines = degree_one_tests(ast.parse(path.read_text(), str(path)))
    assert not lines, f"{path.name} compares a degree with 1 at lines {lines}"


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "errors.py"], ids=lambda path: path.name
)
def test_no_module_raises_its_own_boundary_chart_mismatch(path):
    raises = chart_mismatch_raises(ast.parse(path.read_text(), str(path)))
    assert all(name == "_check" for name, _ in raises), f"{path.name}: {raises}"
