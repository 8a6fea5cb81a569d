"""Only `errors.py` decides what counts as an int argument.

Every other module of the package takes its int arguments through
`errors._require_int`, which refuses bool and stores any other int subclass
as a plain int.  A module that tests `type(...) is int`, `type(...) is not
int` or `isinstance(..., bool)` itself would bring back a second policy, so
it fails here.
"""

import ast

import pytest
from test_stdlib_only import SOURCES


def int_policy_tests(tree: ast.AST) -> list[int]:
    """The lines of every `type(x) is [not] int` and `isinstance(x, bool)`."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and len(node.ops) == 1:
            left, (right,) = node.left, node.comparators
            if (
                isinstance(node.ops[0], (ast.Is, ast.IsNot))
                and isinstance(left, ast.Call)
                and isinstance(left.func, ast.Name)
                and left.func.id == "type"
                and isinstance(right, ast.Name)
                and right.id == "int"
            ):
                lines.append(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            cls = node.args[1]
            names = cls.elts if isinstance(cls, ast.Tuple) else [cls]
            if any(isinstance(n, ast.Name) and n.id == "bool" for n in names):
                lines.append(node.lineno)
    return lines


def test_the_checker_sees_each_form():
    source = (
        "type(a) is int\ntype(a) is not int\nisinstance(a, bool)\n"
        "isinstance(a, (int, bool))\nisinstance(a, int)\ntype(a) is RatFn\n"
    )
    assert int_policy_tests(ast.parse(source)) == [1, 2, 3, 4]


def test_errors_holds_the_policy():
    (errors,) = [path for path in SOURCES if path.name == "errors.py"]
    assert int_policy_tests(ast.parse(errors.read_text()))


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "errors.py"], ids=lambda path: path.name
)
def test_no_module_decides_what_an_int_is(path):
    lines = int_policy_tests(ast.parse(path.read_text(), str(path)))
    assert not lines, f"{path.name} tests for int or bool itself at lines {lines}"
