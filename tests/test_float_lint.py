"""Every verdict is exact, so the package holds no floats: no float
literal, no call to float, from math only the integer functions gcd,
isqrt and lcm, and no true division / or /= outside the modules that
divide Fractions with it, where int / int would silently give a float."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "covercert"
MATH_ALLOWED = {"gcd", "isqrt", "lcm"}
# the modules whose every / divides a Fraction
DIVISION_ALLOWED = {"mobius.py", "pipelines/dihedral.py"}


def float_uses(tree, division=False):
    """(line, what) for each float construct in a parsed module; each /
    and /= counts too unless division is allowed."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div) and not division:
            out.append((node.lineno, "true division"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            out.append((node.lineno, f"float literal {node.value!r}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            out.append((node.lineno, "call to float"))
        elif isinstance(node, ast.Import):
            out += [(node.lineno, f"import {a.name}") for a in node.names if a.name.split(".")[0] == "math"]
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            out += [(node.lineno, f"math.{a.name}") for a in node.names if a.name not in MATH_ALLOWED]
    return out


def test_lint_catches_each_kind():
    code = "import math\nfrom math import gcd, sqrt\nx = 0.5\ny = float(3)\nz = 1e3\n"
    assert [line for line, _ in float_uses(ast.parse(code))] == [1, 2, 3, 4, 5]
    code = "x = a // s\ny = a / s\ny /= 2\nz = -(-a // s)\n"
    assert sorted(float_uses(ast.parse(code))) == [(2, "true division"), (3, "true division")]
    assert float_uses(ast.parse(code), division=True) == []


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.relative_to(SRC).as_posix())
def test_no_floats_in_package(path):
    division = path.relative_to(SRC).as_posix() in DIVISION_ALLOWED
    assert float_uses(ast.parse(path.read_text(encoding="utf-8")), division) == []
