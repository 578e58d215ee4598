"""Every verdict is exact, so the package holds no floats: no float
literal, no call to float, and from math only the integer functions gcd,
isqrt and lcm."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "covercert"
MATH_ALLOWED = {"gcd", "isqrt", "lcm"}


def float_uses(tree):
    """(line, what) for each float construct in a parsed module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
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


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.relative_to(SRC).as_posix())
def test_no_floats_in_package(path):
    assert float_uses(ast.parse(path.read_text(encoding="utf-8"))) == []
