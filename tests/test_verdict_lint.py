"""Verdicts are decided in one place: a Certificate derives its verdict from
its witness by the claim's rule, so in the package only _not_run and
_context, which record assumptions, may pass verdict= to Certificate."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "covercert"
ALLOWED = {"_not_run", "_context"}


def verdict_sites(tree):
    """(line, enclosing function) for each Certificate call that passes a
    verdict, or may through **kwargs, outside the allowed functions."""
    out = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Certificate":
            if function not in ALLOWED and any(k.arg in ("verdict", None) for k in node.keywords):
                out.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return out


def test_lint_catches_each_kind():
    code = (
        "def _context(c):\n    return Certificate(claim=c, verdict=ASSUMPTION)\n"
        "def stage(v):\n    return Certificate(claim='x', verdict=v)\n"
        "def other(kw):\n    return certify.Certificate(claim='x', **kw)\n"
        "claim = Certificate(claim='x', verdict='verified')\n"
    )
    assert verdict_sites(ast.parse(code)) == [(4, "stage"), (6, "other"), (7, None)]


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.relative_to(SRC).as_posix())
def test_only_assumptions_pass_a_verdict(path):
    assert verdict_sites(ast.parse(path.read_text(encoding="utf-8"))) == []
