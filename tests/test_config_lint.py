"""Every config key is read: certify.py reads each _KEYS name as
cfg.<key>, or through RunConfig.pair_values or RunConfig.algebra, which
read it as self.<key> and are themselves read as cfg.pair_values and
cfg.algebra.  A key that only _validate and config_mapping touch, through
getattr, bounds nothing."""

import ast
from pathlib import Path

from covercert import certify

CERTIFY = Path(__file__).resolve().parent.parent / "src" / "covercert" / "certify.py"
ACCESSORS = ("pair_values", "algebra")


def _attributes(node, owner):
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == owner}


def unread_keys(tree, keys):
    """The keys that tree reads neither as cfg.<key> nor through an accessor
    that it reads as cfg.<accessor>."""
    read = _attributes(tree, "cfg")
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in ACCESSORS and node.name in read:
            read |= _attributes(node, "self")
    return [key for key in keys if key not in read]


def test_lint_catches_an_unread_key():
    code = (
        "class RunConfig:\n"
        "    def pair_values(self):\n        return self.pair\n"
        "    def algebra(self):\n        return self.d, self.b\n"
        "def _validate(cfg):\n    for key in ('bound', 'spare'):\n        getattr(cfg, key)\n"
        "def run(cfg):\n    return cfg.bound, cfg.algebra\n"
    )
    # pair_values is never read, and spare only through getattr
    assert unread_keys(ast.parse(code), ["bound", "pair", "d", "b", "spare"]) == ["pair", "spare"]


def test_every_config_key_is_read():
    assert unread_keys(ast.parse(CERTIFY.read_text(encoding="utf-8")), certify._KEYS) == []
