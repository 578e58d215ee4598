"""Every config key is read: some module of the package reads each _KEYS
name as cfg.<key>, or through RunConfig.pair_values or RunConfig.algebra,
which read it as self.<key> and are themselves read as cfg.pair_values and
cfg.algebra.  A key that only _validate and config_mapping touch, through
getattr, bounds nothing.  And the README's "Keys and defaults" table lists
every key once, with its default."""

import ast
import re
from pathlib import Path

from covercert import core

SRC = Path(__file__).resolve().parent.parent / "src" / "covercert"
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
    # the package's modules as one tree, so a key read in one module counts
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.rglob("*.py"))]
    package = ast.Module(body=[node for tree in trees for node in tree.body], type_ignores=[])
    assert unread_keys(package, core._KEYS) == []


README = SRC.parents[1] / "README.md"


def key_table_problems(text, defaults):
    """What is wrong with the "Keys and defaults" table of text against
    defaults, a mapping from each config key to its default: a row naming
    other than one key, a key that is not in defaults or is listed twice, a
    default that differs, and a key that no row lists.  A cell's names are
    its backquoted spans."""
    lines = text[text.index("Keys and defaults"):].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    rows = []
    for line in lines[start + 2:]:  # past the header and its rule
        if not line.startswith("|"):
            break
        key_cell, default_cell = line.split("|")[1:3]
        rows.append((re.findall(r"`([^`]*)`", key_cell), re.findall(r"`([^`]*)`", default_cell)))
    problems, listed = [], []
    for keys, values in rows:
        if len(keys) != 1 or len(values) != 1:
            problems.append(f"row {', '.join(keys)} lists {len(keys)} keys and {len(values)} defaults")
            continue
        key, value = keys[0], values[0]
        if key not in defaults:
            problems.append(f"{key} is not a config key")
        elif key in listed:
            problems.append(f"{key} is listed twice")
        elif value != defaults[key]:
            problems.append(f"{key} defaults to {defaults[key]}, not {value}")
        listed.append(key)
    problems += [f"no row lists {key}" for key in defaults if key not in listed]
    return problems


def test_key_table_lint_catches_a_stale_row():
    table = (
        "Keys and defaults:\n\n"
        "| key | default | meaning |\n|---|---|---|\n"
        "| `d` | `17` | the `a` of the algebra |\n"
        "| `k_min`, `k_max` | `1`, `5` | level range |\n"
        "| `b` | `1` | |\n"
        "| `e` | `0` | |\n"
        "\nnot the table: | `x` | `1` |\n"
    )
    assert key_table_problems(table, {"d": "17", "b": "0", "k_max": "5"}) == [
        "row k_min, k_max lists 2 keys and 2 defaults",
        "b defaults to 0, not 1",
        "e is not a config key",
        "no row lists k_max",
    ]


def test_readme_key_table_lists_every_key_with_its_default():
    defaults = {key: core.config_mapping(core.RunConfig())[key] for key in core._KEYS}
    assert len(defaults) == 10
    assert key_table_problems(README.read_text(encoding="utf-8"), defaults) == []
