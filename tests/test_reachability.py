"""Reachability lint: every function defined under src/covercert is called
by a golden config's run or its re-verification, or by the command line,
or ALLOWED says why it stays.  An ALLOWED entry that a run reaches, or that
names no function, fails too, so the list can only shrink.

The runs happen in a fresh process under sys.setprofile, so no cache that
an earlier test filled hides a call.  Run this file as a script with a
directory to write that process's findings there as reached.json.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_certify import GOLDEN

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "covercert"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))

TRACED = "perfbench/traced.py wraps it"


def beneath(*callers):
    return f"only {', '.join(callers)} call it, which perfbench/traced.py wraps"


def oracle(test):
    return f"oracle in {test}"


# "module.qualname" -> why no run needs to reach it
ALLOWED = {
    "commens.IndexResult.modulus": "perfbench/traced.py counts the spans of local_intersection and sl2z_case by it",
    "fuchsian.WordElement.extend": beneath("find_infinite_elliptic"),
    "fuchsian.WordElement.trace": beneath("find_infinite_elliptic"),
    "fuchsian.WordElement.determinant": beneath("find_infinite_elliptic", "jorgensen_violation"),
    "fuchsian.is_infinite_elliptic_trace": beneath("find_infinite_elliptic", "jorgensen_violation"),
    "fuchsian.find_infinite_elliptic": TRACED,
    "fuchsian.jorgensen_violation": TRACED,
    "modgroup.enumerate_group": TRACED,
    "units.surjects_at_level": TRACED,
}


def _defs():
    """"module.qualname" -> (file, first line) of every def under SRC; a
    decorated function's code starts at its first decorator."""
    found = {}

    def walk(node, module, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                found[f"{module}.{name}"] = (path, min([child.lineno] + [d.lineno for d in child.decorator_list]))
                walk(child, module, name + ".", path)
            elif isinstance(child, ast.ClassDef):
                walk(child, module, prefix + child.name + ".", path)
            else:
                walk(child, module, prefix, path)

    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        walk(ast.parse(path.read_text(encoding="utf-8")), module, "", os.path.realpath(path))
    return found


def _trace(out_dir: Path):
    """Run every golden config and re-verify its bundle, then one command
    line with --config and --out and one that fails with an error line,
    all under sys.setprofile; write the (file, first line) of every
    function called to out_dir/reached.json."""
    from covercert import certify, cli, core

    config = out_dir / "run.cfg"
    config.write_text("pair = 17,7\n", encoding="utf-8")
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for pipeline, overrides, _ in GOLDEN.values():
            bundle = certify.PIPELINES[pipeline](core.load_config(None, overrides))
            core.reverify_bundle(json.loads(core.render_bundle(bundle)))
        cli.main(["hilbert", "--config", str(config), "--out", str(out_dir / "run.json")])
        cli.main(["hilbert", "--set", "pair=0,1"])
    finally:
        sys.setprofile(None)
    reached = sorted({(os.path.realpath(c.co_filename), c.co_firstlineno) for c in codes})
    (out_dir / "reached.json").write_text(json.dumps(reached), encoding="utf-8")


@pytest.fixture(scope="module")
def unreached(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("reach")
    proc = subprocess.run([sys.executable, __file__, str(out_dir)], capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    reached = {tuple(entry) for entry in json.loads((out_dir / "reached.json").read_text())}
    return {name for name, where in _defs().items() if where not in reached}


def test_every_function_is_reached_or_allowed(unreached):
    assert sorted(unreached - ALLOWED.keys()) == []


def test_no_allowed_function_is_reached_or_gone(unreached):
    assert sorted(ALLOWED.keys() - unreached) == []


def test_every_allowance_names_the_benchmark_or_a_test():
    for name, reason in ALLOWED.items():
        if "perfbench/traced.py" in reason:
            continue
        assert reason.startswith("oracle in tests/"), name
        path, test = reason.removeprefix("oracle in ").split("::")
        assert f"def {test}(" in (ROOT / path).read_text(encoding="utf-8"), reason


if __name__ == "__main__":
    _trace(Path(sys.argv[1]))
