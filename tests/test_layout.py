"""Each command-line run loads the core, its own pipeline module and the
layers that pipeline reaches, and nothing else: neither dataclasses nor
the inspect module it imports, nor argparse, nor OpenSSL; its output is
the golden bundle byte for byte.  A name read from a bundle is never
imported, and the traced benchmark run still finds every function it
wraps.  The claim loop lives in core alone: no pipeline module places
stages, stubs or contexts itself.  And an algebra's Hilbert symbols are
computed in one place: only quatalg.symbol_table calls hilbert_symbol."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from covercert import certify, core, units

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_DIR = ROOT / "tests" / "golden"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

# what every run loads: the package, the command line, the core and the
# pipelines package
BASE = {"covercert", "covercert.cli", "covercert.core", "covercert.pipelines"}
# golden name -> the covercert modules beyond BASE that its run loads; a
# rational h reads no algebra, so intersect and sl2z load neither quatalg
# nor the hilbert pipeline
LAYERS = {
    "dihedral": {"pipelines.dihedral", "mobius", "mat2", "util"},
    "quaternionic": {"pipelines.quaternionic", "pipelines.sl2z", "pipelines.intersect", "pipelines.hilbert", "units",
                     "modgroup", "quatalg", "commens", "exact", "mat2", "util"},
    "sl2z": {"pipelines.sl2z", "pipelines.intersect", "commens", "exact", "mat2", "util"},
    "hilbert": {"pipelines.hilbert", "quatalg", "exact", "util"},
    "units": {"pipelines.units", "pipelines.hilbert", "units", "modgroup", "quatalg", "exact", "util"},
    "intersect": {"pipelines.intersect", "commens", "exact", "mat2", "util"},
    "intersect-quat-h": {"pipelines.intersect", "pipelines.hilbert", "commens", "quatalg", "exact", "mat2", "util"},
}

# standard-library modules that no run loads: defining a dataclass costs a
# millisecond or more in every process, and importing dataclasses loads
# inspect; argparse loads gettext and, on its first parser, locale; and
# hashlib loads OpenSSL's _hashlib
UNLOADED = ("dataclasses", "inspect", "argparse", "gettext", "locale", "_hashlib")

# run the command line with argv[2:], then write the loaded covercert
# modules and those of UNLOADED to the file argv[1]
RUN_CLI = (
    "import json, sys\n"
    "from covercert.cli import main\n"
    "rc = main(sys.argv[2:])\n"
    "with open(sys.argv[1], 'w') as fh:\n"
    f"    json.dump(sorted(name for name in sys.modules if name.startswith('covercert') or name in {UNLOADED}), fh)\n"
    "sys.exit(rc)\n"
)

# golden name -> command line
RUNS = {name: [name] for name in core.PIPELINE_NAMES}
RUNS["intersect-quat-h"] = ["intersect", "--set", "h=quat:3/2,1/2,0,0"]


@pytest.mark.parametrize("golden", sorted(RUNS))
def test_a_run_loads_only_its_pipeline(golden, tmp_path):
    argv = RUNS[golden]
    modules = tmp_path / "modules.json"
    proc = subprocess.run([sys.executable, "-c", RUN_CLI, str(modules), *argv], capture_output=True, env=ENV)
    expected = (GOLDEN_DIR / f"{golden}.json").read_bytes()
    assert proc.stdout == expected and proc.stderr == b""
    assert proc.returncode == core.bundle_exit_code(json.loads(expected))
    loaded = set(json.loads(modules.read_text()))
    assert loaded.isdisjoint(UNLOADED)
    assert loaded == BASE | {f"covercert.{name}" for name in LAYERS[golden]}


def test_a_pipeline_that_fails_to_import_exits_3():
    code = "import sys; sys.modules['covercert.pipelines.hilbert'] = None\n" + RUN_CLI
    proc = subprocess.run([sys.executable, "-c", code, os.devnull, "hilbert"], capture_output=True, text=True, env=ENV)
    assert proc.returncode == 3 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "covercert.pipelines.hilbert" in lines[0]


def test_one_dispatch_path():
    assert tuple(certify.PIPELINES) == core.PIPELINE_NAMES
    for name, run in certify.PIPELINES.items():
        assert run is core.pipeline_runner(name) is getattr(certify, f"run_{name}")
    assert core.ORDER_KINDS == (units.STANDARD, units.SATURATED)
    assert core.RunConfig().order_kind == units.SATURATED


# re-verify the golden argv[1] as it is, then with each name in argv[2:]
# put in place of its pipeline and of each claim id's prefix; print the
# results of the edited copies and the modules those runs imported
REVERIFY = (
    "import json, sys\n"
    "from covercert.core import reverify_bundle\n"
    "golden = json.load(open(sys.argv[1]))\n"
    "assert all(ok for _, ok, _ in reverify_bundle(golden))\n"
    "before = set(sys.modules)\n"
    "out = []\n"
    "for name in sys.argv[2:]:\n"
    "    edited = json.loads(json.dumps(golden))\n"
    "    edited['pipeline'] = name\n"
    "    out.append(reverify_bundle(edited))\n"
    "    for i, claim in enumerate(golden['claims']):\n"
    "        edited = json.loads(json.dumps(golden))\n"
    "        edited['claims'][i]['id'] = name + '.' + claim['id'].split('.', 1)[1]\n"
    "        out.append(reverify_bundle(edited))\n"
    "print(json.dumps({'results': out, 'imported': sorted(set(sys.modules) - before)}))\n"
)
# a stdlib module and two covercert modules that re-verifying hilbert or
# sl2z does not load, a path and a name that names nothing
FOREIGN = ("os", "csv", "certify", "fuchsian", "../x", "nope")


@pytest.mark.parametrize("golden", ["hilbert", "sl2z"])
def test_a_bundle_names_no_module_to_import(golden):
    bundle = json.loads((GOLDEN_DIR / f"{golden}.json").read_text())
    proc = subprocess.run([sys.executable, "-c", REVERIFY, str(GOLDEN_DIR / f"{golden}.json"), *FOREIGN],
                          capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["imported"] == []
    runs = iter(data["results"])
    ids = [claim["id"] for claim in bundle["claims"]]
    for name in FOREIGN:
        reason = f"the claims are not the {name} pipeline's, once each and in order"
        assert next(runs) == [[cid, True, None] for cid in ids] + [[name, False, reason]]
        for i, cid in enumerate(ids):
            edited = name + "." + cid.split(".", 1)[1]
            expected = [[c, True, None] for c in ids]
            expected[i] = [edited, False, "no re-verifier for this claim"]
            assert next(runs) == expected + [[golden, False, f"the bundle lists no {cid} claim"]]
    assert next(runs, None) is None


# the traced run wraps the two fuchsian searches, which no pipeline module
# imports, so sl2z and quaternionic runs load fuchsian only through certify
@pytest.mark.parametrize("pipeline, layer", [("hilbert", "quatalg.hilbert_symbol"),
                                             ("intersect", "commens.local_intersection"),
                                             ("dihedral", "mobius.invariant_search"),
                                             ("sl2z", "commens.sl2z_case"),
                                             ("quaternionic", "units.reduce_units"),
                                             ("units", "units.enumerate_units_saturated")])
def test_traced_run_records_its_spans(pipeline, layer, tmp_path):
    spans = tmp_path / "spans.json"
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "traced.py"), pipeline], capture_output=True, cwd=ROOT,
                          env=dict(ENV, PERFBENCH_SPANS=str(spans)))
    expected = (GOLDEN_DIR / f"{pipeline}.json").read_bytes()
    assert proc.returncode == core.bundle_exit_code(json.loads(expected)), proc.stderr
    assert proc.stdout == expected
    names = {span[0] for span in json.loads(spans.read_text())["spans"]}
    assert {"cli.main", "certify.pipeline", "certify.reverify_bundle", "certify.render_bundle", layer} <= names


# the names of core's claim loop: a pipeline module that references one
# places stages, stubs or contexts itself
LOOP_NAMES = {"make_bundle", "_not_run", "_context", "_blocks", "_stub"}


def second_loop_sites(source: str):
    """(line, why) for each reference to a name of LOOP_NAMES in a pipeline
    module's source, and for each run_<name> whose body is not the single
    statement return run_pipeline("<name>", cfg)."""
    out = []
    for node in ast.walk(ast.parse(source)):
        names = {getattr(node, "id", None), getattr(node, "attr", None)}
        if isinstance(node, ast.alias):
            names |= {node.name, node.asname}
        out += [(node.lineno, f"references {name}") for name in sorted(names & LOOP_NAMES)]
        if isinstance(node, ast.FunctionDef) and node.name.startswith("run_"):
            want = ast.parse(f"return run_pipeline({node.name[4:]!r}, cfg)").body
            if [ast.dump(s) for s in node.body] != [ast.dump(s) for s in want]:
                out.append((node.lineno, f"{node.name} is not the single run_pipeline call"))
    return sorted(out)


def test_second_loop_lint_catches_each_kind():
    code = (
        "from ..core import make_bundle, run_pipeline\n"
        "def run_x(cfg):\n    return make_bundle('x', cfg, [core._context('x.c')])\n"
        "def run_y(cfg):\n    'doc'\n    return run_pipeline('y', cfg)\n"
        "def run_z(cfg):\n    return run_pipeline('y', cfg)\n"
        "def run_w(cfg):\n    return run_pipeline('w', cfg)\n"
    )
    assert second_loop_sites(code) == [
        (1, "references make_bundle"),
        (2, "run_x is not the single run_pipeline call"),
        (3, "references _context"),
        (3, "references make_bundle"),
        (4, "run_y is not the single run_pipeline call"),
        (7, "run_z is not the single run_pipeline call"),
    ]


@pytest.mark.parametrize("path", sorted((SRC / "covercert" / "pipelines").glob("*.py")), ids=lambda p: p.name)
def test_the_claim_loop_is_core_s_alone(path):
    source = path.read_text(encoding="utf-8")
    assert second_loop_sites(source) == []
    assert path.stem not in core.PIPELINE_NAMES or f"def run_{path.stem}(cfg" in source


def symbol_sites(source: str, module: str):
    """(line, where) for each reference to hilbert_symbol, by name,
    attribute or import, in the source of the module at the path module
    under covercert, other than in quatalg.py's symbol_table; where names
    the enclosing function or class, or is "module"."""
    out = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else where
            names = {getattr(child, "id", None), getattr(child, "attr", None)}
            if isinstance(child, ast.alias):
                names.add(child.name)
            if "hilbert_symbol" in names and (module, inner) != ("quatalg.py", "symbol_table"):
                out.append((child.lineno, inner))
            visit(child, inner)

    visit(ast.parse(source), "module")
    return out


def test_symbol_lint_catches_each_kind():
    code = (
        "from .quatalg import hilbert_symbol as hs\n"
        "def symbol_table(a, b):\n    return hilbert_symbol(a, b, 2)\n"
        "class A:\n    def f(self):\n        return quatalg.hilbert_symbol(self.a, self.b, 2)\n"
    )
    assert symbol_sites(code, "units.py") == [(1, "module"), (3, "symbol_table"), (6, "f")]
    assert symbol_sites(code, "quatalg.py") == [(1, "module"), (6, "f")]


@pytest.mark.parametrize("path", sorted((SRC / "covercert").rglob("*.py")), ids=lambda p: p.relative_to(SRC / "covercert").as_posix())
def test_only_symbol_table_calls_hilbert_symbol(path):
    # an algebra reads its symbols from QuaternionAlgebra.ramified, which
    # symbol_table fills once per algebra
    module = path.relative_to(SRC / "covercert").as_posix()
    assert symbol_sites(path.read_text(encoding="utf-8"), module) == []
