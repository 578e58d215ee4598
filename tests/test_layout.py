"""Each command-line run loads the core, its own pipeline module and the
layers that pipeline reaches, and nothing else: neither dataclasses nor
the inspect module it imports, nor argparse, nor OpenSSL; its output is
the golden bundle byte for byte.  A name read from a bundle is never
imported, and the traced benchmark run still finds every function it
wraps."""

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
