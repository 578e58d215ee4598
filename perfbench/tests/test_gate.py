"""Self-tests of the benchmark's correctness gate and oracles."""

import json
import sys
from pathlib import Path

import pytest
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_form

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from gate import (Gate, Operation, Result, quaternion_index, rational_index,  # noqa: E402
                  sl2_order, smith_form_2x2)
from workloads import WORKLOADS, build  # noqa: E402

SCHEMA = json.loads((HERE.parents[1] / "src" / "covercert" / "certificate_schema.json").read_text())

QUARTER = ("intersect", "--set", "h=1,-1/4,0,1", "--set", "k_max=3")


def quarter_shift_op():
    return Operation(QUARTER, 0, (("intersect.index", "verified"),),
                     {"intersect.index": {"computed_index_in_gamma": 24,
                                          "computed_index_in_conjugate": 24}},
                     denominator_valuation=2)


def bundle_bytes(index=24, drop=None):
    levels = [{"level": k, "working_modulus": 2 ** (k + 4), "ambient_order": sl2_order(2, k + 4),
               "index_in_gamma": index, "index_in_conjugate": index} for k in (1, 2)]
    bundle = {
        "tool": "covercert",
        "tool_version": "0.1.0",
        "pipeline": "intersect",
        "config": {"h": "1,-1/4,0,1", "k_max": "3"},
        "config_hash": "0" * 64,
        "claims": [{
            "id": "intersect.index",
            "verdict": "verified",
            "method": "congruence scan",
            "inputs": {"h": "1,-1/4,0,1"},
            "witness": {"levels": levels, "stabilized": True, "stabilized_at": 1,
                        "computed_index_in_gamma": index, "computed_index_in_conjugate": index},
            "depends_on": [],
            "notes": [],
        }],
    }
    if drop:
        del bundle[drop]
    return (json.dumps(bundle, sort_keys=True, indent=2) + "\n").encode()


def kinds(failures):
    return {f.kind for f in failures}


def test_correct_bundle_passes():
    assert Gate(SCHEMA).check(quarter_shift_op(), Result(0, bundle_bytes(), b"")) == []


def test_wrong_index_fails():
    failures = Gate(SCHEMA).check(quarter_shift_op(), Result(0, bundle_bytes(index=6), b""))
    assert kinds(failures) == {"answer"}
    assert any("expected 24" in f.detail for f in failures)


def test_schema_invalid_bundle_fails():
    failures = Gate(SCHEMA).check(quarter_shift_op(), Result(0, bundle_bytes(drop="tool"), b""))
    assert kinds(failures) == {"schema"}


def test_nondeterministic_pair_fails():
    gate = Gate(SCHEMA)
    assert gate.check(quarter_shift_op(), Result(0, bundle_bytes(), b"")) == []
    failures = gate.check(quarter_shift_op(), Result(0, bundle_bytes().replace(b"  ", b"   "), b""))
    assert kinds(failures) == {"nondeterministic"}


def test_traceback_exit_fails():
    stderr = b'Traceback (most recent call last):\n  File "x", line 1\nValueError: closure exceeds cap\n'
    failures = Gate(SCHEMA).check(quarter_shift_op(), Result(1, b"", stderr))
    assert {"exit", "traceback", "schema"} <= kinds(failures)


@pytest.mark.parametrize("code", [3, -9])
def test_exit_code_outside_contract_fails(code):
    failures = Gate(SCHEMA).check(quarter_shift_op(), Result(code, bundle_bytes(), b""))
    assert kinds(failures) == {"exit"}
    assert "outside the contract" in failures[0].detail


def test_timeout_fails():
    failures = Gate(SCHEMA).check(quarter_shift_op(), Result(-9, b"", b"", timed_out=True))
    assert kinds(failures) == {"timeout"}


@pytest.mark.parametrize("m", [
    ((2, -1), (0, 2)),
    ((4, -1), (0, 4)),
    ((3, 0), (0, 1)),
    ((6, 4), (2, 8)),
    ((12, 18), (30, -6)),
    ((-5, 7), (9, 11)),
    ((1, 0), (0, 1)),
])
def test_smith_form_agrees_with_sympy(m):
    snf = smith_normal_form(Matrix(m), domain=ZZ)
    assert smith_form_2x2(m) == (abs(snf[0, 0]), abs(snf[1, 1]))


@pytest.mark.parametrize("rows, index", [
    (((1, "-1/2"), (0, 1)), 6),
    (((1, "-1/4"), (0, 1)), 24),
    (((2, 0), (0, 1)), 3),
    (((3, 0), (0, 1)), 4),
    (((1, 0), (0, 1)), 1),
    (((6, 0), (0, 1)), 12),
])
def test_rational_index_is_psi(rows, index):
    assert rational_index(rows) == index


def test_quaternion_index():
    assert quaternion_index(("3/2", "1/2", 0, 0), 17, 7) == 3
    assert quaternion_index((1, 0, 0, 0), 17, 7) == 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_does_not_move_expected_answers(name):
    def expected(op):
        return op.argv[0], op.exit_code, op.verdicts, json.dumps(op.answers, sort_keys=True), \
            op.denominator_valuation
    first = sorted(map(expected, build(name, 0)))
    for seed in range(1, 40):
        assert sorted(map(expected, build(name, seed))) == first
