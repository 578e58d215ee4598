"""Bundle pipelines: configuration, serialization, verdicts, re-verification,
and the command line front end."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from math import isqrt
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covercert import certify, core, mobius, modgroup, quatalg, units
from covercert.cli import main as cli_main
from covercert.core import (
    ASSUMPTION,
    REFUTED,
    SEARCH_EXHAUSTED,
    VERIFIED,
    Certificate,
    ConfigError,
    bundle_exit_code,
    config_hash,
    frac_str,
    load_config,
    parse_conjugator_spec,
    render_bundle,
    reverify_bundle,
)
from covercert.fuchsian import NOT_FOUND, find_infinite_elliptic
from covercert.pipelines import dihedral, hilbert, quaternionic, sl2z
from covercert.quatalg import QuaternionAlgebra, split_2adic
from covercert.units import SATURATED as SATURATED_KIND

from oracles import (conjugated_unit_trace, conjugation_index, generated_order, is_integral_quadratic, rational_pair_trace,
                     reference_closure, sl2_order_bruteforce)
from wordsearch import lift_rational_matrix, seed, word_seeds

DEFAULT_HASH = "e417e8cf3a59c29bc8f2ce237b04cba288cde92ce927f6243eda949c4849b469"

SCHEMA = json.loads((Path(__file__).resolve().parent.parent / "src" / "covercert" / "certificate_schema.json").read_text())


@pytest.fixture(scope="module")
def quat_bundle():
    # the full default run is the expensive one; share it across tests
    return certify.run_quaternionic(load_config())


@pytest.fixture(scope="module")
def sl2z_bundle():
    return certify.run_sl2z(load_config(None, ["h=2,0,0,1"]))


def claim_by_id(bundle, cid):
    for c in bundle["claims"]:
        if c["id"] == cid:
            return c
    raise KeyError(cid)


# -- configuration ----------------------------------------------------------


def test_default_config():
    cfg = load_config()
    assert cfg.d == 17
    assert cfg.a == Fraction(2)
    assert cfg.unit_height == 50
    assert cfg.k_max == 5
    assert cfg.h == "1,-1/2,0,1"
    assert cfg.claimed_index == 3
    assert cfg.invariant_degree == 8
    assert cfg.explicit == frozenset()


def test_config_file_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("d = 11   # comment\nunit_height = 30\n\n")
    cfg = load_config(path, ["d=13"])
    assert cfg.d == 13  # override beats the file
    assert cfg.unit_height == 30
    assert cfg.explicit == {"d", "unit_height"}


@pytest.mark.parametrize(
    "overrides",
    [
        ["nonsense=1"],
        ["d=zero"],
        ["a=0"],
        ["k_max=0"],
        ["k_min=1"],  # the level range is 1 to k_max; k_min only trimmed the witness
        ["order_kind=maximal"],
        ["h=1,2,2,4"],  # singular
        ["h=1,2,3"],  # arity
        ["primes=4"],
        ["pair=5"],
        ["no_equals_sign"],
        ["unit_height=-2"],
        ["h=quat:1/3,1,0,0"],  # denominator away from 2
        ["out=/tmp/x.json"],  # the output path is the --out flag, not a key
        ["word_length_bound=12"],  # the word search left the pipeline with its bound
        ["b_search_bound=100"],  # the algebra search always ends, so it has no bound
    ],
)
def test_config_rejects(overrides):
    with pytest.raises(ConfigError):
        load_config(None, overrides)


def test_config_file_rejects(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("d = 17\nd = 19\n")
    with pytest.raises(ConfigError):
        load_config(bad)
    bad.write_text("just words\n")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_conjugator_spec():
    kind, rows = parse_conjugator_spec("1,-1/2,0,1")
    assert kind == "rational"
    assert rows == ((Fraction(1), Fraction(-1, 2)), (Fraction(0), Fraction(1)))
    kind, coords = parse_conjugator_spec("quat:3/2,1/2,0,0")
    assert kind == "quaternion"
    assert coords == (Fraction(3, 2), Fraction(1, 2), 0, 0)
    with pytest.raises(ConfigError):
        parse_conjugator_spec("quat:1,2")


def test_config_hash_frozen_and_sensitive():
    cfg = load_config()
    assert config_hash(cfg) == DEFAULT_HASH
    assert config_hash(load_config(None, ["d=13"])) != DEFAULT_HASH
    # setting claimed_index explicitly changes pipeline behavior, so it
    # must change the hash even at the default value
    assert config_hash(load_config(None, ["claimed_index=3"])) != DEFAULT_HASH


# -- serialization ----------------------------------------------------------


def test_frac_round_trip():
    for x in (Fraction(3), Fraction(-1, 2), Fraction(106673, 4), 7):
        assert Fraction(frac_str(x)) == Fraction(x)
    assert frac_str(Fraction(-1, 2)) == "-1/2"
    assert frac_str(3) == "3/1"


def test_canonical_json_shape():
    text = render_bundle({"b": 1, "a": [2, {"z": "x", "y": "w"}]})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert text.index('"y"') < text.index('"z"')
    # only values that a JSON round trip returns unchanged: a tuple would
    # read back as a list, a Fraction or a float is not exact JSON, and an
    # int key would read back as a string
    for bad in ({"x": 0.5}, {"x": [1, [2.0]]}, {"x": (1, 2)}, {"x": [Fraction(1, 2)]}, {"x": {1: "y"}}):
        with pytest.raises(TypeError):
            render_bundle(bad)


def test_certificate_verdict_guard():
    with pytest.raises(ValueError):
        Certificate(claim="x.y", verdict="maybe", method="m", inputs={})


# -- dihedral ---------------------------------------------------------------


def test_dihedral_default_bundle():
    bundle = certify.run_dihedral(load_config())
    assert [c["id"] for c in bundle["claims"]] == [
        "dihedral.commutator-map",
        "dihedral.commutator-order",
        "dihedral.invariant-field-index.sigma",
        "dihedral.invariant-field-index.sigma-a",
        "dihedral.invariant-intersection",
    ]
    assert all(c["verdict"] == VERIFIED for c in bundle["claims"])
    assert bundle_exit_code(bundle) == 0
    comm = claim_by_id(bundle, "dihedral.commutator-map")
    assert comm["witness"]["scale_factor"] == "4/1"
    order = claim_by_id(bundle, "dihedral.commutator-order")
    assert order["witness"]["order"] == "infinite"
    assert claim_by_id(bundle, "dihedral.invariant-intersection")["witness"]["joint_invariants"] == []


def test_dihedral_degenerate_a():
    bundle = certify.run_dihedral(load_config(None, ["a=1"]))
    assert claim_by_id(bundle, "dihedral.commutator-order")["verdict"] == REFUTED
    joint = claim_by_id(bundle, "dihedral.invariant-intersection")
    assert joint["verdict"] == REFUTED
    found = joint["witness"]["joint_invariants"]
    assert found[0]["degree"] == 2
    assert found[0]["formula"] == "(x*y) / (x^2 + y^2)"
    assert bundle_exit_code(bundle) == 1

    bundle = certify.run_dihedral(load_config(None, ["a=-1"]))
    found = claim_by_id(bundle, "dihedral.invariant-intersection")["witness"]["joint_invariants"]
    assert found and min(f["degree"] for f in found) == 4
    assert all(f["degree"] % 2 == 0 for f in found)


def _count_invariant_searches(monkeypatch):
    calls = []
    search = dihedral.invariant_search

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(dihedral, "invariant_search", counted)
    return calls


def _searches(calls):
    """(number of generators, degree bound) of each recorded search."""
    return [(len(gens), bound) for gens, bound in calls]


@pytest.mark.parametrize("overrides", [[], ["invariant_degree=24"]])
def test_joint_invariant_reverify_does_not_search_an_infinite_group(monkeypatch, overrides):
    calls = _count_invariant_searches(monkeypatch)
    bundle = certify.run_dihedral(load_config(None, overrides))
    parsed = json.loads(render_bundle(bundle))
    assert _reverify_by_id(parsed)["dihedral.invariant-intersection"] == (True, None)
    # a joint invariant inserted into the verified claim is caught: no
    # nonconstant function is fixed by an infinite group
    inv = claim_by_id(parsed, "dihedral.invariant-field-index.sigma")["witness"]["invariants"][0]
    joint = claim_by_id(parsed, "dihedral.invariant-intersection")
    joint["witness"]["joint_invariants"].append(inv)
    reason = "the claim rebuilt from the config differs in witness.joint_invariants"
    assert _reverify_by_id(parsed)["dihedral.invariant-intersection"] == (False, reason)
    # so is a claim that says it searched
    joint["witness"]["joint_invariants"] = []
    joint["method"] = dihedral.JOINT_SEARCH_METHOD
    reason = "the claim rebuilt from the config differs in method"
    assert _reverify_by_id(parsed)["dihedral.invariant-intersection"] == (False, reason)
    # the pipeline, its in-process re-verification and the three above each
    # search the two involutions at degree 2, and nothing jointly
    assert _searches(calls) == [(1, 2)] * 10


@settings(max_examples=25, deadline=None, database=None)
@given(
    st.fractions(min_value=-12, max_value=12, max_denominator=12).filter(lambda a: a not in (0, 1, -1)),
    st.integers(1, 1000),
)
def test_infinite_group_joint_claim_needs_no_search(a, degree):
    # every a other than 0 and +-1 gives a commutator x -> x / a^2 of
    # infinite order: the joint claim is verified at any degree bound with
    # no joint search, and the bundle re-verifies
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_invariant_searches(mp)
        bundle = certify.run_dihedral(load_config(None, [f"a={a}", f"invariant_degree={degree}"]))
    assert calls and all(len(gens) == 1 for gens, _ in calls)  # one per involution, none joint
    claim = claim_by_id(bundle, "dihedral.invariant-intersection")
    assert claim["verdict"] == VERIFIED and claim["witness"] == {"joint_invariants": []}
    assert claim["method"] == dihedral.JOINT_ORDER_METHOD
    assert claim["depends_on"][0] == "dihedral.commutator-order"
    assert claim_by_id(bundle, "dihedral.commutator-order")["verdict"] == VERIFIED
    assert all(ok for _, ok, _ in reverify_bundle(json.loads(render_bundle(bundle))))
    # the independent oracle: a complete search finds nothing either
    assert mobius.invariant_search((mobius.MobiusMap.sigma(), mobius.MobiusMap.sigma_a(a)), 6) == []


@settings(max_examples=50, deadline=None, database=None)
@given(st.fractions(min_value=-6, max_value=6, max_denominator=6).filter(bool), st.integers(1, 6))
@example(Fraction(1), 1)
@example(Fraction(-1), 3)
def test_dihedral_cli_contract(a, degree):
    # every small a, and +-1 always, through the command line: exit 0 or 1,
    # the same bytes on a second run, and a bundle that re-verifies
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp, f"run{i}.json") for i in (1, 2)]
        codes = {cli_main(["dihedral", "--set", f"a={a}", "--set", f"invariant_degree={degree}", "--out", str(out)])
                 for out in outs}
        first, second = (out.read_bytes() for out in outs)
    assert codes <= {0, 1} and len(codes) == 1
    assert first == second
    assert all(ok for _, ok, _ in reverify_bundle(json.loads(first)))


@pytest.mark.parametrize("overrides, verdict", [(("a=1",), REFUTED), (("a=-1", "invariant_degree=3"), REFUTED),
                                                (("a=-1", "invariant_degree=4"), REFUTED)])
def test_finite_group_joint_bundles_are_unchanged(overrides, verdict):
    # the a = +-1 bundles, whose finite groups are decided by the complete
    # search: a refuted claim at a = 1, and at a = -1 (the Klein four group,
    # first joint invariant in degree 4) a refuted one whose degree bound
    # invariant_degree = 3 is raised to |G| = 4, and one at 4; each is a
    # GOLDEN config, so test_golden_bundle_bytes pins its bytes
    assert ("dihedral", list(overrides), 1) in GOLDEN.values()
    bundle = certify.run_dihedral(load_config(None, list(overrides)))
    claim = claim_by_id(bundle, "dihedral.invariant-intersection")
    assert claim["verdict"] == verdict and claim["method"] == dihedral.JOINT_SEARCH_METHOD


def test_joint_invariant_reverify_searches_a_finite_group(monkeypatch):
    # a = -1 gives the Klein four group, whose first joint invariant has
    # degree 4; a verified claim with no joint invariant is refuted by the
    # search that rebuilds it
    parsed = json.loads(render_bundle(certify.run_dihedral(load_config(None, ["a=-1", "invariant_degree=3"]))))
    claim = claim_by_id(parsed, "dihedral.invariant-intersection")
    assert claim["verdict"] == REFUTED and claim["inputs"]["degree_bound"] == 4
    claim.update(verdict=VERIFIED, witness={"joint_invariants": []}, notes=[])
    calls = _count_invariant_searches(monkeypatch)
    reason = "the claim rebuilt from the config differs in notes, witness.joint_invariants"
    assert _reverify_by_id(parsed)["dihedral.invariant-intersection"] == (False, reason)
    assert _searches(calls) == [(1, 2), (1, 2), (2, 4)]


def test_refuted_joint_invariant_reverify_lists_again(monkeypatch):
    # at a = 1 the claim is refuted; re-verification lists the joint
    # invariants again, so a recorded list must be that listing exactly
    parsed = json.loads(render_bundle(certify.run_dihedral(load_config(None, ["a=1"]))))
    claim = claim_by_id(parsed, "dihedral.invariant-intersection")
    assert claim["verdict"] == REFUTED
    calls = _count_invariant_searches(monkeypatch)
    assert _reverify_by_id(parsed)["dihedral.invariant-intersection"] == (True, None)
    assert _searches(calls) == [(1, 2), (1, 2), (2, 2)]
    recorded = claim["witness"]["joint_invariants"]
    first = dict(recorded[0])
    tampered = [
        # x^2 / y^2, not fixed by x -> 1/x
        [dict(first, degree=2, numerator=[1, 0, 0], denominator=[0, 0, 1])] + recorded[1:],
        [dict(first, denominator=first["numerator"])] + recorded[1:],  # a constant
        [dict(first, degree=9)] + recorded[1:],  # past the degree bound
        # a coefficient short of the degree, or past it
        [dict(first, numerator=first["numerator"][:-1])] + recorded[1:],
        [dict(first, numerator=first["numerator"] + [1])] + recorded[1:],
        [dict(first, numerator=first["denominator"] + [5])] + recorded[1:],
        # each invariant true, but not the complete listing: with the
        # reciprocal of the first entry added, the first entry twice, or empty
        recorded + [dict(first, numerator=first["denominator"], denominator=first["numerator"])],
        recorded + recorded[:1],
        [],
    ]
    reason = "the claim rebuilt from the config differs in witness.joint_invariants"
    for bad in tampered:
        claim["witness"]["joint_invariants"] = bad
        assert _reverify_by_id(parsed)["dihedral.invariant-intersection"] == (False, reason)
    claim["witness"]["joint_invariants"] = recorded
    # an involution's listing is checked the same way: (x^2 + y^2) / (x y),
    # the reciprocal of the one invariant of 1/x, is true but not listed
    invariants = claim_by_id(parsed, "dihedral.invariant-field-index.sigma")["witness"]["invariants"]
    (inv,) = invariants
    invariants.append(dict(inv, numerator=inv["denominator"], denominator=inv["numerator"], formula="(x^2 + y^2) / (x*y)"))
    reason = "the claim rebuilt from the config differs in witness.invariants"
    assert _failures(parsed) == [("dihedral.invariant-field-index.sigma", reason)]


# -- quaternionic -----------------------------------------------------------


def test_quaternionic_default_verdicts(quat_bundle):
    got = [(c["id"], c["verdict"]) for c in quat_bundle["claims"]]
    assert got == [
        ("quaternionic.2adic-square", VERIFIED),
        ("quaternionic.algebra", VERIFIED),
        ("quaternionic.torsion-free", VERIFIED),
        ("quaternionic.standard-order-obstruction", VERIFIED),
        ("quaternionic.congruence-surjectivity", VERIFIED),
        ("quaternionic.intersection-index", REFUTED),
        ("quaternionic.nondiscrete", VERIFIED),
        ("quaternionic.cocompact-context", ASSUMPTION),
        ("quaternionic.degree-two-context", ASSUMPTION),
    ]
    assert bundle_exit_code(quat_bundle) == 1
    assert quat_bundle["config_hash"] == DEFAULT_HASH


def test_quaternionic_algebra_witness(quat_bundle):
    w = claim_by_id(quat_bundle, "quaternionic.algebra")["witness"]
    assert w["a"] == "17/1" and w["b"] == "7/1"
    assert w["ramified_places"] == [7, 17]
    assert w["symbol_at_2"] == 1 and w["symbol_at_inf"] == 1 and w["division"]
    t = claim_by_id(quat_bundle, "quaternionic.torsion-free")["witness"]
    assert not t["embeds_sqrt_minus_1"] and not t["embeds_sqrt_minus_3"]
    assert t["algebra_torsion_free"] and t["finite_order_unit"] is None and t["height_reached"] == 0
    obs = claim_by_id(quat_bundle, "quaternionic.standard-order-obstruction")
    # s = sqrt(17) is odd and b = 7: 1 and i reduce to I, j and k to [[0, 1], [1, 0]]
    assert obs["inputs"] == {"d": 17, "order_kind": "standard"}
    assert obs["witness"] == {
        "basis_images_mod_2": [[[1, 0], [0, 1]], [[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, 1], [1, 0]]],
        "det_one_in_span_mod_2": [[[0, 1], [1, 0]], [[1, 0], [0, 1]]],
        "group_order_mod_2": 6,
    }


def test_quaternionic_surjectivity_witness(quat_bundle):
    w = claim_by_id(quat_bundle, "quaternionic.congruence-surjectivity")["witness"]
    levels = w["levels"]
    assert [lv["level"] for lv in levels] == [1, 2, 3]
    assert [lv["group_order"] for lv in levels] == [6, 48, 384]
    assert all(lv["surjects"] and lv["image_order"] == lv["group_order"] for lv in levels)
    # the units the level-3 closure used, recorded once with their images mod 8
    assert 1 <= len(w["generators"]) <= 4
    for g in w["generators"]:
        assert len(g["coords"]) == 4 and g["modulus"] == 8
    for lv in levels:
        assert set(lv) == {"level", "group_order", "image_order", "surjects"}
    assert set(w) == {"generators", "levels", "height_reached"}
    # the claim covers every level above 3 by the squaring argument in its note
    claim = claim_by_id(quat_bundle, "quaternionic.congruence-surjectivity")
    assert claim["method"] == quaternionic.TOWER_METHOD and tuple(claim["notes"]) == quaternionic.TOWER_NOTES
    assert "h^2 = I + 2^k X mod 2^(k+1) because 2(k-1) >= k+1" in claim["notes"][1]


@pytest.mark.parametrize("height", [1, 2, 6, 12])
def test_layer_witness_matches_full_closure(height):
    # up to level 5 the full closure, by the ResidueMatrix reference, is the
    # oracle: the same image order at every recorded level, and levels 1 to
    # 3 surject exactly when every level up to 5 is full; height 1 fails at
    # level 1
    D = QuaternionAlgebra(17, 7)
    saturated = units.enumerate_units_saturated(D, height).units
    split = split_2adic(D)
    cfg = load_config(None, ["k_max=5", f"unit_height={height}"])
    levels = quaternionic._surjectivity_claim(cfg, quaternionic._find_closing_units(cfg)).witness["levels"]
    oracle = [reference_closure(units.reduce_units(saturated, split, k, 2)).order for k in range(1, 6)]
    recorded = [lv["image_order"] for lv in levels]
    assert recorded == oracle[: len(recorded)]
    assert all(lv["surjects"] for lv in levels) == (oracle == [modgroup.group_order(2, k) for k in range(1, 6)])
    if height == 1:
        assert [(lv["level"], lv["surjects"]) for lv in levels] == [(1, False)]
    else:
        assert [lv["level"] for lv in levels] == [1, 2, 3]


@pytest.mark.parametrize("overrides", [[], ["unit_height=1"], ["d=41", "unit_height=2"], ["k_max=1"], ["k_max=2"]])
def test_reduced_levels_match_an_independent_closure(overrides):
    # each level up to 3 reduces the top level's closure; the oracle closes
    # the recorded units' images at that level by itself
    cfg = load_config(None, overrides)
    w = claim_by_id(certify.run_quaternionic(cfg), "quaternionic.congruence-surjectivity")["witness"]
    split = split_2adic(cfg.algebra)
    recorded = [[int(2 * Fraction(c)) for c in g["coords"]] for g in w["generators"]]
    top = min(cfg.k_max, 3)
    assert [g["matrix"] for g in w["generators"]] == [[[x.a, x.b], [x.c, x.d]] for x in units.reduce_units(recorded, split, top, 2)]
    for lv in w["levels"]:
        m = 2 ** lv["level"]
        images = [tuple(e % m for row in g["matrix"] for e in row) for g in w["generators"]]
        assert lv["image_order"] == generated_order(images, m)
        assert lv["surjects"] == (lv["image_order"] == sl2_order_bruteforce(m))


def test_k_max_20_certifies_every_layer(quat_bundle, tmp_path):
    # from k_max = 3 up the claim is the same: levels 1 to 3 and the note
    # that carries them to every level, in the run and its re-verification
    claims = {}
    for k_max in (3, 5, 20):
        out = tmp_path / f"{k_max}.json"
        assert cli_main(["quaternionic", "--set", f"k_max={k_max}", "--out", str(out)]) == 1
        bundle = json.loads(out.read_text())
        assert all(ok for _, ok, _ in reverify_bundle(bundle))
        verdicts = [(c["id"], c["verdict"]) for c in bundle["claims"]]
        assert verdicts == [(c["id"], c["verdict"]) for c in quat_bundle["claims"]]
        claim = claim_by_id(bundle, "quaternionic.congruence-surjectivity")
        assert claim["inputs"]["k_max"] == k_max
        claims[k_max] = claim, bundle["config_hash"]
    for k_max in (3, 20):
        (claim, digest), (want, want_digest) = claims[k_max], claims[5]
        assert digest != want_digest
        assert all(claim[key] == want[key] for key in ("method", "notes", "verdict", "witness"))
    assert [lv["level"] for lv in claims[20][0]["witness"]["levels"]] == [1, 2, 3]


@pytest.mark.parametrize("overrides", [[], ["k_max=20"]])
def test_no_closure_larger_than_sl2_mod_8(monkeypatch, overrides):
    # stage 4 and its re-verification close nothing above level 3
    orders = []
    real = modgroup.closure

    def recording(*args, **kwargs):
        table = real(*args, **kwargs)
        orders.append(table.order)
        return table

    monkeypatch.setattr(modgroup, "closure", recording)
    monkeypatch.setattr(units, "closure", recording)
    certify.run_quaternionic(load_config(None, overrides))
    assert orders and max(orders) <= modgroup.group_order(2, 3) == 384


def test_layer_witness_tampering_names_the_level(quat_bundle):
    def surjectivity_reason(edit):
        parsed = json.loads(render_bundle(quat_bundle))
        edit(claim_by_id(parsed, "quaternionic.congruence-surjectivity")["witness"])
        return _reverify_by_id(parsed)["quaternionic.congruence-surjectivity"]

    def drop_base_level(w):
        del w["levels"][2]

    def append_level_4(w):
        w["levels"].append(dict(w["levels"][2], level=4, group_order=3072, image_order=3072))

    def add_generator(w):
        w["generators"].append(w["generators"][1])

    def raise_a_generator(w):
        # the first saturated unit of height 51, above unit_height 50
        w["generators"][0]["coords"] = ["-101/2", "-79/2", "-20/1", "-15/1"]

    rebuilt = "the claim rebuilt from the config differs in witness.levels"
    assert surjectivity_reason(lambda w: None) == (True, None)
    assert surjectivity_reason(drop_base_level) == (False, rebuilt)
    assert surjectivity_reason(append_level_4) == (False, rebuilt)
    assert surjectivity_reason(add_generator) == (False, "a recorded generator lies in the closure of the ones before it")
    assert surjectivity_reason(raise_a_generator) == (False, "unit ['-101/2', '-79/2', '-20/1', '-15/1'] lies above unit_height 50")


@pytest.mark.parametrize("coords, reason", [
    (["2/1", "0/1", "0/1", "0/1"], "unit ['2/1', '0/1', '0/1', '0/1'] is not a norm-one 2-saturated-order element"),
    (["1/4", "0/1", "0/1", "0/1"], "unit ['1/4', '0/1', '0/1', '0/1'] is not a norm-one 2-saturated-order element"),
    # norm one, but (-4 - 5i - 3j - 2k)/2 has u != v mod 2: outside the order
    pytest.param(["-2/1", "-5/2", "-3/2", "-1/1"],
                 "unit ['-2/1', '-5/2', '-3/2', '-1/1'] is not a norm-one 2-saturated-order element", id="u-v-odd"),
])
def test_saturated_reader_rejects_non_members(quat_bundle, coords, reason):
    def record(w):
        w["generators"][0]["coords"] = coords

    assert _tampered(quat_bundle, "quaternionic.congruence-surjectivity", record) == (False, reason)


def test_a_shorter_refuted_search_is_read_again():
    # stage 4 built from the first saturated unit alone refutes at level 1
    # and says it read every unit up to unit_height; with stages 5 and 6
    # stubbed the bundle exits 1, so re-verification reads the stream again
    parsed = _golden("quaternionic")
    cfg = core._cfg_from_bundle(parsed)
    split = split_2adic(cfg.algebra)
    first = next(iter(units.UnitStream(cfg.algebra, SATURATED_KIND, cfg.unit_height)))
    _, table = units.images_surject(units.reduce_units([first], split, 3, 2), 3)
    short = json.loads(json.dumps(quaternionic._surjectivity_claim(cfg, ([first], table)).as_dict()))
    assert short["verdict"] == REFUTED and [lv["level"] for lv in short["witness"]["levels"]] == [1]
    blocker = "quaternionic.congruence-surjectivity"
    parsed["claims"][4] = short
    parsed["claims"][5:7] = [_stub(c["id"], blocker) for c in parsed["claims"][5:7]]
    assert bundle_exit_code(parsed) == 1
    # the search fills every level again, so stages 5 and 6 ran and no stub belongs there
    stub = "only context and stages that did not run are assumptions"
    assert _failures(parsed) == [
        (blocker, "the claim rebuilt from the config differs in witness.generators, witness.height_reached, witness.levels"),
        ("quaternionic.intersection-index", stub),
        ("quaternionic.nondiscrete", stub),
    ]


def test_an_honest_refuted_search_re_verifies():
    # at unit_height = 1 the saturated units never fill SL2(Z/2): pinned
    # bytes, refuted, and they re-verify by reading the stream again
    bundle = certify.run_quaternionic(load_config(None, ["unit_height=1"]))
    assert claim_by_id(bundle, "quaternionic.congruence-surjectivity")["verdict"] == REFUTED
    assert bundle_exit_code(bundle) == 1
    text = render_bundle(bundle)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == "692de91b7444c3b5873d7b19dec64a6290f3810ebeb353eb43def034b6a8fe52"
    assert _failures(json.loads(text)) == []


def test_a_failed_check_in_a_pipeline_is_an_internal_fault(monkeypatch, capsys):
    # a trace the builder's check calls integral fails it: exit 3, never 1
    monkeypatch.setattr(sl2z, "is_integral_trace", lambda d, t: True)
    assert cli_main(["quaternionic"]) == 3
    assert "the trace is an algebraic integer" in capsys.readouterr().err


def test_quaternionic_intersection_witness(quat_bundle):
    w = claim_by_id(quat_bundle, "quaternionic.intersection-index")["witness"]
    assert w["computed_index_in_gamma"] == 6
    assert w["computed_index_in_conjugate"] == 6
    assert w["claimed_index"] == 3
    assert w["agrees_with_claimed"] is False
    assert w["primitive_matrix"] == [[2, -1], [0, 2]]
    assert w["local_factors"] == [{"prime": 2, "exponent": 2, "factor": 6}]
    assert "levels" not in w


def test_quaternionic_nondiscrete_witness(quat_bundle):
    claim = claim_by_id(quat_bundle, "quaternionic.nondiscrete")
    w = claim["witness"]
    # the third standard unit, of height 5, paired with itself
    assert w["units"] == [["-5/1", "-1/1", "-1/1", "0/1"]] * 2
    assert w["trace"] == {"d": 17, "u": "343/4", "v": "0/1"}
    assert w["height_reached"] == 5
    assert claim["notes"] == [sl2z.TRACE_NOTE]


def test_rational_conjugator_embeds_units_only_up_to_its_partner(monkeypatch):
    # the scan stops in shell 2, at the third unit (height 5), so the stream
    # enumerates no box above height 8 and holds 46 of the 1010 units of
    # height at most 50; only the four basis elements are embedded, to
    # build the trace form
    cfg = load_config()
    streams = []
    embedded = set()
    frame = sl2z._trace_frame

    class KeptStream(units.UnitStream):
        def __init__(self, *args):
            super().__init__(*args)
            streams.append(self)

    def spied_frame(pipeline, cfg):
        d, embed, M = frame(pipeline, cfg)
        return d, lambda x: embedded.add(tuple(x)) or embed(x), M

    monkeypatch.setattr(quaternionic, "UnitStream", KeptStream)
    monkeypatch.setattr(sl2z, "_trace_frame", spied_frame)
    _, build, find = quaternionic.CLAIM_KINDS["quaternionic.nondiscrete"]
    claim = build(cfg, find(cfg))
    [stream] = streams
    assert (stream.algebra, stream.scale) == (QuaternionAlgebra(17, 7), 1)
    assert claim.verdict == VERIFIED
    assert claim.witness["units"] == [[frac_str(c) for c in stream.units[2]]] * 2
    assert (stream.reached, len(stream.units)) == (8, 46)
    assert embedded == {tuple(int(k == m) for k in range(4)) for m in range(4)}


def test_no_standard_stream_is_shared_between_the_torsion_and_trace_stages(monkeypatch):
    # each finder builds its own stream: stage 3 reads the standard units
    # only where sqrt(-1) embeds, and there it refutes and blocks the run,
    # so the trace stage is a stub; elsewhere stage 3 builds no standard
    # stream at all
    built = []

    class CountedStream(units.UnitStream):
        def __init__(self, algebra, kind, cap):
            super().__init__(algebra, kind, cap)
            built.append(kind)

    monkeypatch.setattr(quaternionic, "UnitStream", CountedStream)
    _, _, find = quaternionic.CLAIM_KINDS["quaternionic.torsion-free"]
    embeds = []
    for b in range(1, 41):
        cfg = load_config(None, ["d=17", f"b={b}", "k_max=2", "unit_height=6"])
        bundle = certify.run_quaternionic(cfg)
        if claim_by_id(bundle, "quaternionic.algebra")["verdict"] != VERIFIED:
            continue
        torsion = claim_by_id(bundle, "quaternionic.torsion-free")
        embeds.append(torsion["witness"]["embeds_sqrt_minus_1"])
        if embeds[-1]:
            assert torsion["verdict"] == REFUTED
            assert claim_by_id(bundle, "quaternionic.nondiscrete") == _stub("quaternionic.nondiscrete", torsion["id"])
        else:
            built.clear()
            find(cfg)
            assert units.STANDARD not in built
    assert True in embeds and False in embeds


def _nondiscrete_bundle(overrides):
    return json.loads(render_bundle(certify.run_quaternionic(load_config(None, ["k_max=2", "unit_height=6", *overrides]))))


@pytest.mark.parametrize("h", ["quat:3/2,1/2,0,0", "2,0,0,1", "1,-1/2,0,1"])
def test_nondiscrete_reverify_checks_the_recorded_pair(monkeypatch, h):
    parsed = _nondiscrete_bundle([f"h={h}"])
    claim = claim_by_id(parsed, "quaternionic.nondiscrete")
    assert claim["verdict"] == VERIFIED

    def no_enumeration(*args):
        raise RuntimeError("a unit slice was enumerated")

    monkeypatch.setattr(units, "enumerate_units", no_enumeration)
    monkeypatch.setattr(units, "enumerate_units_saturated", no_enumeration)
    assert _reverify_by_id(parsed)["quaternionic.nondiscrete"] == (True, None)
    w = claim["witness"]
    good = json.loads(json.dumps(w))
    w["trace"]["u"] = "1/2"
    assert _reverify_by_id(parsed)["quaternionic.nondiscrete"] == (False, "the claim rebuilt from the config differs in witness.trace")
    w.update(json.loads(json.dumps(good)))
    w["units"][0] = ["2/1", "0/1", "0/1", "0/1"]
    reason = "unit ['2/1', '0/1', '0/1', '0/1'] is not a norm-one standard-order element"
    assert _reverify_by_id(parsed)["quaternionic.nondiscrete"] == (False, reason)
    # a unit above unit_height = 6, of norm one all the same
    high = next(x for x in units.UnitStream(QuaternionAlgebra(17, 7), units.STANDARD, 20) if units.height(x, 1) > 6)
    w.update(json.loads(json.dumps(good)))
    w["units"][0] = [frac_str(c) for c in high]
    reason = f"unit {w['units'][0]} lies above unit_height 6"
    assert _reverify_by_id(parsed)["quaternionic.nondiscrete"] == (False, reason)
    # U = V = 1 gives tr(h h^-1) = 2
    w.update(units=[["1/1", "0/1", "0/1", "0/1"]] * 2, trace={"d": 17, "u": "2/1", "v": "0/1"})
    assert _reverify_by_id(parsed)["quaternionic.nondiscrete"] == (False, "the trace is an algebraic integer")


def test_normalising_conjugator_finds_no_trace(tmp_path):
    # j normalises the standard order, so every trace stays integral
    out = tmp_path / "bundle.json"
    t0 = time.perf_counter()
    cli_main(["quaternionic", "--set", "h=quat:0,0,1,0", "--set", "unit_height=10", "--out", str(out)])
    claim = claim_by_id(json.loads(out.read_text()), "quaternionic.nondiscrete")
    assert claim["verdict"] == SEARCH_EXHAUSTED and claim["witness"] is None
    assert time.perf_counter() - t0 < 3


_RATIONAL_H = st.builds(
    # [[1, s], [0, 1]] diag(det, 1) [[1, 0], [c, 1]]
    lambda det, s, c: ("rational", ((det + s * c, s), (c, Fraction(1)))),
    st.sampled_from([1, -1, 2, 3]),
    st.integers(-4, 4).map(lambda n: Fraction(n, 2)),
    st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)]),
)
_QUATERNION_H = st.tuples(*[st.integers(-3, 3).map(lambda n: Fraction(n, 2))] * 4).filter(any).map(lambda c: ("quaternion", c))


# census d, each with the b that find_example_algebra finds, and nine unit
# heights from one at which the saturated slice fills SL2(Z/2), so stage 6
# runs; at 681 the first pair appears at height 144
_CENSUS = st.sampled_from([(17, 7, 2), (33, 13, 8), (41, 7, 9), (681, 13, 140)]).flatmap(
    lambda c: st.tuples(st.just(c[:2]), st.integers(c[2], c[2] + 8)))


@settings(max_examples=80, deadline=None, database=None)
@given(st.one_of(_RATIONAL_H, _QUATERNION_H), _CENSUS)
def test_nondiscrete_trace_matches_oracle(h, census):
    (d, b), height = census
    kind, data = h
    entries = data if kind == "quaternion" else [x for row in data for x in row]
    spec = ("quat:" if kind == "quaternion" else "") + ",".join(str(x) for x in entries)
    try:
        bundle = certify.run_quaternionic(load_config(None, [f"d={d}", f"h={spec}", "k_max=1", f"unit_height={height}"]))
    except ConfigError:
        return  # a quaternion the closed form cannot decide
    assert claim_by_id(bundle, "quaternionic.algebra")["witness"]["b"] == frac_str(b)
    claim = claim_by_id(bundle, "quaternionic.nondiscrete")
    assert claim["verdict"] in (VERIFIED, SEARCH_EXHAUSTED)
    if claim["verdict"] == VERIFIED:
        u, v = ([Fraction(c) for c in coords] for coords in claim["witness"]["units"])
        p, q = conjugated_unit_trace(d, b, h, u, v)
        assert claim["witness"]["trace"] == {"d": d, "u": frac_str(p), "v": frac_str(q)}
        assert not is_integral_quadratic(p, q, d)
        assert _reverify_by_id(json.loads(render_bundle(bundle)))["quaternionic.nondiscrete"] == (True, None)


def test_quaternionic_bad_d_stops_the_bundle():
    bundle = certify.run_quaternionic(load_config(None, ["d=3"]))
    first = bundle["claims"][0]
    assert first["id"] == "quaternionic.2adic-square" and first["verdict"] == REFUTED
    assert first["witness"] == {"valuation_at_2": 0, "odd_part_mod_8": 3}
    for c in bundle["claims"][1:7]:
        assert c["verdict"] == ASSUMPTION
        assert c["notes"][0].startswith("not run:")
        assert c["depends_on"] == ["quaternionic.2adic-square"]
    assert bundle_exit_code(bundle) == 1


def test_quaternionic_identity_conjugator():
    bundle = certify.run_quaternionic(load_config(None, ["h=1,0,0,1", "claimed_index=1"]))
    inter = claim_by_id(bundle, "quaternionic.intersection-index")
    assert inter["verdict"] == VERIFIED
    assert inter["witness"]["computed_index_in_gamma"] == 1
    near = claim_by_id(bundle, "quaternionic.nondiscrete")
    assert near["verdict"] == SEARCH_EXHAUSTED and near["witness"] is None
    assert bundle_exit_code(bundle) == 0


# -- sl2z -------------------------------------------------------------------


def test_sl2z_bundle(sl2z_bundle):
    inter = claim_by_id(sl2z_bundle, "sl2z.intersection-index")
    assert inter["verdict"] == VERIFIED
    w = inter["witness"]
    assert w["computed_index_in_gamma"] == 3 and w["computed_index_in_conjugate"] == 3
    assert w["local_factors"] == [{"prime": 2, "exponent": 1, "factor": 3}]
    assert "claimed_index" not in w  # no comparison unless asked for
    near = claim_by_id(sl2z_bundle, "sl2z.nondiscrete")
    assert near["verdict"] == VERIFIED
    # T and U, the pair (1, 2) of the four spanning elements
    assert near["witness"] == {"units": [["1/1", "1/1", "0/1", "1/1"], ["1/1", "0/1", "1/1", "1/1"]], "trace": "5/2"}
    assert near["notes"] == [sl2z.TRACE_NOTE]
    assert claim_by_id(sl2z_bundle, "sl2z.ramification-context")["verdict"] == ASSUMPTION
    assert bundle_exit_code(sl2z_bundle) == 0


@pytest.mark.parametrize("h", ["2,0,0,1", "1,-1/2,0,1", "3,0,0,1", "1,1/3,0,1", "1,0,1/2,1"])
def test_word_search_over_q_matches_the_lifted_search(h):
    # lifting rational seeds into Q(sqrt(2)) changes no arithmetic, so the
    # search over Q finds the same word, matrix and trace
    _, rows = parse_conjugator_spec(h)
    seeds = word_seeds(rows)
    lifted = [seed(s.word[0], lift_rational_matrix(s.matrix, 2)) for s in seeds]
    hit, lifted_hit = find_infinite_elliptic(seeds, 8), find_infinite_elliptic(lifted, 8)
    assert hit is not NOT_FOUND
    assert hit.word == lifted_hit.word
    assert lifted_hit.matrix == lift_rational_matrix(hit.matrix, 2) and lifted_hit.trace == hit.trace


def test_sl2z_integral_conjugator_is_trivial():
    bundle = certify.run_sl2z(load_config(None, ["h=1,1,0,1"]))
    w = claim_by_id(bundle, "sl2z.intersection-index")["witness"]
    assert w["computed_index_in_gamma"] == 1 and w["computed_index_in_conjugate"] == 1
    assert claim_by_id(bundle, "sl2z.nondiscrete")["verdict"] == SEARCH_EXHAUSTED
    assert bundle_exit_code(bundle) == 0


def test_sl2z_explicit_claim_comparison():
    bundle = certify.run_sl2z(load_config(None, ["h=2,0,0,1", "claimed_index=3"]))
    w = claim_by_id(bundle, "sl2z.intersection-index")["witness"]
    assert w["agrees_with_claimed"] is True
    assert bundle_exit_code(bundle) == 0
    bundle = certify.run_sl2z(load_config(None, ["h=4,0,0,1", "claimed_index=3"]))
    inter = claim_by_id(bundle, "sl2z.intersection-index")
    assert inter["verdict"] == REFUTED
    assert inter["witness"]["computed_index_in_gamma"] == 6
    assert bundle_exit_code(bundle) == 1


def test_sl2z_rejects_unlisted_support():
    # the closed form reads every prime of det h: psi(6) = 3 * 4
    bundle = certify.run_sl2z(load_config(None, ["h=6,0,0,1"]))
    w = claim_by_id(bundle, "sl2z.intersection-index")["witness"]
    assert w["computed_index_in_gamma"] == 12 == conjugation_index([[6, 0], [0, 1]], 2) * conjugation_index([[6, 0], [0, 1]], 3)
    with pytest.raises(ConfigError):
        certify.run_sl2z(load_config(None, ["h=quat:1,1,0,0"]))


# -- hilbert, units, intersect ---------------------------------------------


def test_hilbert_bundles():
    b = certify.run_hilbert(load_config(None, ["pair=-1,-1"]))
    w = b["claims"][0]["witness"]
    assert w["symbols"] == [["2", -1], ["inf", -1]]
    assert w["ramified_places"] == ["2", "inf"]
    assert w["product_over_places"] == 1 and w["division"]
    b = certify.run_hilbert(load_config(None, ["pair=17,7"]))
    w = b["claims"][0]["witness"]
    assert w["symbols"] == [["2", 1], ["7", -1], ["17", -1], ["inf", 1]]
    assert w["ramified_places"] == ["7", "17"]


def test_units_bundles():
    b = certify.run_units(load_config(None, ["unit_height=20"]))
    w = b["claims"][0]["witness"]
    assert w["count"] == 510 and w["order_kind"] == "2-saturated"
    assert w["a"] == "17/1" and w["b"] == "7/1"
    assert len(w["first_elements"]) == 8 and all(len(e) == 4 for e in w["first_elements"])
    assert w["slice_torsion_free"] and w["algebra_torsion_free"]
    b = certify.run_units(load_config(None, ["unit_height=20", "order_kind=standard"]))
    w = b["claims"][0]["witness"]
    assert w["count"] == 174
    assert w["first_elements"][:3] == [["-1/1", "0/1", "0/1", "0/1"], ["1/1", "0/1", "0/1", "0/1"], ["-5/1", "-1/1", "-1/1", "0/1"]]


def test_intersect_bundles():
    b = certify.run_intersect(load_config(None, ["h=quat:3/2,1/2,0,0"]))
    w = b["claims"][0]["witness"]
    assert (w["computed_index_in_gamma"], w["computed_index_in_conjugate"]) == (3, 3)
    assert b["claims"][0]["verdict"] == VERIFIED

    b = certify.run_intersect(load_config(None, ["h=1,-1/2,0,1"]))
    w = b["claims"][0]["witness"]
    assert (w["computed_index_in_gamma"], w["computed_index_in_conjugate"]) == (6, 6)
    assert w["local_factors"] == [{"prime": 2, "exponent": 2, "factor": 6}]
    assert w["primitive_matrix"] == [[2, -1], [0, 2]]
    assert b["claims"][0]["inputs"] == {"h": "1,-1/2,0,1"}
    assert bundle_exit_code(b) == 0  # computation only, nothing claimed

    b = certify.run_intersect(load_config(None, ["h=1,-1/2,0,1", "claimed_index=3"]))
    assert b["claims"][0]["verdict"] == REFUTED
    assert bundle_exit_code(b) == 1


# -- re-verification and determinism ---------------------------------------


def test_reverify_default_bundle(quat_bundle):
    parsed = json.loads(render_bundle(quat_bundle))
    results = reverify_bundle(parsed)
    assert len(results) == len(parsed["claims"])
    assert all(ok and reason is None for _, ok, reason in results)


def _reverify_by_id(parsed):
    return {cid: (ok, reason) for cid, ok, reason in reverify_bundle(parsed)}


def test_reverify_detects_tampering(sl2z_bundle):
    # a failed claim says which check failed
    parsed = json.loads(render_bundle(sl2z_bundle))
    parsed["claims"][0]["witness"]["computed_index_in_gamma"] = 4
    ok, reason = _reverify_by_id(parsed)["sl2z.intersection-index"]
    assert ok is False
    assert reason == "the claim rebuilt from the config differs in witness.computed_index_in_gamma"
    assert _reverify_by_id(parsed)["sl2z.nondiscrete"] == (True, None)

    def nondiscrete_reason(edit):
        parsed = json.loads(render_bundle(sl2z_bundle))
        edit(parsed["claims"][1]["witness"])
        return _reverify_by_id(parsed)["sl2z.nondiscrete"]

    def unit(entries):
        return lambda w: w["units"].__setitem__(0, entries)

    reason = "element ['2/1', '0/1', '0/1', '1/1'] has determinant 2, not 1"
    assert nondiscrete_reason(unit(["2/1", "0/1", "0/1", "1/1"])) == (False, reason)
    reason = "element ['1/1', '1/2', '0/1', '1/1'] has an entry that is not an integer"
    assert nondiscrete_reason(unit(["1/1", "1/2", "0/1", "1/1"])) == (False, reason)
    # I with U gives tr(h U h^-1) = 2
    assert nondiscrete_reason(unit(["1/1", "0/1", "0/1", "1/1"])) == (False, "the trace is an algebraic integer")
    rebuilt = (False, "the claim rebuilt from the config differs in witness.trace")
    assert nondiscrete_reason(lambda w: w.update(trace="1/2")) == rebuilt
    assert nondiscrete_reason(lambda w: w.pop("trace")) == rebuilt
    # a check's exception becomes a reason with its type and message
    assert nondiscrete_reason(lambda w: w.pop("units")) == (False, "KeyError: 'units'")


@pytest.mark.parametrize("name, cid", [("sl2z-h-2", "sl2z.nondiscrete"), ("quaternionic", "quaternionic.nondiscrete")])
def test_a_dropped_trace_pair_is_searched_again(name, cid):
    # a verified claim recorded as not-found, with the note of a search
    # that found nothing: re-verification runs the search again and finds
    # the pair
    parsed = _golden(name)
    claim = claim_by_id(parsed, cid)
    claim.update(verdict=SEARCH_EXHAUSTED, witness=None, notes=[sl2z._TRACE_PLANS[cid.split(".")[0]][1]])
    assert _failures(parsed) == [(cid, "the claim rebuilt from the config differs in notes, witness")]


def test_sl2z_not_found_repeats_the_sixteen_pairs(monkeypatch):
    # an honest not-found re-verifies, and its check reads the four
    # spanning elements only
    calls = []
    scan = sl2z.find_nonintegral_trace
    monkeypatch.setattr(sl2z, "find_nonintegral_trace", lambda *args: calls.append(args[1]) or scan(*args))
    bundle = json.loads(render_bundle(certify.run_sl2z(load_config(None, ["h=0,-1,1,0"]))))
    claim = claim_by_id(bundle, "sl2z.nondiscrete")
    assert claim["verdict"] == SEARCH_EXHAUSTED and claim["notes"] == [sl2z.NORMALISER_NOTE]
    assert _failures(bundle) == []
    assert len(calls) == 3 and all(vectors == sl2z.SL2Z_SPAN for vectors in calls)


_SMALL_RATIONAL_H = st.tuples(*[st.fractions(min_value=-3, max_value=3, max_denominator=4)] * 4).filter(
    lambda e: e[0] * e[3] != e[1] * e[2]).map(lambda e: ("rational", ((e[0], e[1]), (e[2], e[3]))))


@settings(max_examples=60, deadline=None, database=None)
@given(st.one_of(_RATIONAL_H, _SMALL_RATIONAL_H))
def test_sl2z_trace_decides_every_rational_h(h):
    # the 16 pairs find a non-integral trace exactly when h lies outside
    # Q^x GL2(Z), that is, when the index is above 1
    rows = h[1]
    cfg = load_config(None, ["h=" + ",".join(str(x) for row in rows for x in row)])
    text = render_bundle(certify.run_sl2z(cfg))
    assert render_bundle(certify.run_sl2z(cfg)) == text
    bundle = json.loads(text)
    index = claim_by_id(bundle, "sl2z.intersection-index")["witness"]["computed_index_in_gamma"]
    claim = claim_by_id(bundle, "sl2z.nondiscrete")
    assert (claim["verdict"] == VERIFIED) == (index > 1)
    if claim["verdict"] == VERIFIED:
        x, y = ([Fraction(e) for e in entries] for entries in claim["witness"]["units"])
        assert all(e.denominator == 1 for e in x + y) and x[0] * x[3] - x[1] * x[2] == y[0] * y[3] - y[1] * y[2] == 1
        t = rational_pair_trace(rows, x, y)
        assert t.denominator != 1 and claim["witness"]["trace"] == frac_str(t)
    else:
        assert claim["verdict"] == SEARCH_EXHAUSTED and claim["notes"] == [sl2z.NORMALISER_NOTE]
    assert _failures(bundle) == []


def test_failed_reverification_names_id_and_reason(monkeypatch):
    # the exit-3 line carries each failing id with its reason
    # the builder that the pipeline and re-verification share fails only
    # when re-verification calls it
    holds, build, find = hilbert.CLAIM_KINDS["hilbert.symbol-table"]
    calls = []

    def build_once(cfg):
        calls.append(cfg)
        return build(cfg) if len(calls) == 1 else 1 // 0

    monkeypatch.setitem(hilbert.CLAIM_KINDS, "hilbert.symbol-table", (holds, build_once, find))
    with pytest.raises(AssertionError, match=r"hilbert\.symbol-table \(ZeroDivisionError: integer division or modulo by zero\)"):
        certify.run_hilbert(load_config())


def test_fresh_process_reverification(quat_bundle, tmp_path):
    path = tmp_path / "bundle.json"
    path.write_text(render_bundle(quat_bundle))
    code = (
        "import json, sys\n"
        "from covercert.certify import reverify_bundle\n"
        "results = reverify_bundle(json.load(open(sys.argv[1])))\n"
        "bad = [cid for cid, ok, _ in results if not ok]\n"
        "print('bad:', bad)\n"
        "sys.exit(1 if bad else 0)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "bad: []" in proc.stdout


def test_bundle_bytes_are_deterministic(sl2z_bundle):
    again = certify.run_sl2z(load_config(None, ["h=2,0,0,1"]))
    assert render_bundle(sl2z_bundle) == render_bundle(again)
    # source of the settings must not matter, only their values
    cfg_overrides = load_config(None, ["h=2,0,0,1", "unit_height=40"])
    assert render_bundle(certify.run_sl2z(cfg_overrides)) != render_bundle(sl2z_bundle)


def test_schema_accepts_all_pipelines(quat_bundle, sl2z_bundle):
    bundles = [
        quat_bundle,
        sl2z_bundle,
        certify.run_dihedral(load_config()),
        certify.run_hilbert(load_config()),
        certify.run_units(load_config(None, ["unit_height=10"])),
        certify.run_intersect(load_config(None, ["h=2,0,0,1"])),
        certify.run_quaternionic(load_config(None, ["d=3"])),
    ]
    for bundle in bundles:
        jsonschema.validate(json.loads(render_bundle(bundle)), SCHEMA)


def test_schema_rejects_malformed(quat_bundle):
    parsed = json.loads(render_bundle(quat_bundle))
    parsed["claims"][0]["verdict"] = "plausible"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(parsed, SCHEMA)


# -- command line -----------------------------------------------------------


def test_cli_writes_bundle_and_exits_zero(tmp_path):
    out = tmp_path / "hilbert.json"
    code = cli_main(["hilbert", "--set", "pair=-1,-1", "--out", str(out)])
    assert code == 0
    bundle = json.loads(out.read_text())
    jsonschema.validate(bundle, SCHEMA)
    assert bundle["pipeline"] == "hilbert"


def test_cli_refuted_claim_exits_one(tmp_path):
    out = tmp_path / "dihedral.json"
    assert cli_main(["dihedral", "--set", "a=1", "--out", str(out)]) == 1
    bundle = json.loads(out.read_text())
    assert any(c["verdict"] == REFUTED for c in bundle["claims"])


def test_cli_config_errors_exit_two(capsys):
    assert cli_main(["dihedral", "--set", "a=0"]) == 2
    assert cli_main(["units", "--set", "bogus=1"]) == 2
    assert "error:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli_main(["not-a-pipeline"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "args, code",
    [
        (["intersect", "--set", "h=quat:1/3,0,0,0"], 2),
        (["units", "--set", "b=1"], 2),
        (["hilbert", "--out", "{tmp}/missing-dir/b.json"], 2),
        (["units", "--set", "d=3", "--set", "b=5"], 2),
        (["intersect", "--set", "d=3", "--set", "b=5", "--set", "h=quat:1,1,0,0"], 2),
        (["intersect", "--set", "b=91", "--set", "h=quat:0,0,1,0"], 2),
        (["hilbert", "--out", "{tmp}"], 2),  # a directory
        (["hilbert", "--config", "{tmp}/latin-1.cfg"], 2),
        # 2-adic squares 4^k m with k >= 1 have no 2-saturated order
        (["quaternionic", "--set", "d=68"], 2),
        (["quaternionic", "--set", "d=164"], 2),
        (["quaternionic", "--set", "d=272"], 2),
        # usage errors: no pipeline, an unknown one, a stray argument, a
        # flag without its value and an unknown flag
        ([], 2),
        (["nope"], 2),
        (["units", "extra"], 2),
        (["quaternionic", "--set"], 2),
        (["quaternionic", "--bogus", "1"], 2),
        (["hilbert", "--out"], 2),
    ],
)
def test_cli_errors_exit_with_one_line(args, code, tmp_path):
    # an input error exits 2 and a run that cannot finish 3; neither may take
    # exit 1, which means "refuted"
    (tmp_path / "latin-1.cfg").write_bytes("pair = -1,-1  # \u00e9\n".encode("latin-1"))
    args = [a.format(tmp=tmp_path) for a in args]
    proc = subprocess.run([sys.executable, "-m", "covercert.cli", *args], capture_output=True, text=True)
    assert proc.returncode == code
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    # an input error names no raw exception type
    assert "Traceback" not in proc.stderr and (code != 2 or "Error:" not in lines[0])


def test_quaternionic_refutes_explicit_split_b():
    # (17, 1) is split: stage 2 refutes it and the bundle re-verifies
    bundle = certify.run_quaternionic(load_config(None, ["b=1"]))
    claim = bundle["claims"][1]
    assert claim["id"] == "quaternionic.algebra" and claim["verdict"] == REFUTED
    assert claim["witness"] == {"division": False, "symbol_at_2": 1, "symbol_at_inf": 1}
    assert all(c["verdict"] == ASSUMPTION for c in bundle["claims"][2:])
    assert bundle_exit_code(bundle) == 1
    parsed = json.loads(render_bundle(bundle))
    parsed["claims"][1]["witness"]["division"] = True
    ok, reason = _reverify_by_id(parsed)["quaternionic.algebra"]
    assert ok is False and reason == "the claim rebuilt from the config differs in witness.division"


@pytest.mark.parametrize("d", [9, 25, 49, 289])
def test_quaternionic_refutes_a_perfect_square_d(d):
    # (r^2, b) is split for every b: stage 2 records r instead of searching
    bundle = certify.run_quaternionic(load_config(None, [f"d={d}"]))
    claim = bundle["claims"][1]
    assert claim["id"] == "quaternionic.algebra" and claim["verdict"] == REFUTED
    assert claim["witness"] == {"division": False, "symbol_at_2": 1, "symbol_at_inf": 1, "square_root_of_d": isqrt(d)}
    assert all(c["verdict"] == ASSUMPTION for c in bundle["claims"][2:])
    assert bundle_exit_code(bundle) == 1
    parsed = json.loads(render_bundle(bundle))
    assert all(ok for _, ok, _ in reverify_bundle(parsed))
    parsed["claims"][1]["witness"]["square_root_of_d"] += 1
    ok, reason = _reverify_by_id(parsed)["quaternionic.algebra"]
    assert ok is False and reason == "the claim rebuilt from the config differs in witness.square_root_of_d"


def test_quaternionic_finds_an_algebra_past_b_100():
    # the smallest admissible b for d = 11769 is 157: stage 2 verifies
    bundle = certify.run_quaternionic(load_config(None, ["d=11769"]))
    claim = claim_by_id(bundle, "quaternionic.algebra")
    assert claim["verdict"] == VERIFIED and claim["witness"]["b"] == "157/1"
    assert claim["inputs"] == {"d": 11769}
    assert _failures(json.loads(render_bundle(bundle))) == []


def test_units_finds_an_algebra_past_b_100(capsys):
    assert cli_main(["units", "--set", "d=11769"]) == 0
    assert json.loads(capsys.readouterr().out)["claims"][0]["witness"]["b"] == "157/1"


def test_quaternionic_raises_only_config_errors_below_300():
    # every accepted d either gives a bundle or is a config error, never
    # another exception, which would exit 3
    for d in range(1, 300):
        try:
            certify.run_quaternionic(load_config(None, [f"d={d}"]))
        except ConfigError:
            assert d % 4 == 0, d


def test_quaternionic_rejects_d_without_a_saturated_order_before_enumerating(monkeypatch):
    # d = 68 is a 2-adic square whose 2-saturated order does not exist: a
    # config error right after stage 2, before any unit box
    def refuse(*args):
        raise RuntimeError("a unit box was enumerated")

    monkeypatch.setattr(units, "_norm_one", refuse)
    with pytest.raises(ConfigError, match="d = 1 mod 4"):
        certify.run_quaternionic(load_config(None, ["d=68"]))


def test_quaternionic_rejects_h_before_enumerating(monkeypatch):
    # the closed form cannot decide h = j in (17, 91), so the run stops
    # with a config error right after stage 2, before any unit box
    def refuse(*args):
        raise RuntimeError("a unit box was enumerated")

    monkeypatch.setattr(units, "_norm_one", refuse)
    with pytest.raises(ConfigError):
        certify.run_quaternionic(load_config(None, ["b=91", "h=quat:0,0,1,0"]))
    # a blocked stage 2 never resolves h: (17, 1) is split, stage 2 refutes
    bundle = certify.run_quaternionic(load_config(None, ["b=1", "h=quat:0,0,1,0"]))
    assert bundle_exit_code(bundle) == 1


def test_cli_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pair = 17,7\n")
    assert cli_main(["hilbert", "--config", str(cfg)]) == 0
    bundle = json.loads(capsys.readouterr().out)
    assert bundle["claims"][0]["inputs"] == {"a": "17/1", "b": "7/1"}


def test_cli_out_key_in_config_file(tmp_path, capsys):
    # out is not a config key: the --out flag alone names the output file
    out = tmp_path / "from-config.json"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"pair = -1,-1\nout = {out}\n")
    assert cli_main(["hilbert", "--config", str(cfg)]) == 2
    assert "unknown key 'out'" in capsys.readouterr().err
    assert not out.exists()
    cfg.write_text("pair = -1,-1\n")
    assert cli_main(["hilbert", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["pipeline"] == "hilbert"


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["units", "-h"], ["units", "--help"]])
def test_cli_help(argv, capsys):
    assert cli_main(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: covercert PIPELINE") and err == ""
    assert all(f"  {name} " in out for name in core.PIPELINE_NAMES)


def test_cli_flag_value_after_equals_sign(capsys):
    assert cli_main(["units", "--set=unit_height=3"]) == 0
    joined = capsys.readouterr().out
    assert cli_main(["units", "--set", "unit_height=3"]) == 0
    assert capsys.readouterr().out == joined


def test_cli_main_reads_sys_argv(monkeypatch, capsys):
    # the covercert console script calls main() with no arguments
    monkeypatch.setattr(sys, "argv", ["covercert", "hilbert", "--set", "pair=17,7"])
    assert cli_main() == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / "hilbert-17-7.json").read_text(encoding="utf-8")


# command-line arguments for the sweep below; {tmp} is a scratch directory
# holding run.cfg, and every value keeps a run cheap
_CLI_VALUES = {
    "d": ["17", "3", "13", "0", "x"],
    "a": ["2", "1", "-1", "3/5", "0"],
    "b": ["0", "7", "14", "1"],
    "unit_height": [str(n) for n in range(-1, 21)],
    "k_max": ["1", "2", "3", "5"],
    "h": ["1,-1/2,0,1", "2,0,0,1", "quat:3/2,1/2,0,0", "quat:1/3,0,0,0", "1,2", "0,0,0,0"],
    "invariant_degree": [str(n) for n in range(-1, 9)],
    "claimed_index": ["3", "4", "y"],
    "pair": ["17,7", "-1,-1", "0,1", "2"],
    "order_kind": ["standard", "2-saturated", "bogus"],
    "nope": ["1"],
}
_CLI_SET = st.sampled_from(sorted(_CLI_VALUES)).flatmap(
    lambda key: st.sampled_from(_CLI_VALUES[key]).map(lambda value: f"{key}={value}"))
_CLI_FLAG_VALUES = {
    "--set": _CLI_SET | st.sampled_from(["novalue", "=1"]),
    "--config": st.sampled_from(["{tmp}/run.cfg", "{tmp}/missing.cfg", "{tmp}"]),
    "--out": st.sampled_from(["{tmp}/out.json", "{tmp}/missing-dir/out.json", "{tmp}"]),
}
_CLI_FLAG = st.sampled_from(sorted(_CLI_FLAG_VALUES)).flatmap(lambda flag: st.one_of(
    _CLI_FLAG_VALUES[flag].map(lambda value: [flag, value]),
    _CLI_FLAG_VALUES[flag].map(lambda value: [f"{flag}={value}"]),
    st.just([flag]),
))
_CLI_TOKEN = st.one_of(
    st.sampled_from(core.PIPELINE_NAMES).map(lambda name: [name]),
    _CLI_FLAG,
    st.sampled_from(["-h", "--help", "nope", "extra", "-x", "--", "--se", "--bogus", "=", ""]).map(lambda t: [t]),
    _CLI_SET.map(lambda kv: [kv]),
)


def _cli_run(argv):
    """(exit code, stdout, stderr) of one in-process command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=40, deadline=None, database=None)
@given(st.sampled_from(core.PIPELINE_NAMES), st.lists(_CLI_TOKEN, max_size=5), st.booleans())
def test_cli_sweep_exits_by_contract(pipeline, tokens, lead):
    # any command line exits 0-3 without a traceback, and an error exits
    # 2 or 3 with one "error:" line and nothing on stdout; a bundle printed
    # on stdout validates against the schema, re-verifies claim by claim
    # and is printed byte for byte again by a second run
    # a bare --out takes the next token as its path, so each command line
    # runs in the scratch directory
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        Path(tmp, "run.cfg").write_text("pair = 17,7\nunit_height = 4\n", encoding="utf-8")
        argv = [arg.format(tmp=tmp) for token in ([[pipeline]] if lead else []) + tokens for arg in token]
        code, out, err = _cli_run(argv)
        bundle_out = code in (0, 1) and out.startswith("{")
        if bundle_out:
            assert _cli_run(argv) == (code, out, err)
    assert code in (0, 1, 2, 3) and "Traceback" not in err
    if code in (2, 3):
        lines = err.splitlines()
        assert out == "" and len(lines) == 1 and lines[0].startswith("error: ")
    else:
        assert err == ""
    if bundle_out:
        parsed = json.loads(out)
        jsonschema.validate(parsed, SCHEMA)
        assert [(cid, ok) for cid, ok, _ in reverify_bundle(parsed)] == [(c["id"], True) for c in parsed["claims"]]


# valid, cheap values for each key: every command line built from them
# alone prints a bundle
_VALID_VALUES = {
    "d": ["17", "41"],
    "a": ["2", "1", "-1", "3/5", "-7/2"],
    "b": ["7", "14"],
    "unit_height": ["1", "2", "3", "4"],
    "k_max": ["1", "2", "5"],
    "h": ["1,-1/2,0,1", "2,0,0,1", "1,1/3,0,1", "quat:3/2,1/2,0,0", "quat:1,0,1,0",
          "quat:1/2,1/2,1/2,1/2", "quat:1/4,0,1/4,0", "quat:3/8,1/8,0,0"],
    "invariant_degree": ["1", "4", "8"],
    "claimed_index": ["3", "4"],
    "pair": ["17,7", "-1,-1", "2,5"],
    "order_kind": ["standard", "2-saturated"],
}


def _valid_sets(pipeline):
    """0 to 3 --set values for distinct keys; sl2z takes a rational h only."""
    values = dict(_VALID_VALUES)
    if pipeline == "sl2z":
        values["h"] = [h for h in values["h"] if not h.startswith("quat:")]
    return st.lists(st.sampled_from(sorted(values)), max_size=3, unique=True).flatmap(
        lambda keys: st.tuples(*(st.sampled_from(values[key]).map(f"{key}={{}}".format) for key in keys)))


@settings(max_examples=40, deadline=None, database=None)
@given(st.sampled_from(core.PIPELINE_NAMES).flatmap(lambda name: st.tuples(st.just(name), _valid_sets(name))))
def test_cli_valid_lines_print_bundles_that_reverify(line):
    # a valid command line exits 0 or 1 with a bundle on stdout that
    # validates, re-verifies claim by claim, gives that exit code and is
    # printed byte for byte again by a second run
    pipeline, sets = line
    argv = [pipeline] + [arg for kv in sets for arg in ("--set", kv)]
    code, out, err = _cli_run(argv)
    assert code in (0, 1) and err == ""
    assert _cli_run(argv) == (code, out, err)
    parsed = json.loads(out)
    jsonschema.validate(parsed, SCHEMA)
    assert bundle_exit_code(parsed) == code
    assert [(cid, ok) for cid, ok, _ in reverify_bundle(parsed)] == [(c["id"], True) for c in parsed["claims"]]


# -- golden bundles ---------------------------------------------------------

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# file name -> (pipeline, overrides, exit code): the README examples, each
# pipeline's default and pins for the branches the shared certificate code
# takes.  Regenerate files from this table with
#   PYTHONPATH=src python tests/regen_golden.py [NAME ...]
# and say in CHANGES.md why their bytes changed.
GOLDEN = {
    "dihedral": ("dihedral", [], 0),
    "dihedral-a-3-5": ("dihedral", ["a=3/5"], 0),
    "dihedral-a-7": ("dihedral", ["a=7"], 0),
    "dihedral-a-1": ("dihedral", ["a=1"], 1),
    "dihedral-a--1-degree-3": ("dihedral", ["a=-1", "invariant_degree=3"], 1),
    "dihedral-a--1-degree-4": ("dihedral", ["a=-1", "invariant_degree=4"], 1),
    "quaternionic": ("quaternionic", [], 1),
    "quaternionic-quat-h": ("quaternionic", ["h=quat:3/2,1/2,0,0", "k_max=2", "unit_height=6"], 0),
    "quaternionic-det-2": ("quaternionic", ["h=2,0,0,1", "k_max=2", "unit_height=6"], 0),
    "quaternionic-k-max-1": ("quaternionic", ["k_max=1"], 1),
    "quaternionic-d-3": ("quaternionic", ["d=3"], 1),
    "quaternionic-b-14": ("quaternionic", ["b=14"], 1),
    "sl2z": ("sl2z", [], 0),
    "sl2z-h-2": ("sl2z", ["h=2,0,0,1"], 0),
    "sl2z-k-max-1": ("sl2z", ["k_max=1"], 0),
    "sl2z-h-2-claimed-3": ("sl2z", ["h=2,0,0,1", "claimed_index=3"], 0),
    "hilbert": ("hilbert", [], 0),
    "hilbert-17-7": ("hilbert", ["pair=17,7"], 0),
    "units": ("units", [], 0),
    "units-standard-20": ("units", ["unit_height=20", "order_kind=standard"], 0),
    "intersect": ("intersect", [], 0),
    "intersect-quat-h": ("intersect", ["h=quat:3/2,1/2,0,0"], 0),
    "intersect-half-shift-claimed-3": ("intersect", ["h=1,-1/2,0,1", "claimed_index=3"], 1),
}

# configs whose bundle a module fixture already computes
_GOLDEN_FIXTURES = {"quaternionic": "quat_bundle", "sl2z-h-2": "sl2z_bundle"}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_bundle_bytes(name, request):
    pipeline, overrides, exit_code = GOLDEN[name]
    if name in _GOLDEN_FIXTURES:
        bundle = request.getfixturevalue(_GOLDEN_FIXTURES[name])
    else:
        bundle = certify.PIPELINES[pipeline](load_config(None, overrides))
    text = render_bundle(bundle)
    assert text.encode("utf-8") == (GOLDEN_DIR / f"{name}.json").read_bytes()
    # the bundle that make_bundle re-verified is the one its file parses to
    assert json.loads(text) == bundle
    assert bundle_exit_code(bundle) == exit_code


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_config_hash_is_the_sha256_of_the_config_blob(name):
    _, overrides, _ = GOLDEN[name]
    cfg = load_config(None, overrides)
    mapping = core.config_mapping(cfg)
    blob = "".join(f"{k} = {mapping[k]}\n" for k in sorted(mapping)).encode("utf-8")
    assert config_hash(cfg) == hashlib.sha256(blob).hexdigest()


def _golden(name):
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


def test_a_run_renders_once_and_parses_nothing(monkeypatch):
    # each golden command line serialises its bundle once and parses
    # nothing back: re-verification checks the bundle as built
    calls = {"dumps": 0, "loads": 0}

    def counted(name):
        def call(*args, **kwargs):
            calls[name] += 1
            return getattr(json, name)(*args, **kwargs)
        return call

    monkeypatch.setattr(core, "json", SimpleNamespace(dumps=counted("dumps"), loads=counted("loads")))
    for name, (pipeline, overrides, exit_code) in sorted(GOLDEN.items()):
        calls.update(dumps=0, loads=0)
        code, out, err = _cli_run([pipeline, *(arg for kv in overrides for arg in ("--set", kv))])
        assert (code, out, err) == (exit_code, (GOLDEN_DIR / f"{name}.json").read_text(), ""), name
        assert calls == {"dumps": 1, "loads": 0}, name
    # a builder whose witness holds a Fraction equal to the file's int: the
    # run is an internal fault, never a verdict, and the rebuild no longer
    # matches the file
    holds, build, read = quaternionic.CLAIM_KINDS["quaternionic.2adic-square"]

    def fraction_precision(cfg):
        cert = build(cfg)
        cert.witness = dict(cert.witness, precision=Fraction(cert.witness["precision"]))
        return cert

    monkeypatch.setattr(quaternionic, "_square_claim", fraction_precision)
    monkeypatch.setitem(quaternionic.CLAIM_KINDS, "quaternionic.2adic-square", (holds, fraction_precision, read))
    code, out, err = _cli_run(["quaternionic"])
    assert code == 3 and out == "" and len(err.splitlines()) == 1 and err.startswith("error: TypeError: ")
    results = _reverify_by_id(_golden("quaternionic"))
    assert results["quaternionic.2adic-square"][0] is False
    assert "Fraction" in results["quaternionic.2adic-square"][1]
    assert [cid for cid, (ok, _) in results.items() if not ok] == ["quaternionic.2adic-square"]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_every_verdict_flip_is_caught(name):
    # each witnessed claim's verdict is what its rule gives: flipped to any
    # other verdict it fails with the rule's reason, and a verified claim
    # whose witness is dropped fails too; the other claims still pass
    bundle = _golden(name)
    for i, claim in enumerate(bundle["claims"]):
        if claim["witness"] is None:
            continue
        tampered = [(v, f"the rule gives {claim['verdict']} for this witness, not {v}", False)
                    for v in core.VERDICTS if v != claim["verdict"]]
        if claim["verdict"] == VERIFIED:
            tampered.append((VERIFIED, "a claim without a witness cannot be verified", True))
        for verdict, reason, drop in tampered:
            parsed = json.loads(json.dumps(bundle))
            parsed["claims"][i]["verdict"] = verdict
            if drop:
                parsed["claims"][i]["witness"] = None
            results = reverify_bundle(parsed)
            assert results[i] == (claim["id"], False, reason)
            assert all(ok for j, (_, ok, _) in enumerate(results) if j != i)


def test_hilbert_reverify_checks_the_whole_table():
    parsed = _golden("hilbert-17-7")
    w = parsed["claims"][0]["witness"]
    assert _reverify_by_id(parsed)["hilbert.symbol-table"] == (True, None)
    w.update(symbols=[row for row in w["symbols"] if row[0] not in ("7", "17")], ramified_places=[], division=False)
    reason = "the claim rebuilt from the config differs in witness.division, witness.ramified_places, witness.symbols"
    assert _reverify_by_id(parsed)["hilbert.symbol-table"] == (False, reason)


def test_2adic_square_reverify_tests_d():
    # a root of 3 mod 2 would turn the refuted stage 1 of d = 3 into a verified one
    parsed = _golden("quaternionic-d-3")
    parsed["claims"][0].update(verdict=VERIFIED, witness={"precision": 1, "square_root_residue": 1})
    reason = "the claim rebuilt from the config differs in witness.odd_part_mod_8, witness.precision, witness.square_root_residue, witness.valuation_at_2"
    assert _reverify_by_id(parsed)["quaternionic.2adic-square"] == (False, reason)


def test_reverify_checks_the_claim_list():
    # deleting the refuted index claim would turn exit 1 into exit 0
    bundle = _golden("quaternionic")
    assert [cid for cid, ok, _ in reverify_bundle(bundle) if not ok] == []
    parsed = json.loads(json.dumps(bundle))
    del parsed["claims"][5]
    assert bundle_exit_code(parsed) == 0
    results = reverify_bundle(parsed)
    assert results[-1] == ("quaternionic", False, "the bundle lists no quaternionic.intersection-index claim")
    assert all(ok for _, ok, _ in results[:-1])
    parsed = json.loads(json.dumps(bundle))
    parsed["claims"][5], parsed["claims"][6] = parsed["claims"][6], parsed["claims"][5]
    reason = "the claims are not the quaternionic pipeline's, once each and in order"
    assert reverify_bundle(parsed)[-1] == ("quaternionic", False, reason)
    parsed = _golden("hilbert")
    parsed["claims"].append(_golden("intersect")["claims"][0])
    reason = "the claims are not the hilbert pipeline's, once each and in order"
    assert reverify_bundle(parsed)[-1] == ("hilbert", False, reason)


def test_units_reverify_checks_torsion_flags():
    # the units checker re-runs the torsion check on the slice it dumps
    for order_kind in ("2-saturated", "standard"):
        bundle = certify.run_units(load_config(None, ["unit_height=6", f"order_kind={order_kind}"]))
        parsed = json.loads(render_bundle(bundle))
        assert _reverify_by_id(parsed)["units.slice"] == (True, None)
        parsed["claims"][0]["witness"]["slice_torsion_free"] = False
        expected = (False, "the claim rebuilt from the config differs in witness.slice_torsion_free")
        assert _reverify_by_id(parsed)["units.slice"] == expected


# -- every claim is rebuilt from the checked config -------------------------

# the claims that are pure functions of the config; every other claim id
# records what a search found
COMPUTED = {
    "dihedral.commutator-map", "dihedral.commutator-order", "dihedral.invariant-field-index.sigma",
    "dihedral.invariant-field-index.sigma-a", "dihedral.invariant-intersection",
    "quaternionic.2adic-square", "quaternionic.algebra",
    "quaternionic.intersection-index", "quaternionic.standard-order-obstruction", "sl2z.intersection-index",
    "intersect.index", "hilbert.symbol-table", "units.slice",
}
HASH_REASON = "config_hash is not the hash of the recorded config"
# claim id -> (holds, build, read), over every pipeline module
CLAIM_KINDS = {cid: kind for name in core.PIPELINE_NAMES for cid, kind in core.pipeline_module(name).CLAIM_KINDS.items()}


def test_every_claim_id_is_rebuilt():
    # one builder per claim id; a search claim's builder also takes what
    # the search found, which re-verification reads back from the witness;
    # 13 of the 17 are computed
    assert len(CLAIM_KINDS) == 17 and len(COMPUTED) == 13
    assert {cid for cid, (_, _, read) in CLAIM_KINDS.items() if read is None} == COMPUTED
    assert all(callable(build) for _, build, _ in CLAIM_KINDS.values())


def _ran_and_rebuilt(claim):
    return claim["id"] in CLAIM_KINDS and claim["verdict"] != ASSUMPTION  # a stub is checked as one


def _rebuilt_reasons(parsed):
    results = zip(parsed["claims"], reverify_bundle(parsed))
    return {cid: (ok, reason) for claim, (cid, ok, reason) in results if _ran_and_rebuilt(claim)}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_config_round_trips(name):
    # the recorded config reads back to the run's config, claimed_index
    # counting as set only when compare_claimed says so; a changed value, a
    # value in another spelling or a changed hash fails every rebuilt claim
    bundle = _golden(name)
    cfg = core._cfg_from_bundle(bundle)
    assert core.config_mapping(cfg) == bundle["config"]
    assert config_hash(cfg) == bundle["config_hash"]
    assert ("claimed_index" in cfg.explicit) == any(o.startswith("claimed_index=") for o in GOLDEN[name][1])
    tampered = [
        ("unit_height", str(int(bundle["config"]["unit_height"]) + 1), HASH_REASON),
        ("d", "0" + bundle["config"]["d"], "the recorded config is not the canonical form of a config"),
        ("config_hash", "0" * 64, HASH_REASON),
    ]
    for key, value, reason in tampered:
        parsed = json.loads(json.dumps(bundle))
        if key == "config_hash":
            parsed[key] = value
        else:
            parsed["config"][key] = value
        reasons = _rebuilt_reasons(parsed)
        assert reasons and set(reasons.values()) == {(False, reason)}


@pytest.mark.parametrize("name, cid", [("intersect-half-shift-claimed-3", "intersect.index"),
                                       ("quaternionic", "quaternionic.intersection-index")])
def test_claimed_index_is_read_from_the_config(name, cid):
    # dropping the comparison from a refuted index claim would turn exit 1
    # into exit 0
    parsed = _golden(name)
    claim = claim_by_id(parsed, cid)
    del claim["witness"]["claimed_index"], claim["witness"]["agrees_with_claimed"]
    claim["verdict"] = VERIFIED
    assert bundle_exit_code(parsed) == 0
    reason = "the claim rebuilt from the config differs in witness.agrees_with_claimed, witness.claimed_index"
    assert [(c, reason_) for c, ok, reason_ in reverify_bundle(parsed) if not ok] == [(cid, reason)]


def _edit(path, value):
    def edit(claim):
        *keys, last = path
        target = claim
        for key in keys:
            target = target[key]
        target[last] = value
    return edit


def _drop_top_level(claim):
    claim["inputs"]["k_max"] = 2
    del claim["witness"]["levels"][2]


def _made_verified(claim):
    # a refuted claim at a = 1 dressed as one decided by the order bound
    claim.update(verdict=VERIFIED, method=dihedral.JOINT_ORDER_METHOD, notes=[dihedral.JOINT_ORDER_NOTE],
                 depends_on=["dihedral.commutator-order", *claim["depends_on"]], witness={"joint_invariants": []})
    claim["inputs"]["a"] = "2/1"


@pytest.mark.parametrize("overrides, cid, edit, reason", [
    pytest.param(["quaternionic"], "quaternionic.congruence-surjectivity", _drop_top_level,
                 "inputs.k_max, witness.levels", id="k_max-and-top-level"),
    pytest.param(["quaternionic"], "quaternionic.nondiscrete", _edit(("inputs", "unit_height"), 5),
                 "inputs.unit_height", id="unit_height"),
    pytest.param(["quaternionic"], "quaternionic.congruence-surjectivity", _edit(("inputs", "order_kind"), units.STANDARD),
                 "inputs.order_kind", id="order_kind"),
    pytest.param(["dihedral"], "dihedral.invariant-intersection", _edit(("inputs", "degree_bound"), 100),
                 "inputs.degree_bound", id="degree_bound"),
    pytest.param(["sl2z"], "sl2z.nondiscrete", _edit(("inputs", "h"), "2,0,0,1"), "inputs.h", id="sl2z-h"),
    pytest.param(["dihedral", "a=1", "invariant_degree=4"], "dihedral.invariant-intersection", _made_verified,
                 "depends_on, inputs.a, method, notes, witness.joint_invariants", id="a-flip"),
])
def test_search_claims_are_rebuilt_from_the_config(overrides, cid, edit, reason):
    # a search claim's inputs come from the config, not from the claim
    pipeline, *settings = overrides
    parsed = json.loads(render_bundle(certify.PIPELINES[pipeline](load_config(None, settings))))
    edit(claim_by_id(parsed, cid))
    assert _failures(parsed) == [(cid, f"the claim rebuilt from the config differs in {reason}")]


def test_reverify_reads_the_config_once_and_repeats_no_search(monkeypatch):
    reads, resolves = [], []
    load, find = core.load_config, quatalg.find_example_algebra
    monkeypatch.setattr(core, "load_config", lambda *args: reads.append(args) or load(*args))
    monkeypatch.setattr(quatalg, "find_example_algebra", lambda *args: resolves.append(args) or find(*args))

    def no_search(*args):
        raise RuntimeError("a search ran")

    for module, name in ((sl2z, "find_nonintegral_trace"), (quaternionic, "closing_prefix")):
        monkeypatch.setattr(module, name, no_search)
    # every dihedral claim is computed: its rebuild lists each involution's
    # invariants again, and at a = 2 nothing jointly
    searches = _count_invariant_searches(monkeypatch)
    for name in ("quaternionic", "sl2z", "dihedral"):
        reads.clear()
        resolves.clear()
        assert _failures(_golden(name)) == []
        assert len(reads) == 1 and len(resolves) <= 1
    assert len(resolves) == 0  # dihedral
    assert _searches(searches) == [(1, 2), (1, 2)]


def test_each_algebra_computes_its_symbol_table_once(monkeypatch):
    # the default d = 17 scans b = 3, 5, 7, once for the run and once for
    # its in-process re-verification: six algebras, each with one table of
    # four places (2, the odd primes of 17 and b, infinity)
    tables, symbols = [], []
    table, symbol = quatalg.symbol_table, quatalg.hilbert_symbol
    monkeypatch.setattr(quatalg, "symbol_table", lambda *args: tables.append(args) or table(*args))
    monkeypatch.setattr(quatalg, "hilbert_symbol", lambda *args: symbols.append(args) or symbol(*args))
    certify.run_quaternionic(load_config(None, []))
    assert tables == [(17, 3), (17, 5), (17, 7)] * 2
    assert len(symbols) == 24


@pytest.mark.parametrize("a, degree, order", [("1", 1, 2), ("-1", 3, 4)])
def test_a_cap_never_decides_a_finite_group(a, degree, order):
    # at a = +-1 the two involutions generate a group G of order 2 or 4,
    # with a joint invariant of degree |G|: the search runs to |G| however
    # low invariant_degree is set, and refutes the claim
    bundle = certify.run_dihedral(load_config(None, [f"a={a}", f"invariant_degree={degree}"]))
    claim = claim_by_id(bundle, "dihedral.invariant-intersection")
    assert claim["verdict"] == REFUTED and claim["inputs"]["degree_bound"] == order
    assert min(f["degree"] for f in claim["witness"]["joint_invariants"]) == order
    assert _failures(json.loads(render_bundle(bundle))) == []
    assert bundle_exit_code(bundle) == 1


@pytest.mark.parametrize("a, order", [(1, 2), (-1, 4)])
def test_the_joint_search_stops_at_the_group_order(a, order):
    # the degree-|G| invariant generates the fixed field of the finite group
    # G, so no invariant_degree changes the claim (see test_mobius for the
    # invariants above |G|)
    claims = [claim_by_id(certify.run_dihedral(load_config(None, [f"a={a}", f"invariant_degree={degree}"])),
                          "dihedral.invariant-intersection") for degree in (1, 3, 8, 24)]
    assert all(claim == claims[0] for claim in claims)
    assert claims[0]["inputs"]["degree_bound"] == order
    assert [f["degree"] for f in claims[0]["witness"]["joint_invariants"]] == [order]


def _stub(cid, blocker):
    return core._not_run(cid, quaternionic.STAGES[cid], blocker).as_dict()


def _failures(parsed):
    return [(cid, reason) for cid, ok, reason in reverify_bundle(parsed) if not ok]


def test_a_stage_that_ran_is_not_a_stub():
    # the refuted index claim, replaced by the stub a blocked run records
    parsed = _golden("quaternionic")
    parsed["claims"][5] = _stub("quaternionic.intersection-index", "quaternionic.congruence-surjectivity")
    assert bundle_exit_code(parsed) == 0
    reason = "only context and stages that did not run are assumptions"
    assert _failures(parsed) == [("quaternionic.intersection-index", reason)]


def test_a_blocking_stage_records_a_witness():
    # stage 4 as a search that found nothing, with the two stages after it
    # stubbed: the stubs are in place, but stage 4 always records a witness
    parsed = _golden("quaternionic")
    parsed["claims"][4].update(witness=None, verdict=SEARCH_EXHAUSTED)
    blocker = "quaternionic.congruence-surjectivity"
    parsed["claims"][5:7] = [_stub(c["id"], blocker) for c in parsed["claims"][5:7]]
    assert bundle_exit_code(parsed) == 0
    assert _failures(parsed) == [(blocker, "this claim always records a witness")]


def test_stubs_follow_the_first_blocking_stage():
    parsed = _golden("quaternionic-d-3")
    assert _failures(parsed) == []
    reason = "quaternionic.2adic-square is not verified, so this stage must be the stub of one that did not run"
    for edit in (lambda c: c["notes"].append("x"), lambda c: c.update(depends_on=["quaternionic.algebra"]),
                 lambda c: c.update(verdict=SEARCH_EXHAUSTED)):
        tampered = json.loads(json.dumps(parsed))
        edit(tampered["claims"][3])
        assert _failures(tampered) == [(tampered["claims"][3]["id"], reason)]
    # a stage that ran, where a stub belongs
    tampered = json.loads(json.dumps(parsed))
    tampered["claims"][5] = claim_by_id(_golden("quaternionic"), "quaternionic.intersection-index")
    assert _failures(tampered) == [("quaternionic.intersection-index", reason)]
    # a context is its standing note
    tampered = json.loads(json.dumps(parsed))
    tampered["claims"][7]["notes"] = ["edited"]
    assert _failures(tampered) == [("quaternionic.cocompact-context", "the context differs from the standing one")]


def _leaves(obj, path=()):
    """The path to each scalar in obj."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, path + (i,))
    else:
        yield path


def _changed(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    return "0" if value is None else value + "0"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_every_leaf_of_a_rebuilt_claim_is_checked(name):
    # changing any one scalar in the inputs, witness, notes, method or
    # depends_on of a claim that ran fails that claim, and the other claims
    # still pass.  Outside a search claim's witness the rebuild names the
    # field; inside it, a check on what the search found may fail first
    bundle = _golden(name)
    swept = 0
    for i, claim in enumerate(bundle["claims"]):
        if not _ran_and_rebuilt(claim):
            continue
        for path in _leaves({part: claim[part] for part in ("inputs", "witness", "notes", "method", "depends_on")}):
            parsed = json.loads(json.dumps(bundle))
            target = parsed["claims"][i]
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = _changed(target[path[-1]])
            results = reverify_bundle(parsed)
            assert results[i][:2] == (claim["id"], False)
            if path[0] != "witness" or claim["id"] in COMPUTED:
                field = ".".join(str(key) for key in path[:2]) if path[0] in ("inputs", "witness") else path[0]
                assert results[i][2] == f"the claim rebuilt from the config differs in {field}"
            assert all(ok for j, (_, ok, _) in enumerate(results) if j != i)
            swept += 1
    assert swept


# -- unit stages read their streams only up to their witness ----------------

OBSTRUCTION = "quaternionic.standard-order-obstruction"

UNIT_STAGES = (
    "quaternionic.torsion-free",
    "quaternionic.congruence-surjectivity",
    "quaternionic.nondiscrete",
)


def _tampered(bundle, cid, edit):
    parsed = json.loads(render_bundle(bundle))
    edit(claim_by_id(parsed, cid)["witness"])
    return _reverify_by_id(parsed)[cid]


@pytest.fixture(scope="module")
def torsion_bundle():
    # (17, 21) admits sqrt(-1): the scan stops at a unit of order 4
    return certify.run_quaternionic(load_config(None, ["b=21", "k_max=2", "unit_height=6"]))


def test_unit_stages_stop_at_their_witness(quat_bundle):
    bundle = certify.run_quaternionic(load_config(None, ["unit_height=1000"]))
    assert [(c["id"], c["verdict"]) for c in bundle["claims"]] == [(c["id"], c["verdict"]) for c in quat_bundle["claims"]]
    reached = {cid: claim_by_id(bundle, cid)["witness"]["height_reached"] for cid in UNIT_STAGES}
    assert reached == {
        "quaternionic.torsion-free": 0,
        "quaternionic.congruence-surjectivity": 2,
        "quaternionic.nondiscrete": 5,
    }
    # (-1, -1) admits sqrt(-1); the torsion scan stops at -i, of height 1
    stream = units.UnitStream(QuaternionAlgebra(-1, -1), units.STANDARD, 1000)
    assert next(x for x in stream if units.is_torsion(x, 1)) == (0, -1, 0, 0)
    assert stream.reached == 1


@pytest.mark.parametrize("height", [1, 2, 4, 5])
def test_capped_unit_stages_match_the_exhaustive_slice(height, quat_bundle):
    # a stage that reaches the cap reports what the whole slice gives; the
    # obstruction reads no unit, so its claim is the same at every cap and
    # the slice's mod-2 images lie in its span
    D = QuaternionAlgebra(17, 7)
    bundle = certify.run_quaternionic(load_config(None, ["k_max=2", f"unit_height={height}"]))
    obs = claim_by_id(bundle, OBSTRUCTION)
    assert obs == claim_by_id(quat_bundle, OBSTRUCTION)
    _, table = units.surjects_at_level(units.enumerate_units(D, height), 1)
    assert set(table.elements) <= {tuple(e for row in m for e in row) for m in obs["witness"]["det_one_in_span_mod_2"]}
    surj = claim_by_id(bundle, "quaternionic.congruence-surjectivity")
    full, _ = units.surjects_at_level(units.enumerate_units_saturated(D, height), 2)
    assert (surj["verdict"] == VERIFIED) == full
    assert full or surj["witness"]["height_reached"] == height


def test_unit_stage_reverifiers_enumerate_nothing(monkeypatch, quat_bundle, torsion_bundle):
    def no_enumeration(*args):
        raise RuntimeError("a unit slice was enumerated")

    for module, name in ((units, "_norm_one"), (units, "enumerate_units"), (units, "enumerate_units_saturated")):
        monkeypatch.setattr(module, name, no_enumeration)
    for bundle in (quat_bundle, torsion_bundle):
        results = _reverify_by_id(json.loads(render_bundle(bundle)))
        assert all(results[cid] == (True, None) for cid in UNIT_STAGES)


def test_torsion_reverify_checks_the_recorded_unit(torsion_bundle, quat_bundle):
    cid = "quaternionic.torsion-free"
    claim = claim_by_id(torsion_bundle, cid)
    assert claim["verdict"] == REFUTED and claim["witness"]["embeds_sqrt_minus_1"]
    assert claim["witness"]["finite_order_unit"] == ["0/1", "-4/1", "-2/1", "-1/1"]
    assert claim["witness"]["height_reached"] == 4

    def record(coords):
        return lambda w: w.update(finite_order_unit=coords)

    reason = "unit ['2/1', '0/1', '0/1', '0/1'] is not a norm-one standard-order element"
    assert _tampered(torsion_bundle, cid, record(["2/1", "0/1", "0/1", "0/1"])) == (False, reason)
    reason = "recorded unit ['-1/1', '0/1', '0/1', '0/1'] has trace -2, not -1, 0 or 1"
    assert _tampered(torsion_bundle, cid, record(["-1/1", "0/1", "0/1", "0/1"])) == (False, reason)
    reason = "the claim rebuilt from the config differs in witness.embeds_sqrt_minus_1"
    assert _tampered(torsion_bundle, cid, lambda w: w.update(embeds_sqrt_minus_1=False)) == (False, reason)
    # a dropped unit, with the scan claimed to reach unit_height, is searched
    # for again and found
    reason = "the claim rebuilt from the config differs in witness.finite_order_unit, witness.height_reached"
    assert _tampered(torsion_bundle, cid, lambda w: w.update(finite_order_unit=None, height_reached=6)) == (False, reason)
    # (17, 7) admits neither sqrt(-1) nor sqrt(-3): no unit may be recorded
    reason = "a finite-order unit is recorded, but sqrt(-1) does not embed"
    assert _tampered(quat_bundle, cid, record(["0/1", "1/1", "0/1", "0/1"])) == (False, reason)


def test_obstruction_reverify_rebuilds_the_span(quat_bundle):
    # the claim is computed from the config: an edited basis image, span
    # or group order fails the rebuild, even where it would flip the rule
    assert _tampered(quat_bundle, OBSTRUCTION, lambda w: None) == (True, None)
    edits = {
        "basis_images_mod_2": lambda w: w["basis_images_mod_2"][2].__setitem__(1, [0, 0]),
        "det_one_in_span_mod_2": lambda w: w["det_one_in_span_mod_2"].append([[1, 1], [0, 1]]),
        "group_order_mod_2": lambda w: w.update(group_order_mod_2=2),
    }
    for key, edit in edits.items():
        assert _tampered(quat_bundle, OBSTRUCTION, edit) == (False, f"the claim rebuilt from the config differs in witness.{key}")


@pytest.mark.parametrize("overrides", [["d=17"], ["d=17", "b=14"], ["d=41"], ["d=41", "b=14"], ["d=73"], ["d=73", "b=10"]], ids=",".join)
def test_obstruction_span_holds_every_standard_unit_image(overrides):
    # oracle: every standard unit up to height 12, reduced mod 2, lies in
    # the recorded determinant-one span, which holds 2 of the 6 elements of
    # SL2(Z/2) for odd and even b alike
    cfg = load_config(None, overrides)
    assert quaternionic._algebra_claim(cfg).verdict == VERIFIED
    claim = quaternionic._obstruction_claim(cfg)
    assert claim.verdict == VERIFIED
    one, j = [[1, 0], [0, 1]], [[0, 1], [int(cfg.algebra.b) % 2, 0]]
    assert claim.witness["basis_images_mod_2"] == [one, one, j, j]
    span = {tuple(e for row in m for e in row) for m in claim.witness["det_one_in_span_mod_2"]}
    images = {g.entries() for g in units.reduce_units(units.enumerate_units(cfg.algebra, 12).units, split_2adic(cfg.algebra), 1, 1)}
    assert images <= span and len(span) == 2


@pytest.mark.parametrize("cid", UNIT_STAGES)
def test_height_reached_is_checked(quat_bundle, cid):
    # the builder derives height_reached from the units the stage found
    reason = "the claim rebuilt from the config differs in witness.height_reached"
    assert _tampered(quat_bundle, cid, lambda w: w.update(height_reached=51)) == (False, reason)
    assert _tampered(quat_bundle, cid, lambda w: w.update(height_reached=1)) == (False, reason)
