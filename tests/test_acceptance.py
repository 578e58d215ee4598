"""End-to-end checks over the shipped pipelines.

Each test prints exactly one verdict line of the form

    criterion N: PASS - <detail>

so a run of this file doubles as a human-readable report.  Timing limits
are enforced per criterion.
"""

import time
from fractions import Fraction

import pytest

from covercert import certify
from covercert.certify import load_config, render_bundle
from covercert.commens import Conjugator, local_intersection, sl2z_case
from covercert.fuchsian import NOT_FOUND, find_infinite_elliptic
from covercert.mobius import (
    INFINITE_ORDER,
    MobiusMap,
    commutator,
    finite_order,
    invariant_search,
)
from covercert.modgroup import ResidueMatrix, group_order
from covercert.quatalg import INF, QuaternionAlgebra, hilbert_symbol
from covercert.units import enumerate_units, torsion_check
from covercert.util import odd_prime_factors

from oracles import conic_solvable_mod, conic_square_class, conjugation_index, mul, sl2_order_bruteforce
from wordsearch import verify_elliptic, word_seeds


def _report(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def claim_by_id(bundle, cid):
    for c in bundle["claims"]:
        if c["id"] == cid:
            return c
    raise KeyError(cid)


@pytest.fixture(scope="module")
def default_quat():
    t0 = time.perf_counter()
    bundle = certify.run_quaternionic(load_config())
    return bundle, time.perf_counter() - t0


def test_criterion_1_dihedral_involutions(capsys):
    t0 = time.perf_counter()
    sigma = MobiusMap.sigma()
    sigma_a = MobiusMap.sigma_a(Fraction(2))
    comm = commutator(sigma, sigma_a)
    quarter = MobiusMap.from_rows(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(4))))
    ok = comm == quarter
    ok = ok and all(isinstance(x, Fraction) for row in comm.rows for x in row)
    ok = ok and finite_order(comm) is INFINITE_ORDER
    invariants = (invariant_search((sigma,), 2), invariant_search((sigma_a,), 2))
    idx = tuple(min((f.degree for f in inv), default=None) for inv in invariants)
    ok = ok and idx == (2, 2)
    joint = invariant_search((sigma, sigma_a), 8)
    ok = ok and joint == []
    dt = time.perf_counter() - t0
    ok = ok and dt < 10
    _report(capsys, 1, ok,
            f"commutator is x/4 of infinite order, field indices {idx[0]}/{idx[1]}, "
            f"no joint invariant through degree 8 ({dt:.2f}s < 10s)")


def test_criterion_2_degenerate_parameter(capsys):
    t0 = time.perf_counter()
    found = invariant_search((MobiusMap.sigma(), MobiusMap.sigma_a(Fraction(1))), 2)
    dt = time.perf_counter() - t0
    ok = bool(found) and dt < 1
    detail = found[0].dehomogenized() if found else "nothing found"
    _report(capsys, 2, ok, f"a=1 has a joint invariant already at degree 2: {detail} ({dt:.2f}s < 1s)")


def test_criterion_3_hilbert_symbol_vs_conic_oracle(capsys):
    t0 = time.perf_counter()
    values = []
    for num in range(-20, 21):
        if num == 0:
            continue
        for den in range(1, 21):
            f = Fraction(num, den)
            if (f.numerator, f.denominator) == (num, den):
                values.append(f)
    assert len(values) == 510

    # the conic oracle only sees the square class of each coefficient, so
    # tabulate it once per class pair and compare the formula on every raw pair
    mismatches = 0
    for p in (2, 3, 5, 7, 11, 13):
        K = 8 if p == 2 else 3
        cls = {x: conic_square_class(x, p) for x in values}
        table = {}
        for ca in set(cls.values()):
            for cb in set(cls.values()):
                table[(ca, cb)] = 1 if conic_solvable_mod(ca, cb, p, K) else -1
        for a in values:
            ta = cls[a]
            for b in values:
                if hilbert_symbol(a, b, p) != table[(ta, cls[b])]:
                    mismatches += 1

    product_failures = 0
    sample = values[::17]
    for a in sample:
        for b in sample:
            places = {2}
            for x in (a, b):
                places.update(odd_prime_factors(abs(x.numerator * x.denominator)))
            prod = hilbert_symbol(a, b, INF)
            for p in sorted(places):
                prod *= hilbert_symbol(a, b, p)
            if prod != 1:
                product_failures += 1

    dt = time.perf_counter() - t0
    ok = mismatches == 0 and product_failures == 0 and dt < 60
    _report(capsys, 3, ok,
            f"formula matches the conic oracle on 510^2 pairs at 6 primes "
            f"({mismatches} mismatches), product formula holds on {len(sample)}^2 "
            f"sampled pairs ({dt:.1f}s < 60s)")


def test_criterion_4_group_orders(capsys):
    t0 = time.perf_counter()
    moduli = []
    bad = []
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
        m, k = p, 1
        while m <= 64:
            moduli.append(m)
            if group_order(p, k) != sl2_order_bruteforce(m):
                bad.append(m)
            m, k = m * p, k + 1
    E1 = ResidueMatrix(1, 1, 0, 1, 2)
    E2 = ResidueMatrix(1, 0, 1, 1, 2)
    ok = not bad and group_order(2, 1) == 6 and mul(E1, E2) != mul(E2, E1)
    ok = ok and group_order(2, 2) == 48
    dt = time.perf_counter() - t0
    ok = ok and dt < 30
    _report(capsys, 4, ok,
            f"formula matches brute-force counts for all {len(moduli)} prime powers "
            f"up to 64, SL2(Z/2) non-abelian of order 6, order 48 at modulus 4 ({dt:.1f}s < 30s)")


def test_criterion_5_rational_conjugator(capsys):
    t0 = time.perf_counter()
    rows = ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1)))
    res = sl2z_case(rows)
    ok = res.index == 3 == conjugation_index(res.matrix, 2)
    seeds = word_seeds(rows)
    cert = find_infinite_elliptic(seeds, 12)
    ok = ok and cert is not NOT_FOUND
    if cert is not NOT_FOUND:
        ok = ok and len(cert.word) <= 12 and verify_elliptic(cert, seeds)
        word = ".".join(cert.word)
    else:
        word = "none"
    dt = time.perf_counter() - t0
    ok = ok and dt < 120
    _report(capsys, 5, ok,
            f"index 3 in closed form and by the brute-force oracle, infinite-order elliptic "
            f"{word} re-verified from scratch ({dt:.2f}s < 120s)")


def test_criterion_6_unit_group_pipeline(capsys, default_quat):
    bundle, dt = default_quat
    alg = claim_by_id(bundle, "quaternionic.algebra")["witness"]
    ok = alg is not None and Fraction(alg["b"]) <= 100
    ok = ok and alg["division"] and alg["symbol_at_2"] == 1 and alg["symbol_at_inf"] == 1
    tors = claim_by_id(bundle, "quaternionic.torsion-free")["witness"]
    ok = ok and tors["embeds_sqrt_minus_1"] is False and tors["embeds_sqrt_minus_3"] is False
    levels = claim_by_id(bundle, "quaternionic.congruence-surjectivity")["witness"]["levels"]
    ok = ok and bundle["config"]["unit_height"] == "50"
    for want in (1, 2):
        lv = next(l for l in levels if l["level"] == want)
        ok = ok and lv["surjects"]
    ok = ok and dt < 600
    _report(capsys, 6, ok,
            f"algebra ({alg['a']}, {alg['b']}) is division, split at 2 and infinity, "
            f"no sqrt(-1) or sqrt(-3), units surject at levels 1 and 2 with height 50 "
            f"({dt:.1f}s < 600s)")


def test_criterion_7_halfshift_intersection(capsys, default_quat):
    bundle, _ = default_quat
    t0 = time.perf_counter()
    h = Conjugator.from_rows(((Fraction(1), Fraction(-1, 2)), (Fraction(0), Fraction(1))))
    res = local_intersection(h)
    oracle = conjugation_index(res.matrix, 2)
    ok = res.index == oracle == 6
    w = claim_by_id(bundle, "quaternionic.intersection-index")["witness"]
    # the certificate must record both sides of the comparison; whether they
    # agree is the finding, not a precondition
    ok = ok and {"computed_index_in_gamma", "claimed_index", "agrees_with_claimed"} <= set(w)
    ok = ok and isinstance(w["agrees_with_claimed"], bool) and w["claimed_index"] == 3
    dt = time.perf_counter() - t0
    ok = ok and dt < 60
    _report(capsys, 7, ok,
            f"index {res.index} in closed form equals the oracle's {oracle}, certificate "
            f"records computed {w['computed_index_in_gamma']} vs claimed {w['claimed_index']} "
            f"with agreement flag {w['agrees_with_claimed']} ({dt:.2f}s < 60s)")


def test_criterion_8_trivial_conjugator_and_torsion(capsys):
    t0 = time.perf_counter()
    bundle = certify.run_quaternionic(load_config(None, ["h=1,0,0,1", "claimed_index=1"]))
    inter = claim_by_id(bundle, "quaternionic.intersection-index")
    ok = inter["verdict"] == "verified"
    ok = ok and inter["witness"]["computed_index_in_gamma"] == 1
    near = claim_by_id(bundle, "quaternionic.nondiscrete")
    ok = ok and near["verdict"] == "not-found" and near["witness"] is None
    tc = torsion_check(enumerate_units(QuaternionAlgebra(Fraction(-1), Fraction(-1)), 10))
    hit = any(c in ((0, 1, 0, 0), (0, -1, 0, 0)) for c in tc["finite_order_in_slice"])
    ok = ok and hit and tc["embeds_sqrt_minus_1"] and not tc["algebra_torsion_free"]
    dt = time.perf_counter() - t0
    ok = ok and dt < 10
    _report(capsys, 8, ok,
            f"identity conjugator gives index 1 with no discreteness witness, "
            f"(-1,-1) torsion scan finds the order-4 unit i ({dt:.1f}s < 10s)")


def test_criterion_9_determinism(capsys, default_quat):
    bundle, _ = default_quat
    again = certify.run_quaternionic(load_config())
    first = render_bundle(bundle)
    second = render_bundle(again)
    ok = first == second
    _report(capsys, 9, ok,
            f"two runs from the same configuration render byte-identical bundles "
            f"({len(first)} bytes)")
