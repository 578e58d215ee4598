"""The benchmark's workloads: fixed lists of operations built from a seed.

Each workload stresses different layers (see BENCHMARK.json for why each
was chosen).  The seed only picks inputs; every expected answer is computed
from the generated input by an oracle in gate.py, so no seed can move an
expected value.
"""

from __future__ import annotations

import random
from fractions import Fraction

from gate import Operation, quaternion_index, rational_index, two_adic_denominator

# The algebra (17, 7) is what the default config finds: d = 17, smallest
# admissible b.  It is ramified exactly at 7 and 17.
ALGEBRA = (17, 7)
RAMIFIED = [7, 17]

# Verdict vector of the default quaternionic construction: everything holds
# except the claimed index 3, which the computed index refutes.
QUATERNIONIC_VERDICTS = (
    ("quaternionic.2adic-square", "verified"),
    ("quaternionic.algebra", "verified"),
    ("quaternionic.torsion-free", "verified"),
    ("quaternionic.standard-order-obstruction", "verified"),
    ("quaternionic.congruence-surjectivity", "verified"),
    ("quaternionic.intersection-index", "refuted-at-this-level"),
    ("quaternionic.nondiscrete", "verified"),
    ("quaternionic.cocompact-context", "assumption"),
    ("quaternionic.degree-two-context", "assumption"),
)

# SL2(Z) generators for the conjugator words of intersect-deep.
LETTERS = {
    "T": ((1, 1), (0, 1)),
    "T^-1": ((1, -1), (0, 1)),
    "U": ((1, 0), (1, 1)),
    "U^-1": ((1, 0), (-1, 1)),
}


def _fmt(rows) -> str:
    return ",".join(str(Fraction(x)) for row in rows for x in row)


def _mul(x, y):
    return tuple(tuple(sum(x[i][t] * y[t][j] for t in range(2)) for j in range(2)) for i in range(2))


def _word(rng: random.Random):
    m = ((1, 0), (0, 1))
    for _ in range(rng.randint(0, 2)):
        m = _mul(m, LETTERS[rng.choice(sorted(LETTERS))])
    return m


def _index_answer(claim_id: str, index: int, **extra):
    return {claim_id: {"computed_index_in_gamma": index, "computed_index_in_conjugate": index, **extra}}


def quaternionic_default(rng: random.Random) -> list[Operation]:
    """One default quaternionic run; the seed picks h = +-[[1, +-1/2], [0, 1]]."""
    s, t = rng.choice((1, -1)), rng.choice((Fraction(1, 2), Fraction(-1, 2)))
    h = ((s, s * t), (0, s))
    answers = _index_answer("quaternionic.intersection-index", rational_index(h),
                            claimed_index=3, agrees_with_claimed=False)
    answers["quaternionic.algebra"] = {"ramified_places": RAMIFIED}
    answers["quaternionic.standard-order-obstruction"] = {"group_order_mod_2": 6}
    return [Operation(("quaternionic", "--set", f"h={_fmt(h)}"), 1, QUATERNIONIC_VERDICTS, answers)]


def intersect_deep(rng: random.Random) -> list[Operation]:
    """h = g1 [[1, -1/4], [0, 1]] g2 with g1, g2 short words in T, U and
    their inverses: same index 24 = psi(16) and 2-adic denominator 2 for
    every seed, different matrices."""
    shift = ((1, Fraction(-1, 4)), (0, 1))
    h = _mul(_mul(_word(rng), shift), _word(rng))
    return [Operation(("intersect", "--set", f"h={_fmt(h)}", "--set", "k_max=3"), 0,
                      (("intersect.index", "verified"),),
                      _index_answer("intersect.index", rational_index(h)),
                      denominator_valuation=two_adic_denominator(h))]


def light_mix(rng: random.Random) -> list[Operation]:
    """Six small operations, one per layer the heavy workloads skip, in
    seed-shuffled order."""
    sl2z_h = ((2, 0), (0, 1))
    quat_h = (Fraction(3, 2), Fraction(1, 2), 0, 0)
    odd_h = ((3, 0), (0, 1))
    ops = [
        Operation(
            ("dihedral", "--set", "invariant_degree=24"), 0,
            (("dihedral.commutator-map", "verified"),
             ("dihedral.commutator-order", "verified"),
             ("dihedral.invariant-field-index.sigma", "verified"),
             ("dihedral.invariant-field-index.sigma-a", "verified"),
             ("dihedral.invariant-intersection", "verified")),
            # z -> 1/z and z -> a/z with a = 2: their commutator is
            # diag(1, a^2), of infinite order; each involution fixes a field
            # of index 2 (Artin), and the infinite dihedral group they
            # generate fixes no non-constant function.
            {"dihedral.commutator-map": {"matrix": [["1/1", "0/1"], ["0/1", "4/1"]]},
             "dihedral.commutator-order": {"order": "infinite"},
             "dihedral.invariant-field-index.sigma": {"index": 2},
             "dihedral.invariant-field-index.sigma-a": {"index": 2},
             "dihedral.invariant-intersection": {"joint_invariants": []}}),
        Operation(
            ("sl2z", "--set", f"h={_fmt(sl2z_h)}"), 0,
            (("sl2z.intersection-index", "verified"),
             ("sl2z.nondiscrete", "verified"),
             ("sl2z.ramification-context", "assumption")),
            _index_answer("sl2z.intersection-index", rational_index(sl2z_h))),
        Operation(
            ("hilbert", "--set", "pair=17,7"), 0,
            (("hilbert.symbol-table", "verified"),),
            {"hilbert.symbol-table": {"ramified_places": [str(p) for p in RAMIFIED],
                                      "product_over_places": 1}}),
        Operation(
            ("units",), 0,
            (("units.slice", "verified"),),
            {"units.slice": {"count": 3002}}),
        Operation(
            ("intersect", "--set", "h=quat:" + ",".join(str(Fraction(x)) for x in quat_h)), 0,
            (("intersect.index", "verified"),),
            _index_answer("intersect.index", quaternion_index(quat_h, *ALGEBRA))),
        Operation(
            ("intersect", "--set", f"h={_fmt(odd_h)}"), 0,
            (("intersect.index", "verified"),),
            _index_answer("intersect.index", rational_index(odd_h)),
            known_defect="local_intersection is hard-wired to p = 2, so psi(3) = 4 comes out as 1"),
    ]
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "quaternionic-default": quaternionic_default,
    "intersect-deep": intersect_deep,
    "light-mix": light_mix,
}


def build(name: str, seed: int) -> list[Operation]:
    return WORKLOADS[name](random.Random(seed))
