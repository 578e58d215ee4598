import json
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import pytest
import sympy

from covercert.cli import main as cli_main
from covercert.mobius import (INFINITE_ORDER, InvariantFunction, MobiusMap, _act, _primitive, commutator, compose,
                              finite_order, invariant_search)
from oracles import fixed_by, projective_order_by_powers

SIGMA = MobiusMap.sigma()
SIGMA2 = MobiusMap.sigma_a(2)
IDENTITY = MobiusMap.from_rows([[1, 0], [0, 1]])


def _at(g, x):
    """g(x) = (px + q)/(rx + s) for g's rows [[p, q], [r, s]]."""
    (p, q), (r, s) = g.rows
    return (p * x + q) / (r * x + s)


def test_canonical_form():
    assert MobiusMap.from_rows([[2, 0], [0, 4]]) == MobiusMap.from_rows([[1, 0], [0, 2]])
    assert MobiusMap.from_rows([[0, 3], [3, 0]]) == SIGMA
    assert SIGMA2.rows == ((0, 1), (Fraction(1, 2), 0))
    with pytest.raises(ValueError):
        MobiusMap.from_rows([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        MobiusMap.sigma_a(0)


def test_compose():
    assert compose(SIGMA, SIGMA).is_identity()
    assert compose(SIGMA, SIGMA2) == MobiusMap.from_rows([[1, 0], [0, 2]])
    g = MobiusMap.from_rows([[3, 1], [2, 5]])
    assert compose(g, IDENTITY) == g
    for rows in ([[3, 1], [2, 5]], [[0, 7], [1, -2]], [[1, Fraction(1, 3)], [0, 1]]):
        g = MobiusMap.from_rows(rows)
        assert compose(g, g.inverse()).is_identity()


def test_apply_matches_composition():
    g1 = MobiusMap.from_rows([[3, 1], [2, 5]])
    g2 = MobiusMap.from_rows([[0, 7], [1, -2]])
    for x in (Fraction(1), Fraction(-3, 2), Fraction(22, 7)):
        assert _at(compose(g1, g2), x) == _at(g1, _at(g2, x))


def test_commutator_scaling_map():
    c = commutator(SIGMA, SIGMA2)
    assert c == MobiusMap.from_rows([[1, 0], [0, 4]])
    assert _at(c, Fraction(8)) == 2  # x -> x/4
    assert commutator(SIGMA, SIGMA).is_identity()
    assert commutator(SIGMA, MobiusMap.sigma_a(1)).is_identity()


def test_finite_order():
    assert finite_order(IDENTITY) == 1
    assert finite_order(SIGMA) == 2
    assert finite_order(MobiusMap.from_rows([[0, -1], [1, 0]])) == 2
    assert finite_order(MobiusMap.from_rows([[0, -1], [1, -1]])) == 3
    # SL2 order 6, but projectively this is order 3
    assert finite_order(MobiusMap.from_rows([[1, -1], [1, 0]])) == 3
    assert finite_order(MobiusMap.from_rows([[1, 1], [0, 1]])) == INFINITE_ORDER


def test_finite_order_matches_the_power_scan():
    # every nonsingular integer matrix with entries in [-3, 3]: the order
    # read off tr^2/det against the smallest scalar power
    orders = Counter()
    for p, q, r, s in product(range(-3, 4), repeat=4):
        if p * s != q * r:
            order = finite_order(MobiusMap.from_rows([[p, q], [r, s]]))
            assert order == (projective_order_by_powers(p, q, r, s) or INFINITE_ORDER), (p, q, r, s)
            orders[order] += 1
    assert sum(orders.values()) == 2112
    assert set(orders) == {1, 2, 3, 4, 6, INFINITE_ORDER}


def test_commutator_infinite_order():
    c = commutator(SIGMA, SIGMA2)
    assert c.trace() ** 2 / c.determinant() == Fraction(25, 4)
    assert finite_order(c) == INFINITE_ORDER
    power = c
    for _ in range(24):
        assert not power.is_identity()
        power = compose(power, c)


def test_substitution_operator_degree2():
    # sigma swaps x and y, reversing the coefficient vector
    assert _act(Fraction(1), 2, (Fraction(1), Fraction(2), Fraction(3))) == (3, 2, 1)
    # the degree is the caller's: a short or long form is no form of it
    for coeffs in ((1, 2), (1, 2, 3, 4)):
        with pytest.raises(ValueError, match="a degree-2 form needs 3 coefficients"):
            _act(Fraction(1), 2, coeffs)


def test_single_involution_invariant():
    funcs = invariant_search([SIGMA], 2)
    assert len(funcs) == 1
    f = funcs[0]
    assert (f.numerator, f.denominator) == ((0, 1, 0), (1, 0, 1))
    assert f.character == (1,)
    assert f.dehomogenized() == "(x*y) / (x^2 + y^2)"
    funcs = invariant_search([SIGMA2], 2)
    assert [(f.numerator, f.denominator) for f in funcs] == [((0, 1, 0), (1, 0, 2))]


def test_pair_of_involutions_no_invariant():
    assert invariant_search([SIGMA, SIGMA2], 8) == []
    assert invariant_search([SIGMA, MobiusMap.sigma_a(3)], 6) == []
    # a = 4: odd degrees admit rational multipliers, still nothing survives
    assert invariant_search([SIGMA, MobiusMap.sigma_a(4)], 4) == []


def test_degenerate_a_values_have_invariants():
    assert invariant_search([SIGMA, MobiusMap.sigma_a(1)], 2) != []
    # a = -1: the group is Klein four; x^4 + y^4 over x^2 y^2 is fixed
    quartic = invariant_search([SIGMA, MobiusMap.sigma_a(-1)], 4)
    assert quartic != []
    assert all(f.degree == 4 for f in quartic)


def test_emitted_functions_verify():
    for gens in ([SIGMA], [SIGMA2], [SIGMA, MobiusMap.sigma_a(1)]):
        for f in invariant_search(gens, 4):
            assert fixed_by(f, gens)
    bogus = InvariantFunction(2, (1, 0, 0), (0, 0, 1), (1,))  # x^2 / y^2
    assert not fixed_by(bogus, [SIGMA])


def test_fixed_by_checks_the_character():
    # x y / (x^2 + y^2) is fixed by x -> 1/x with multiplier 1: the same
    # forms under any other recorded multiplier, or a multiplier for too
    # few generators, fail
    f = next(g for g in invariant_search([SIGMA], 2) if g.character == (1,))
    assert fixed_by(f, [SIGMA])
    for character in ((-1,), (Fraction(1, 2),), ()):
        assert not fixed_by(InvariantFunction(2, f.numerator, f.denominator, character), [SIGMA])
    assert not fixed_by(f, [SIGMA, MobiusMap.sigma_a(1)])


def test_eigenspace_search_complete_small_degree():
    # every invariant ratio of quadratic forms found by brute force must be
    # a pair of semi-invariants with a common multiplier
    coeffs = [tuple(map(Fraction, c)) for c in product(range(-2, 3), repeat=3)
              if any(c)]

    def multiplier(vec):
        image = _act(Fraction(1), 2, vec)
        for lam in (Fraction(1), Fraction(-1)):
            if image == tuple(lam * x for x in vec):
                return lam
        return None

    seen = 0
    for P in coeffs:
        for Q in coeffs:
            # invariance of P/Q: P(gv) Q(v) = P(v) Q(gv)
            UP, UQ = _act(Fraction(1), 2, P), _act(Fraction(1), 2, Q)
            lhs = [Fraction(0)] * 5
            rhs = [Fraction(0)] * 5
            for i in range(3):
                for j in range(3):
                    lhs[i + j] += UP[i] * Q[j]
                    rhs[i + j] += P[i] * UQ[j]
            if lhs != rhs:
                continue
            # skip proportional pairs (constant ratio)
            if any(P[i] * Q[j] != P[j] * Q[i] for i in range(3) for j in range(3)):
                lam_p, lam_q = multiplier(P), multiplier(Q)
                assert lam_p is not None and lam_p == lam_q
                seen += 1
    assert seen > 0


def test_index_of_invariant_field():
    # the index is the least degree of an involution's invariants
    assert min(f.degree for f in invariant_search((SIGMA,), 2)) == 2
    assert min(f.degree for f in invariant_search((MobiusMap.sigma_a(5),), 2)) == 2
    with pytest.raises(ValueError):
        invariant_search((IDENTITY,), 2)
    with pytest.raises(ValueError):
        invariant_search((commutator(SIGMA, SIGMA2),), 2)


def test_search_argument_validation():
    with pytest.raises(ValueError):
        invariant_search([], 3)
    with pytest.raises(ValueError):
        invariant_search([SIGMA], 0)
    with pytest.raises(ValueError):
        invariant_search([commutator(SIGMA, SIGMA2)], 2)
    # order 3: the search covers involutions only
    with pytest.raises(ValueError, match="involutions"):
        invariant_search([SIGMA, MobiusMap.from_rows([[0, -1], [1, -1]])], 3)


def test_dihedral_huge_a_square_root_exact(tmp_path):
    # a = 3^40: the multipliers are the exact square roots of a^(-d), far
    # beyond float range
    out = tmp_path / "dihedral.json"
    assert cli_main(["dihedral", "--set", f"a={3 ** 40}", "--out", str(out)]) == 0
    claims = json.loads(out.read_text())["claims"]
    assert len(claims) == 5
    assert all(c["verdict"] == "verified" for c in claims)


@pytest.mark.parametrize("a", [1, -1, 2, -2, 3, 4, Fraction(1, 3), Fraction(3, 5), 7])
def test_joint_invariants_exactly_when_the_commutator_has_finite_order(a):
    # a group with a nonconstant invariant f has order at most deg f, so the
    # re-verifier may skip the search when the commutator has infinite order
    gens = (SIGMA, MobiusMap.sigma_a(a))
    infinite = finite_order(commutator(*gens)) == INFINITE_ORDER
    assert infinite == (invariant_search(gens, 8) == [])
    assert infinite == (a not in (1, -1))


X, Y = sympy.symbols("x y")


@lru_cache(maxsize=None)
def _expanded_operator(g, d):
    """The matrix of P(x, y) -> P(px + qy, rx + sy) on degree-d forms
    P = sum p_i x^(d-i) y^i, g's normalized rows being [[p, q], [r, s]]:
    column j holds the coefficients of sympy's own expansion of
    (px + qy)^(d-j) (rx + sy)^j."""
    (p, q), (r, s) = ((sympy.Rational(v.numerator, v.denominator) for v in row) for row in g.rows)
    columns = [sympy.Poly((p * X + q * Y) ** (d - j) * (r * X + s * Y) ** j, X, Y) for j in range(d + 1)]
    return sympy.Matrix(d + 1, d + 1, lambda i, j: columns[j].coeff_monomial(X ** (d - i) * Y ** i))


def _nullspace_pairs(gens, d):
    """(degree, character) -> the pairs of a primitive basis of the common
    eigenspace, computed by sympy from the expanded substitutions: every
    rational lam_k whose square is the scalar U_k^2, and the nullspace of
    the stacked U_k - lam_k I."""
    ops = [_expanded_operator(g, d) for g in gens]
    options = []
    for U in ops:
        square = (U * U)[0, 0]
        assert U * U == square * sympy.eye(d + 1)
        root = sympy.sqrt(square)
        options.append((root, -root) if root.is_rational else ())
    pairs = {}
    for character in product(*options):
        stacked = sympy.Matrix.vstack(*(U - lam * sympy.eye(d + 1) for U, lam in zip(ops, character)))
        basis = [_primitive([Fraction(int(x.p), int(x.q)) for x in v]) for v in stacked.nullspace()]
        if len(basis) > 1:
            pairs[d, tuple(Fraction(int(lam.p), int(lam.q)) for lam in character)] = list(combinations(basis, 2))
    return pairs


@pytest.mark.parametrize("a", [1, -1, 2, -2, 4, Fraction(1, 4), Fraction(-1, 4), Fraction(3, 5), 9, 3**10])
def test_search_matches_an_independent_nullspace(a):
    # the closed form emits, in each degree and character, exactly the
    # pairs of the nullspace that sympy computes from the expanded substitutions
    for gens in ((SIGMA,), (MobiusMap.sigma_a(a),), (SIGMA, MobiusMap.sigma_a(a))):
        emitted = {}
        for f in invariant_search(gens, 10):
            emitted.setdefault((f.degree, f.character), []).append((f.numerator, f.denominator))
        expected = {}
        for d in range(1, 11):
            expected.update(_nullspace_pairs(gens, d))
        assert emitted == expected


@pytest.mark.parametrize("a, order", [(1, 2), (-1, 4)])
def test_finite_group_invariants_lie_in_the_field_of_the_first(a, order):
    # at a = +-1 the involutions generate a group G of order |G| with a
    # joint invariant f of degree |G| and Q(f) = Q(x)^G, so every joint
    # invariant is R(f), of degree deg R * |G|.  The search lists ratios of
    # forms that may share a factor, so each is reduced by sympy's gcd
    found = invariant_search((SIGMA, MobiusMap.sigma_a(a)), 3 * order)
    assert min(f.degree for f in found) == order and len(found) > 1
    for f in found:
        P, Q = (sum(c * X ** (f.degree - i) * Y ** i for i, c in enumerate(cs)) for cs in (f.numerator, f.denominator))
        assert (f.degree - sympy.Poly(sympy.gcd(P, Q), X, Y).total_degree()) % order == 0, f.dehomogenized()


@pytest.mark.parametrize("a", [2, -1, Fraction(1, 4), Fraction(3, 5), 3**10])
def test_act_matches_the_expansion(a):
    # the index swap is the substitution P(gv) that sympy expands, column
    # by column, for sigma and sigma_a in each degree 1 to 10
    for c, g in ((Fraction(1), SIGMA), (Fraction(a), MobiusMap.sigma_a(a))):
        for d in range(1, 11):
            U = _expanded_operator(g, d)
            for j in range(d + 1):
                e_j = tuple(int(i == j) for i in range(d + 1))
                assert _act(c, d, e_j) == tuple(Fraction(int(x.p), int(x.q)) for x in U.col(j))


@pytest.mark.parametrize("rows", [[[-1, 0], [0, 1]], [[1, 1], [1, -1]], [[-1, 1], [0, 1]]],
                         ids=["minus-x", "x-plus-1-over-x-minus-1", "one-minus-x"])
def test_search_takes_only_maps_x_to_c_over_x(rows):
    # three involutions that are not x -> c/x
    g = MobiusMap.from_rows(rows)
    assert finite_order(g) == 2
    with pytest.raises(ValueError, match="x -> c/x"):
        invariant_search([g], 4)
