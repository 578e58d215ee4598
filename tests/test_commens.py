from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covercert.commens import Conjugator, local_intersection, psi, sl2z_case
from covercert.quatalg import QuaternionAlgebra

from oracles import (conjugation_index, conjugation_locus,
                     quaternion_conjugation_index, sl2_order_bruteforce)

HALF_SHIFT = [[1, Fraction(-1, 2)], [0, 1]]
D = QuaternionAlgebra(17, 7)


def _factor(result, p):
    """The closed form's local factor at p (1 at a prime it did not read)."""
    return {q: psi(q, n) for q, n, _read in result.factors}.get(p, 1)


def _cleared(rows):
    """rows times the common denominator of its entries, as integers."""
    rows = [[Fraction(x) for x in row] for row in rows]
    den = 1
    for x in rows[0] + rows[1]:
        den = den * x.denominator // gcd(den, x.denominator)
    return [[int(x * den) for x in row] for row in rows]


def _primes(n):
    n, out, p = abs(n), [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + ([n] if n > 1 else [])


def _oracle_index(rows):
    """The global index as the product of the oracle's local indices over
    the primes dividing the determinant of the cleared matrix."""
    B = _cleared(rows)
    out = 1
    for p in _primes(B[0][0] * B[1][1] - B[0][1] * B[1][0]):
        out *= conjugation_index(B, p)
    return out


def test_conjugator_validation():
    with pytest.raises(ValueError):
        Conjugator.from_rows([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        Conjugator.from_rows([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        Conjugator.from_quaternion(D, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        Conjugator.from_quaternion(D, (0, Fraction(1, 3), 0, 0))
    # 3 is not a 2-adic square: no diagonal splitting at 2
    with pytest.raises(ValueError, match="2-adic square"):
        Conjugator.from_quaternion(QuaternionAlgebra(3, 5), (1, 1, 0, 0))


def test_psi_values():
    assert [psi(2, n) for n in range(5)] == [1, 3, 6, 12, 24]
    assert [psi(3, n) for n in range(3)] == [1, 4, 12]
    assert psi(5, 2) == 30


def test_oracle_enumerates_sl2():
    # pins the oracle: its element list is all of SL2(Z/p^V), without repeats
    for p, V in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2)):
        X, _, _ = conjugation_locus([[p ** V, 0], [0, 1]], p)
        assert len(X) == sl2_order_bruteforce(p ** V)
        assert len({tuple(x.ravel()) for x in X}) == len(X)
        assert ((X[:, 0, 0] * X[:, 1, 1] - X[:, 0, 1] * X[:, 1, 0]) % p ** V == 1).all()


def test_identity_is_trivial():
    res = sl2z_case([[1, 0], [0, 1]])
    assert (res.index, res.modulus, res.factors) == (1, 1, ())


def test_integral_unit_det_is_trivial():
    res = local_intersection(Conjugator.from_rows([[1, 1], [1, 2]]))
    assert (res.index, res.modulus) == (1, 1)


def test_half_shift_index_and_shape():
    res = local_intersection(Conjugator.from_rows(HALF_SHIFT))
    assert res.matrix == ((2, -1), (0, 2))
    assert (res.index, res.modulus) == (6, 4)
    X, in_gamma, in_conjugate = conjugation_locus(res.matrix, 2)
    assert (len(X), int(in_gamma.sum())) == (48, 8)
    # worked out by hand: h^-1 x h = [[a + c/2, *], [c, d - c/2]] with
    # * = b + (d - a)/2 - c/4, integral iff c = 0 mod 2 and 2(d - a) = c mod 4;
    # c = 2 mod 4 contradicts det = 1, so membership is exactly c = 0 mod 4
    assert (in_gamma == (X[:, 1, 0] % 4 == 0)).all()
    # the reverse direction imposes the same congruence
    assert (in_gamma == in_conjugate).all()


def test_diag2_gamma0_shape():
    res = sl2z_case([[2, 0], [0, 1]])
    assert (res.index, res.factors) == (3, ((2, 1, ()),))
    # h^-1 x h = [[a, b/2], [2c, d]]: membership is b even; reversed, c even
    X, in_gamma, in_conjugate = conjugation_locus([[2, 0], [0, 1]], 2)
    assert (in_gamma == (X[:, 0, 1] % 2 == 0)).all()
    assert (in_conjugate == (X[:, 1, 0] % 2 == 0)).all()
    assert len(X) // int(in_gamma.sum()) == 3


def test_diag4_index():
    res = sl2z_case([[4, 0], [0, 1]])
    assert (res.index, res.modulus) == (6, 4)
    X, in_gamma, _ = conjugation_locus([[4, 0], [0, 1]], 2)
    assert (in_gamma == (X[:, 0, 1] % 4 == 0)).all()
    assert len(X) // int(in_gamma.sum()) == 6


def test_diag6_composite():
    res = sl2z_case([[6, 0], [0, 1]])
    assert (res.index, res.modulus) == (12, 6)
    assert [(p, n) for p, n, _ in res.factors] == [(2, 1), (3, 1)]
    assert [_factor(res, p) for p in (2, 3)] == [3, 4]
    assert [conjugation_index([[6, 0], [0, 1]], p) for p in (2, 3)] == [3, 4]


def test_every_prime_of_det_is_read():
    # no list of primes to keep in step with h: odd primes of the
    # determinant or of a denominator are read like 2
    res = sl2z_case([[1, Fraction(1, 5)], [0, 1]])
    assert (res.index, res.modulus) == (30, 25)
    assert res.index == _oracle_index([[1, Fraction(1, 5)], [0, 1]])
    assert [p for p, _, _ in sl2z_case([[6, 0], [0, 1]]).factors] == [2, 3]


def test_closed_form_matches_oracle_on_small_integral_grid():
    # every integral matrix with entries in [-3, 3], at each of 2, 3 and 5
    # where the condition lives mod at most 27
    checked = 0
    for w, x, y, z in product(range(-3, 4), repeat=4):
        det = w * z - x * y
        if det == 0:
            continue
        res = sl2z_case([[w, x], [y, z]])
        for p in (2, 3, 5):
            V = 0
            while det % p ** (V + 1) == 0:
                V += 1
            if V and p ** V <= 27:
                assert _factor(res, p) == conjugation_index([[w, x], [y, z]], p), (w, x, y, z, p)
                checked += 1
    assert checked > 1500


@pytest.mark.parametrize(
    "rows, index",
    [
        ([[2, 0], [0, 1]], 3),
        (HALF_SHIFT, 6),
        ([[1, Fraction(-1, 4)], [0, 1]], 24),
        ([[3, 0], [0, 1]], 4),
        ([[1, Fraction(-1, 8)], [0, 1]], 96),
        ([[1, Fraction(-1, 16)], [0, 1]], 384),
    ],
)
def test_known_indices(rows, index):
    assert sl2z_case(rows).index == index == _oracle_index(rows)


@settings(max_examples=40, deadline=None, database=None)
@given(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=4), min_size=4, max_size=4))
def test_random_rational_conjugators_match_oracle(entries):
    rows = [entries[:2], entries[2:]]
    if rows[0][0] * rows[1][1] == rows[0][1] * rows[1][0]:
        return
    B = _cleared(rows)
    det = B[0][0] * B[1][1] - B[0][1] * B[1][0]
    for p in _primes(det):
        V = 0
        while det % p ** (V + 1) == 0:
            V += 1
        if p ** V > 64:
            return
    res = sl2z_case(rows)
    assert res.index == _oracle_index(rows)
    # the modulus is |det| of the primitive multiple
    g = gcd(*(x for row in B for x in row))
    assert res.modulus == abs(det) // (g * g)


def test_quaternions_at_2_match_oracle():
    # (17, 7) quaternions with half-integral coordinates in a small box
    box = [Fraction(n, 2) for n in range(-2, 4)]
    checked = 0
    for coords in product(box, repeat=4):
        n = D.nrd(coords)
        if n == 0:
            continue
        den = 2 if any(c.denominator == 2 for c in coords) else 1
        V = 0
        while (n * den * den).numerator % 2 ** (V + 1) == 0:
            V += 1
        if 2 ** V > 32:
            continue
        res = local_intersection(Conjugator.from_quaternion(D, coords))
        assert _factor(res, 2) == quaternion_conjugation_index(coords, 17, 7, 2), coords
        checked += 1
    assert checked > 500


def test_quaternion_with_odd_norm_prime():
    # h = 1 + j has nrd -6: psi(2) at 2 and psi(3) at 3, where (17, 7) is
    # split and the standard order maximal
    res = local_intersection(Conjugator.from_quaternion(D, (1, 0, 1, 0)))
    assert res.index == 12
    assert [(p, n) for p, n, _ in res.factors] == [(2, 1), (3, 1)]
    assert _factor(res, 2) == quaternion_conjugation_index((1, 0, 1, 0), 17, 7, 2) == 3
    assert _factor(res, 3) == quaternion_conjugation_index((1, 0, 1, 0), 17, 7, 3) == 4


def test_quaternionic_conjugator_scan():
    h = Conjugator.from_quaternion(D, (Fraction(3, 2), Fraction(1, 2), 0, 0))
    assert h.quaternion == (D, (3, 1, 0, 0), 1)  # (3 + i)/2^1
    res = local_intersection(h)
    assert (res.index, res.modulus) == (3, 2)
    # j has nrd -7 and 7 ramifies: the factor there is 1, and at 2 j is a unit
    res = local_intersection(Conjugator.from_quaternion(D, (0, 0, 1, 0)))
    assert res.index == 1 and res.modulus == 1
    assert res.factors[1] == (7, 0, (("nrd_valuation", 1), ("ramified", True)))


def test_order_not_maximal_at_norm_prime_rejected():
    # (17, 91) is ramified at 7 and 17 but split at 13, which divides b
    # and nrd(j) = -91: the standard order is not maximal there
    with pytest.raises(ValueError, match="not maximal at 13"):
        Conjugator.from_quaternion(QuaternionAlgebra(17, 91), (0, 0, 1, 0))
    # a norm prime off ab is fine in the same algebra
    res = local_intersection(Conjugator.from_quaternion(QuaternionAlgebra(17, 91), (1, 0, 1, 0)))
    assert res.index == psi(2, 1) * psi(3, 2) * psi(5, 1)
    assert _factor(res, 3) == quaternion_conjugation_index((1, 0, 1, 0), 17, 91, 3) == 12
