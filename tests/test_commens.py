from fractions import Fraction

import pytest

from covercert.commens import (Conjugator, IntersectionResult,
                               local_intersection, sl2z_case,
                               stabilize, stabilized_intersection)
from covercert.quatalg import QuaternionAlgebra

HALF_SHIFT = [[1, Fraction(-1, 2)], [0, 1]]


def test_conjugator_validation():
    with pytest.raises(ValueError):
        Conjugator.from_rows([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        Conjugator.from_rows([[1, 2, 3], [4, 5, 6]])
    D = QuaternionAlgebra(17, 7)
    with pytest.raises(ValueError):
        Conjugator.from_quaternion(D.element(0))
    with pytest.raises(ValueError):
        Conjugator.from_quaternion(D.element(0, Fraction(1, 3)))


def test_denominator_valuation():
    assert Conjugator.from_rows(HALF_SHIFT).denominator_valuation(2) == 1
    # integral matrix with non-unit det: the inverse carries the denominator
    assert Conjugator.from_rows([[2, 0], [0, 1]]).denominator_valuation(2) == 1
    assert Conjugator.from_rows([[4, 0], [0, 1]]).denominator_valuation(2) == 2
    assert Conjugator.from_rows([[1, 1], [1, 2]]).denominator_valuation(2) == 0
    hq = Conjugator.from_quaternion(
        QuaternionAlgebra(17, 7).element(Fraction(3, 2), Fraction(1, 2)))
    assert hq.denominator_valuation(2) == 1
    with pytest.raises(ValueError):
        hq.denominator_valuation(3)


def test_identity_is_trivial():
    res = sl2z_case([[1, 0], [0, 1]], [2])
    assert res.indices() == (1, 1)
    assert res.levels == ((2, 1, 1),)
    assert res.subgroup.order == res.ambient.order


def test_integral_unit_det_is_trivial():
    res = local_intersection(Conjugator.from_rows([[1, 1], [1, 2]]), k=2)
    assert res.indices() == (1, 1)


def test_half_shift_index_and_shape():
    res = local_intersection(Conjugator.from_rows(HALF_SHIFT), k=1)
    assert res.levels == ((2, 1, 3),)
    assert res.ambient.order == 384
    assert res.subgroup.order == 64
    assert res.indices() == (6, 6)
    # worked out by hand: h^-1 x h = [[a + c/2, *], [c, d - c/2]] with
    # * = b + (d - a)/2 - c/4, integral iff c = 0 mod 2 and 2(d - a) = c mod 4;
    # c = 2 mod 4 contradicts det = 1, so membership is exactly c = 0 mod 4
    for x in res.ambient.elements:
        assert (x in res.subgroup) == (x.c % 4 == 0)
    # the reverse direction imposes the same congruence
    assert res.subgroup.element_set == res.subgroup_h.element_set


def test_half_shift_stabilizes_immediately():
    rep = stabilized_intersection(Conjugator.from_rows(HALF_SHIFT))
    assert rep.stabilized and rep.stabilized_at == 1
    assert [k for k, _ in rep.results] == [1, 2]
    assert all(res.indices() == (6, 6) for _, res in rep.results)
    assert rep.final.levels == ((2, 2, 4),)


def test_diag2_gamma0_shape():
    res = sl2z_case([[2, 0], [0, 1]], [2])
    assert res.indices() == (3, 3)
    assert res.levels == ((2, 1, 3),)
    # h^-1 x h = [[a, b/2], [2c, d]]: membership is b even; reversed, c even
    for x in res.ambient.elements:
        assert (x in res.subgroup) == (x.b % 2 == 0)
        assert (x in res.subgroup_h) == (x.c % 2 == 0)


def test_diag4_index():
    res = sl2z_case([[4, 0], [0, 1]], [2])
    assert res.indices() == (6, 6)
    assert res.levels == ((2, 1, 5),)
    for x in res.ambient.elements:
        assert (x in res.subgroup) == (x.b % 4 == 0)


def test_diag6_composite():
    res = sl2z_case([[6, 0], [0, 1]], [2, 3])
    assert res.indices() == (12, 12)
    assert res.levels == ((2, 1, 3), (3, 1, 3))
    assert res.modulus == 8 * 27
    per_prime = [g.order // h.order
                 for g, h in zip(res.ambients, res.subgroups)]
    assert per_prime == [3, 4]


def test_unlisted_prime_rejected():
    with pytest.raises(ValueError, match="unlisted"):
        sl2z_case([[6, 0], [0, 1]], [2])
    with pytest.raises(ValueError, match="unlisted"):
        sl2z_case([[1, Fraction(1, 5)], [0, 1]], [2])
    with pytest.raises(ValueError, match="not prime"):
        sl2z_case([[2, 0], [0, 1]], [4])


def test_quaternionic_conjugator_scan():
    D = QuaternionAlgebra(17, 7)
    hq = Conjugator.from_quaternion(D.element(Fraction(3, 2), Fraction(1, 2)))
    res = local_intersection(hq, k=1)
    assert res.levels == ((2, 1, 3),)
    assert res.indices() == (3, 3)
    # j has odd reduced norm, so conjugation by it preserves integrality at 2
    res = local_intersection(Conjugator.from_quaternion(D.element(0, 0, 1)), k=1)
    assert res.indices() == (1, 1)


def test_stabilize_generic_and_nonstabilizing():
    rep = stabilize(lambda k: sl2z_case([[2, 0], [0, 1]], [2], k), k_max=3)
    assert rep.stabilized and rep.stabilized_at == 1
    assert rep.final.indices() == (3, 3)

    class Drift:
        def __init__(self, k):
            self.k = k

        def indices(self):
            return (self.k, self.k)

    rep = stabilize(Drift, k_min=1, k_max=4)
    assert not rep.stabilized and rep.stabilized_at is None
    assert len(rep.results) == 4


def test_level_must_be_positive():
    with pytest.raises(ValueError):
        local_intersection(Conjugator.from_rows(HALF_SHIFT), k=0)
