from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covercert.modgroup import ResidueMatrix, enumerate_group
from covercert.quatalg import (INF, QuaternionAlgebra, find_example_algebra, quadratic_embeds,
                               ramified_places, split_2adic)
from covercert.units import (SATURATED, STANDARD, UnitStream, _norm_one, closing_prefix,
                             enumerate_units, enumerate_units_saturated,
                             images_surject, is_torsion, reduce_units, surjects_at_level,
                             torsion_check)

from oracles import (Quaternion, band_norm_one, box_height, brute_norm_one_box, dirichlet_prime, identity,
                     in_saturated_order, mul, norm_one_triple_loop, quat_mul)

D17 = QuaternionAlgebra(17, 7)


def test_slice_contains_center():
    for ab in ((17, 7), (-1, -1), (2, 3)):
        units = enumerate_units(QuaternionAlgebra(*ab), 1).units
        assert (1, 0, 0, 0) in units
        assert (-1, 0, 0, 0) in units


def test_lipschitz_units():
    units = enumerate_units(QuaternionAlgebra(-1, -1), 1).units
    assert len(units) == 8
    assert (0, 1, 0, 0) in units and (0, 0, 0, -1) in units


def test_enumeration_complete_for_box():
    for ab, B in (((-1, -1), 3), ((17, 7), 6), ((2, 3), 4)):
        assert enumerate_units(QuaternionAlgebra(*ab), B).units == brute_norm_one_box(*ab, B)


@pytest.mark.parametrize("ab, B, saturated", [
    ((17, 7), 20, False), ((17, 7), 9, True), ((17, 7), 14, True),
    ((-1, -1), 6, False), ((2, 3), 8, False), ((3, -5), 10, False),
    ((-7, 3), 7, False), ((17, -3), 9, False),
    ((5, -7), 6, True), ((13, -5), 6, True), ((-3, 5), 5, True),
])
def test_enumerators_match_the_triple_loop(ab, B, saturated):
    # matching the table of N(x, y) against itself drops no unit and
    # keeps the order
    got = (enumerate_units_saturated if saturated else enumerate_units)(QuaternionAlgebra(*ab), B).units
    assert got == norm_one_triple_loop(*ab, B, saturated)
    assert len(got) > 2


@pytest.mark.parametrize("ab", [(17, 7), (41, find_example_algebra(41).b), (73, 10), (5, -7), (-1, 3), (-1, -1)])
@pytest.mark.parametrize("s", [1, 2])
def test_norm_one_matches_the_band_loop(ab, s):
    # matching the table of N(x, y) = x^2 - a y^2 against itself gives the
    # band loop's tuple in the same order, for every sign of a and b, and
    # for a cut `above` at 0, mid-box and just under B; with a, b < 0 every
    # key is >= 0 and each lookup is at s^2 - n; the integer torsion test
    # agrees with the trace on every unit; (-1, 3) has units of trace -1,
    # 0 and 1
    D = QuaternionAlgebra(*ab)
    for B in range(1, 13):
        for above in (0, B // 2, B - 1):
            got = _norm_one(D, B, s, above)
            assert got == band_norm_one(D, B, s, above)
            assert [is_torsion(x, s) for x in got] == [-2 < 2 * Quaternion.over(D, x, s).x0 < 2 for x in got]


# (a, b) with a = 1 mod 4 also carry the 2-saturated order
_STREAM_CASES = st.one_of(
    st.tuples(st.sampled_from([(17, 7), (-1, -1), (2, 3), (3, -5), (17, -3)]), st.just(1)),
    st.tuples(st.sampled_from([(17, 7), (5, -7), (13, -5), (-3, 5)]), st.sampled_from([1, 2])),
)


@settings(max_examples=30, deadline=None, database=None)
@given(_STREAM_CASES, st.integers(1, 10), st.integers(1, 10))
def test_stream_prefix_matches_the_box_oracle(case, B, first):
    # read the stream lazily (boxes 1, 2, 4, ...) up to height `first`,
    # then grow it to B: its prefixes up to both heights are the four-cube
    # scan's units in (height, coordinates) order, and growing the stream
    # moves nothing already read
    ab, s = case
    stream = UnitStream(QuaternionAlgebra(*ab), SATURATED if s == 2 else STANDARD, 10)
    want = brute_norm_one_box(*ab, max(B, first), s)
    read = []
    for x in stream:
        if box_height(x, s) > first:
            break
        read.append(x)
    assert read == [c for c in want if box_height(c, s) <= first]
    stream.grow(B)
    got = [x for x in stream.units if box_height(x, s) <= B]
    assert len(set(got)) == len(got)
    assert got == [c for c in want if box_height(c, s) <= B]
    assert stream.units[: len(read)] == read


@pytest.mark.parametrize("k, length", [(1, 4), (2, 5), (3, 5)])
def test_closing_prefix_is_the_shortest(k, length):
    # five saturated units, all of height at most 2, generate SL2(Z/8)
    split = split_2adic(D17)
    stream = UnitStream(D17, SATURATED, 50)
    prefix, used, table = closing_prefix(stream, split, k)
    assert len(prefix) == length and stream.reached == 2
    # the units the closure used are the first with each generator's image
    images = reduce_units(prefix, split, k, 2)
    assert used == [prefix[images.index(g)] for g in table.generators]
    assert reduce_units(used, split, k, 2) == list(table.generators)
    group = set(enumerate_group(2, k).elements)
    assert images_surject(reduce_units(prefix, split, k, 2), k)[1] == table
    assert set(table.elements) == group
    assert not images_surject(reduce_units(prefix[:-1], split, k, 2), k)[0]
    # the standard order never closes mod 2: the whole stream is read
    standard = UnitStream(D17, STANDARD, 6)
    prefix, used, table = closing_prefix(standard, split, 1)
    assert prefix == enumerate_units(D17, 6).units
    assert reduce_units(used, split, 1, 1) == list(table.generators)
    assert images_surject(reduce_units(prefix, split, 1, 1), 1)[1] == table


def test_slice_17_7():
    units = enumerate_units(D17, 20).units
    assert len(units) == 174
    for x in units:
        q = Quaternion.over(D17, x)
        assert q.nrd() == 1
        if x not in ((1, 0, 0, 0), (-1, 0, 0, 0)):
            assert abs(2 * q.x0) > 2  # the reduced trace


def test_saturated_slice():
    s = enumerate_units_saturated(D17, 20)
    assert len(s.units) == 510 and s.scale == 2
    std = {Quaternion.over(D17, x).coords() for x in enumerate_units(D17, 20).units}
    els = [Quaternion.over(D17, x, 2) for x in s.units]
    assert std <= {q.coords() for q in els}
    q = Quaternion(D17, Fraction(7, 2), Fraction(1, 2), 1, 0)
    assert q.nrd() == 1
    assert q in els
    for u in els:
        assert in_saturated_order(u)
        assert u.nrd() == 1


def test_saturated_order_closed_under_product():
    els = [Quaternion.over(D17, x, 2) for x in enumerate_units_saturated(D17, 4).units]
    for q in els[::7]:
        for r in els[::11]:
            assert in_saturated_order(quat_mul(q, r))


def test_saturated_requires_1_mod_4():
    with pytest.raises(ValueError):
        enumerate_units_saturated(QuaternionAlgebra(3, 7), 2)


def test_reduce_units_basics():
    split = split_2adic(D17)
    units = enumerate_units(D17, 8).units
    mats = reduce_units(units, split, 2, 1)
    lookup = dict(zip(units, mats))
    assert lookup[(1, 0, 0, 0)] == identity(4)
    assert lookup[(-1, 0, 0, 0)] == ResidueMatrix(3, 0, 0, 3, 4)
    # homomorphism whenever the product stays in the slice; an integral
    # Fraction tuple looks up its integer tuple
    els = [Quaternion.over(D17, x) for x in units]
    for q in els[::5]:
        for r in els[::7]:
            if quat_mul(q, r).coords() in lookup:
                assert lookup[quat_mul(q, r).coords()] == mul(lookup[q.coords()], lookup[r.coords()])


def test_standard_order_mod2_obstruction():
    ok, table = surjects_at_level(enumerate_units(D17, 20), 1)
    assert not ok
    assert table.order == 2


def test_saturated_surjects_levels_1_2():
    s = enumerate_units_saturated(D17, 20)
    for k in (1, 2):
        ok, table = surjects_at_level(s, k)
        assert ok
        assert table.order == 6 * 8 ** (k - 1)


def test_surjectivity_monotone_in_height():
    ok_small, _ = surjects_at_level(enumerate_units_saturated(D17, 8), 1)
    ok_big, _ = surjects_at_level(enumerate_units_saturated(D17, 12), 1)
    if ok_small:
        assert ok_big


def test_surjectivity_by_order_matches_element_sets():
    # the order comparison in images_surject against the full group table
    split = split_2adic(D17)
    cases = [(enumerate_units_saturated(D17, 6), k) for k in (1, 2, 3, 4)]
    cases.append((enumerate_units(D17, 6), 1))
    decided = []
    for s, k in cases:
        ok, table = images_surject(reduce_units(s.units, split, k, s.scale), k)
        assert ok == (set(table.elements) == set(enumerate_group(2, k).elements))
        decided.append(ok)
    assert True in decided and False in decided


def test_reduction_projects_from_top_level():
    s = enumerate_units_saturated(D17, 6)
    split = split_2adic(D17)
    top = reduce_units(s.units, split, 5, 2)
    for k in range(1, 6):
        projected = [ResidueMatrix(x.a, x.b, x.c, x.d, 2 ** k) for x in top]
        assert projected == reduce_units(s.units, split, k, 2)


def test_torsion_check_negative_control():
    report = torsion_check(enumerate_units(QuaternionAlgebra(-1, -1), 1))
    assert not report["slice_torsion_free"]
    assert (0, 1, 0, 0) in report["finite_order_in_slice"]
    assert report["embeds_sqrt_minus_1"] is True


def test_torsion_check_17_7():
    report = torsion_check(enumerate_units(D17, 20))
    assert report["slice_torsion_free"]
    assert report["embeds_sqrt_minus_1"] is False
    assert report["embeds_sqrt_minus_3"] is False
    assert report["algebra_torsion_free"]


def test_torsion_check_rejects_split():
    with pytest.raises(ValueError):
        torsion_check(enumerate_units(QuaternionAlgebra(1, 5), 2))


def test_find_example_algebra():
    D = find_example_algebra(17)
    assert (D.a, D.b) == (17, 7)
    for bad in (4, 3, 6):
        with pytest.raises(ValueError):
            find_example_algebra(bad)


@pytest.mark.parametrize("d, b", [(11769, 157), (13569, 109), (78729, 101), (83841, 193)])
def test_find_example_algebra_searches_past_b_100(d, b):
    assert find_example_algebra(d).b == b


def _admissible(D):
    ram = ramified_places(D)
    return bool(ram) and 2 not in ram and INF not in ram and not (quadratic_embeds(D, -1) or quadratic_embeds(D, -3))


def test_find_example_algebra_stops_by_the_dirichlet_prime():
    # the search's termination argument, checked for every non-square
    # 2-adic square d below 10^4: the least prime q = 1 mod 12 with
    # (d/q) = -1 gives an admissible (d, q), so the search stops by q
    checked = 0
    for d in range(1, 10**4):
        v = (d & -d).bit_length() - 1
        if isqrt(d) ** 2 == d or v % 2 or (d >> v) % 8 != 1:
            continue
        q = dirichlet_prime(d)
        assert _admissible(QuaternionAlgebra(d, q)), d
        assert find_example_algebra(d).b <= q, d
        checked += 1
    assert checked == 1570
