import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covercert import units
from covercert.core import load_config
from covercert.modgroup import ResidueMatrix, SubgroupTable, closure, enumerate_group, group_order
from covercert.pipelines import quaternionic
from covercert.quatalg import split_2adic

from oracles import generated_order, identity, mul, reference_closure, sl2_order_bruteforce

PRIME_POWERS_64 = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                   (11, 1), (13, 1), (2, 4), (17, 1), (19, 1), (23, 1),
                   (5, 2), (3, 3), (29, 1), (31, 1), (2, 5), (37, 1),
                   (41, 1), (43, 1), (47, 1), (7, 2), (53, 1), (59, 1),
                   (61, 1), (2, 6)]


def test_group_order_fixed_values():
    assert group_order(2, 1) == 6
    assert group_order(2, 2) == 48
    assert group_order(3, 1) == 24
    with pytest.raises(ValueError):
        group_order(2, 0)
    with pytest.raises(ValueError):
        group_order(4, 1)


def test_group_order_vs_bruteforce_count():
    for p, k in PRIME_POWERS_64:
        assert group_order(p, k) == sl2_order_bruteforce(p ** k), (p, k)


def test_enumerate_group_small():
    t = enumerate_group(2, 1)
    assert t.order == 6
    # non-abelian, hence the symmetric group on 3 letters
    x = ResidueMatrix(1, 1, 0, 1, 2)
    y = ResidueMatrix(1, 0, 1, 1, 2)
    assert mul(x, y) != mul(y, x)
    assert enumerate_group(2, 2).order == 48
    assert enumerate_group(2, 3).order == 384
    assert enumerate_group(3, 2).order == 648


def test_residue_matrix_validation():
    with pytest.raises(ValueError):
        ResidueMatrix(1, 0, 0, 2, 4)
    g = ResidueMatrix(2, 1, 1, 1, 7)
    assert mul(g, g.inverse()) == identity(7)


def test_closure_basics():
    ident = identity(4)
    assert closure([ident]).order == 1
    u = ResidueMatrix(1, 1, 0, 1, 2)
    assert closure([u]).order == 2
    both = closure([u, ResidueMatrix(1, 0, 1, 1, 2)])
    assert both.order == 6


def test_closure_idempotent_and_lagrange():
    u = ResidueMatrix(1, 1, 0, 1, 8)
    t = closure([u])
    again = closure(list(t.generators) + [u])
    assert again.order == t.order
    G = enumerate_group(2, 3)
    for gens in ([u], [u, ResidueMatrix(3, 0, 0, 3, 8)],
                 [ResidueMatrix(1, 2, 2, 5, 8)]):
        H = closure(gens)
        assert G.order % H.order == 0


def test_closure_reads_generators_lazily_up_to_stop():
    read = []
    gens = [ResidueMatrix(1, 1, 0, 1, 2), ResidueMatrix(1, 0, 1, 1, 2), ResidueMatrix(0, 1, 1, 0, 2)]

    def lazy():
        for g in gens:
            read.append(g)
            yield g

    table = closure(lazy(), stop=6)
    assert table.order == 6 and read == gens[:2]
    assert set(closure(iter(gens)).elements) == set(table.elements)
    with pytest.raises(ValueError):
        closure(iter(()))


def test_closure_deterministic():
    gens = [ResidueMatrix(1, 1, 0, 1, 4), ResidueMatrix(1, 0, 1, 1, 4)]
    a = closure(gens)
    b = closure(gens)
    assert a.elements == b.elements


def test_closure_skips_contained_generators():
    ident = identity(8)
    T = ResidueMatrix(1, 1, 0, 1, 8)
    U = ResidueMatrix(1, 0, 1, 1, 8)
    table = closure([ident, T, mul(T, T), U])
    # the first generator is kept even when it is the identity; T^2 is
    # already in <T> when it arrives
    assert table.generators == (ident, T, U)
    assert set(table.elements) == set(enumerate_group(2, 3).elements)
    assert len(table.elements) == len(set(table.elements)) == 384


def _elementary_product(exponents, m):
    """T^x1 U^x2 T^x3 ... mod m, T and U the elementary matrices, which
    generate SL2(Z/m)."""
    a, b, c, d = 1, 0, 0, 1
    for i, x in enumerate(exponents):
        a, b, c, d = (a + b * x, b, c + d * x, d) if i % 2 else (a, a * x + b, c, c * x + d)
    return ResidueMatrix(a, b, c, d, m)


@st.composite
def _generator_lists(draw, moduli):
    """1 to 4 elements of SL2(Z/m) for one m of moduli, sometimes after the
    identity and sometimes with one of them repeated at the end."""
    m = draw(st.sampled_from(moduli))
    element = st.lists(st.integers(0, m - 1), min_size=1, max_size=5).map(lambda xs: _elementary_product(xs, m))
    gens = draw(st.lists(element, min_size=1, max_size=4))
    if draw(st.booleans()):
        gens = [identity(m)] + gens
    if draw(st.booleans()):
        gens.append(draw(st.sampled_from(gens)))
    return gens


T8, U8 = ResidueMatrix(1, 1, 0, 1, 8), ResidueMatrix(1, 0, 1, 1, 8)


@settings(max_examples=60, deadline=None, database=None)
@given(_generator_lists([2, 4, 8, 16, 7, 9]), st.integers(0, 6))
@example([identity(8), T8, mul(T8, T8), U8], 0)
@example([T8, T8, U8, T8], 3)
def test_closure_matches_the_reference(gens, j):
    # the tuple closure against the ResidueMatrix one: the same elements in
    # the same order, the same generators used, and under stop (no stop, or
    # the order of a prefix's closure) the same early exit after the same
    # number of generators read
    stops = [0] + [reference_closure(gens[:i]).order for i in range(1, len(gens) + 1)]
    stop = stops[j % len(stops)]
    read = {"new": 0, "reference": 0}

    def counted(side):
        for g in gens:
            read[side] += 1
            yield g

    got, want = closure(counted("new"), stop), reference_closure(counted("reference"), stop)
    assert list(got.elements) == [x.entries() for x in want.elements]
    assert got.generators == want.generators and got.order == want.order and got.modulus == want.modulus
    assert set(got.elements) == {x.entries() for x in want.elements}
    assert read["new"] == read["reference"]


def test_closure_rejects_mixed_moduli():
    with pytest.raises(ValueError, match="mixed moduli"):
        closure([identity(4), ResidueMatrix(1, 1, 0, 1, 8)])


def _random_sl2(rng, m):
    """A uniform element of SL2(Z/m) as an entry tuple, by rejection."""
    while True:
        a, b, c, d = (rng.randrange(m) for _ in range(4))
        if (a * d - b * c) % m == 1:
            return a, b, c, d


def test_full_mod_8_is_full_mod_32():
    # the squaring argument behind stage 4's claim, checked by the oracle's
    # own closure: every drawn pair of SL2(Z/32) whose reduction fills
    # SL2(Z/8) generates all 24,576 elements
    rng = random.Random(26)
    full = 0
    for _ in range(27):
        gens = [_random_sl2(rng, 32) for _ in range(2)]
        if generated_order(gens, 8) == group_order(2, 3):
            assert generated_order(gens, 32) == group_order(2, 5) == 24576
            full += 1
    assert full == 16


@pytest.mark.parametrize("d", [17, 41, 73, 89, 97, 113, 137])
def test_recorded_stage_4_generators_fill_sl2_mod_32(d):
    # the units stage 4 records, which fill SL2(Z/8), fill SL2(Z/32) too
    cfg = load_config(None, [f"d={d}"])
    split = split_2adic(cfg.algebra)
    used, table = quaternionic._find_closing_units(cfg)
    assert table.order == group_order(2, 3)
    assert generated_order([g.entries() for g in units.reduce_units(used, split, 5, 2)], 32) == group_order(2, 5)
