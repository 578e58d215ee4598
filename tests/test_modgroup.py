import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covercert.modgroup import (ResidueMatrix, SubgroupTable, closure,
                                enumerate_group, group_order, kernel_words,
                                layer_vector, spans_layer, word_value)

from oracles import power, reference_closure, reference_kernel_words, sl2_order_bruteforce

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
    assert x * y != y * x
    assert enumerate_group(2, 2).order == 48
    assert enumerate_group(2, 3).order == 384
    assert enumerate_group(3, 2).order == 648


def test_residue_matrix_validation():
    with pytest.raises(ValueError):
        ResidueMatrix(1, 0, 0, 2, 4)
    with pytest.raises(ValueError):
        ResidueMatrix(1, 0, 0, 1, 4) * ResidueMatrix(1, 0, 0, 1, 8)
    g = ResidueMatrix(2, 1, 1, 1, 7)
    assert g * g.inverse() == ResidueMatrix.identity(7)


def test_closure_basics():
    ident = ResidueMatrix.identity(4)
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
    assert closure(iter(gens)).element_set == table.element_set
    with pytest.raises(ValueError):
        closure(iter(()))


def test_closure_deterministic():
    gens = [ResidueMatrix(1, 1, 0, 1, 4), ResidueMatrix(1, 0, 1, 1, 4)]
    a = closure(gens)
    b = closure(gens)
    assert a.elements == b.elements


def test_closure_skips_contained_generators():
    ident = ResidueMatrix.identity(8)
    T = ResidueMatrix(1, 1, 0, 1, 8)
    U = ResidueMatrix(1, 0, 1, 1, 8)
    table = closure([ident, T, T * T, U])
    # the first generator is kept even when it is the identity; T^2 is
    # already in <T> when it arrives
    assert table.generators == (ident, T, U)
    assert table.element_set == enumerate_group(2, 3).element_set
    assert len(table.elements) == len(table.element_set) == 384


def test_kernel_layers():
    # I + 2^(k-1) X packs back to X for every X in sl2(F_2)
    for k in range(2, 7):
        q = 2 ** (k - 1)
        for packed in range(8):
            x, y, z = packed & 1, packed >> 1 & 1, packed >> 2
            assert layer_vector(ResidueMatrix(1 + q * x, q * y, q * z, 1 + q * x, 2 ** k).entries(), k) == packed
        assert layer_vector(ResidueMatrix(1, 1, 0, 1, 2 ** k).entries(), k) is None
    # the elementary matrices are full mod 8, so their words carry every
    # layer; the powers of T alone reach one kernel direction only
    T, U = ResidueMatrix(1, 1, 0, 1, 2 ** 10), ResidueMatrix(1, 0, 1, 1, 2 ** 10)
    words = kernel_words([T, U])
    assert len(words) == 3
    for k in range(3, 11):
        assert spans_layer([power(word_value([T, U], w), 2 ** (k - 3)) for w in words], k)
        assert not spans_layer([power(word_value([T, U], w), 2 ** (k - 2)) for w in words], k)
    assert kernel_words([T]) is None
    with pytest.raises(ValueError):
        power(T, -1)


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
        gens = [ResidueMatrix.identity(m)] + gens
    if draw(st.booleans()):
        gens.append(draw(st.sampled_from(gens)))
    return gens


T8, U8 = ResidueMatrix(1, 1, 0, 1, 8), ResidueMatrix(1, 0, 1, 1, 8)


@settings(max_examples=60, deadline=None, database=None)
@given(_generator_lists([2, 4, 8, 16, 7, 9]), st.integers(0, 6))
@example([ResidueMatrix.identity(8), T8, T8 * T8, U8], 0)
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
    assert got.element_set == {x.entries() for x in want.elements}
    assert read["new"] == read["reference"]


def test_closure_rejects_mixed_moduli():
    with pytest.raises(ValueError, match="mixed moduli"):
        closure([ResidueMatrix.identity(4), ResidueMatrix(1, 1, 0, 1, 8)])
    with pytest.raises(ValueError, match="mixed moduli"):
        kernel_words([ResidueMatrix(1, 1, 0, 1, 16), ResidueMatrix(1, 0, 1, 1, 8)])


@settings(max_examples=60, deadline=None, database=None)
@given(_generator_lists([8, 16, 32, 64, 128]))
@example([ResidueMatrix(1, 1, 0, 1, 32)])
@example([ResidueMatrix(1, 1, 0, 1, 128), ResidueMatrix(1, 0, 1, 1, 128)])
def test_kernel_words_match_the_reference(gens):
    # the same three words, or None, as the ResidueMatrix search
    assert kernel_words(gens) == reference_kernel_words(gens)
