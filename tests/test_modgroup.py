import pytest

from covercert.modgroup import (ResidueMatrix, SubgroupTable, closure,
                                enumerate_group, group_order, kernel_words,
                                layer_vector, power, spans_layer, word_value)

from oracles import sl2_order_bruteforce

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
            assert layer_vector(ResidueMatrix(1 + q * x, q * y, q * z, 1 + q * x, 2 ** k), k) == packed
        assert layer_vector(ResidueMatrix(1, 1, 0, 1, 2 ** k), k) is None
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
