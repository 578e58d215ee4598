import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from covercert.mat2 import mat_det, mat_mul
from covercert.quatalg import (INF, QuaternionAlgebra, hilbert_symbol,
                               is_division, quadratic_embeds, ramified_places,
                               split_2adic)
from covercert.util import odd_prime_factors

from oracles import (Quaternion, _repr_mask, _squares, conic_solvable_mod, conic_square_class,
                     hilbert_oracle, quat_add, quat_conjugate, quat_mul)
from wordsearch import mat_scale


def rand_quat(D, rng, span=9):
    return Quaternion(D, *(Fraction(rng.randrange(-span, span + 1),
                                rng.choice([1, 1, 2, 3])) for _ in range(4)))


# --- element arithmetic ------------------------------------------------------

def test_mult_associative_and_unital():
    rng = random.Random(2)
    D = QuaternionAlgebra(17, 7)
    one = Quaternion(D, 1)
    for _ in range(40):
        q, r, s = (rand_quat(D, rng) for _ in range(3))
        assert quat_mul(quat_mul(q, r), s) == quat_mul(q, quat_mul(r, s))
        assert quat_mul(q, one) == q and quat_mul(one, q) == q


def test_nrd_multiplicative_and_trace_symmetric():
    rng = random.Random(3)
    for ab in ((17, 7), (-1, -1), (2, -5)):
        D = QuaternionAlgebra(*ab)
        for _ in range(30):
            q, r = rand_quat(D, rng), rand_quat(D, rng)
            assert quat_mul(q, r).nrd() == q.nrd() * r.nrd()
            assert D.nrd(q.coords()) == q.nrd()
            assert quat_mul(q, r).x0 == quat_mul(r, q).x0  # the reduced trace is 2 x0
            assert quat_conjugate(quat_mul(q, r)) == quat_mul(quat_conjugate(r), quat_conjugate(q))


def test_inverse():
    # q times its conjugate is nrd(q): a norm-one unit is inverted by its
    # conjugate, and a norm-zero element has no inverse
    D = QuaternionAlgebra(17, 7)
    q = Quaternion(D, 5, 1, 1, 0)
    assert q.nrd() == 1
    assert quat_mul(q, quat_conjugate(q)) == Quaternion(D, 1) == quat_mul(quat_conjugate(q), q)
    rng = random.Random(4)
    for _ in range(20):
        r = rand_quat(D, rng)
        assert quat_mul(r, quat_conjugate(r)) == Quaternion(D, r.nrd())
    zero_norm = Quaternion(QuaternionAlgebra(1, 1), 1, 1, 0, 0)
    assert quat_mul(zero_norm, quat_conjugate(zero_norm)) == Quaternion(QuaternionAlgebra(1, 1), 0)


# --- Hilbert symbol ----------------------------------------------------------

def test_hilbert_fixed_values():
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(-1, -1, INF) == -1
    for b in (2, -3, Fraction(7, 5)):
        for p in (2, 3, 7):
            assert hilbert_symbol(1, b, p) == 1
    with pytest.raises(ValueError):
        hilbert_symbol(0, 3, 2)
    with pytest.raises(ValueError):
        hilbert_symbol(3, 5, 6)


def test_hilbert_symmetry_and_bilinearity():
    rng = random.Random(9)
    vals = [Fraction(n, d) for n in range(-9, 10) if n for d in (1, 2, 3)]
    for p in (2, 3, 5, INF):
        for _ in range(60):
            a, b1, b2 = (rng.choice(vals) for _ in range(3))
            assert hilbert_symbol(a, b1, p) == hilbert_symbol(b1, a, p)
            assert (hilbert_symbol(a, b1 * b2, p)
                    == hilbert_symbol(a, b1, p) * hilbert_symbol(a, b2, p))


def test_hilbert_vs_conic_oracle_small_grid():
    vals = sorted({Fraction(s * n, d) for n in range(1, 7)
                   for d in range(1, 7) for s in (1, -1)})
    for p in (2, 3, 5):
        for a in vals:
            for b in vals:
                assert hilbert_symbol(a, b, p) == hilbert_oracle(a, b, p), (a, b, p)


def test_conic_oracle_level_escalation():
    # the reduced level used for odd p must agree with the literal mod-p^8
    # search; spot-check where the full computation is affordable
    rng = random.Random(4)
    for _ in range(25):
        a = Fraction(rng.randrange(-20, 21) or 1, rng.randrange(1, 21))
        b = Fraction(rng.randrange(-20, 21) or 1, rng.randrange(1, 21))
        A, B = conic_square_class(a, 3), conic_square_class(b, 3)
        assert conic_solvable_mod(A, B, 3, 3) == conic_solvable_mod(A, B, 3, 8)


def _full_grid_mask(vals, m):
    mask = np.zeros(m, dtype=bool)
    mask[np.unique(vals)] = True
    return mask


def test_conic_oracle_matches_full_grid():
    # the oracle scans distinct squares only; the literal definition runs
    # z, x, y over all of Z/m, which is affordable at these moduli
    coeffs = [c for c in range(-16, 17) if c]
    for p, K in ((2, 8), (3, 3), (5, 3), (7, 3)):
        m = p ** K
        z = np.arange(m, dtype=np.int64)
        sq_all = z * z % m
        assert np.array_equal(_squares(m), np.unique(sq_all))
        full = {}
        for C in range(m):
            full[C] = _full_grid_mask((sq_all[:, None] - C * sq_all[None, :]) % m, m)
            assert np.array_equal(_repr_mask(C, m), full[C]), (C, m)
        for A in coeffs:
            for B in coeffs:
                by = _full_grid_mask(B % m * sq_all % m, m)
                want = bool(full[A % m][B % m] or full[B % m][A % m]
                            or by[(1 - A % m * sq_all) % m].any())
                assert conic_solvable_mod(A, B, p, K) == want, (A, B, m)


def test_product_formula_sampled():
    rng = random.Random(6)
    for _ in range(60):
        a = Fraction(rng.randrange(-30, 31) or 5, rng.randrange(1, 12))
        b = Fraction(rng.randrange(-30, 31) or 3, rng.randrange(1, 12))
        places = {2}
        for r in (a, b):
            places.update(odd_prime_factors(r.numerator * r.denominator))
        prod = hilbert_symbol(a, b, INF)
        for p in places:
            prod *= hilbert_symbol(a, b, p)
        assert prod == 1, (a, b)


# --- ramification ------------------------------------------------------------

def test_ramified_places_known_algebras():
    assert ramified_places(QuaternionAlgebra(-1, -1)) == [2, INF]
    assert ramified_places(QuaternionAlgebra(1, 5)) == []
    assert ramified_places(QuaternionAlgebra(17, 7)) == [7, 17]
    # cross-check the (17,7) set against the exhaustive conic oracle
    for p in (2, 7, 17):
        want = -1 if p in (7, 17) else 1
        assert hilbert_oracle(17, 7, p) == want


def test_is_division():
    assert is_division(QuaternionAlgebra(-1, -1))
    assert is_division(QuaternionAlgebra(17, 7))
    assert not is_division(QuaternionAlgebra(1, 5))


def test_quadratic_embeds():
    H = QuaternionAlgebra(-1, -1)
    assert quadratic_embeds(H, -1) is True
    D = QuaternionAlgebra(17, 7)
    assert quadratic_embeds(D, -1) is False
    assert quadratic_embeds(D, -3) is False
    split = QuaternionAlgebra(1, 5)
    for e in (-1, -3, 2, Fraction(3, 5)):
        assert quadratic_embeds(split, e) is True
    with pytest.raises(ValueError):
        quadratic_embeds(D, 4)
    with pytest.raises(ValueError):
        quadratic_embeds(D, Fraction(9, 25))


# --- splittings --------------------------------------------------------------

def _mat(entries):
    return ((entries[0], entries[1]), (entries[2], entries[3]))


def _residues(sm, q, k):
    """The image mod 2^k of the Fraction quaternion q, read as integer
    numerators over the power of 2 that clears its denominators."""
    den = lcm(*(c.denominator for c in q.coords()))
    return sm.residues([c.numerator * (den // c.denominator) for c in q.coords()], k, den)


def _mat_mod(A, m):
    return tuple(tuple(x % m for x in row) for row in A)


def _saturated(D, rng, span=9):
    """A random element (u + vi + wj + zk)/2 with u = v and w = z mod 2."""
    u, v, w, z = (rng.randrange(-span, span + 1) for _ in range(4))
    v += (u - v) % 2
    z += (w - z) % 2
    return Quaternion.over(D, (u, v, w, z), 2)


def _eighths(D, rng, span=9):
    """x0 + x1 i + x2 j + x3 k with x1, x3 in (1/8)Z: in (64 * 17, 7),
    i/8 squares to 17, so these map to integral matrices."""
    x0, x2 = rng.randrange(-span, span + 1), rng.randrange(-span, span + 1)
    x1, x3 = (Fraction(rng.randrange(-span, span + 1), 8) for _ in range(2))
    return Quaternion(D, x0, x1, x2, x3)


def test_split_2adic_relations_and_det():
    D = QuaternionAlgebra(17, 7)
    rng = random.Random(8)
    sm = split_2adic(D)
    i, j, k = Quaternion(D, 0, 1), Quaternion(D, 0, 0, 1), Quaternion(D, 0, 0, 0, 1)
    samples = [Quaternion(D, 1), -Quaternion(D, 1), Quaternion(D, 5, 1, 1, 0),
               Quaternion(D, Fraction(7, 2), Fraction(1, 2), 1, 0)]
    samples += [_saturated(D, rng, span=5) for _ in range(10)]
    for n in range(1, 10):
        m = 2 ** n
        # i is diagonal with the canonical 2-adic root of 17 on the
        # diagonal: 745 mod 2^n, the stage-1 witness at d = 17
        s = 745 % m
        assert _residues(sm, i, n) == (s, 0, 0, -s % m)
        assert _residues(sm, j, n) == (0, 1, 7 % m, 0)
        I, J = _mat(_residues(sm, i, n)), _mat(_residues(sm, j, n))
        assert _mat_mod(mat_mul(I, I), m) == _mat_mod(((17, 0), (0, 17)), m)
        assert _mat_mod(mat_mul(J, J), m) == _mat_mod(((7, 0), (0, 7)), m)
        assert _mat_mod(mat_mul(I, J), m) == _mat_mod(mat_scale(-1, mat_mul(J, I)), m)
        assert _mat(_residues(sm, k, n)) == _mat_mod(mat_mul(I, J), m)
        for q in samples:
            assert (mat_det(_mat(_residues(sm, q, n))) - q.nrd()) % m == 0


def test_split_2adic_exact_square():
    # a = 1 is an exact square, so s = 1 at every level
    sm = split_2adic(QuaternionAlgebra(1, 5))
    I = Quaternion(QuaternionAlgebra(1, 5), 0, 1)
    for n in (1, 4, 9):
        assert _residues(sm, I, n) == (1, 0, 0, 2 ** n - 1)
    # a = 25: the exact root 5, not the 1-or-3-mod-8 branch -5
    D = QuaternionAlgebra(25, 3)
    assert split_2adic(D).residues((0, 1, 0, 0), 6) == (5, 0, 0, 64 - 5)


def test_split_2adic_is_a_ring_homomorphism_mod_2k():
    rng = random.Random(12)
    cases = [(QuaternionAlgebra(17, 7), _saturated), (QuaternionAlgebra(64 * 17, 7), _eighths)]
    for D, draw in cases:
        sm = split_2adic(D)
        pairs = [(draw(D, rng), draw(D, rng)) for _ in range(40)]
        assert max(c.denominator for q, _ in pairs for c in q.coords()) == (2 if draw is _saturated else 8)
        for k in range(1, 7):
            m = 2 ** k
            assert _residues(sm, Quaternion(D, 1), k) == (1, 0, 0, 1 % m)
            for q, r in pairs:
                Q, R = _mat(_residues(sm, q, k)), _mat(_residues(sm, r, k))
                assert _mat(_residues(sm, quat_mul(q, r), k)) == _mat_mod(mat_mul(Q, R), m)
                assert _residues(sm, quat_add(q, r), k) == tuple((x + y) % m for x, y in zip(_residues(sm, q, k), _residues(sm, r, k)))
                assert (mat_det(Q) - q.nrd()) % m == 0


def test_split_2adic_rejects_non_integral_images():
    D = QuaternionAlgebra(17, 7)
    sm = split_2adic(D)
    with pytest.raises(ValueError, match="not integral at 2"):
        sm.residues((1, 0, 0, 0), 3, 2)  # image diag(1/2, 1/2)
    # (1 + i)/2 lies in the 2-saturated order, (2 + i)/2 does not; read
    # mod 2^4, the root is s = 745 = 9, so (1 + i)/2 maps to diag(5, -4)
    assert sm.residues((1, 1, 0, 0), 3, 2) == (5, 0, 0, 4)
    with pytest.raises(ValueError, match="not integral at 2"):
        sm.residues((2, 1, 0, 0), 3, 2)


def test_split_2adic_rejects():
    with pytest.raises(ValueError):
        split_2adic(QuaternionAlgebra(3, 7))  # 3 is not a 2-adic square
    with pytest.raises(ValueError):
        split_2adic(QuaternionAlgebra(-1, -1))  # ramified at 2
