import random
from fractions import Fraction

import pytest

from covercert.exact import is_square_padic, sqrt_2adic
from covercert.util import valuation


def oracle_square_padic(r, p):
    """Brute force: clear r to an integer R in the same square class, then
    search x with x^2 = R mod p^(val+3).  Any solution forces val(x) = val/2
    and a unit square mod p^3 (mod 8 for p = 2), so it lifts; absence at this
    modulus rules a square root out."""
    r = Fraction(r)
    R = r.numerator * r.denominator
    v = valuation(R, p)
    K = v + 3
    m = p ** K
    return any(pow(x, 2, m) == R % m for x in range(m))


# --- is_square_padic ---------------------------------------------------------

def test_square_2adic_spec_values():
    assert is_square_padic(17, 2) is True
    assert is_square_padic(4, 2) is True
    assert is_square_padic(3, 2) is False
    assert is_square_padic(-1, 2) is False
    assert is_square_padic(2, 2) is False


def test_square_padic_precision_independent():
    # the criterion is exact and takes no precision: its answer depends
    # only on the square class of r
    for r, p in ((17, 2), (3, 2), (2, 7), (3, 7), (Fraction(-7, 9), 2)):
        for c in (1, 3, Fraction(1, 5), p, Fraction(1, p ** 2)):
            assert is_square_padic(r * c * c, p) == is_square_padic(r, p)
    assert is_square_padic(2, 7) is True
    assert is_square_padic(3, 7) is False


def test_square_padic_rejects_bad_args():
    with pytest.raises(ValueError):
        is_square_padic(0, 2)
    with pytest.raises(ValueError):
        is_square_padic(5, 6)


def test_square_padic_vs_bruteforce():
    rng = random.Random(11)
    values = [Fraction(n, d) for n in range(-12, 13) if n
              for d in (1, 2, 3, 4, 5)]
    for p in (2, 3, 5, 7):
        for r in rng.sample(values, 40):
            assert is_square_padic(r, p) == oracle_square_padic(r, p), (r, p)


# --- sqrt_2adic --------------------------------------------------------------

def test_sqrt_2adic_of_17():
    for n in range(1, 12):
        s = sqrt_2adic(17, n)
        assert 0 <= s < 2 ** n
        assert (s * s - 17) % 2 ** n == 0
    # canonical branch: unit part 1 or 3 mod 8
    assert sqrt_2adic(17, 10) % 8 == 1
    assert sqrt_2adic(17, 10) == 745  # the stage-1 witness at d = 17


def test_sqrt_exact_squares():
    # exact rational squares get their nonnegative rational root, even
    # when its unit part is 5 or 7 mod 8
    assert sqrt_2adic(1, 5) == 1
    assert sqrt_2adic(25, 8) == 5
    assert sqrt_2adic(49 * 4, 8) == 14
    assert sqrt_2adic(Fraction(9, 25), 6) == 3 * pow(5, -1, 64) % 64


def test_sqrt_branch_canonical():
    # 41 = 9 mod 16, so the two roots are 3 and 5 mod 8; canonical picks 3
    s = sqrt_2adic(41, 9)
    assert s % 8 == 3
    assert (s * s - 41) % 2 ** 9 == 0
    # the root of 4 * 17 is 2 * sqrt(17)
    assert sqrt_2adic(68, 9) == 2 * sqrt_2adic(17, 8)


def test_sqrt_random_squares_hit_precision():
    # every n bits are exact: the roots mod 2^n are the truncations of one
    # 2-adic integer, and for a unit r the brute-force roots mod 2^n are +-s
    rng = random.Random(5)
    for _ in range(60):
        u = rng.randrange(1, 400) * 2 + 1
        r = Fraction(u * u * rng.choice([1, 17, 41, -7]), rng.choice([1, 9, 25]))
        assert sqrt_2adic(4 * r, 12) == 2 * sqrt_2adic(r, 11)
        top = sqrt_2adic(r, 12)
        for n in range(1, 12):
            s = sqrt_2adic(r, n)
            assert s == top % 2 ** n
            m = 2 ** n
            target = r.numerator * pow(r.denominator, -1, 4 * m) % (4 * m)
            roots = {x % m for x in range(4 * m) if (x * x - target) % (4 * m) == 0}
            assert roots == {s, -s % m}, (r, n)


def test_sqrt_rejects_nonsquares():
    with pytest.raises(ValueError):
        sqrt_2adic(3, 4)
    with pytest.raises(ValueError):
        sqrt_2adic(Fraction(17, 4), 4)  # a square in Q_2, but not in Z_2
