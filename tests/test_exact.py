import random
from fractions import Fraction

import pytest

from covercert.exact import PAdicApprox, is_square_padic, sqrt_padic
from covercert.util import frac_valuation, unit_part, valuation


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
    assert is_square_padic(17, 2, 3) is True
    assert is_square_padic(4, 2, 3) is True
    assert is_square_padic(3, 2, 3) is False
    assert is_square_padic(-1, 2, 3) is False
    assert is_square_padic(2, 2, 3) is False


def test_square_padic_precision_independent():
    for prec in (3, 4, 5, 8, 12):
        assert is_square_padic(17, 2, prec) is True
        assert is_square_padic(3, 2, prec) is False
    for prec in (1, 2, 6):
        assert is_square_padic(2, 7, prec) is True
        assert is_square_padic(3, 7, prec) is False


def test_square_padic_rejects_bad_args():
    with pytest.raises(ValueError):
        is_square_padic(0, 2, 3)
    with pytest.raises(ValueError):
        is_square_padic(5, 2, 2)
    with pytest.raises(ValueError):
        is_square_padic(5, 6, 3)


def test_square_padic_vs_bruteforce():
    rng = random.Random(11)
    values = [Fraction(n, d) for n in range(-12, 13) if n
              for d in (1, 2, 3, 4, 5)]
    for p in (2, 3, 5, 7):
        for r in rng.sample(values, 40):
            assert is_square_padic(r, p, 5) == oracle_square_padic(r, p), (r, p)


# --- sqrt_padic --------------------------------------------------------------

def test_sqrt_2adic_of_17():
    s = sqrt_padic(17, 2, 5)
    assert s.val == 0
    assert (s.unit * s.unit - 17) % 2 ** 7 == 0
    # canonical branch: smaller base residue mod 8
    assert s.unit % 8 == 1


def test_sqrt_exact_squares():
    assert sqrt_padic(1, 2, 5).residue(5) == 1
    s = sqrt_padic(9, 5, 4)
    assert s.residue(1) == 3
    s = sqrt_padic(Fraction(9, 4), 7, 4)
    # exact root 3/2
    assert s.residue(2) == 3 * pow(2, -1, 49) % 49


def test_sqrt_branch_canonical():
    # 41 = 9 mod 16, so the two roots are 3,5 mod 8; canonical picks 3
    s = sqrt_padic(41, 2, 6)
    assert s.unit % 8 == 3
    # roots of 2 mod 7 are 3 and 4; canonical picks 3
    s = sqrt_padic(2, 7, 4)
    assert s.unit % 7 == 3
    assert (s.unit * s.unit - 2) % 7 ** 4 == 0


def test_sqrt_random_squares_hit_precision():
    rng = random.Random(5)
    for p in (2, 3, 5, 13):
        for _ in range(25):
            u = rng.randrange(1, 400)
            r = Fraction(u * u, rng.randrange(1, 20) ** 2) * p ** (2 * rng.randrange(0, 2))
            if not is_square_padic(r, p, 4):
                continue
            prec = 4
            s = sqrt_padic(r, p, prec)
            diff = Fraction(s.unit) ** 2 * Fraction(p) ** (2 * s.val) - r
            if diff != 0:
                assert frac_valuation(diff, p) >= prec + frac_valuation(r, p)


def test_sqrt_rejects_nonsquares():
    with pytest.raises(ValueError):
        sqrt_padic(3, 2, 4)
    with pytest.raises(ValueError):
        sqrt_padic(5, 7, 3)


# --- PAdicApprox arithmetic --------------------------------------------------

def test_padic_ring_ops_match_rationals():
    rng = random.Random(7)
    for p in (2, 5):
        for _ in range(60):
            a = Fraction(rng.randrange(-50, 51), rng.choice([1, 1, 3, p]))
            b = Fraction(rng.randrange(-50, 51), rng.choice([1, 2, 5]))
            if a == 0 or b == 0:
                continue
            x = PAdicApprox.from_rational(a, p, 8)
            y = PAdicApprox.from_rational(b, p, 8)
            for op, exact in ((x + y, a + b), (x * y, a * b), (x - y, a - b)):
                if exact == 0:
                    assert op.exact_zero or op.known_zero_to_precision
                    continue
                v = frac_valuation(exact, p)
                assert op.val == v
                u = unit_part(exact.numerator, p) * pow(
                    unit_part(exact.denominator, p), -1, p ** op.prec)
                assert op.unit % p ** min(op.prec, 4) == u % p ** min(op.prec, 4)


def test_padic_cancellation_is_flagged():
    x = PAdicApprox.from_rational(Fraction(3, 5), 2, 6)
    z = x - x
    assert z.known_zero_to_precision or z.exact_zero
    assert z.valuation_at_least(4)


def test_padic_residue():
    x = PAdicApprox.from_rational(12, 2, 6)
    assert x.residue(4) == 12
    assert x.residue(2) == 0
    y = PAdicApprox.from_rational(Fraction(1, 2), 2, 6)
    with pytest.raises(ValueError):
        y.residue(2)


def test_padic_inverse():
    x = PAdicApprox.from_rational(Fraction(3, 4), 7, 5)
    xi = x.inverse()
    prod = x * xi
    assert prod.val == 0
    assert prod.unit % 7 ** prod.prec == 1
