"""Exact local arithmetic: square classes in Q_p and the 2-adic square root.

Every 2-adic value a pipeline reads is an integer residue mod 2^n or a
valuation, so nothing here carries a precision.  sqrt_2adic returns the
canonical root as a plain int mod 2^n; it lifts one bit further than it
returns, because s^2 = a mod 2^(n+1) fixes s mod 2^n only up to sign.
"""

from fractions import Fraction
from math import isqrt

from .util import frac_valuation, inv_mod, is_prime, is_rational_square, unit_part


def is_square_padic(r, p: int) -> bool:
    """Whether r in Q* is a square in Q_p.

    Criterion: even valuation, and the unit part a square unit.  For odd p the
    unit test is a Legendre symbol; for p = 2 it is congruence to 1 mod 8.
    """
    r = Fraction(r)
    if r == 0:
        raise ValueError("r must be nonzero")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if frac_valuation(r, p) % 2 != 0:
        return False
    u = unit_part(r.numerator, p) * unit_part(r.denominator, p)
    if p == 2:
        return u % 8 == 1
    return pow(u % p, (p - 1) // 2, p) == 1


def sqrt_2adic(r, n: int) -> int:
    """The canonical square root of r in Z_2, as an integer mod 2^n.

    r must be a 2-adic square of nonnegative valuation.  An exact rational
    square gets its nonnegative rational root; any other r the root whose
    unit part is 1 or 3 mod 8, which exactly one of the two roots has.
    """
    r = Fraction(r)
    if r == 0 or not is_square_padic(r, 2):
        raise ValueError(f"{r} is not a square in Q_2")
    v = frac_valuation(r, 2)
    if v < 0:
        raise ValueError(f"{r} is not a 2-adic integer")
    m = 1 << n
    if is_rational_square(r):
        return isqrt(r.numerator) * inv_mod(isqrt(r.denominator), m) % m
    # Hensel: a root mod 2^j (j >= 3) lifts to 2^(j+1) by adding 2^(j-1)
    # when needed, starting from 1 since the unit part u is 1 mod 8
    top = max(n, 3) + 1
    u = unit_part(r.numerator, 2) * inv_mod(unit_part(r.denominator, 2), 1 << top)
    s = 1
    for j in range(3, top):
        if (s * s - u) % (1 << (j + 1)):
            s += 1 << (j - 1)
    if s % 8 > 4:
        s = -s
    return (s << (v // 2)) % m
