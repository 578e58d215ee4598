"""Small number-theoretic helpers shared across modules."""

from fractions import Fraction
from math import isqrt


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def valuation(n: int, p: int) -> int:
    """Largest e with p^e | n.  Raises on n = 0."""
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def frac_valuation(r, p: int) -> int:
    r = Fraction(r)
    return valuation(r.numerator, p) - valuation(r.denominator, p)


def unit_part(n: int, p: int) -> int:
    """n with all factors of p removed (sign kept)."""
    if n == 0:
        raise ValueError("unit part of zero is undefined")
    while n % p == 0:
        n //= p
    return n


def inv_mod(a: int, m: int) -> int:
    return pow(a, -1, m)


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    return isqrt(n) ** 2 == n


def is_rational_square(r) -> bool:
    r = Fraction(r)
    if r < 0:
        return False
    return is_perfect_square(r.numerator) and is_perfect_square(r.denominator)


def odd_prime_factors(n: int) -> list:
    """Sorted odd prime divisors of n (n != 0)."""
    n = abs(n)
    out = []
    while n % 2 == 0:
        n //= 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 2
    if n > 1:
        out.append(n)
    return out
