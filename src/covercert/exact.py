"""Exact arithmetic substrate: rationals and p-adic approximations with
explicit precision.

Every downstream verdict reduces to integer arithmetic done here.  Rationals
are the stdlib Fraction: always reduced, positive denominator, exact ops.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .util import (frac_valuation, inv_mod, is_prime, is_rational_square,
                   unit_part)


def _check_padic_args(p: int, precision: int):
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if precision < (3 if p == 2 else 1):
        raise ValueError("precision too small to decide square classes")


def is_square_padic(r, p: int, precision: int) -> bool:
    """Whether r in Q* is a square in Q_p.

    Criterion: even valuation, and the unit part a square unit.  For odd p the
    unit test is a Legendre symbol; for p = 2 it is congruence to 1 mod 8.  The
    precision argument is validated but the answer is exact and independent of
    it; the minimum exists so callers cannot ask for less context than the
    criterion needs (mod 8 at p = 2).
    """
    r = Fraction(r)
    if r == 0:
        raise ValueError("r must be nonzero")
    _check_padic_args(p, precision)
    if frac_valuation(r, p) % 2 != 0:
        return False
    u = unit_part(r.numerator, p) * unit_part(r.denominator, p)
    if p == 2:
        return u % 8 == 1
    return pow(u % p, (p - 1) // 2, p) == 1


@dataclass(frozen=True)
class PAdicApprox:
    """p^val * unit known mod p^prec, i.e. the ball p^val*(unit + O(p^prec)).

    unit is coprime to p except in two flagged states: exact_zero (the number
    0, infinite valuation) and unit == 0 with prec == 0, meaning "zero to the
    stated valuation": some element of O(p^val), valuation >= val but unknown.
    """

    p: int
    val: int
    unit: int
    prec: int
    exact_zero: bool = False

    @staticmethod
    def zero(p: int):
        return PAdicApprox(p, 0, 0, 0, exact_zero=True)

    @staticmethod
    def from_rational(r, p: int, prec: int) -> "PAdicApprox":
        r = Fraction(r)
        if r == 0:
            return PAdicApprox.zero(p)
        v = frac_valuation(r, p)
        num = unit_part(r.numerator, p)
        den = unit_part(r.denominator, p)
        m = p ** prec
        u = num * inv_mod(den % m, m) % m
        return PAdicApprox(p, v, u, prec)

    @property
    def known_zero_to_precision(self) -> bool:
        return (not self.exact_zero) and self.unit == 0

    def valuation_at_least(self, t: int) -> bool:
        """Decidable one-sided valuation test."""
        if self.exact_zero:
            return True
        return self.val >= t

    def __mul__(self, other):
        other = self._coerce(other)
        if self.exact_zero or other.exact_zero:
            return PAdicApprox.zero(self.p)
        if self.known_zero_to_precision or other.known_zero_to_precision:
            return PAdicApprox(self.p, self.val + other.val, 0, 0)
        n = min(self.prec, other.prec)
        m = self.p ** n
        return PAdicApprox(self.p, self.val + other.val,
                           self.unit * other.unit % m, n)

    def __neg__(self):
        if self.exact_zero or self.known_zero_to_precision:
            return self
        m = self.p ** self.prec
        return PAdicApprox(self.p, self.val, -self.unit % m, self.prec)

    def __add__(self, other):
        other = self._coerce(other)
        if self.exact_zero:
            return other
        if other.exact_zero:
            return self
        # work at the common scale p^vmin; each operand is known mod p^(val+prec)
        vmin = min(self.val, other.val)
        known = min(self.val + self.prec, other.val + other.prec) - vmin
        if known <= 0:
            return PAdicApprox(self.p, vmin, 0, 0)
        m = self.p ** known
        v = (self.unit * self.p ** (self.val - vmin)
             + other.unit * self.p ** (other.val - vmin)) % m
        if v == 0:
            return PAdicApprox(self.p, vmin + known, 0, 0)
        e = 0
        while v % self.p == 0:
            v //= self.p
            e += 1
        return PAdicApprox(self.p, vmin + e, v % self.p ** (known - e), known - e)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def inverse(self):
        if self.exact_zero or self.known_zero_to_precision:
            raise ZeroDivisionError("cannot invert a (known-)zero approximation")
        m = self.p ** self.prec
        return PAdicApprox(self.p, -self.val, inv_mod(self.unit, m), self.prec)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def _coerce(self, other):
        if isinstance(other, PAdicApprox):
            if other.p != self.p:
                raise ValueError("mismatched primes")
            return other
        return PAdicApprox.from_rational(other, self.p, max(self.prec, 1))

    def residue(self, k: int) -> int:
        """Integer value mod p^k.  Requires nonnegative valuation and enough
        known digits."""
        if self.exact_zero:
            return 0
        if self.val < 0:
            raise ValueError("negative valuation: not a p-adic integer")
        if self.known_zero_to_precision:
            if self.val < k:
                raise ValueError("insufficient precision for residue")
            return 0
        if self.val + self.prec < k:
            raise ValueError("insufficient precision for residue")
        return self.unit * self.p ** self.val % self.p ** k


def _sqrt_unit_mod_2k(u: int, k: int) -> int:
    """Square root of u = 1 mod 8 to modulus 2^k, canonical branch = 1 mod 4."""
    s = 1
    for n in range(3, k):
        if (s * s - u) % (1 << (n + 1)):
            s += 1 << (n - 1)
    return s % (1 << k)


def _sqrt_unit_mod_pk(u: int, p: int, k: int) -> int:
    """Square root of a unit square mod p^k (odd p), smallest base residue."""
    # Tonelli-Shanks mod p
    if p % 4 == 3:
        s = pow(u % p, (p + 1) // 4, p)
    else:
        q, e = p - 1, 0
        while q % 2 == 0:
            q //= 2
            e += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        m, c, t, s = e, pow(z, q, p), pow(u % p, q, p), pow(u % p, (q + 1) // 2, p)
        while t != 1:
            i, tt = 0, t
            while tt != 1:
                tt = tt * tt % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t, s = t * c % p, s * b % p
    s = min(s, p - s)
    # Hensel lifting, doubling precision
    n = 1
    while n < k:
        n = min(2 * n, k)
        m = p ** n
        s = (s + u * inv_mod(s, m)) * inv_mod(2, m) % m
    return s


def sqrt_padic(r, p: int, precision: int) -> PAdicApprox:
    """A canonical square root of r in Q_p with val(s^2 - r) >= precision + val(r).

    If r is an exact rational square the exact nonnegative root is returned.
    Otherwise the branch is pinned by the base residue: the smaller of the two
    base solutions mod p (mod 8 for p = 2).
    """
    r = Fraction(r)
    _check_padic_args(p, precision)
    if r == 0:
        raise ValueError("r must be nonzero")
    if not is_square_padic(r, p, precision):
        raise ValueError(f"{r} is not a square in Q_{p}")
    if is_rational_square(r):
        s = Fraction(isqrt(r.numerator), isqrt(r.denominator))
        return PAdicApprox.from_rational(s, p, precision + 3)
    v = frac_valuation(r, p)
    k = precision + 3
    m = p ** k
    # unit part of r as a residue: (num/p^a) * (den/p^b)^-1 mod p^k
    num_u = unit_part(r.numerator, p) % m
    den_u = unit_part(r.denominator, p) % m
    u = num_u * inv_mod(den_u, m) % m
    if p == 2:
        su = _sqrt_unit_mod_2k(u * den_u * den_u % m, k) * inv_mod(den_u, m) % m
    else:
        su = _sqrt_unit_mod_pk(u * den_u * den_u % m, p, k) * inv_mod(den_u, m) % m
    # canonical branch: smaller base residue (mod 8 for p = 2, mod p otherwise)
    if p == 2:
        if su % 8 > 8 - su % 8:
            su = (m - su) % m
        return PAdicApprox(p, v // 2, su % (m // 2), k - 1)
    if su % p > p - su % p:
        su = (m - su) % m
    return PAdicApprox(p, v // 2, su, k)
