"""The commensurability index [Gamma : Gamma cap h Gamma h^-1] in closed form.

The index is a product of local factors, one per prime p, each read off the
local elementary divisors of the conjugator h.  When they are p^m and
p^(m + n) the factor is psi(p^n) = (p + 1) p^(n - 1) (1 for n = 0): the
number of vertices at distance n from the standard vertex of the
Bruhat-Tits tree of SL2(Q_p), on which SL2(Z_p) acts transitively (Serre,
Trees, 1980, II.1).  Both directions of the index agree, since conjugation
preserves Haar measure on SL2(Q_p).

- Rational h: scale h to its primitive integral multiple M.  The
  elementary divisors are 1 and N = |det M|, so the index is psi(N)
  (Shimura 1971, 3.1).
- Quaternionic h in (a, b): at 2 the exponent comes from the 2-adic
  splitting, whose entries have minimum valuation m, read off integer
  residues, so
  n_2 = v_2(nrd h) - 2m.  At an odd p dividing nrd h but not ab the
  standard order is maximal with Z_p-basis 1, i, j, k, and m is the minimum
  valuation of the coordinates.  At a ramified p dividing ab once the order
  is maximal and its norm-one group is normal in B_p^x, so the factor is 1.
  Any other odd p dividing nrd h is rejected.  The algebra is split at
  infinity, so by strong approximation the product of the local factors is
  the global index (Vigneras 1980, III.4).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm

from .exact import is_square_padic
from .mat2 import mat_det
from .util import frac_valuation, odd_prime_factors, valuation


class Conjugator(namedtuple("Conjugator", "rows quaternion", defaults=(None, None))):
    """Invertible conjugating element: a 2x2 rational matrix, or a
    quaternion x/2^t whose index the local factors above can decide, held
    as (algebra, x, t) with x integral."""

    __slots__ = ()

    @staticmethod
    def from_rows(rows) -> "Conjugator":
        rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("expected a 2x2 matrix")
        if mat_det(rows) == 0:
            raise ValueError("conjugator must be invertible")
        return Conjugator(rows=rows)

    @staticmethod
    def from_quaternion(algebra, coords) -> "Conjugator":
        """The quaternion of algebra with the rational coordinates coords."""
        from .quatalg import hilbert_symbol  # imported here, so a rational h loads no quatalg
        coords = [Fraction(c) for c in coords]
        den = lcm(*(c.denominator for c in coords))
        if den & (den - 1):
            raise ValueError("quaternionic conjugator has a denominator away from 2")
        x = tuple(c.numerator * (den // c.denominator) for c in coords)
        n = algebra.nrd(x)  # nrd(h) times den^2
        if n == 0:
            raise ValueError("conjugator must be invertible")
        a, b = algebra.a, algebra.b
        if not is_square_padic(a, 2):
            raise ValueError("a is not a 2-adic square, so the algebra has "
                             "no diagonal splitting at 2")
        for p in odd_prime_factors(n.numerator):
            v = frac_valuation(a * b, p)
            if v and not (v == 1 and hilbert_symbol(a, b, p) == -1):
                raise ValueError(f"the standard order is not maximal at {p}, "
                                 "which divides nrd(h)")
        return Conjugator(quaternion=(algebra, x, den.bit_length() - 1))


def psi(p: int, n: int) -> int:
    """psi(p^n): the size of the radius-n sphere of the Bruhat-Tits tree."""
    return 1 if n == 0 else (p + 1) * p ** (n - 1)


class IndexResult(namedtuple("IndexResult", "factors matrix", defaults=(None,))):
    """Local factors as (p, n_p, read) triples, ascending in p; read holds
    the (name, value) pairs n_p was computed from.  matrix is the primitive
    integral multiple of a rational h."""

    __slots__ = ()

    @property
    def modulus(self) -> int:
        """N = prod p^n_p: the level at which the local conditions live."""
        m = 1
        for p, n, _read in self.factors:
            m *= p ** n
        return m

    @property
    def index(self) -> int:
        i = 1
        for p, n, _read in self.factors:
            i *= psi(p, n)
        return i


def sl2z_case(rows) -> IndexResult:
    """psi(|det M|) for M the primitive integral multiple of rows."""
    rows = Conjugator.from_rows(rows).rows
    den = lcm(*(x.denominator for row in rows for x in row))
    ints = [int(x * den) for row in rows for x in row]
    g = gcd(*ints)
    M = ((ints[0] // g, ints[1] // g), (ints[2] // g, ints[3] // g))
    N = abs(mat_det(M))
    primes = ([2] if N % 2 == 0 else []) + odd_prime_factors(N)
    return IndexResult(tuple((p, valuation(N, p), ()) for p in primes), M)


def _quaternion_case(algebra, x, t) -> IndexResult:
    from .quatalg import split_2adic  # see from_quaternion
    a, b = algebra.a, algebra.b
    n = algebra.nrd(x)  # nrd(h) times 4^t
    v = frac_valuation(n, 2) - 2 * t
    # x = 2^t h has nrd of valuation v + 2t, so some entry of its image has
    # valuation at most v + 2t; read mod 2^(v + 2t + 1), each such entry is
    # nonzero with exact trailing zeros
    entries = split_2adic(algebra).residues(x, v + 2 * t + 1)
    m = min((e & -e).bit_length() - 1 for e in entries if e) - t
    factors = [(2, v - 2 * m, (("nrd_valuation", v), ("min_entry_valuation", m)))]
    for p in odd_prime_factors(n.numerator):
        vp = valuation(n.numerator, p)
        if frac_valuation(a * b, p):
            # from_quaternion admits this p only when ramified, where the
            # norm-one group of the maximal order is normal
            factors.append((p, 0, (("nrd_valuation", vp), ("ramified", True))))
            continue
        mp = min(valuation(c, p) for c in x if c)
        factors.append((p, vp - 2 * mp,
                        (("nrd_valuation", vp), ("min_coordinate_valuation", mp))))
    return IndexResult(tuple(factors))


def local_intersection(h: Conjugator) -> IndexResult:
    """The index for either kind of conjugator, as a product of local
    factors (see the module docstring)."""
    if h.rows is not None:
        return sl2z_case(h.rows)
    return _quaternion_case(*h.quaternion)
