"""Rational quaternion algebras (a,b | Q).

Basis 1, i, j, k with i^2 = a, j^2 = b, ij = -ji = k.  Everything here is
exact: the reduced norm of a coordinate vector, ramification via the local
Hilbert symbol formulas, and an explicit splitting over Q_2 (when a is a
2-adic square) whose images of integer vectors over a power of 2 are read
as integer residues mod 2^k.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import count

from .exact import is_square_padic, sqrt_2adic
from .util import is_perfect_square, is_prime, is_rational_square, odd_prime_factors, valuation

INF = "inf"


class QuaternionAlgebra(namedtuple("QuaternionAlgebra", "a b")):
    __slots__ = ()

    def __new__(cls, a, b):
        a, b = Fraction(a), Fraction(b)
        if a == 0 or b == 0:
            raise ValueError("structure constants must be nonzero")
        return super().__new__(cls, a, b)

    def nrd(self, x):
        """The reduced norm x0^2 - a x1^2 - b x2^2 + a b x3^2 of
        x0 + x1 i + x2 j + x3 k."""
        x0, x1, x2, x3 = x
        return x0 * x0 - self.a * x1 * x1 - self.b * x2 * x2 + self.a * self.b * x3 * x3


def _legendre(u: int, p: int) -> int:
    t = pow(u % p, (p - 1) // 2, p)
    return -1 if t == p - 1 else t


def _square_class_int(r: Fraction) -> int:
    # num/den and num*den differ by den^2: same class at every place
    return r.numerator * r.denominator


def hilbert_symbol(a, b, place) -> int:
    """(a,b)_v = +1 iff z^2 = a x^2 + b y^2 has a nontrivial solution over
    the completion at v; v is a prime or the string "inf"."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("arguments must be nonzero")
    if place == INF:
        return -1 if (a < 0 and b < 0) else 1
    p = place
    if not is_prime(p):
        raise ValueError(f"{p} is not a prime")
    A, B = _square_class_int(a), _square_class_int(b)
    alpha, beta = valuation(A, p), valuation(B, p)
    u = A // p ** alpha
    v = B // p ** beta
    if p == 2:
        eps = ((u - 1) // 2) * ((v - 1) // 2)
        omega_u = (u * u - 1) // 8
        omega_v = (v * v - 1) // 8
        e = eps + alpha * omega_v + beta * omega_u
        return -1 if e % 2 else 1
    sign = 1
    if alpha % 2 and beta % 2:
        sign *= _legendre(-1, p)
    if beta % 2:
        sign *= _legendre(u, p)
    if alpha % 2:
        sign *= _legendre(v, p)
    return sign


def symbol_table(a, b):
    """[(place, (a,b)_place)] at 2, the odd primes of the square classes of
    a and b ascending, then "inf".

    Only these places can ramify: at any odd p dividing neither numerator
    nor denominator of a and b both valuations vanish and the symbol is +1.
    """
    a, b = Fraction(a), Fraction(b)
    odd = set()
    for r in (a, b):
        odd.update(odd_prime_factors(abs(_square_class_int(r))))
    return [(v, hilbert_symbol(a, b, v)) for v in (2, *sorted(odd), INF)]


def ramified_places(D: QuaternionAlgebra):
    """The places of symbol_table with symbol -1; primes ascending, "inf"
    last.  The product formula is asserted as a self-check."""
    ram = [v for v, s in symbol_table(D.a, D.b) if s == -1]
    assert len(ram) % 2 == 0, "Hilbert product formula violated"
    return ram


def is_division(D: QuaternionAlgebra) -> bool:
    return bool(ramified_places(D))


def quadratic_embeds(D: QuaternionAlgebra, e) -> bool:
    """Whether Q(sqrt(e)) embeds into D.

    For a division algebra this holds iff e is a non-square in the completion
    at every ramified place (at "inf": e < 0, so that the completion of the
    field is C).  A split algebra is M_2(Q) and admits every quadratic field.
    """
    e = Fraction(e)
    if e == 0 or is_rational_square(e):
        raise ValueError("e must generate a quadratic field")
    for v in ramified_places(D):
        if v == INF:
            if e > 0:
                return False
        elif is_square_padic(e, v):
            return False
    return True


def find_example_algebra(d: int) -> QuaternionAlgebra:
    """Scan odd b = 3, 5, 7, ... for the smallest b making (d, b) a division
    algebra, unramified at 2 and at infinity, admitting neither sqrt(-1)
    nor sqrt(-3); d must be a non-square 2-adic square.  The scan ends by
    the least prime q = 1 mod 12 with (d/q) = -1: (d, q)_q = -1, (d, q)_2 = 1
    as d is a 2-adic square, (d, q)_inf = 1 as q > 0, and -1 and -3 are
    squares in Q_q, so neither embeds (Vigneras 1980).  Such q exist by
    Dirichlet: the square-free part s of d is 1 mod 8 and not 1, so (d/q) =
    (q/|s|) is a non-trivial character on the primes q = 1 mod 12."""
    if is_perfect_square(d):
        raise ValueError("d must not be a perfect square")
    if not is_square_padic(d, 2):
        raise ValueError("d must be a 2-adic square")
    for b in count(3, 2):
        D = QuaternionAlgebra(d, b)
        ram = ramified_places(D)
        if not ram or 2 in ram or INF in ram:
            continue
        if quadratic_embeds(D, -1) or quadratic_embeds(D, -3):
            continue
        return D


class SplittingMap:
    """Embedding of the algebra into 2x2 matrices over Z_2, read mod 2^k.

    i maps to diag(s, -s) with s the canonical 2-adic square root of a
    (exact.sqrt_2adic) and j to [[0, 1], [b, 0]]; then
    q = x0 + x1 i + x2 j + x3 k goes to
    [[x0 + s x1, x2 + s x3], [b (x2 - s x3), x0 - s x1]] and det = nrd(q).
    j^2 = b and ij = -ji hold for these matrices identically, so the only
    relation to check is i^2 = a, that is s^2 = a, asserted for every root
    the map computes.  roots caches s mod 2^n by n.
    """

    __slots__ = ("algebra", "b", "roots")

    def __init__(self, algebra: QuaternionAlgebra, b: int):
        self.algebra, self.b, self.roots = algebra, b, {}

    def _root(self, n: int) -> int:
        s = self.roots.get(n)
        if s is None:
            s = sqrt_2adic(self.algebra.a, n)
            assert (s * s - self.algebra.a) % (1 << n) == 0, "s^2 = a fails"
            self.roots[n] = s
        return s

    def residues(self, x, k: int, scale: int = 1):
        """The entries (a, b, c, d) of the image of x/scale mod 2^k,
        row-major, for integer numerators x and scale = 2^t: the image of x
        is computed mod 2^(k+t) and divided by the scale.  Raises ValueError
        unless that image is integral at 2.
        """
        t = scale.bit_length() - 1
        x0, x1, x2, x3 = x
        s = self._root(k + t)
        mask = (1 << (k + t)) - 1
        entries = ((x0 + s * x1) & mask, (x2 + s * x3) & mask,
                   self.b * (x2 - s * x3) & mask, (x0 - s * x1) & mask)
        if any(e & (scale - 1) for e in entries):
            raise ValueError("the image is not integral at 2")
        return tuple(e >> t for e in entries)


def split_2adic(D: QuaternionAlgebra) -> SplittingMap:
    if hilbert_symbol(D.a, D.b, 2) != 1:
        raise ValueError("algebra is ramified at 2; no splitting exists")
    if not is_square_padic(D.a, 2):
        raise ValueError("a is not a 2-adic square; this construction "
                         "requires the diagonal form of i")
    if D.a.denominator != 1 or D.b.denominator != 1:
        raise ValueError("the splitting needs integral structure constants")
    return SplittingMap(D, int(D.b))
