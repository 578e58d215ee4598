"""Matrices over a real quadratic field, which only the tests build, and
the alphabet of the breadth-first elliptic word search, which the tests
keep as an independent cross-check of the trace claim: T, U, h and their
inverses as single-letter words, and the helpers that build and check
words over it."""

from fractions import Fraction

from covercert.fuchsian import WordElement, is_infinite_elliptic_trace
from covercert.mat2 import mat_adj, mat_det, mat_mul, mat_tr
from covercert.util import is_perfect_square


class RealQuadElem:
    """u + v*sqrt(d) with exact rational u, v; d a positive non-square."""

    __slots__ = ("d", "u", "v")

    def __init__(self, d: int, u, v):
        if d <= 0 or is_perfect_square(d):
            raise ValueError("d must be positive and not a square")
        self.d, self.u, self.v = d, Fraction(u), Fraction(v)

    def _coerce(self, other):
        if isinstance(other, RealQuadElem):
            if other.d != self.d:
                raise ValueError("mixed quadratic fields")
            return other
        return RealQuadElem(self.d, Fraction(other), 0)

    def __add__(self, other):
        other = self._coerce(other)
        return RealQuadElem(self.d, self.u + other.u, self.v + other.v)

    def __radd__(self, other):
        return self + other

    def __neg__(self):
        return RealQuadElem(self.d, -self.u, -self.v)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        return RealQuadElem(self.d, self.u * other.u + self.d * self.v * other.v,
                            self.u * other.v + self.v * other.u)

    def __rmul__(self, other):
        return self * other

    def __rtruediv__(self, other):
        return self.inverse() * other

    def norm(self) -> Fraction:
        return self.u * self.u - self.d * self.v * self.v

    def inverse(self) -> "RealQuadElem":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero has no inverse")
        return RealQuadElem(self.d, self.u / n, -self.v / n)

    def sign(self) -> int:
        """Exact sign of the real number u + v*sqrt(d)."""
        if self.v == 0:
            return 0 if self.u == 0 else (1 if self.u > 0 else -1)
        if self.u == 0:
            return 1 if self.v > 0 else -1
        if self.u > 0 and self.v > 0:
            return 1
        if self.u < 0 and self.v < 0:
            return -1
        # opposite signs: compare u^2 with d v^2, the larger magnitude wins
        big_u = self.u * self.u > self.d * self.v * self.v
        return (1 if self.u > 0 else -1) if big_u else (1 if self.v > 0 else -1)

    def __eq__(self, other):
        other = self._coerce(other)
        return self.u == other.u and self.v == other.v

    def __hash__(self):
        return hash((self.d, self.u, self.v))

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self


def quad(d: int, u, v=0) -> RealQuadElem:
    return RealQuadElem(d, Fraction(u), Fraction(v))


def real_embed(q):
    """Image of the quaternion q under i -> diag(sqrt(a), -sqrt(a)), j -> [[0,1],[b,0]].

    Exact over Q(sqrt(a)); the determinant is nrd(q).  Needs a to be a
    positive non-square integer so the target field is real quadratic.
    """
    a, b = q.algebra.a, q.algebra.b
    if a <= 0 or a.denominator != 1 or is_perfect_square(int(a)):
        raise ValueError("algebra does not split over a real quadratic field")
    d = int(a)
    x0, x1, x2, x3 = q.coords()
    return ((quad(d, x0, x1), quad(d, x2, x3)),
            (quad(d, b * x2, -b * x3), quad(d, x0, -x1)))


def mat_scale(s, A):
    (a, b), (c, d) = A
    return ((s * a, s * b), (s * c, s * d))


def seed(label: str, matrix) -> WordElement:
    """The single-letter word label spelling matrix."""
    return WordElement((label,), tuple(tuple(row) for row in matrix))


def lift_rational_matrix(rows, d: int):
    """2x2 rational matrix as a matrix over Q(sqrt(d))."""
    return tuple(tuple(quad(d, x) for x in row) for row in rows)


def verify_elliptic(cert, seeds) -> bool:
    """Re-multiply the word from the seed alphabet and re-test every
    exclusion; certificates must survive this from scratch."""
    table = {s.word[0]: s.matrix for s in seeds}
    m = table[cert.word[0]]
    for label in cert.word[1:]:
        m = mat_mul(m, table[label])
    if m != cert.matrix:
        return False
    return mat_det(m) == 1 and is_infinite_elliptic_trace(mat_tr(m))


def word_seeds(h_rows):
    T = ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1)))
    U = ((Fraction(1), Fraction(0)), (Fraction(1), Fraction(1)))
    seeds = []
    for label, rows in [("T", T), ("U", U), ("h", h_rows)]:
        inv = mat_scale(Fraction(1) / mat_det(rows), mat_adj(rows))
        seeds.append(seed(label, rows))
        seeds.append(seed(f"{label}^-1", inv))
    return seeds
