"""Non-discreteness certificates from exact arithmetic over Q or a real quadratic field.

Both pipelines certify that <Gamma, h Gamma h^-1> is not discrete by a pair
X, Y in Gamma whose trace tr(X h Y h^-1) is not an algebraic integer, which
find_nonintegral_trace finds over a basis of real matrices.  The elliptic
word search and Jorgensen's inequality |tr^2 A - 4| + |tr[A,B] - 2| >= 1 are
independent cross-checks that no pipeline calls.  Matrix entries are
Fractions or RealQuadElem values of one Q(sqrt(d)), and every sign test is
exact; no floating point anywhere.
"""

from __future__ import annotations

from collections import deque, namedtuple
from fractions import Fraction
from math import lcm

from .mat2 import mat_adj, mat_det, mat_mul, mat_scale, mat_tr
from .util import is_perfect_square

NOT_FOUND = "not found"

VIOLATION = "violation"
NO_VIOLATION = "no-violation"
INCONCLUSIVE = "inconclusive"


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


def quaternion_basis(algebra):
    """real_embed of 1, i, j, k, the basis a quaternion's coordinates refer to."""
    return [real_embed(algebra.element(*(int(k == m) for k in range(4)))) for m in range(4)]


def is_algebraic_integer(t) -> bool:
    """A rational is an algebraic integer iff it is an integer; p + q*sqrt(d)
    is a root of x^2 - 2p x + (p^2 - d q^2), so it is one iff 2p and
    p^2 - d q^2 are integers."""
    if isinstance(t, RealQuadElem):
        return (2 * t.u).denominator == 1 and t.norm().denominator == 1
    return Fraction(t).denominator == 1


def _combine(basis, v):
    """The matrix with coordinate vector v in basis."""
    return tuple(tuple(sum(x * B[r][c] for x, B in zip(v, basis)) for c in range(2)) for r in range(2))


def pair_trace(H, basis, u, v):
    """tr(X H Y H^-1) for the real matrix H, where X and Y have the
    coordinate vectors u and v in basis."""
    H_inv = mat_scale(Fraction(1) / mat_det(H), mat_adj(H))
    return mat_tr(mat_mul(mat_mul(mat_mul(_combine(basis, u), H), _combine(basis, v)), H_inv))


def find_nonintegral_trace(H, basis, vectors):
    """The first pair u, v of integer coordinate vectors, at indices i, j
    in shells max(i, j) = n, whose pair_trace t in the four-matrix basis is
    not an algebraic integer, as (u, v, t); or None.  t is bilinear in the
    vectors u, v: t = (uPv + uQv sqrt(d)) / D with integer matrices P, Q
    read once off the basis (Q = 0 over Q), so each pair costs two integer
    dot products, and a witness in shell n at most (n + 1)^2 of them.
    vectors is any iterable, read only up to the witness.  If every entry
    of the form is integral, so is every trace, and no vector is read.
    """
    H_inv = mat_scale(Fraction(1) / mat_det(H), mat_adj(H))
    conjugates = [mat_mul(mat_mul(H, E), H_inv) for E in basis]  # H E_b H^-1, formed once per b
    # entry 4a + b is tr(E_a C_b), read off the entries of E_a and C_b
    form = [sum(E[r][c] * C[c][r] for r in range(2) for c in range(2)) for E in basis for C in conjugates]
    if all(is_algebraic_integer(t) for t in form):
        return None
    parts = [(t.u, t.v, t.d) if isinstance(t, RealQuadElem) else (Fraction(t), Fraction(0), 0) for t in form]
    d, D = parts[0][2], lcm(*(x.denominator for u, v, _ in parts for x in (u, v)))
    P, Q = [int(u * D) for u, _, _ in parts], [int(v * D) for _, v, _ in parts]
    read = []  # per vector read so far: its coordinates, P v and Q v
    for n, coords in enumerate(vectors):
        if any(c.denominator != 1 for c in coords):
            raise ValueError("units need integral coordinates")
        v = [int(c) for c in coords]
        Pv, Qv = ([sum(M[4 * a + b] * v[b] for b in range(4)) for a in range(4)] for M in (P, Q))
        read.append((v, Pv, Qv))
        for i, j in [(i, n) for i in range(n + 1)] + [(n, j) for j in range(n)]:
            (u0, u1, u2, u3), (_, (p0, p1, p2, p3), (q0, q1, q2, q3)) = read[i][0], read[j]
            p = u0 * p0 + u1 * p1 + u2 * p2 + u3 * p3
            q = u0 * q0 + u1 * q1 + u2 * q2 + u3 * q3
            if 2 * p % D or (p * p - d * q * q) % (D * D):
                return tuple(read[i][0]), tuple(read[j][0]), Fraction(p, D) if d == 0 else quad(d, Fraction(p, D), Fraction(q, D))
    return None


class WordElement(namedtuple("WordElement", "word matrix")):
    """A product of generator images, remembering its spelling."""

    __slots__ = ()

    def extend(self, label: str, rows) -> "WordElement":
        return WordElement(self.word + (label,), mat_mul(self.matrix, rows))

    @property
    def trace(self):
        return mat_tr(self.matrix)

    @property
    def determinant(self):
        return mat_det(self.matrix)


def is_infinite_elliptic_trace(t) -> bool:
    """Trace test for an infinite-order elliptic in PSL2(R), det 1; t is a
    Fraction or a RealQuadElem.

    Elliptic needs -2 < t < 2.  Finite order would force t = 2cos(pi q/n)
    algebraic of degree at most 2, i.e. one of 0, +-1 (orders 2,3,4,6 in
    PSL), t^2 in {2, 3} (orders 8, 12) or t^2 -+ t - 1 = 0 (orders 5, 10);
    excluding all of those leaves an irrational rotation angle.
    """
    if not (-2 < t < 2):
        return False
    if t == 0 or t == 1 or t == -1:
        return False
    t2 = t * t
    if t2 == 2 or t2 == 3:
        return False
    if t2 - t - 1 == 0 or t2 + t - 1 == 0:
        return False
    return True


# trace is a Fraction or a RealQuadElem, like the matrix entries
EllipticCertificate = namedtuple("EllipticCertificate", "word matrix trace")


def find_infinite_elliptic(seeds, max_len: int, state_cap: int = 200000):
    """Breadth-first word search for a det-1 infinite-order elliptic.

    seeds are single-letter WordElements; words grow on the right in seed
    order, so the first hit is shortest and lexicographically least.  The
    alphabet should be closed under inverses or the search is one-sided.
    Returns an EllipticCertificate or NOT_FOUND.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    if max_len < 1:
        raise ValueError("max_len must be positive")
    frontier = deque()
    seen = set()
    for s in seeds:
        if len(s.word) != 1:
            raise ValueError("seeds must be single-letter words")
        frontier.append(s)
        seen.add(s.matrix)
    states = len(seen)
    while frontier:
        w = frontier.popleft()
        if w.determinant == 1 and is_infinite_elliptic_trace(w.trace):
            return EllipticCertificate(w.word, w.matrix, w.trace)
        if len(w.word) >= max_len:
            continue
        for s in seeds:
            nxt = w.extend(s.word[0], s.matrix)
            if nxt.matrix in seen:
                continue
            seen.add(nxt.matrix)
            states += 1
            if states > state_cap:
                raise RuntimeError("word search state cap exceeded")
            frontier.append(nxt)
    return NOT_FOUND


# sum_value is |tr^2 A - 4| + |tr[A,B] - 2|; the three values are RealQuadElem
JorgensenReport = namedtuple("JorgensenReport", "sum_value trace_a commutator_trace verdict reason")


def jorgensen_violation(A: WordElement, B: WordElement) -> JorgensenReport:
    """Exact Jorgensen test for the pair (A, B), with the elementary cases
    audited rather than assumed.

    Discrete non-elementary groups satisfy sum >= 1, so sum < 1 certifies
    non-discreteness once <A,B> is known non-elementary.  With tr[A,B] != 2
    that is automatic for parabolic A (a shared fixed point would make the
    commutator parabolic or trivial) and for hyperbolic A when additionally
    tr B != 0 (axis-preserving B either fixes both endpoints, forcing
    commutator trace 2, or swaps them with trace 0).  An infinite-order
    elliptic A is non-discreteness on its own.  Anything else is reported
    as inconclusive, never upgraded.
    """
    if A.determinant != 1 or B.determinant != 1:
        raise ValueError("Jorgensen test needs determinant-one inputs")
    comm = mat_mul(mat_mul(A.matrix, B.matrix),
                   mat_mul(mat_adj(A.matrix), mat_adj(B.matrix)))
    ta, tc = mat_tr(A.matrix), mat_tr(comm)
    total = abs(ta * ta - 4) + abs(tc - 2)
    if total >= 1:
        return JorgensenReport(total, ta, tc, NO_VIOLATION,
                               "sum at least 1; no conclusion")
    if tc == 2:
        return JorgensenReport(total, ta, tc, INCONCLUSIVE,
                               "commutator trace 2: pair may be elementary")
    scalar = A.matrix[0][1] == 0 and A.matrix[1][0] == 0 \
        and A.matrix[0][0] == A.matrix[1][1]
    if ta * ta == 4 and not scalar:
        return JorgensenReport(total, ta, tc, VIOLATION,
                               "parabolic generator, commutator trace not 2")
    if is_infinite_elliptic_trace(ta):
        return JorgensenReport(total, ta, tc, VIOLATION,
                               "generator is an infinite-order elliptic")
    if ta * ta > 4 and mat_tr(B.matrix) != 0:
        return JorgensenReport(total, ta, tc, VIOLATION,
                               "hyperbolic generator, axis not preserved")
    return JorgensenReport(total, ta, tc, INCONCLUSIVE,
                           "cannot rule out an elementary pair")
