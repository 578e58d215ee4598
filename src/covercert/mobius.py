"""Mobius transformations over Q and bounded-degree invariant function search.

A rational function f = P/Q in lowest terms is invariant under a Mobius map g
exactly when P and Q are semi-invariant for the substitution action on binary
forms, with the same multiplier: P(gv)Q(v) = P(v)Q(gv) and gcd(P,Q) = 1 force
P(gv) = lam P(v) and Q(gv) = lam Q(v).  The search takes involutions only:
for g with g^2 = mu * id as a matrix, lam^2 = mu^d on degree-d forms, and lam
is rational because P, g are; so listing the rational square roots of mu^d and
intersecting eigenspaces over all generators is a complete search in each
degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from math import gcd, isqrt

from .mat2 import mat_adj, mat_mul
from .util import is_rational_square

INFINITE_ORDER = "infinite"


@dataclass(frozen=True)
class MobiusMap:
    """x -> (px + q)/(rx + s), kept as the matrix [[p,q],[r,s]] with the
    first nonzero entry normalized to 1 (unique per projective class)."""

    rows: tuple

    @staticmethod
    def from_rows(rows) -> "MobiusMap":
        rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("expected a 2x2 matrix")
        (p, q), (r, s) = rows
        if p * s - q * r == 0:
            raise ValueError("matrix is singular")
        lead = next(x for x in (p, q, r, s) if x != 0)
        return MobiusMap(((p / lead, q / lead), (r / lead, s / lead)))

    @staticmethod
    def identity() -> "MobiusMap":
        return MobiusMap.from_rows(((1, 0), (0, 1)))

    @staticmethod
    def sigma() -> "MobiusMap":
        """x -> 1/x."""
        return MobiusMap.from_rows(((0, 1), (1, 0)))

    @staticmethod
    def sigma_a(a) -> "MobiusMap":
        """x -> a/x; a = 0 is rejected (not invertible)."""
        return MobiusMap.from_rows(((0, a), (1, 0)))

    def is_identity(self) -> bool:
        return self.rows == ((1, 0), (0, 1))

    def determinant(self) -> Fraction:
        (p, q), (r, s) = self.rows
        return p * s - q * r

    def trace(self) -> Fraction:
        return self.rows[0][0] + self.rows[1][1]

    def apply(self, x):
        (p, q), (r, s) = self.rows
        x = Fraction(x)
        if r * x + s == 0:
            raise ZeroDivisionError("pole of the transformation")
        return (p * x + q) / (r * x + s)

    def inverse(self) -> "MobiusMap":
        return MobiusMap.from_rows(mat_adj(self.rows))


def compose(g1: MobiusMap, g2: MobiusMap) -> MobiusMap:
    return MobiusMap.from_rows(mat_mul(g1.rows, g2.rows))


def commutator(g1: MobiusMap, g2: MobiusMap) -> MobiusMap:
    return compose(compose(g1, g2), compose(g1.inverse(), g2.inverse()))


def finite_order(g: MobiusMap, n_max: int = 24):
    """Smallest n with g^n = id, or INFINITE_ORDER.

    The power scan is backed by an exact criterion: the eigenvalue ratio of
    the matrix is a root of unity only if tr^2/det lies in {0,1,2,3,4}, the
    rational values of 4cos^2(pi/n); those force order 2, 3, 4 or 6 (or a
    parabolic at the value 4), all inside the scan range.
    """
    if n_max < 12:
        raise ValueError("n_max below 12 cannot certify infinite order")
    if g.is_identity():
        return 1
    power = g
    for n in range(2, n_max + 1):
        power = compose(power, g)
        if power.is_identity():
            return n
    r = g.trace() ** 2 / g.determinant()
    if r == 4:
        return INFINITE_ORDER  # parabolic, not scalar
    # rational elliptic orders are 2,3,4,6 and the scan covered them
    assert r not in (0, 1, 2, 3), "power scan missed a finite order"
    return INFINITE_ORDER


def _poly_mul(u, v):
    out = [Fraction(0)] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                out[i + j] += ui * vj
    return tuple(out)


def _substitution_matrix(g: MobiusMap, d: int):
    """Matrix of P(v) -> P(gv) on coefficient vectors (c_0..c_d),
    P = sum c_i x^(d-i) y^i."""
    (p, q), (r, s) = g.rows
    top, bot = (p, q), (r, s)
    cols = []
    for j in range(d + 1):
        col = (Fraction(1),)
        for _ in range(d - j):
            col = _poly_mul(col, top)
        for _ in range(j):
            col = _poly_mul(col, bot)
        cols.append(col)
    return tuple(tuple(cols[j][i] for j in range(d + 1)) for i in range(d + 1))


def _rref(rows):
    rows = [list(r) for r in rows]
    pivots = []
    lead = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(lead, len(rows)) if rows[i][col] != 0),
                     None)
        if pivot is None:
            continue
        rows[lead], rows[pivot] = rows[pivot], rows[lead]
        inv = 1 / rows[lead][col]
        rows[lead] = [x * inv for x in rows[lead]]
        for i in range(len(rows)):
            if i != lead and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[lead])]
        pivots.append(col)
        lead += 1
        if lead == len(rows):
            break
    return rows, pivots


def _nullspace(rows):
    """Canonical basis: one vector per free column, that coordinate set to 1."""
    if not rows:
        return []
    reduced, pivots = _rref(rows)
    ncols = len(rows[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -reduced[i][f]
        basis.append(tuple(v))
    return basis


def _primitive(vec):
    """Scale to coprime integers with positive leading coefficient."""
    den = 1
    for x in vec:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, x)
    ints = [x // g for x in ints]
    lead = next(x for x in ints if x)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def _mat_mul_n(A, B):
    """Square matrix product over the nonzero entries of A only; the
    substitution operators of x -> c/x are antidiagonal, so their squares
    cost O(n^2), not O(n^3)."""
    out = []
    for row in A:
        acc = [Fraction(0)] * len(row)
        for k, x in enumerate(row):
            if x:
                for j, y in enumerate(B[k]):
                    acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


@dataclass(frozen=True)
class BinaryFormSpace:
    """Substitution operators of a generator tuple on degree-d binary forms."""

    degree: int
    generators: tuple
    operators: tuple

    @staticmethod
    def build(generators, d: int) -> "BinaryFormSpace":
        generators = tuple(generators)
        ops = tuple(_substitution_matrix(g, d) for g in generators)
        for g, U in zip(generators, ops):
            _, pivots = _rref(U)
            if len(pivots) != d + 1:
                raise AssertionError("substitution operator not invertible")
            if finite_order(g) == 2:
                sq = _mat_mul_n(U, U)
                if any(sq[i][j] != (sq[0][0] if i == j else 0)
                       for i in range(d + 1) for j in range(d + 1)):
                    raise AssertionError("involution operator square not scalar")
        return BinaryFormSpace(d, generators, ops)

    def apply(self, which: int, coeffs):
        """U coeffs over U's nonzero entries; coeffs needs degree + 1 entries."""
        if len(coeffs) != self.degree + 1:
            raise ValueError(f"a degree-{self.degree} form needs {self.degree + 1} coefficients")
        return tuple(sum(x * c for x, c in zip(row, coeffs) if x) for row in self.operators[which])


@dataclass(frozen=True)
class InvariantFunction:
    """Ratio of two independent degree-d forms with a common multiplier
    character; the dehomogenized quotient is fixed by every generator."""

    degree: int
    numerator: tuple
    denominator: tuple
    character: tuple

    def dehomogenized(self) -> str:
        return f"({_form_str(self.numerator)}) / ({_form_str(self.denominator)})"

    def is_nonconstant(self) -> bool:
        """P/Q is a constant exactly when the forms P and Q are dependent."""
        P, Q = self.numerator, self.denominator
        return any(P[i] * Q[j] != P[j] * Q[i] for i in range(len(P)) for j in range(i + 1, len(P)))


def _form_str(coeffs) -> str:
    d = len(coeffs) - 1
    terms = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        xp, yp = d - i, i
        body = "*".join([p for p, e in (("x", xp), ("y", yp)) if e == 1]
                        + [f"{p}^{e}" for p, e in (("x", xp), ("y", yp)) if e > 1])
        if not body:
            terms.append(str(c))
        elif c == 1:
            terms.append(body)
        elif c == -1:
            terms.append(f"-{body}")
        else:
            terms.append(f"{c}*{body}")
    return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def _multiplier_candidates(g: MobiusMap, d: int):
    """Rational lam admissible for P(gv) = lam P(v) in degree d: the square
    roots of mu^d, where the involution g's matrix squares to mu * id."""
    (mu, q), (r, s) = mat_mul(g.rows, g.rows)
    if q or r or mu != s or g.is_identity():
        raise ValueError("invariant search expects involutions")
    c = mu ** d
    if not is_rational_square(c):
        return ()
    root = Fraction(isqrt(c.numerator), isqrt(c.denominator))
    return (root, -root)


def invariant_search(generators, D: int):
    """All invariant ratios of forms of degree at most D, per character.

    Complete in each degree by the semi-invariance argument in the module
    docstring; emitted pairs are re-verified by exact polynomial identity.
    """
    generators = tuple(generators)
    if not generators:
        raise ValueError("need at least one generator")
    if D < 1:
        raise ValueError("degree bound must be positive")
    found = []
    for d in range(1, D + 1):
        space = BinaryFormSpace.build(generators, d)
        options = [_multiplier_candidates(g, d) for g in generators]
        if any(not opt for opt in options):
            continue
        for character in iter_product(*options):
            rows = []
            for U, lam in zip(space.operators, character):
                for i in range(d + 1):
                    rows.append(tuple(U[i][j] - (lam if i == j else 0)
                                      for j in range(d + 1)))
            basis = [_primitive(v) for v in _nullspace(rows)]
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    func = InvariantFunction(d, basis[i], basis[j], character)
                    if not _fixed_by(func, space):
                        raise AssertionError("emitted ratio fails verification")
                    found.append(func)
    return found


def _fixed_by(func: InvariantFunction, space: BinaryFormSpace) -> bool:
    """Exact identities P(gv) = lam P(v) and Q(gv) = lam Q(v) for every
    operator g of space, lam being the function's character at g; they
    imply P(gv)Q(v) = P(v)Q(gv), so g fixes P/Q."""
    if len(func.character) != len(space.generators):
        return False
    for which, lam in enumerate(func.character):
        for form in (func.numerator, func.denominator):
            if space.apply(which, tuple(Fraction(c) for c in form)) != tuple(lam * c for c in form):
                return False
    return True
