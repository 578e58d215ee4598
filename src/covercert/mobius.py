"""Mobius transformations over Q and bounded-degree invariant function search.

A rational function f = P/Q in lowest terms is invariant under a Mobius map g
exactly when P and Q are semi-invariant for the substitution action on binary
forms, with the same multiplier: P(gv)Q(v) = P(v)Q(gv) and gcd(P,Q) = 1 force
P(gv) = lam P(v) and Q(gv) = lam Q(v).  So the invariants of degree d are the
ratios of two independent forms in one common eigenspace of the generators.

The search takes the involutions x -> c/x only, the maps 1/x and a/x of the
dihedral pipeline.  With normalized rows [[0, 1], [1/c, 0]], x -> c/x sends
the coefficient p_i of x^(d-i) y^i to c^-(d-i) p_(d-i): it only swaps the
index i with d - i, so it squares to c^-d, and its rational multipliers are
the rational square roots of c^-d.  Each common eigenspace is then read off
the index pairs (i, d - i) in closed form (see invariant_search), which makes
the search complete in each degree.  The search checks each form it
emits through this one action, _act.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations, product as iter_product
from math import gcd, isqrt, lcm

from .mat2 import mat_adj, mat_mul
from .util import is_rational_square

INFINITE_ORDER = "infinite"


class MobiusMap(namedtuple("MobiusMap", "rows")):
    """x -> (px + q)/(rx + s), kept as the matrix [[p,q],[r,s]] with the
    first nonzero entry normalized to 1 (unique per projective class)."""

    __slots__ = ()

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

    def inverse(self) -> "MobiusMap":
        return MobiusMap.from_rows(mat_adj(self.rows))


def compose(g1: MobiusMap, g2: MobiusMap) -> MobiusMap:
    return MobiusMap.from_rows(mat_mul(g1.rows, g2.rows))


def commutator(g1: MobiusMap, g2: MobiusMap) -> MobiusMap:
    return compose(compose(g1, g2), compose(g1.inverse(), g2.inverse()))


# tr^2/det of a map of finite order n > 1 -> n (see finite_order)
_ORDER_BY_TRACE = {0: 2, 1: 3, 2: 4, 3: 6}


def finite_order(g: MobiusMap):
    """Smallest n with g^n = id, or INFINITE_ORDER.

    Read off r = tr^2/det, which does not depend on the scaling of the
    matrix.  Away from the identity the eigenvalue ratio z satisfies
    z + 1/z = r - 2, and g^n = id exactly when z^n = 1.  A root of unity z
    of order n keeps z + 1/z = 2cos(2 pi k/n) rational only for n = 1, 2,
    3, 4, 6: r = 0, 1, 2, 3 give orders 2, 3, 4, 6, and at r = 4 (z = 1) g
    is parabolic, of infinite order.
    """
    if g.is_identity():
        return 1
    return _ORDER_BY_TRACE.get(g.trace() ** 2 / g.determinant(), INFINITE_ORDER)


def _primitive(vec):
    """Scale to coprime integers with positive leading coefficient."""
    den = lcm(*(x.denominator for x in vec))
    ints = [int(x * den) for x in vec]
    g = gcd(*ints)
    ints = [x // g for x in ints]
    lead = next(x for x in ints if x)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


class InvariantFunction(namedtuple("InvariantFunction", "degree numerator denominator character")):
    """Ratio of two independent degree-d forms with a common multiplier
    character; the dehomogenized quotient is fixed by every generator."""

    __slots__ = ()

    def dehomogenized(self) -> str:
        return f"({_form_str(self.numerator)}) / ({_form_str(self.denominator)})"


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


def _scale(g: MobiusMap) -> Fraction:
    """c for the involution g: x -> c/x, whose normalized rows are
    [[0, 1], [1/c, 0]]; ValueError for any other map."""
    (p, _), (r, s) = g.rows
    if p or s:
        raise ValueError("invariant search expects involutions x -> c/x")
    return 1 / r


def _require_form(d: int, coeffs):
    """ValueError unless coeffs has the d + 1 coefficients of a degree-d form."""
    if len(coeffs) != d + 1:
        raise ValueError(f"a degree-{d} form needs {d + 1} coefficients")


def _act(c: Fraction, d: int, coeffs):
    """P(gv) for g: x -> c/x and the degree-d form P = coeffs: coefficient j
    is c^-(d-j) p_(d-j).  d comes from the caller, so coeffs of any other
    length raise rather than read as a form of another degree."""
    _require_form(d, coeffs)
    return tuple(c ** (j - d) * coeffs[d - j] for j in range(d + 1))


def _multiplier_candidates(c: Fraction, d: int):
    """Rational lam admissible for P(gv) = lam P(v) in degree d, g being
    x -> c/x: the square roots of c^-d."""
    square = c ** -d
    if not is_rational_square(square):
        return ()
    root = Fraction(isqrt(square.numerator), isqrt(square.denominator))
    return (root, -root)


def invariant_search(generators, D: int):
    """All invariant ratios of forms of degree at most D, per character,
    for generators x -> c_k/x.

    A common eigenvector with multipliers lam_k splits into the independent
    index pairs of the module docstring.  A pair i < j = d - i is free
    exactly when every generator gives the same ratio p_j/p_i = lam_k c_k^j,
    and it then holds one line of eigenvectors; the middle index d/2 is free
    exactly when every lam_k = c_k^(-d/2); every other coordinate is 0.  One
    vector per free column j, in increasing j, is the reduced-row-echelon
    basis of the eigenspace, and every pair of basis vectors is emitted.
    Each basis vector is checked against the action _act.
    """
    generators = tuple(generators)
    if not generators:
        raise ValueError("need at least one generator")
    if D < 1:
        raise ValueError("degree bound must be positive")
    scales = [_scale(g) for g in generators]
    found = []
    for d in range(1, D + 1):
        options = [_multiplier_candidates(c, d) for c in scales]
        if not all(options):
            continue
        for character in iter_product(*options):
            basis = []
            for j in range((d + 1) // 2, d + 1):
                ratios = {lam * c**j for c, lam in zip(scales, character)}
                if len(ratios) == 1 and (j > d - j or ratios == {1}):
                    v = [0] * (d + 1)
                    v[d - j], v[j] = 1, ratios.pop()  # at the middle j = d - j, and the ratio is 1
                    basis.append(_primitive(v))
            for v in basis:
                if any(_act(c, d, v) != tuple(lam * x for x in v) for c, lam in zip(scales, character)):
                    raise AssertionError("emitted eigenvector fails verification")
            found += [InvariantFunction(d, P, Q, character) for P, Q in combinations(basis, 2)]
    return found
