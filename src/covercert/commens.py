"""Intersection of an arithmetic group with a rational conjugate, at finite level.

For invertible h the group Lambda_h = Gamma cap h Gamma h^-1 is cut out of
Gamma by one extra condition: h^-1 x h must again be integral.  Clearing
denominators from h turns that condition into a congruence A x B = 0 mod p^V
with integer matrices A, B, so the image of Lambda_h inside SL2(Z/p^K) can be
found by an exhaustive scan of the finite group.  Everything here is
finite-level: the reported numbers are indices of images at the stated
modulus, plus a stabilization check across consecutive levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .exact import PAdicApprox
from .mat2 import mat_adj, mat_det, mat_mul, mat_scale
from .modgroup import (DEFAULT_CAP, ResidueMatrix, SubgroupTable,
                       enumerate_group, index)
from .quatalg import Quaternion, split_2adic
from .util import frac_valuation, is_prime, odd_prime_factors, valuation


@dataclass(frozen=True)
class Conjugator:
    """Invertible conjugating element.

    Either a 2x2 rational matrix, or a quaternion with rational coordinates
    (pushed through the algebra's 2-adic splitting when scanned; coordinate
    denominators away from 2 are rejected since that splitting sees nothing
    at odd primes).
    """

    rows: tuple | None = None
    quaternion: Quaternion | None = None

    @staticmethod
    def from_rows(rows) -> "Conjugator":
        rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("expected a 2x2 matrix")
        if mat_det(rows) == 0:
            raise ValueError("conjugator must be invertible")
        return Conjugator(rows=rows)

    @staticmethod
    def from_quaternion(q: Quaternion) -> "Conjugator":
        if q.nrd() == 0:
            raise ValueError("conjugator must be invertible")
        for c in q.coords():
            if c.denominator & (c.denominator - 1):
                raise ValueError(
                    "quaternionic conjugator has a denominator away from 2")
        return Conjugator(quaternion=q)

    def determinant(self) -> Fraction:
        if self.rows is not None:
            return mat_det(self.rows)
        return self.quaternion.nrd()

    def denominator_valuation(self, p: int = 2) -> int:
        """max of -val_p over the entries of h and h^-1; 0 when both are
        p-integral."""
        if self.rows is not None:
            inv = mat_scale(1 / mat_det(self.rows), mat_adj(self.rows))
            vals = [frac_valuation(x, p)
                    for row in self.rows + inv for x in row if x != 0]
            return max(0, -min(vals))
        if p != 2:
            raise ValueError("quaternionic conjugators are 2-local")
        M = split_2adic(self.quaternion.algebra, 12).apply(self.quaternion)
        vals = [e.val for row in M for e in row if not e.exact_zero]
        # the inverse is the adjugate over nrd, and the adjugate permutes the
        # entries up to sign, so its valuations are vals shifted by -val(nrd)
        vnrd = frac_valuation(self.quaternion.nrd(), 2)
        vals += [v - vnrd for v in vals]
        return max(0, -min(vals))


@dataclass(frozen=True)
class IntersectionResult:
    """Scan output, one block per prime (Chinese-remainder structure).

    levels holds (p, k, K) triples with K = k + 2v the working level;
    subgroups are the images of {x : h^-1 x h integral}, subgroups_h of
    {x : h x h^-1 integral}; indices are taken against the ambients and
    multiplied across primes.
    """

    levels: tuple
    ambients: tuple
    subgroups: tuple
    subgroups_h: tuple
    index_in_gamma: int
    index_in_gamma_h: int

    @property
    def modulus(self) -> int:
        m = 1
        for p, _k, K in self.levels:
            m *= p ** K
        return m

    @property
    def ambient(self) -> SubgroupTable:
        (G,) = self.ambients
        return G

    @property
    def subgroup(self) -> SubgroupTable:
        (H,) = self.subgroups
        return H

    @property
    def subgroup_h(self) -> SubgroupTable:
        (H,) = self.subgroups_h
        return H

    def indices(self):
        return (self.index_in_gamma, self.index_in_gamma_h)


def _cleared_rational(rows):
    """(A, B, D): B = h with denominators cleared, A its adjugate, D = det B.

    Then h^-1 x h = A x B / D, so the conjugate is p-integral iff
    A x B = 0 mod p^val_p(D).  Swapping A and B gives h x h^-1.
    """
    e = 1
    for row in rows:
        for x in row:
            e = e * x.denominator // gcd(e, x.denominator)
    B = tuple(tuple(int(x * e) for x in row) for row in rows)
    return mat_adj(B), B, mat_det(B)


def _cleared_quaternionic(q: Quaternion, K: int):
    """The same data 2-adically: the splitting image of q scaled integral.

    Entries of the scaled image are reduced to integers mod 2^V, which is all
    the scan condition reads.
    """
    split = split_2adic(q.algebra, K + 6)
    M = split.apply(q)
    t = max(0, -min(e.val for row in M for e in row if not e.exact_zero))
    Ms = mat_scale(PAdicApprox.from_rational(2 ** t, 2, K + 6), M)
    V = mat_det(Ms).val
    if V > K:
        raise ValueError("working level too small to decide integrality")
    r = max(V, 1)
    A = tuple(tuple(e.residue(r) for e in row) for row in mat_adj(Ms))
    B = tuple(tuple(e.residue(r) for e in row) for row in Ms)
    return A, B, V


def _action(h: Conjugator, p: int, K: int):
    if h.rows is not None:
        A, B, D = _cleared_rational(h.rows)
        return A, B, valuation(D, p)
    if p != 2:
        raise ValueError("quaternionic conjugators are 2-local")
    return _cleared_quaternionic(h.quaternion, K)


def _scan(G: SubgroupTable, A, B, V: int, p: int):
    """Elements x of G with A x B = 0 mod p^V, entrywise."""
    if V == 0:
        return list(G.elements)
    m = p ** V
    a0, a1 = A[0][0] % m, A[0][1] % m
    a2, a3 = A[1][0] % m, A[1][1] % m
    b0, b1 = B[0][0] % m, B[0][1] % m
    b2, b3 = B[1][0] % m, B[1][1] % m
    out = []
    for x in G.elements:
        r0 = a0 * x.a + a1 * x.c
        r1 = a0 * x.b + a1 * x.d
        r2 = a2 * x.a + a3 * x.c
        r3 = a2 * x.b + a3 * x.d
        if ((r0 * b0 + r1 * b2) % m == 0 and (r0 * b1 + r1 * b3) % m == 0
                and (r2 * b0 + r3 * b2) % m == 0
                and (r2 * b1 + r3 * b3) % m == 0):
            out.append(x)
    return out


def _as_subgroup(members, G: SubgroupTable) -> SubgroupTable:
    """Package a scan result as a table, checking it really is a subgroup.

    The integrality locus of a conjugation is a group, so closure is a
    genuine test of the scan.  Inverse closure is checked in full;
    multiplicative closure in full for small sets and against a deterministic
    spread of probe elements for large ones.
    """
    mset = frozenset(members)
    if ResidueMatrix.identity(G.modulus) not in mset:
        raise AssertionError("scan result lacks the identity")
    for x in members:
        if x.inverse() not in mset:
            raise AssertionError("scan result not closed under inverse")
    n = len(members)
    if n <= 512:
        probes = members
    else:
        want = 16 if n > 8192 else 64
        probes = members[::max(1, n // want)][:want]
    for x in members:
        for g in probes:
            if x * g not in mset:
                raise AssertionError("scan result not closed under product")
    if G.order % n:
        raise AssertionError("Lagrange violated: scan result is not a subgroup")
    return SubgroupTable(G.modulus, tuple(members), mset, generators=())


def _spread(seq, n=24):
    if len(seq) <= n:
        return list(seq)
    return list(seq[::len(seq) // n][:n])


def _recheck_conjugates(h: Conjugator, p: int, K: int, G: SubgroupTable,
                        H1: SubgroupTable, H2: SubgroupTable) -> None:
    """Independent integrality recheck of sampled members and non-members.

    Lifts residue matrices to integers and conjugates with exact Fractions
    (rational h) or p-adic interval arithmetic (quaternionic h); the scan's
    verdict must agree either way.
    """
    if h.rows is not None:
        hmat = h.rows
        hinv = mat_scale(1 / mat_det(hmat), mat_adj(hmat))

        def lift(x):
            return ((Fraction(x.a), Fraction(x.b)),
                    (Fraction(x.c), Fraction(x.d)))

        def integral(Y):
            return all(y.denominator % p for row in Y for y in row)
    else:
        split = split_2adic(h.quaternion.algebra, K + 6)
        hmat = split.apply(h.quaternion)
        hinv = mat_scale(mat_det(hmat).inverse(), mat_adj(hmat))

        def lift(x):
            return tuple(tuple(PAdicApprox.from_rational(c, 2, K + 6)
                               for c in row) for row in
                         ((x.a, x.b), (x.c, x.d)))

        def integral(Y):
            return all(y.valuation_at_least(0) for row in Y for y in row)

    for left, right, H in ((hinv, hmat, H1), (hmat, hinv, H2)):
        outside = [x for x in G.elements if x not in H]
        for x in _spread(H.elements):
            if not integral(mat_mul(mat_mul(left, lift(x)), right)):
                raise AssertionError("member fails the exact integrality recheck")
        for x in _spread(outside):
            if integral(mat_mul(mat_mul(left, lift(x)), right)):
                raise AssertionError("non-member passes the exact integrality recheck")


def _intersection_at_prime(h: Conjugator, p: int, k: int,
                           cap: int = DEFAULT_CAP) -> IntersectionResult:
    if k < 1:
        raise ValueError("level k must be at least 1")
    v = h.denominator_valuation(p)
    K = k + 2 * v
    G = enumerate_group(p, K, cap)
    A, B, V = _action(h, p, K)
    H1 = _as_subgroup(_scan(G, A, B, V, p), G)
    H2 = _as_subgroup(_scan(G, B, A, V, p), G)
    _recheck_conjugates(h, p, K, G, H1, H2)
    i1, i2 = index(H1, G), index(H2, G)
    if frac_valuation(h.determinant(), p) % 2 == 0:
        # det h = unit * square at p: the two directions are symmetric
        assert i1 == i2, "direction symmetry violated"
    return IntersectionResult(levels=((p, k, K),), ambients=(G,),
                              subgroups=(H1,), subgroups_h=(H2,),
                              index_in_gamma=i1, index_in_gamma_h=i2)


def local_intersection(h: Conjugator, k: int, cap: int = DEFAULT_CAP) -> IntersectionResult:
    """Image of Gamma cap h Gamma h^-1 in SL2(Z/2^K), K = k + 2v.

    The working level K makes membership mod 2^K decide integrality of the
    conjugate to precision k.  Both direction indices are returned; for a
    quaternionic h the splitting at 2 is applied first.
    """
    return _intersection_at_prime(h, 2, k, cap)


def sl2z_case(h_rows, primes, k: int = 1, cap: int = DEFAULT_CAP) -> IntersectionResult:
    """Intersection indices for h in GL2(Q) acting on SL2(Z).

    The congruence A x B = 0 factors through the primes dividing det of the
    cleared matrix, so each prime is scanned on its own and the indices
    multiply; the per-prime blocks of the result are the Chinese-remainder
    decomposition of the composite level.  Every prime carrying part of the
    condition must be listed.
    """
    h = Conjugator.from_rows(h_rows)
    primes = sorted(set(primes))
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    _, _, D = _cleared_rational(h.rows)
    support = set(odd_prime_factors(D)) | ({2} if D % 2 == 0 else set())
    missing = support - set(primes)
    if missing:
        raise ValueError(
            f"condition lives at unlisted primes {sorted(missing)}")
    locals_ = [_intersection_at_prime(h, p, k, cap) for p in primes]
    i1 = i2 = 1
    for res in locals_:
        i1 *= res.index_in_gamma
        i2 *= res.index_in_gamma_h
    return IntersectionResult(
        levels=tuple(res.levels[0] for res in locals_),
        ambients=tuple(res.ambient for res in locals_),
        subgroups=tuple(res.subgroup for res in locals_),
        subgroups_h=tuple(res.subgroup_h for res in locals_),
        index_in_gamma=i1, index_in_gamma_h=i2)


@dataclass(frozen=True)
class StabilizationReport:
    """Intersection results at increasing k until the indices repeat."""

    results: tuple  # ((k, IntersectionResult), ...)
    stabilized: bool
    stabilized_at: int | None  # first k whose indices match those at k+1

    @property
    def final(self) -> IntersectionResult:
        return self.results[-1][1]


def stabilize(scan, k_min: int = 1, k_max: int = 5) -> StabilizationReport:
    """Run scan(k) for k = k_min, k_min+1, ... until two consecutive levels
    report the same pair of indices, or k_max is hit."""
    results = []
    prev = None
    for k in range(k_min, k_max + 1):
        res = scan(k)
        results.append((k, res))
        if prev is not None and prev.indices() == res.indices():
            return StabilizationReport(tuple(results), True, k - 1)
        prev = res
    return StabilizationReport(tuple(results), False, None)


def stabilized_intersection(h: Conjugator, k_min: int = 1, k_max: int = 5,
                            cap: int = DEFAULT_CAP) -> StabilizationReport:
    return stabilize(lambda k: local_intersection(h, k, cap), k_min, k_max)
