"""Two cross-checks of non-discreteness that no pipeline calls: a
breadth-first word search for an elliptic element of infinite order, and
Jorgensen's inequality |tr^2 A - 4| + |tr[A,B] - 2| >= 1.  The pipelines
certify non-discreteness by one non-integral trace (pipelines.sl2z); the
tests check both searches against it, and perfbench/traced.py wraps them.
Matrix entries are any exact real numbers that compare exactly, such as
Fractions or the tests' quadratic-field elements; no floating point
anywhere."""

from __future__ import annotations

from collections import deque, namedtuple

from .mat2 import mat_adj, mat_det, mat_mul, mat_tr

NOT_FOUND = "not found"

VIOLATION = "violation"
NO_VIOLATION = "no-violation"
INCONCLUSIVE = "inconclusive"


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
    """Trace test for an infinite-order elliptic in PSL2(R), det 1; t is an
    exact real number, like the matrix entries.

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


# trace is exact, like the matrix entries
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


# sum_value is |tr^2 A - 4| + |tr[A,B] - 2|; the three values are exact, like the matrix entries
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
