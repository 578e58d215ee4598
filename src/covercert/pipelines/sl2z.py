"""The sl2z pipeline: the intersection index for h acting on SL2(Z), and the
non-discreteness of <Gamma, h Gamma h^-1> from one non-integral trace.  Its
trace claim is the one the quaternionic pipeline records too.  The trace is
computed over Z[sqrt(d)] in integers: p + q sqrt(d) is the pair (p, q), and
a 2x2 matrix P + Q sqrt(d) the pair (P, Q) of integer matrices; over Q,
d = 0 and Q = 0."""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import lcm

from ..commens import Conjugator
from ..core import (
    Certificate,
    ConfigError,
    RunConfig,
    _context,
    _expect,
    _witnessed,
    frac_str,
    make_bundle,
    parse_conjugator_spec,
    unit_json,
)
from ..mat2 import mat_adj, mat_det, mat_mul, mat_tr
from .intersect import _explicit_claim, _index_agrees, _index_certificate

TRACE_METHOD = ("scan pairs of standard-slice units U, V, in shells of slice index, "
                "for a trace of U h V h^-1 that is not an algebraic integer")
TRACE_NOTE = (
    "Gamma has finite covolume and covolumes of Fuchsian groups are bounded below (Siegel), so a discrete "
    "<Gamma, h Gamma h^-1> would contain Gamma with some finite index n, and g^(n!) would lie in Gamma for each of "
    "its elements g; tr(g^(n!)) is then an integer and a monic integer polynomial in tr g, so every trace would be "
    "an algebraic integer (Takeuchi 1975; Maclachlan-Reid 2003, Thm 8.3.2)"
)

# I, T, U and [[2, 1], [1, 1]] as coordinate vectors in the matrix units,
# that is, by their entries: four elements of SL2(Z) whose coordinate
# matrix has determinant -1, so they span M2(Z) over Z
SL2Z_SPAN = ((1, 0, 0, 1), (1, 1, 0, 1), (1, 0, 1, 1), (2, 1, 1, 1))
# the coordinate vectors of the basis: the matrix units, or 1, i, j and k
BASIS_VECTORS = tuple(tuple(int(k == m) for k in range(4)) for m in range(4))
SL2Z_TRACE_METHOD = "scan pairs X, Y of I, T, U and [[2,1],[1,1]], which span M2(Z), for a non-integral tr(X h Y h^-1)"
NORMALISER_NOTE = ("every pair of the four has an integral trace, so by bilinearity h M2(Z) h^-1 = M2(Z): h lies in "
                   "Q^x GL2(Z) and normalises Gamma, and <Gamma, h Gamma h^-1> is Gamma itself")

# pipeline -> the claim's method, its note without a witness, and the config keys its inputs record
_TRACE_PLANS = {
    "quaternionic": (TRACE_METHOD, "every pair of units in this slice has an integral trace", ("d", "h", "unit_height")),
    "sl2z": (SL2Z_TRACE_METHOD, NORMALISER_NOTE, ("h",)),
}


def _sl2z_rows(cfg: RunConfig):
    kind, rows = parse_conjugator_spec(cfg.h)
    if kind != "rational":
        raise ConfigError("this pipeline needs a rational conjugator matrix")
    return rows


def _over_z(x):
    """The integer matrix with entries x, row by row, as a matrix over Z[sqrt(d)]."""
    return ((x[0], x[1]), (x[2], x[3])), ((0, 0), (0, 0))


def _integral(xs):
    """The rationals xs times the least common multiple of their denominators."""
    s = lcm(*(x.denominator for x in xs))
    return [int(x * s) for x in xs]


def _trace_frame(pipeline: str, cfg: RunConfig):
    """(d, embed, M): embed maps the integer coordinate vector of an element
    of Gamma to its matrix over Z[sqrt(d)], and M is h times a scalar, over
    Z[sqrt(d)] too.  For sl2z a coordinate vector is a matrix's entries; for
    quaternionic it is x0 + x1 i + x2 j + x3 k, embedded by
    i -> diag(sqrt(d), -sqrt(d)), j -> [[0, 1], [b, 0]].  The trace search
    and its re-verification both take them from here."""
    if pipeline == "sl2z":
        return 0, _over_z, _over_z(_integral([x for row in _sl2z_rows(cfg) for x in row]))
    d, b = int(cfg.algebra.a), int(cfg.algebra.b)

    def embed(x):
        return ((x[0], x[2]), (b * x[2], x[0])), ((x[1], x[3]), (-b * x[3], -x[1]))

    kind, data = parse_conjugator_spec(cfg.h)
    M = embed(_integral(data)) if kind == "quaternion" else _over_z(_integral([x for row in data for x in row]))
    return d, embed, M


def _sum(A, B, k):
    """A + k B for 2x2 matrices."""
    return tuple(tuple(x + k * y for x, y in zip(r, s)) for r, s in zip(A, B))


def _mul(d, X, Y):
    """The product of two matrices over Z[sqrt(d)]."""
    (P, Q), (R, S) = X, Y
    return _sum(mat_mul(P, R), mat_mul(Q, S), d), _sum(mat_mul(P, S), mat_mul(Q, R), 1)


def pair_trace(frame, u, v):
    """tr(X h Y h^-1) for the X, Y of Gamma with the integer coordinate
    vectors u, v, as integers (p, q, D) with D > 0, meaning (p + q sqrt(d)) / D.
    h^-1 is adj M / det M, and det M is rational: M is a rational matrix or
    the image of a quaternion, whose determinant is its reduced norm."""
    d, embed, M = frame
    P, Q = M
    det = mat_det(P) + d * mat_det(Q)
    T, S = _mul(d, _mul(d, _mul(d, embed(u), M), embed(v)), (mat_adj(P), mat_adj(Q)))
    sign = 1 if det > 0 else -1
    return sign * mat_tr(T), sign * mat_tr(S), sign * det


def is_integral_trace(d: int, t) -> bool:
    """(p + q sqrt(d)) / D is a root of x^2 - (2p / D) x + (p^2 - d q^2) / D^2,
    so it is an algebraic integer iff D divides 2p and D^2 divides p^2 - d q^2."""
    p, q, D = t
    return 2 * p % D == 0 and (p * p - d * q * q) % (D * D) == 0


def find_nonintegral_trace(frame, vectors):
    """The first pair u, v of integer coordinate vectors, at indices i, j
    in shells max(i, j) = n, whose pair_trace t is not an algebraic
    integer, as (u, v, t); or None.  t is bilinear in u and v: it is
    (uPv + uQv sqrt(d)) / D with the 4x4 integer form P, Q read off
    pair_trace at the 16 pairs of basis vectors, so each pair costs two
    integer dot products, and a witness in shell n at most (n + 1)^2 of
    them.  vectors is any iterable, read only up to the witness.  If every
    entry of the form is integral, so is every trace, and no vector is read.
    """
    d = frame[0]
    form = [pair_trace(frame, a, b) for a in BASIS_VECTORS for b in BASIS_VECTORS]
    P, Q, D = [t[0] for t in form], [t[1] for t in form], form[0][2]

    def scan(vectors):
        read = []  # per vector read so far: its coordinates, P v and Q v
        for n, v in enumerate(vectors):
            Pv, Qv = ([sum(M[4 * a + b] * v[b] for b in range(4)) for a in range(4)] for M in (P, Q))
            read.append((v, Pv, Qv))
            for i, j in [(i, n) for i in range(n + 1)] + [(n, j) for j in range(n)]:
                (u0, u1, u2, u3), (_, (p0, p1, p2, p3), (q0, q1, q2, q3)) = read[i][0], read[j]
                p = u0 * p0 + u1 * p1 + u2 * p2 + u3 * p3
                q = u0 * q0 + u1 * q1 + u2 * q2 + u3 * q3
                # is_integral_trace, written out in the innermost loop
                if 2 * p % D or (p * p - d * q * q) % (D * D):
                    return read[i][0], read[j][0], (p, q, D)
        return None

    # scanning the basis vectors tests the form's own entries
    return scan(BASIS_VECTORS) and scan(vectors)


def _nondiscrete_claim(pipeline: str, cfg: RunConfig, found) -> Certificate:
    """<Gamma, h Gamma h^-1> is not discrete, witnessed by X, Y in Gamma
    whose trace tr(X h Y h^-1) is not an algebraic integer.  found is the
    coordinate vectors of X and Y and that trace, or None.  quaternionic
    reads standard units up to unit_height and records how high it read;
    sl2z scans the four elements of SL2Z_SPAN, which decide every h."""
    method, note, keys = _TRACE_PLANS[pipeline]
    witness = None
    if found is not None:
        u, v, t = found
        d = cfg.d if "d" in keys else 0
        _expect(not is_integral_trace(d, t), "the trace is an algebraic integer")
        p, q, D = t
        trace = {"d": d, "u": frac_str(Fraction(p, D)), "v": frac_str(Fraction(q, D))} if d else frac_str(Fraction(p, D))
        witness = {"units": [unit_json(u), unit_json(v)], "trace": trace}
        if "unit_height" in keys:
            witness["height_reached"] = max(map(abs, (*u, *v)))
        note = TRACE_NOTE
    return Certificate(
        claim=f"{pipeline}.nondiscrete",
        method=method,
        inputs={key: getattr(cfg, key) for key in keys},
        witness=witness,
        depends_on=(f"{pipeline}.intersection-index",),
        notes=(note,),
    )


def _sl2z_index_claim(cfg: RunConfig) -> Certificate:
    return _index_certificate("sl2z.intersection-index", Conjugator.from_rows(_sl2z_rows(cfg)), {"h": cfg.h}, _explicit_claim(cfg))


def run_sl2z(cfg: RunConfig) -> dict:
    index = _sl2z_index_claim(cfg)
    found = find_nonintegral_trace(_trace_frame("sl2z", cfg), SL2Z_SPAN)  # at most 16 pairs
    return make_bundle("sl2z", cfg, [index, _nondiscrete_claim("sl2z", cfg, found), _context("sl2z.ramification-context")])


# --------------------------------------------------------------------------
# re-verification


def _read_sl2z_element(entries):
    """A recorded element of SL2(Z), as its entries a, b, c, d."""
    a, b, c, d = x = tuple(Fraction(e) for e in entries)
    _expect(all(e.denominator == 1 for e in x), f"element {entries} has an entry that is not an integer")
    _expect(a * d - b * c == 1, f"element {entries} has determinant {a * d - b * c}, not 1")
    return x


def _read_trace_pair(pipeline: str, claim, cfg: RunConfig, vectors=SL2Z_SPAN, read=_read_sl2z_element):
    """The recorded pair X, Y, each checked by read to lie in Gamma, as
    coordinate vectors, and the trace of X h Y h^-1 recomputed by three
    matrix products; no slice is enumerated.  With no pair recorded, the
    search runs again over vectors: the 16 sl2z pairs by default, and for
    quaternionic the standard units up to unit_height, which it reads only
    when the trace form is not integral."""
    frame = _trace_frame(pipeline, cfg)
    if claim["witness"] is None:
        return find_nonintegral_trace(frame, vectors)
    u, v = (tuple(int(c) for c in read(entry)) for entry in claim["witness"]["units"])
    return u, v, pair_trace(frame, u, v)


# claim id -> (holds, build, read), in bundle order; see core
CLAIM_KINDS = {
    "sl2z.intersection-index": (_index_agrees, _sl2z_index_claim, None),
    "sl2z.nondiscrete": (_witnessed, partial(_nondiscrete_claim, "sl2z"), partial(_read_trace_pair, "sl2z")),
}
# claim id -> note, listed after the claims
CONTEXTS = {
    "sl2z.ramification-context": "the ambient modular family has cusps, so these covers are ramified there",
}
