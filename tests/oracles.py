"""Independent brute-force oracles used to pin expected values.

Nothing here may call into covercert's formula implementations: these
functions decide the same questions by exhaustive search so the two roads
can be compared in tests.  The imports from covercert are the boundary
type ResidueMatrix, whose checked per-object products (identity and mul
below) the reference closure is built from, the SubgroupTable it returns,
and the Quaternion that the reference unit enumerator and the element
arithmetic here (quat_add, quat_mul, quat_conjugate) return.
"""

from fractions import Fraction
from itertools import product
from math import gcd, isqrt

import numpy as np

from covercert.modgroup import ResidueMatrix, SubgroupTable
from covercert.quatalg import Quaternion


def conic_square_class(r, p: int) -> int:
    """Integer in the Q_p square class of r with valuation 0 or 1.

    num/den ~ num*den (ratio den^2), then strip even powers of p.  No
    quadratic-residue reasoning is involved, which keeps this oracle
    independent of the Legendre/mod-8 formulas under test.
    """
    r = Fraction(r)
    A = r.numerator * r.denominator
    v = 0
    t = abs(A)
    while t % p == 0:
        t //= p
        v += 1
    return A // p ** (v - v % 2)


_sq_cache = {}
_repr_cache = {}


def _squares(m: int) -> np.ndarray:
    """The distinct squares of Z/m, ascending.

    Found by scattering x*x % m for every x in Z/m into a boolean mask, so
    each square appears once however many square roots it has.
    """
    if m not in _sq_cache:
        x = np.arange(m, dtype=np.int64)
        seen = np.zeros(m, dtype=bool)
        seen[x * x % m] = True
        _sq_cache[m] = np.flatnonzero(seen)
    return _sq_cache[m]


def _repr_mask(C: int, m: int) -> np.ndarray:
    """Boolean mask over Z/m of the residues z^2 - C*x^2, z and x in Z/m.

    z^2 - C*x^2 depends on z and x only through z^2 and x^2, so the set is
    {s - C*t : s, t distinct squares of Z/m}; the mask is built from that
    grid by scattering every value into it.  Every pair of squares is still
    visited, so the oracle stays an exhaustive scan.
    """
    key = (C % m, m)
    if key not in _repr_cache:
        sq = _squares(m)
        vals = (sq[:, None] - (C % m) * sq[None, :]) % m
        mask = np.zeros(m, dtype=bool)
        mask[vals.ravel()] = True
        _repr_cache[key] = mask
    return _repr_cache[key]


def conic_solvable_mod(A: int, B: int, p: int, K: int) -> bool:
    """Primitive solvability of z^2 = A x^2 + B y^2 mod p^K.

    A primitive triple has a unit coordinate; scaling the triple by its
    inverse pins that coordinate to 1, so solvability is equivalent to
    B = z^2 - A x^2, or A = z^2 - B y^2, or 1 = A x^2 + B y^2 mod p^K.
    Each test scans the distinct squares of Z/m (see _repr_mask).
    """
    m = p ** K
    if _repr_mask(A, m)[B % m] or _repr_mask(B, m)[A % m]:
        return True
    sq = _squares(m)
    by_mask = np.zeros(m, dtype=bool)
    by_mask[(B % m) * sq % m] = True
    return bool(by_mask[(1 - (A % m) * sq) % m].any())


def hilbert_oracle(a, b, p: int) -> int:
    """The local symbol at a finite prime, by exhaustive conic search.

    For stripped coefficients (valuation <= 1) a primitive solution mod p^3
    (odd p) or mod 2^8 lifts to Z_p by Hensel's lemma: the unit coordinate w
    with coefficient c satisfies val(2cw) <= 1 (odd p) or <= 2 (p = 2), and
    the residual vanishes beyond twice that.  Conversely a Z_p solution
    reduces.  So these finite levels decide Q_p solvability exactly, and in
    particular agree with solvability mod p^8 at every prime.
    """
    A = conic_square_class(a, p)
    B = conic_square_class(b, p)
    K = 8 if p == 2 else 3
    return 1 if conic_solvable_mod(A, B, p, K) else -1


def hilbert_oracle_inf(a, b) -> int:
    return -1 if (Fraction(a) < 0 and Fraction(b) < 0) else 1


def sl2_order_bruteforce(m: int) -> int:
    """|SL_2(Z/m)| counted by scanning (a, b, c) and counting d solutions
    of a*d = 1 + b*c mod m: there are gcd(a, m) solutions when gcd(a, m)
    divides 1 + b*c, else none."""
    bc = np.arange(m, dtype=np.int64)[:, None] * np.arange(m, dtype=np.int64)[None, :] % m
    total = 0
    for a in range(m):
        g = gcd(a, m)
        total += g * int(((1 + bc) % g == 0).sum())
    return total


def generated_order(mats, m: int) -> int:
    """The order of the subgroup of GL_2(Z/m) generated by mats, each four
    entries row-major, found by multiplying every element reached by every
    generator until nothing new appears.  The group is finite, so the
    products of generators already hold their inverses."""
    def mul(x, y):
        return ((x[0] * y[0] + x[1] * y[2]) % m, (x[0] * y[1] + x[1] * y[3]) % m,
                (x[2] * y[0] + x[3] * y[2]) % m, (x[2] * y[1] + x[3] * y[3]) % m)

    gens = [tuple(e % m for e in g) for g in mats]
    seen = {(1 % m, 0, 0, 1 % m)}
    frontier = list(seen)
    while frontier:
        frontier = [y for y in {mul(x, g) for x in frontier for g in gens} if y not in seen]
        seen.update(frontier)
    return len(seen)


def box_height(c, s: int = 1) -> int:
    """The least B >= 1 with every |c_i| <= sB, for numerators c over s."""
    B = 1
    while any(abs(t) > s * B for t in c):
        B += 1
    return B


def height_order(found, s: int = 1):
    """Numerator tuples over s in (height, coordinates) order."""
    return sorted(found, key=lambda c: (box_height(c, s), c))


def brute_norm_one_box(a: int, b: int, B: int, s: int = 1):
    """All norm-one (x0 + x1 i + x2 j + x3 k)/s with integral numerators in
    the closed box of radius sB, x0 = x1 and x2 = x3 mod s, by full 4-cube
    scan: x0^2 - a x1^2 - b x2^2 + a b x3^2 = s^2.  The numerator tuples come
    in (height, coordinates) order."""
    out = []
    rng = range(-s * B, s * B + 1)
    for x0 in rng:
        for x1 in rng:
            for x2 in rng:
                for x3 in rng:
                    if (x0 - x1) % s or (x2 - x3) % s:
                        continue
                    if x0 * x0 - a * x1 * x1 - b * x2 * x2 + a * b * x3 * x3 == s * s:
                        out.append((x0, x1, x2, x3))
    return height_order(out, s)


def in_saturated_order(q) -> bool:
    """Membership of a quaternion in Z<1, (1+i)/2, j, (j+k)/2>."""
    doubled = [2 * c for c in q.coords()]
    if any(t.denominator != 1 for t in doubled):
        return False
    u, v, w, z = (int(t) for t in doubled)
    return (u - v) % 2 == 0 and (w - z) % 2 == 0


def norm_one_triple_loop(a: int, b: int, B: int, saturated: bool = False):
    """Norm-one coordinate tuples by the full (x1, x2, x3) scan, in
    (height, coordinates) order.

    Standard order: integral (x0, x1, x2, x3) with every |coordinate| <= B.
    Saturated order: (u, v, w, z) standing for (u + vi + wj + zk)/2 with
    u = v and w = z mod 2 and every |coordinate| <= 2B.  x0 (or u) is read
    off as the square root of what the other three leave, so only the
    last coordinate's loop differs from the enumerators in covercert.units.
    """
    H, c = (2 * B, 4) if saturated else (B, 1)
    found = []
    for x1 in range(-H, H + 1):
        for x2 in range(-H, H + 1):
            for x3 in range(-H, H + 1):
                if saturated and (x2 - x3) % 2:
                    continue
                rhs = c + a * x1 * x1 + b * x2 * x2 - a * b * x3 * x3
                if rhs < 0:
                    continue
                x0 = isqrt(rhs)
                if x0 * x0 != rhs or x0 > H or (saturated and (x0 - x1) % 2):
                    continue
                found.append((x0, x1, x2, x3))
                if x0:
                    found.append((-x0, x1, x2, x3))
    return height_order(found, 2 if saturated else 1)


def _band(t: int, c: int, top: int, bound: int) -> range:
    """The r in [0, bound] with 0 <= t - c*r^2 <= top^2, for c != 0."""
    lo, hi = (t - top * top, t) if c > 0 else (t, t - top * top)
    s_lo, s_hi = max(0, -(-lo // c)), hi // c  # bounds on r^2
    if s_hi < s_lo:
        return range(0)
    return range(isqrt(s_lo - 1) + 1 if s_lo else 0, min(isqrt(s_hi), bound) + 1)


def _signs(x: int) -> tuple:
    return (x, -x) if x else (0,)


def band_norm_one(D, B: int, s: int, above: int = 0) -> tuple:
    """units._norm_one as it was written with one _band call per (v, w):
    the norm-one (u + vi + wj + zk)/s with u = v and w = z mod s whose
    height lies in (above, B], as Quaternions in (height, coordinates)
    order, z running over every r of the band and skipping z != w mod s."""
    a, b = int(D.a), int(D.b)
    H, ab = s * B, a * b
    found = []
    for v in range(H + 1):
        t1 = s * s + a * v * v
        for w in range(H + 1):
            t2 = t1 + b * w * w
            for z in _band(t2, ab, H, H):
                if s > 1 and (z - w) % s:
                    continue
                rhs = t2 - ab * z * z
                u = isqrt(rhs)
                if u * u == rhs and (u - v) % s == 0:
                    found.append((u, v, w, z))
    keyed = sorted((-(-max(c) // s), signed) for c in found for signed in product(*map(_signs, c)))
    value = [Fraction(t, s) for t in range(-H, H + 1)]
    return tuple(Quaternion(D, *(value[t + H] for t in c)) for h, c in keyed if h > above)


def _p_val(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _sl2_chunks(p: int, V: int):
    """SL2(Z/p^V) as (n, 2, 2) integer arrays, one chunk per top-left entry.

    For a unit a every (b, c) occurs, with d = (1 + b c) / a; for a = 0 mod p
    the determinant forces c to be a unit, and then every (c, d) occurs with
    b = (a d - 1) / c.  Inverses come from a brute-force table.
    """
    m = p ** V
    r = np.arange(m, dtype=np.int64)
    prods = r[:, None] * r[None, :] % m
    inv = np.where(prods == 1, r[None, :], 0).sum(axis=1)
    for a in range(m):
        if a % p:
            b, c = (x.ravel() for x in np.meshgrid(r, r, indexing="ij"))
            d = (1 + b * c) * inv[a] % m
        else:
            c, d = (x.ravel() for x in np.meshgrid(r[r % p != 0], r, indexing="ij"))
            b = (a * d - 1) * inv[c] % m
        yield np.stack([np.full_like(b, a), b, c, d], axis=1).reshape(-1, 2, 2)


def _det_valuation(B, p: int) -> int:
    (w, x), (y, z) = B
    return _p_val(w * z - x * y, p)


def _reduced(B, p: int, V: int):
    """(A, B) mod m = p^V with A the adjugate of the integral matrix B.  For
    h a rational multiple of B with v_p(det B) = V, h^-1 x h = A x B / det B,
    so h^-1 x h is p-integral iff A x B = 0 mod m, and h x h^-1 is iff
    B x A = 0 mod m."""
    m = p ** V
    (w, x), (y, z) = B
    Bm = np.array([[w % m, x % m], [y % m, z % m]], dtype=np.int64)
    A = np.array([[z % m, -x % m], [-y % m, w % m]], dtype=np.int64)
    return A, Bm


def conjugation_locus(B, p: int):
    """(elements, in_gamma, in_conjugate): all of SL2(Z/p^V), V = v_p(det B)
    >= 1, and the masks of x with h^-1 x h, respectively h x h^-1,
    p-integral."""
    V = _det_valuation(B, p)
    A, Bm = _reduced(B, p, V)
    X = np.concatenate(list(_sl2_chunks(p, V)))
    in_gamma = ((A @ X @ Bm) % p ** V == 0).all(axis=(1, 2))
    in_conjugate = ((Bm @ X @ A) % p ** V == 0).all(axis=(1, 2))
    return X, in_gamma, in_conjugate


def _index_mod(B, p: int, V: int) -> int:
    """|SL2(Z/p^V)| over the number of x with A x B = 0 mod p^V.  The
    condition contains the kernel of reduction mod p^V, so this count
    decides the index."""
    if V == 0:
        return 1
    A, Bm = _reduced(B, p, V)
    total = kept = 0
    for X in _sl2_chunks(p, V):
        total += len(X)
        kept += int(((A @ X @ Bm) % p ** V == 0).all(axis=(1, 2)).sum())
    assert total % kept == 0, "the integrality locus is not a subgroup"
    return total // kept


def conjugation_index(B, p: int) -> int:
    """[SL2(Z_p) : SL2(Z_p) cap h SL2(Z_p) h^-1] for h a rational multiple of
    the integral matrix B, by counting mod p^V with V = v_p(det B)."""
    return _index_mod(B, p, _det_valuation(B, p))


def _root_mod(t: int, p: int, V: int) -> int:
    """s mod p^V for a p-adic square root s of t, found by brute force mod
    p^(V+1): every root there agrees with a p-adic root mod p^V."""
    M = p ** (V + 1)
    for s in range(M):
        if (s * s - t) % M == 0:
            return s % p ** V
    raise ValueError(f"{t} has no square root mod {M}")


def quaternion_conjugation_index(coords, a: int, b: int, p: int) -> int:
    """The local index at p = 2 or 3 of the quaternion q = x0 + x1 i + x2 j
    + x3 k of (a, b), through the oracle's own representation mod p^V:
    at 2, i -> diag(s, -s) and j -> [[0, 1], [b, 0]] with s^2 = a; at 3,
    i -> [[0, 1], [a, 0]] and j -> diag(s, -s) with s^2 = b.  q is first
    scaled by the common denominator of its coordinates."""
    q = [Fraction(x) for x in coords]
    den = 1
    for x in q:
        den = den * x.denominator // gcd(den, x.denominator)
    y0, y1, y2, y3 = (int(x * den) for x in q)
    V = _p_val(y0 * y0 - a * y1 * y1 - b * y2 * y2 + a * b * y3 * y3, p)
    if p == 2:
        s = _root_mod(a, 2, V)
        B = [[y0 + s * y1, y2 + s * y3], [b * (y2 - s * y3), y0 - s * y1]]
    elif p == 3:
        s = _root_mod(b, 3, V)
        B = [[y0 + s * y2, y1 - s * y3], [a * (y1 + s * y3), y0 - s * y2]]
    else:
        raise ValueError("the oracle represents quaternions at 2 and 3 only")
    # det B = nrd(den * q) holds mod p^V only, which is all the count reads
    return _index_mod(B, p, V)


def _quat_mul(x, y, a, b):
    """Product in (a, b | Q) on coordinate 4-tuples over 1, i, j, k = ij,
    from i^2 = a, j^2 = b, ji = -k, ik = a j, ki = -a j, jk = -b i,
    kj = b i and k^2 = -ab."""
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return (x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
            x0 * y1 + x1 * y0 + b * (x3 * y2 - x2 * y3),
            x0 * y2 + x2 * y0 + a * (x1 * y3 - x3 * y1),
            x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1)


def _same_algebra(q, r):
    if q.algebra != r.algebra:
        raise ValueError("elements of different algebras")


def quat_add(q, r) -> Quaternion:
    _same_algebra(q, r)
    return Quaternion(q.algebra, *(x + y for x, y in zip(q.coords(), r.coords())))


def quat_mul(q, r) -> Quaternion:
    _same_algebra(q, r)
    return Quaternion(q.algebra, *_quat_mul(q.coords(), r.coords(), q.algebra.a, q.algebra.b))


def quat_conjugate(q) -> Quaternion:
    return Quaternion(q.algebra, q.x0, -q.x1, -q.x2, -q.x3)


def _sqrt_mul(x, y, a):
    """(p + q sqrt a)(r + s sqrt a) on (p, q) pairs."""
    return (x[0] * y[0] + a * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _mat_mul_sqrt(A, B, a):
    return [[tuple(sum(t) for t in zip(_sqrt_mul(A[i][0], B[0][j], a), _sqrt_mul(A[i][1], B[1][j], a)))
             for j in range(2)] for i in range(2)]


def conjugated_unit_trace(a: int, b: int, h, u, v):
    """tr(U h V h^-1) for units with coordinates u, v of (a, b | Q), as the
    pair (p, q) of the trace p + q sqrt(a).

    h is ("quaternion", coords): the trace is the reduced trace 2 x0 of
    U h V h^-1, with h^-1 = conj(h) / nrd(h), by quaternion products, and
    q = 0.  Or h is ("rational", rows): U and V become 2x2 matrices over
    Q(sqrt a) by i -> diag(sqrt a, -sqrt a), j -> [[0, 1], [b, 0]], with
    entries kept as (rational, sqrt a coefficient) pairs, and h^-1 is the
    adjugate over the determinant.
    """
    kind, data = h
    u = [Fraction(x) for x in u]
    v = [Fraction(x) for x in v]
    if kind == "quaternion":
        x0, x1, x2, x3 = (Fraction(x) for x in data)
        nrd = x0 * x0 - a * x1 * x1 - b * x2 * x2 + a * b * x3 * x3
        h_inv = (x0 / nrd, -x1 / nrd, -x2 / nrd, -x3 / nrd)
        prod = _quat_mul(_quat_mul(_quat_mul(u, (x0, x1, x2, x3), a, b), v, a, b), h_inv, a, b)
        return 2 * prod[0], Fraction(0)

    def embed(x):
        return [[(x[0], x[1]), (x[2], x[3])], [(b * x[2], -b * x[3]), (x[0], -x[1])]]

    (p, q), (r, s) = ([Fraction(e) for e in row] for row in data)
    det = p * s - q * r
    H = [[(p, Fraction(0)), (q, Fraction(0))], [(r, Fraction(0)), (s, Fraction(0))]]
    H_inv = [[(s / det, Fraction(0)), (-q / det, Fraction(0))], [(-r / det, Fraction(0)), (p / det, Fraction(0))]]
    M = _mat_mul_sqrt(_mat_mul_sqrt(_mat_mul_sqrt(embed(u), H, a), embed(v), a), H_inv, a)
    return M[0][0][0] + M[1][1][0], M[0][0][1] + M[1][1][1]


def is_integral_quadratic(p, q, a: int) -> bool:
    """p + q sqrt(a), a not a square, is an algebraic integer iff its
    minimal polynomial x^2 - 2p x + (p^2 - a q^2) has integer coefficients."""
    return (2 * p).denominator == 1 and (p * p - a * q * q).denominator == 1


def rational_pair_trace(h, x, y):
    """tr(X h Y h^-1) for rational 2x2 matrices: h as rows, X and Y by their
    four entries row-major; h^-1 is the adjugate over the determinant."""

    def mul(A, B):
        return [[sum(A[r][k] * B[k][c] for k in range(2)) for c in range(2)] for r in range(2)]

    (p, q), (r, s) = ([Fraction(e) for e in row] for row in h)
    det = p * s - q * r
    X, Y = ([[Fraction(e[0]), Fraction(e[1])], [Fraction(e[2]), Fraction(e[3])]] for e in (x, y))
    M = mul(mul(mul(X, [[p, q], [r, s]]), Y), [[s / det, -q / det], [-r / det, p / det]])
    return M[0][0] + M[1][1]


def dirichlet_prime(d: int) -> int:
    """The least prime q = 1 mod 12 with (d/q) = -1, by Euler's criterion
    d^((q-1)/2) = -1 mod q and trial division.  For a non-square 2-adic
    square d, (d, q) is a division algebra split at 2 and at infinity that
    admits neither sqrt(-1) nor sqrt(-3), so the algebra search stops by q."""
    q = 13
    while any(q % m == 0 for m in range(2, isqrt(q) + 1)) or pow(d, (q - 1) // 2, q) != q - 1:
        q += 12
    return q


def projective_order_by_powers(p: int, q: int, r: int, s: int, bound: int = 24):
    """The least n <= bound with [[p, q], [r, s]]^n scalar, or None.

    Multiplies integer matrices and compares each power with a multiple of
    the identity; no trace or determinant is read.  A rational Mobius map
    of finite order n has a primitive n-th root of unity as its eigenvalue
    ratio, of degree phi(n) <= 2, so n <= 6 and bound 24 finds it.
    """
    a, b, c, d = p, q, r, s
    for n in range(1, bound + 1):
        if b == c == 0 and a == d:
            return n
        a, b, c, d = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
    return None


def identity(m: int) -> ResidueMatrix:
    return ResidueMatrix(1, 0, 0, 1, m)


def mul(x: ResidueMatrix, y: ResidueMatrix) -> ResidueMatrix:
    """The product x y, a new ResidueMatrix whose constructor reduces it and
    checks its determinant."""
    if x.m != y.m:
        raise ValueError("mixed moduli")
    return ResidueMatrix(x.a * y.a + x.b * y.c, x.a * y.b + x.b * y.d, x.c * y.a + x.d * y.c, x.c * y.b + x.d * y.d, x.m)


def reference_closure(generators, stop: int = 0) -> SubgroupTable:
    """modgroup.closure as it was built on ResidueMatrix products: every
    product is a new object whose constructor reduces it and checks its
    determinant.  The elements are ResidueMatrix, in the same order."""
    seen, order, used, step = set(), [], [], []
    for g in generators:
        if not used:
            m = g.m
            order.append(identity(m))
            seen.add(order[0])
        elif g.m != m:
            raise ValueError("mixed moduli")
        elif g in seen:
            continue
        used.append(g)
        gi = g.inverse()
        new = [g] if gi == g else [g, gi]
        step += new
        # order[:n] is already closed under the earlier generators, so it
        # needs only the new ones; what they reach needs all of them
        n = len(order)
        i = 0
        while i < len(order):
            x = order[i]
            for s in new if i < n else step:
                y = mul(x, s)
                if y not in seen:
                    seen.add(y)
                    order.append(y)
            i += 1
        if len(order) == stop:
            break
    if not used:
        raise ValueError("need at least one generator")
    return SubgroupTable(m, tuple(order), tuple(used))


def _form_at(coeffs, x, y):
    """The binary form sum c_i x^(d-i) y^i at the point (x, y)."""
    d = len(coeffs) - 1
    return sum(c * x ** (d - i) * y ** i for i, c in enumerate(coeffs))


def fixed_by(func, generators) -> bool:
    """Whether every generator g, with rows [[p, q], [r, s]], fixes the
    invariant ratio func = P/Q through its recorded character lam at g:
    P(gv) = lam P(v) and Q(gv) = lam Q(v), gv = (px + qy, rx + sy), which
    imply P(gv)Q(v) = P(v)Q(gv).  Both sides are degree-d forms, so they are
    compared at the d + 1 points v = (1, t), t = 0..d, which decide an
    identity of such forms; no coefficient action is read."""
    if len(func.character) != len(generators):
        return False
    points = [(Fraction(1), Fraction(t)) for t in range(func.degree + 1)]
    for g, lam in zip(generators, func.character):
        (p, q), (r, s) = g.rows
        for form in (func.numerator, func.denominator):
            if any(_form_at(form, p * x + q * y, r * x + s * y) != lam * _form_at(form, x, y) for x, y in points):
                return False
    return True
