"""Finite slices of the norm-one unit group and their finite-level images.

Two orders are supported.  The standard order Z<1,i,j,k> is what
enumerate_units scans.  When a = 1 mod 4 there is also its 2-saturation
Z<1, (1+i)/2, j, (j+k)/2>: elements (u + vi + wj + zk)/2 with u = v and
w = z mod 2.  The distinction matters at the prime 2: the standard order's
norm-one units land in a proper subgroup of SL2(Z/2) (see
mod2_image_obstruction), so congruence surjectivity is only visible
through the saturated slice.

A unit is the tuple x of its integer numerators over the scale s of its
order: x0 + x1 i + x2 j + x3 k over 1 for the standard order, and
(u + vi + wj + zk)/2 as (u, v, w, z) over 2 for the saturated one.  Its
height is the least B whose box |coordinate| <= B holds x/s.  Each order's
units come from one UnitStream, in (height, coordinates) order and
enumerated only as far as its reader asks.  enumerate_units and
enumerate_units_saturated return a stream grown to a bound; the
certificate stages iterate a stream and stop at their witness.  Everything
downstream (reduce_units, surjects_at_level, torsion_check) takes the units
its caller already holds, so a pipeline enumerates each order once and
decides which order it works on in one place.
"""

from itertools import product

from .modgroup import ResidueMatrix, closure, group_order
from .quatalg import QuaternionAlgebra, SplittingMap, quadratic_embeds, split_2adic

STANDARD = "standard"
SATURATED = "2-saturated"
# order kind -> the scale its units' numerators are over
SCALE = {STANDARD: 1, SATURATED: 2}


def height(x, s: int) -> int:
    """The least B whose box |coordinate| <= B holds x/s."""
    return -(-max(map(abs, x)) // s)


def _signs(x: int) -> tuple:
    return (x, -x) if x else (0,)


def _norm_one(D: QuaternionAlgebra, B: int, s: int, above: int = 0) -> tuple:
    """The numerators (u, v, w, z) of the norm-one (u + vi + wj + zk)/s
    with u = v and w = z mod s whose height lies in (above, B], in
    (height, coordinates) order.  The norm is N(u, v) - b N(w, z) with
    N(x, y) = x^2 - a y^2, and both pairs obey the same parity rule, so one
    table serves both sides: it maps N(x, y) to its pairs 0 <= x, y <= H =
    sB with x = y mod s, and each key n with b dividing n - s^2 is joined
    with the pairs under (n - s^2)/b.  That gives the quadrant with every
    coordinate >= 0, and the signs are then expanded: the norm and both
    parity tests see only squares and residues mod s <= 2.  The table holds
    about (H + 1)^2/s pairs, the same order as the units the box returns,
    and roughly doubles the peak memory of a large box."""
    a, b = D.a, D.b
    H, ss = s * B, s * s
    pairs = {}
    for x in range(H + 1):
        for y in range(x % s, H + 1, s):
            pairs.setdefault(x * x - a * y * y, []).append((x, y))
    found = [(u, v, w, z) for n, uvs in pairs.items() if (n - ss) % b == 0
             for w, z in pairs.get((n - ss) // b, ()) for u, v in uvs]
    # the height of the numerators c is ceil(max |c| / s)
    keyed = sorted((-(-max(c) // s), signed) for c in found for signed in product(*map(_signs, c)))
    return tuple(signed for h, signed in keyed if h > above)


class UnitStream:
    """The norm-one units of one order with height at most cap, as their
    numerators over scale, in (height, coordinates) order, enumerated on
    demand.

    grow(B) enumerates the box at B and appends the units above the height
    already reached, so a prefix once read never changes.  Iteration grows
    by doubling (1, 2, 4, ..., then cap) and ends after the cap: box sizes
    grow fourfold per doubling, so every box before the last costs at most
    a third of the last one.  A reader that stops at height h has
    enumerated no box above 2h.
    """

    def __init__(self, algebra: QuaternionAlgebra, order_kind: str, cap: int):
        if order_kind == SATURATED and algebra.a % 4 != 1:
            raise ValueError("2-saturated order needs a = 1 mod 4")
        if cap < 1:
            raise ValueError("bound must be >= 1")
        self.algebra, self.scale, self.cap = algebra, SCALE[order_kind], cap
        self.reached = 0
        self.units = []

    def grow(self, B: int):
        B = min(B, self.cap)
        if B > self.reached:
            self.units += _norm_one(self.algebra, B, self.scale, self.reached)
            self.reached = B

    def __iter__(self):
        i = 0
        while i < len(self.units) or self.reached < self.cap:
            if i == len(self.units):
                self.grow(2 * self.reached or 1)
                continue
            yield self.units[i]
            i += 1


def _box(D: QuaternionAlgebra, order_kind: str, B: int) -> UnitStream:
    """A stream grown to its cap B: one box, enumerated at once."""
    stream = UnitStream(D, order_kind, B)
    stream.grow(B)
    return stream


def enumerate_units(D: QuaternionAlgebra, B: int) -> UnitStream:
    """All integral quaternions of reduced norm 1 with every |coordinate|
    at most B, in (height, coordinates) order."""
    return _box(D, STANDARD, B)


def enumerate_units_saturated(D: QuaternionAlgebra, B: int) -> UnitStream:
    """Norm-one elements (u + vi + wj + zk)/2 of the 2-saturated order with
    |u|,|v|,|w|,|z| <= 2B, in (height, coordinates) order; a superset of
    the standard slice at bound B.

    Needs a = 1 mod 4, which is what makes the half-integral combinations
    close under multiplication.
    """
    return _box(D, SATURATED, B)


def reduce_units(units, split: SplittingMap, k: int, s: int):
    """Image of each unit x/s in SL2(Z/2^k) through the splitting.

    The determinant-1 invariant is asserted per element by the
    ResidueMatrix constructor.
    """
    m = 2 ** k
    return [ResidueMatrix(*split.residues(x, k, s), m) for x in units]


def mod2_image_obstruction(D: QuaternionAlgebra) -> str:
    """Why the standard order cannot surject onto SL2(Z/2) when a is an odd
    2-adic square: with s = sqrt(a) odd, every integral element maps to
    [[x, y], [b y, x]] mod 2, so a unit maps to [[x, y], [y, x]] for odd b
    and to [[x, y], [0, x]] for even b, at most two matrices either way."""
    shape = "matrices with equal diagonal and equal off-diagonal entries" if D.b % 2 else "matrices [[x, y], [0, x]]"
    return f"standard-order units reduce mod 2 to {shape}; at most 2 of the 6 elements of SL2(Z/2) are reachable"


def surjects_at_level(stream: UnitStream, k: int):
    """Whether the units the stream holds already generate all of
    SL2(Z/2^k).

    Returns (flag, image_table).  Pass a saturated stream to certify
    surjectivity; the standard order provably cannot reach level 1 (see
    mod2_image_obstruction), so a standard stream shows the failure.
    """
    return images_surject(reduce_units(stream.units, split_2adic(stream.algebra), k, stream.scale), k)


def images_surject(mats, k: int):
    """Whether the reduced unit images mats generate all of SL2(Z/2^k).

    closure checks that every element it adds has determinant 1, so the
    closure lies inside SL2(Z/2^k) and comparing its order with
    |SL2(Z/2^k)| decides equality.  Returns (flag, image_table); the
    table's generators are the subsequence of mats that the closure used.
    """
    table = closure(mats)
    return table.order == group_order(2, k), table


def closing_prefix(stream: UnitStream, split: SplittingMap, k: int):
    """The shortest prefix of the stream whose images generate SL2(Z/2^k),
    or every unit when none does, with the closure of its images; one
    closure is grown as the units are read.  Returns (prefix, used, table),
    used being the units whose images the closure used, in order.

    The closure uses an image only when it is not yet in the closure, so
    no unit read before it has that image: used[i] is the first unit read
    with image table.generators[i]."""
    read, first = [], {}

    def images():
        for u in stream:
            read.append(u)
            g = ResidueMatrix(*split.residues(u, k, stream.scale), 2**k)
            first.setdefault(g, u)
            yield g

    table = closure(images(), stop=group_order(2, k))
    return read, [first[g] for g in table.generators], table


def is_torsion(x, s: int) -> bool:
    """Whether the norm-one x/s of a division algebra has finite order
    other than 1 and 2.

    Such a unit has finite order iff its reduced trace 2 x0/s lies in
    {-2,-1,0,1,2}, and trace +-2 forces x/s = +-1 (no nilpotents).  Traces
    -1, 0, 1 give orders 3 or 6, 4, 3.  |2 x0/s| < 2 is |x0| < s, and
    trace +-2 is |x0| = s.
    """
    n = abs(x[0])
    if n == s:
        assert not any(x[1:]), "non-central trace +-2 unit"
    return n < s


def torsion_check(stream: UnitStream) -> dict:
    """Finite-order search in the units the stream holds (see is_torsion)
    plus the algebra-level embedding criterion for the stream's algebra.

    The embedding verdicts for sqrt(-1) and sqrt(-3) decide orders 4 and
    3/6 for the whole unit group, not just the slice.
    """
    D = stream.algebra
    if not D.ramified:
        raise ValueError("torsion criterion needs a division algebra")
    offenders = [x for x in stream.units if is_torsion(x, stream.scale)]
    return {
        "finite_order_in_slice": offenders,
        "slice_torsion_free": not offenders,
        **embedding_flags(D),
    }


def embedding_flags(D: QuaternionAlgebra) -> dict:
    """Whether sqrt(-1) and sqrt(-3) embed in D.  A norm-one unit of finite
    order other than +-1 generates Q(sqrt(-1)) or Q(sqrt(-3)), so when
    neither embeds the whole unit group is torsion-free."""
    embeds_i = quadratic_embeds(D, -1)
    embeds_w = quadratic_embeds(D, -3)
    return {
        "embeds_sqrt_minus_1": embeds_i,
        "embeds_sqrt_minus_3": embeds_w,
        "algebra_torsion_free": not embeds_i and not embeds_w,
    }
