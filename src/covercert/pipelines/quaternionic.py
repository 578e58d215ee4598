"""The quaternionic pipeline: the full division-algebra construction.

Its stages run in order: the 2-adic square, the algebra, torsion-freeness,
the standard-order obstruction, congruence surjectivity, the intersection
index for h and the non-discreteness of <Gamma, h Gamma h^-1>.  A stage
that is not verified stops the run, except the index stage, which no later
stage rests on; the obstruction is verified on every algebra that reaches
it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import product
from math import isqrt

from ..core import Certificate, RunConfig, _expect, _witnessed, frac_str, run_pipeline, unit_json
from ..exact import sqrt_2adic
from ..modgroup import group_order
from ..quatalg import INF, split_2adic
from ..units import (
    SATURATED,
    SCALE,
    STANDARD,
    UnitStream,
    closing_prefix,
    embedding_flags,
    height,
    images_surject,
    is_torsion,
    mod2_image_obstruction,
    reduce_units,
)
from .hilbert import _require_saturated_order
from .intersect import INDEX_METHOD, _conjugator, _index_agrees, _index_certificate
from .sl2z import BASIS_VECTORS, TRACE_METHOD, _find_trace_pair, _nondiscrete_claim

# Precision used for the 2-adic square-root witness in stage 1.
SQUARE_PRECISION = 10


def _rows(e):
    """Residue matrix entries (a, b, c, d) as the witnesses record them."""
    return [list(e[:2]), list(e[2:])]


# Stage 4 closes the unit images only at the top level min(k_max,
# BASE_LEVEL), where SL2(Z/8) has 384 elements; each lower level is that
# closure reduced, and no level above it needs a closure (TOWER_NOTES).
BASE_LEVEL = 3
BASE_METHOD = "close the 2-saturated unit images under multiplication once, mod 2^min(k_max, 3), and reduce to each lower level"
BASE_NOTE = (
    "the generators are units whose images mod 2^k, at the top level k, the closure used; reduction mod 2^j is a "
    "homomorphism, so the image at each level j below k is the closure reduced mod 2^j"
)
TOWER_METHOD = BASE_METHOD + "; a closure that fills SL2(Z/8) is all of SL2(Z_2), by squaring into each kernel layer"
TOWER_NOTES = (
    BASE_NOTE,
    "when the closure fills SL2(Z/8), the closure H of the unit group's image in SL2(Z_2) is all of SL2(Z_2). For "
    "k >= 3 the kernel of SL2(Z/2^(k+1)) -> SL2(Z/2^k) is {I + 2^k X : tr X even}, which has 8 elements. Let H be "
    "full mod 2^k and X have even trace: I + 2^(k-1) X has determinant 1 mod 2^k, so H holds an h = I + 2^(k-1) X + "
    "2^k Y, and h^2 = I + 2^k X mod 2^(k+1) because 2(k-1) >= k+1. So H holds that whole kernel mod 2^(k+1) and is "
    "full mod 2^(k+1); by induction from k = 3 it is full at every level, and being closed it is SL2(Z_2). At k = 2 "
    "the X^2 term survives, which is why level 3 is the base",
    "the same result is in Dokchitser-Dokchitser, Math. Z. 2012; cited as context only",
)


def _surjectivity_claim(cfg: RunConfig, found) -> Certificate:
    """Stage 4: unit images fill SL2(Z/2^k) at every level up to min(k_max,
    BASE_LEVEL), and from BASE_LEVEL on the claim is that their closure is
    SL2(Z_2) (TOWER_NOTES).  found is what its search found: the saturated
    units whose images the closure used, in order, and that closure at the
    top level.  The witness records the units once, with their images at
    the top level.  Each level counts the closure's distinct reductions,
    and the first level that fails ends the list."""
    units, table = found
    k_top = min(cfg.k_max, BASE_LEVEL)
    levels = []
    for k in range(1, k_top + 1):
        m = 2**k
        order, size = len({(a % m, b % m, c % m, d % m) for a, b, c, d in table.elements}), group_order(2, k)
        levels.append({"level": k, "group_order": size, "image_order": order, "surjects": order == size})
        if order != size:
            break
    full = levels[-1]["surjects"]
    witness = {
        "generators": [
            {"coords": unit_json(u, SCALE[SATURATED]), "matrix": _rows(g.entries()), "modulus": 2**k_top}
            for u, g in zip(units, table.generators)
        ],
        "levels": levels,
        # a closure that fills the group stops at the unit that fills it
        "height_reached": _height_reached(units[-1] if full else None, cfg, SATURATED),
    }
    tower = k_top == BASE_LEVEL
    return Certificate(
        claim="quaternionic.congruence-surjectivity",
        method=TOWER_METHOD if tower else BASE_METHOD,
        inputs={"d": cfg.d, "unit_height": cfg.unit_height, "k_max": cfg.k_max, "order_kind": SATURATED},
        witness=witness,
        depends_on=("quaternionic.torsion-free",),
        notes=TOWER_NOTES if tower else (BASE_NOTE,),
    )


SQUARE_METHOD = "Hensel lift of a square root of d in the 2-adic integers"
ALGEBRA_METHOD = "search b by increasing height and test ramification by Hilbert symbols"
TORSION_METHOD = "quadratic embedding tests for sqrt(-1) and sqrt(-3), plus a finite-order scan of the unit slice"
OBSTRUCTION_METHOD = "reduce the standard basis 1, i, j, k mod 2 and list the determinant-one matrices in its Z/2-span"
SQUARE_D_METHOD = "read the square root of d: (d, b) is split for every b"
SQUARE_D_NOTE = (
    "d = r^2 is the norm r^2 - b 0^2 from Q(sqrt b) for every b, so every Hilbert symbol of (d, b) is 1 and (d, b) "
    "is split: no b gives a division algebra"
)

# the stages in bundle order -> the method a stage that did not run records
STAGES = {
    "quaternionic.2adic-square": SQUARE_METHOD,
    "quaternionic.algebra": ALGEBRA_METHOD,
    "quaternionic.torsion-free": TORSION_METHOD,
    "quaternionic.standard-order-obstruction": OBSTRUCTION_METHOD,
    "quaternionic.congruence-surjectivity": BASE_METHOD,
    "quaternionic.intersection-index": INDEX_METHOD,
    "quaternionic.nondiscrete": TRACE_METHOD,
}
# the stages no later stage rests on: one that is not verified stops nothing
NON_BLOCKING = ("quaternionic.intersection-index",)


def _square_claim(cfg: RunConfig) -> Certificate:
    """Stage 1: d must be a 2-adic square so the quadratic field sits
    inside the 2-adic matrix algebra."""
    v2 = (cfg.d & -cfg.d).bit_length() - 1  # the valuation of d at 2
    odd_mod8 = (cfg.d >> v2) % 8
    if v2 % 2 == 0 and odd_mod8 == 1:
        witness, notes = {"precision": SQUARE_PRECISION, "square_root_residue": sqrt_2adic(cfg.d, SQUARE_PRECISION)}, ()
    else:
        witness = {"valuation_at_2": v2, "odd_part_mod_8": odd_mod8}
        notes = ("a 2-adic square needs even valuation at 2 and odd part 1 mod 8",)
    return Certificate(claim="quaternionic.2adic-square", method=SQUARE_METHOD, inputs={"d": cfg.d}, witness=witness, notes=notes)


def _algebra_claim(cfg: RunConfig) -> Certificate:
    """Stage 2: a division algebra (d, b) split at 2 and at infinity.  With
    b = 0 a perfect square d is refuted by its square root, with no search;
    any other d passed stage 1, so the search ends (find_example_algebra)."""
    inputs = {"d": cfg.d}
    root = isqrt(cfg.d)
    if not cfg.b and root * root == cfg.d:
        witness = {"symbol_at_2": 1, "symbol_at_inf": 1, "division": False, "square_root_of_d": root}
        return Certificate(claim="quaternionic.algebra", method=SQUARE_D_METHOD, inputs=inputs, witness=witness,
                           depends_on=("quaternionic.2adic-square",), notes=(SQUARE_D_NOTE,))
    algebra = cfg.algebra
    ram = algebra.ramified
    witness = {"symbol_at_2": -1 if 2 in ram else 1, "symbol_at_inf": -1 if INF in ram else 1, "division": bool(ram)}
    if not algebra.admissible:  # only an explicit b can miss
        inputs, notes = dict(inputs, b=cfg.b), ("the requested b fails division or splitting at 2 or infinity",)
    else:
        witness = {"a": frac_str(algebra.a), "b": frac_str(algebra.b), "ramified_places": list(ram), **witness}
        notes = ("the first parameter is d itself, so the real quadratic field of d embeds and splits the algebra",)
    return Certificate(claim="quaternionic.algebra", method=ALGEBRA_METHOD, inputs=inputs, witness=witness,
                       depends_on=("quaternionic.2adic-square",), notes=notes)


def _quaternionic_index_claim(cfg: RunConfig) -> Certificate:
    """Stage 5: the intersection index of the conjugated ambient group,
    compared against the claimed value."""
    return _index_certificate(
        "quaternionic.intersection-index",
        _conjugator(cfg.h, lambda: cfg.algebra),
        inputs={"h": cfg.h, "claimed_index": cfg.claimed_index},
        claimed=cfg.claimed_index,
        depends_on=("quaternionic.congruence-surjectivity",),
    )


def run_quaternionic(cfg: RunConfig) -> dict:
    return run_pipeline("quaternionic", cfg)


def _torsion_claim(cfg: RunConfig, found) -> Certificate:
    """Stage 3: the unit group is torsion-free, so every congruence cover in
    the tower is unramified.  The embedding flags decide it for the whole
    group.  A standard unit of finite order has even trace 2 x0 in
    {-1, 0, 1}, so q^2 = -1: only when sqrt(-1) embeds is the standard
    stream scanned, and found is the first unit of finite order or None."""
    flags = embedding_flags(cfg.algebra)
    return Certificate(
        claim="quaternionic.torsion-free",
        method=TORSION_METHOD,
        inputs={"d": cfg.d, "unit_height": cfg.unit_height},
        witness=dict(
            flags,
            finite_order_unit=None if found is None else unit_json(found),
            height_reached=_height_reached(found, cfg, STANDARD) if flags["embeds_sqrt_minus_1"] else 0,
        ),
        depends_on=("quaternionic.algebra",),
        notes=("no finite-order units means the group acts freely, so the covers carry no ramification",),
    )


def _obstruction_claim(cfg: RunConfig) -> Certificate:
    """The standard order's units miss SL2(Z/2), recorded so the choice of
    the 2-saturated order is visible: their images mod 2 have determinant 1
    and lie in the Z/2-span of the images of 1, i, j, k.  Never refuted: as
    d = 1 mod 4 (_require_saturated_order), s = sqrt(d) is odd and the basis
    reduces to I, I, J, J with J = [[0, 1], [b, 0]]; of the span {0, I, J,
    I + J} only I and one of J (odd b) and I + J (even b) have det 1."""
    algebra, split = cfg.algebra, split_2adic(cfg.algebra)
    basis = [split.residues(x, 1) for x in BASIS_VECTORS]
    span = {tuple(sum(c * x for c, x in zip(cs, entry)) % 2 for entry in zip(*basis)) for cs in product((0, 1), repeat=4)}
    return Certificate(
        claim="quaternionic.standard-order-obstruction",
        method=OBSTRUCTION_METHOD,
        inputs={"d": cfg.d, "order_kind": STANDARD},
        witness={
            "basis_images_mod_2": [_rows(e) for e in basis],
            "det_one_in_span_mod_2": sorted(_rows(e) for e in span if (e[0] * e[3] - e[1] * e[2]) % 2 == 1),
            "group_order_mod_2": group_order(2, 1),
        },
        depends_on=("quaternionic.algebra",),
        notes=(mod2_image_obstruction(cfg.algebra),),
    )


def _height_reached(stop, cfg: RunConfig, kind) -> int:
    """A unit stage's reach: the height of the unit of the kind's order it
    stopped at, or unit_height when it read every unit up to the cap."""
    return cfg.unit_height if stop is None else height(stop, SCALE[kind])


# --------------------------------------------------------------------------
# the searches, each also the reader of what it found


def _read_unit(coords, cfg: RunConfig, kind=STANDARD):
    """A recorded unit x/s of the kind's order, as its numerators x over
    that order's scale s: x must be integral with u = v and w = z mod s
    and norm s^2, and x/s of height at most unit_height."""
    s = SCALE[kind]
    x = [Fraction(c) * s for c in coords]
    shown = unit_json(x, s)
    member = all(c.denominator == 1 for c in x) and (x[0] - x[1]) % s == 0 == (x[2] - x[3]) % s
    _expect(member and cfg.algebra.nrd(x) == s * s, f"unit {shown} is not a norm-one {kind}-order element")
    _expect(height(x, s) <= cfg.unit_height, f"unit {shown} lies above unit_height {cfg.unit_height}")
    return tuple(c.numerator for c in x)


def _find_torsion_unit(cfg: RunConfig, claim=None):
    """Stage 3's search: the first standard unit of finite order, or None;
    the standard units up to unit_height are read only when sqrt(-1) embeds
    (see _torsion_claim).  Given the claim, the unit it records is checked
    by its norm and trace, and with none recorded the search runs again.

    A d without a 2-saturated order (stage 4 reads that order) and an h the
    closed form cannot decide are input errors, rejected here, before any
    unit is enumerated."""
    _require_saturated_order(cfg.d)
    _conjugator(cfg.h, lambda: cfg.algebra)
    coords = None if claim is None else claim["witness"]["finite_order_unit"]
    if coords is None:
        if not embedding_flags(cfg.algebra)["embeds_sqrt_minus_1"]:
            return None
        return next((x for x in UnitStream(cfg.algebra, STANDARD, cfg.unit_height) if is_torsion(x, 1)), None)
    _expect(embedding_flags(cfg.algebra)["embeds_sqrt_minus_1"], "a finite-order unit is recorded, but sqrt(-1) does not embed")
    u = _read_unit(coords, cfg)
    _expect(is_torsion(u, 1), f"recorded unit {unit_json(u)} has trace {2 * u[0]}, not -1, 0 or 1")
    return u


def _find_closing_units(cfg: RunConfig, claim=None):
    """Stage 4's search: the saturated stream read until its images close
    mod 2^min(k_max, BASE_LEVEL), or up to unit_height when they never do.
    Returns the units whose images the closure used and the closure.  Given
    the claim, the closure of the units it records is recomputed; levels
    that end in one that does not surject say that the search read every
    unit up to unit_height, so the search runs again."""
    split, k_top = split_2adic(cfg.algebra), min(cfg.k_max, BASE_LEVEL)
    if claim is None or not claim["witness"]["levels"][-1]["surjects"]:
        _, units, table = closing_prefix(UnitStream(cfg.algebra, SATURATED, cfg.unit_height), split, k_top)
        return units, table
    units = [_read_unit(g["coords"], cfg, SATURATED) for g in claim["witness"]["generators"]]
    _, table = images_surject(reduce_units(units, split, k_top, SCALE[SATURATED]), k_top)
    _expect(len(table.generators) == len(units), "a recorded generator lies in the closure of the ones before it")
    return units, table


def _find_trace_units(cfg: RunConfig, claim=None):
    """The trace stage's search over the standard units up to unit_height,
    read in shells up to the first pair with a non-integral trace; given
    the claim, its pair of standard units (see _find_trace_pair)."""
    stream = UnitStream(cfg.algebra, STANDARD, cfg.unit_height)
    return _find_trace_pair("quaternionic", cfg, claim, stream, lambda c: _read_unit(c, cfg))


# claim id -> (holds, build, find), in bundle order; see core
CLAIM_KINDS = {
    "quaternionic.2adic-square": (lambda w, _: "square_root_residue" in w, _square_claim, None),
    "quaternionic.algebra": (lambda w, _: w["division"] and w["symbol_at_2"] == w["symbol_at_inf"] == 1, _algebra_claim, None),
    "quaternionic.torsion-free": (lambda w, _: w["algebra_torsion_free"], _torsion_claim, _find_torsion_unit),
    "quaternionic.standard-order-obstruction":
        (lambda w, _: len(w["det_one_in_span_mod_2"]) < w["group_order_mod_2"], _obstruction_claim, None),
    "quaternionic.congruence-surjectivity":
        (lambda w, _: all(e["surjects"] for e in w["levels"]), _surjectivity_claim, _find_closing_units),
    "quaternionic.intersection-index": (_index_agrees, _quaternionic_index_claim, None),
    "quaternionic.nondiscrete": (_witnessed, partial(_nondiscrete_claim, "quaternionic"), _find_trace_units),
}
# claim id -> note, listed after the claims
CONTEXTS = {
    "quaternionic.cocompact-context":
        "unit groups of division algebras split at infinity act cocompactly; recorded as standing context",
    "quaternionic.degree-two-context":
        "no degree-two version of this construction exists; recorded as context, nothing here computes it",
}
