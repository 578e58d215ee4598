"""The dihedral pipeline: the two involutions 1/x and a/x, their commutator
and its order, and the invariant fields of each and of both."""

from __future__ import annotations

from functools import partial

from ..core import VERIFIED, Certificate, RunConfig, _expect, frac_str, make_bundle, parse_frac, rows_from_json, rows_json
from ..mobius import (
    INFINITE_ORDER,
    InvariantFunction,
    MobiusMap,
    _fixed_by,
    commutator,
    compose,
    finite_order,
    invariant_search,
)


def _invariant_json(f):
    return {
        "degree": f.degree,
        "numerator": list(f.numerator),
        "denominator": list(f.denominator),
        "character": [frac_str(c) for c in f.character],
        "formula": f.dehomogenized(),
    }


ORDER_METHOD = "read the order off trace^2/det: 1 for the identity, else 2, 3, 4, 6 at 0, 1, 2, 3 and infinite elsewhere"
ORDER_NOTE = (
    "for a map other than the identity the eigenvalue ratio z satisfies z + 1/z = trace^2/det - 2, and the map has "
    "order n exactly when z is a root of unity of order n; z + 1/z = 2cos(2 pi k/n) is rational only for n = 1, 2, "
    "3, 4, 6, and n = 1 is the value 4, where the map is parabolic"
)
JOINT_SEARCH_METHOD = "complete search for joint semi-invariant ratios up to the degree bound"
JOINT_ORDER_METHOD = (
    "order bound, no search: a group fixing a nonconstant function has order at most its degree, "
    "and the commutator has infinite order"
)
JOINT_ORDER_NOTE = (
    "a nonconstant f = P/Q fixed by a group G of Mobius maps bounds |G| by deg f: G acts faithfully on Q(x) fixing "
    "Q(f), and [Q(x) : Q(f)] = deg f, x being a root of P(T) - f Q(T) (the degree formula behind Luroth's theorem); "
    "the commutator has infinite order, so the two involutions generate an infinite group and their fixed fields "
    "meet in the constants in every degree"
)


def _joint_plan(a, invariant_degree: int):
    """The two involutions, how the joint claim for them is decided and its
    degree bound, in the pipeline and in re-verification alike.  Their
    group G is infinite exactly when rho = sigma sigma_a has infinite order
    (every a != +-1), and the order bound of JOINT_ORDER_NOTE decides the
    claim.  At a = +-1, G is finite of order 2 ord(rho) and has a joint
    invariant of degree |G|, so the complete search runs to
    max(invariant_degree, |G|): a cap never decides verified."""
    gens = (MobiusMap.sigma(), MobiusMap.sigma_a(a))
    order = finite_order(compose(*gens))
    if order == INFINITE_ORDER:
        return gens, JOINT_ORDER_METHOD, invariant_degree
    return gens, JOINT_SEARCH_METHOD, max(invariant_degree, 2 * order)


def _commutator_map_claim(cfg: RunConfig) -> Certificate:
    """(1) the commutator is x -> x / a^2"""
    comm = commutator(MobiusMap.sigma(), MobiusMap.sigma_a(cfg.a))
    return Certificate(
        claim="dihedral.commutator-map",
        method="compose the two involutions both ways and compare with the scaling map",
        inputs={"a": frac_str(cfg.a)},
        witness={"matrix": rows_json(comm.rows), "scale_factor": frac_str(cfg.a * cfg.a)},
    )


def _commutator_order_claim(cfg: RunConfig) -> Certificate:
    """(2) that map has infinite order away from a = +-1"""
    comm = commutator(MobiusMap.sigma(), MobiusMap.sigma_a(cfg.a))
    order = finite_order(comm)
    notes = (ORDER_NOTE,)
    if order != INFINITE_ORDER:
        notes += ("the two involutions generate a finite group here; no free product",)
    return Certificate(
        claim="dihedral.commutator-order",
        method=ORDER_METHOD,
        inputs={"a": frac_str(cfg.a)},
        witness={"order": order, "trace_sq_over_det": frac_str(comm.trace() ** 2 / comm.determinant())},
        depends_on=("dihedral.commutator-map",),
        notes=notes,
    )


def _involution(label: str, a) -> MobiusMap:
    return MobiusMap.sigma() if label == "sigma" else MobiusMap.sigma_a(a)


def _field_index_claim(label: str, cfg: RunConfig, found) -> Certificate:
    """(3) the involution fixes an index-2 subfield, witnessed by the
    invariants of degree at most 2 that its search found"""
    return Certificate(
        claim=f"dihedral.invariant-field-index.{label}",
        method="minimal degree of a nonconstant invariant of the involution",
        inputs={"a": frac_str(cfg.a), "generator": rows_json(_involution(label, cfg.a).rows)},
        witness={"index": min((f.degree for f in found), default=None), "invariants": [_invariant_json(f) for f in found]},
    )


def _joint_claim(cfg: RunConfig, found) -> Certificate:
    """(4) no joint invariant: the commutator's order rules out every degree
    at once, and only the finite groups at a = +-1 are searched; found is
    the joint invariants that search found"""
    _, method, bound = _joint_plan(cfg.a, cfg.invariant_degree)
    rests_on, notes = ("dihedral.commutator-order",), (JOINT_ORDER_NOTE,)
    if method == JOINT_SEARCH_METHOD:
        rests_on, notes = (), ()
        if found:
            notes = ("the two fixed fields share a nonconstant function; their intersection is larger than the constants",)
    return Certificate(
        claim="dihedral.invariant-intersection",
        method=method,
        inputs={"a": frac_str(cfg.a), "degree_bound": bound},
        witness={"joint_invariants": [_invariant_json(f) for f in found]},
        depends_on=rests_on + ("dihedral.invariant-field-index.sigma", "dihedral.invariant-field-index.sigma-a"),
        notes=notes,
    )


def run_dihedral(cfg: RunConfig) -> dict:
    claims = [_commutator_map_claim(cfg), _commutator_order_claim(cfg)]
    for label in ("sigma", "sigma-a"):
        claims.append(_field_index_claim(label, cfg, invariant_search((_involution(label, cfg.a),), 2)))
    gens, method, bound = _joint_plan(cfg.a, cfg.invariant_degree)
    claims.append(_joint_claim(cfg, invariant_search(gens, bound) if method == JOINT_SEARCH_METHOD else []))
    return make_bundle("dihedral", cfg, claims)


# --------------------------------------------------------------------------
# re-verification


def _read_invariants(recorded, gens, max_degree):
    """The recorded functions, each a nonconstant invariant of every
    generator with degree at most max_degree, checked by substitution
    against its character; a form shared by several functions is checked
    once."""
    found, passed = [], set()
    for data in recorded:
        f = InvariantFunction(
            degree=data["degree"],
            numerator=tuple(data["numerator"]),
            denominator=tuple(data["denominator"]),
            character=tuple(parse_frac(c) for c in data["character"]),
        )
        _expect(1 <= f.degree <= max_degree, f"recorded degree {f.degree} is outside 1 to {max_degree}")
        _expect(f.is_nonconstant(), f"recorded degree-{f.degree} function is constant")
        _expect(_fixed_by(f, gens, passed), f"recorded degree-{f.degree} function is not invariant")
        found.append(f)
    return found


def _read_field_invariants(label: str, claim, cfg: RunConfig):
    found = _read_invariants(claim["witness"]["invariants"], (_involution(label, cfg.a),), 2)
    _expect(found, "no invariant recorded")
    return found


def _read_joint_invariants(claim, cfg: RunConfig):
    """Only an empty list under the search method, at a = +-1, repeats the
    search, and only for a verified claim: a refuted one fails its rule."""
    gens, method, bound = _joint_plan(cfg.a, cfg.invariant_degree)
    found = _read_invariants(claim["witness"]["joint_invariants"], gens, bound)
    if not found and method == JOINT_SEARCH_METHOD and claim["verdict"] == VERIFIED:
        _expect(not invariant_search(gens, bound), "a joint invariant exists up to the degree bound")
    return found


def _scales_by_a_squared(witness, inputs):
    a = parse_frac(inputs["a"])
    return MobiusMap.from_rows(rows_from_json(witness["matrix"])) == MobiusMap.from_rows(((1, 0), (0, a * a)))


# claim id -> (holds, build, read), in bundle order; see core
CLAIM_KINDS = {
    "dihedral.commutator-map": (_scales_by_a_squared, _commutator_map_claim, None),
    "dihedral.commutator-order": (lambda w, _: w["order"] == INFINITE_ORDER, _commutator_order_claim, None),
    "dihedral.invariant-field-index.sigma":
        (lambda w, _: w["index"] == 2, partial(_field_index_claim, "sigma"), partial(_read_field_invariants, "sigma")),
    "dihedral.invariant-field-index.sigma-a":
        (lambda w, _: w["index"] == 2, partial(_field_index_claim, "sigma-a"), partial(_read_field_invariants, "sigma-a")),
    "dihedral.invariant-intersection": (lambda w, _: not w["joint_invariants"], _joint_claim, _read_joint_invariants),
}
