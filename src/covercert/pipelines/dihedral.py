"""The dihedral pipeline: the two involutions 1/x and a/x, their commutator
and its order, and the invariant fields of each and of both.  Every claim is
computed from the config, so re-verification rebuilds each one."""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from ..core import Certificate, RunConfig, frac_str, make_bundle, rows_json
from ..mobius import INFINITE_ORDER, MobiusMap, commutator, compose, finite_order, invariant_search


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


def _field_index_claim(label: str, cfg: RunConfig) -> Certificate:
    """(3) the involution fixes an index-2 subfield, witnessed by the
    complete list of its invariants of degree at most 2"""
    g = MobiusMap.sigma() if label == "sigma" else MobiusMap.sigma_a(cfg.a)
    found = invariant_search((g,), 2)
    return Certificate(
        claim=f"dihedral.invariant-field-index.{label}",
        method="minimal degree of a nonconstant invariant of the involution",
        inputs={"a": frac_str(cfg.a), "generator": rows_json(g.rows)},
        witness={"index": min((f.degree for f in found), default=None), "invariants": [_invariant_json(f) for f in found]},
    )


def _joint_claim(cfg: RunConfig) -> Certificate:
    """(4) no joint invariant.  The two involutions generate an infinite
    group G exactly when rho = sigma sigma_a has infinite order (every
    a != +-1), and the order bound of JOINT_ORDER_NOTE then rules out every
    degree at once, with no search.  At a = +-1, G is finite of order
    2 ord(rho) and has a joint invariant of degree |G|, so the complete
    search runs to max(invariant_degree, |G|): a cap never decides
    verified."""
    gens = (MobiusMap.sigma(), MobiusMap.sigma_a(cfg.a))
    order = finite_order(compose(*gens))
    method, bound, found = JOINT_ORDER_METHOD, cfg.invariant_degree, []
    rests_on, notes = ("dihedral.commutator-order",), (JOINT_ORDER_NOTE,)
    if order != INFINITE_ORDER:
        method, bound = JOINT_SEARCH_METHOD, max(cfg.invariant_degree, 2 * order)
        found = invariant_search(gens, bound)
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
    return make_bundle("dihedral", cfg, [build(cfg) for _, build, _ in CLAIM_KINDS.values()])


def _scales_by_a_squared(witness, inputs):
    a = Fraction(inputs["a"])
    return MobiusMap.from_rows(witness["matrix"]) == MobiusMap.from_rows(((1, 0), (0, a * a)))


# claim id -> (holds, build, read), in bundle order; see core.  Each claim is
# computed: re-verification rebuilds it from the config, and a listing of
# invariants is checked by listing them again
CLAIM_KINDS = {
    "dihedral.commutator-map": (_scales_by_a_squared, _commutator_map_claim, None),
    "dihedral.commutator-order": (lambda w, _: w["order"] == INFINITE_ORDER, _commutator_order_claim, None),
    "dihedral.invariant-field-index.sigma": (lambda w, _: w["index"] == 2, partial(_field_index_claim, "sigma"), None),
    "dihedral.invariant-field-index.sigma-a": (lambda w, _: w["index"] == 2, partial(_field_index_claim, "sigma-a"), None),
    "dihedral.invariant-intersection": (lambda w, _: not w["joint_invariants"], _joint_claim, None),
}
