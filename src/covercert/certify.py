"""Certificate pipelines.

Each pipeline runs an ordered list of stages against one configuration and
emits a bundle: a JSON document listing one claim per stage, with the exact
inputs, the method, a verdict, and a witness that can be re-checked from
the bundle alone.  Verdicts come from a fixed four-word vocabulary:

  verified               the stated check ran and passed
  refuted-at-this-level  the stated check ran and failed at the stated bound
  not-found              a search exhausted its budget without a witness
  assumption             context recorded without a computation

Each claim id has one builder, which its pipeline and re-verification both
call, and one rule, in the table at the end of this module, that decides
its verdict from its witness: no witness gives not-found, and otherwise the
verdict is verified when the rule holds and refuted-at-this-level when it
does not.  Only context and stages that did not run are assumptions.

A quaternionic stage that later stages rest on (the 2-adic square, the
algebra, torsion-freeness, congruence surjectivity) stops the run when it
is not verified; the obstruction and index stages stop nothing.  The
stages that did not run are still listed (verdict "assumption", with a
note saying why) so the bundle always shows the full stage plan.

Bundles are deterministic: object keys are sorted, rationals are rendered
as "num/den" strings, matrices are row-major arrays, and nothing depends
on the clock.  Two runs with the same effective configuration produce
byte-identical output.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from functools import cached_property, lru_cache, partial

from . import __version__
from .commens import Conjugator, local_intersection, psi
from .exact import sqrt_2adic
from .fuchsian import (
    RealQuadElem,
    find_nonintegral_trace,
    is_algebraic_integer,
    pair_trace,
    quaternion_basis,
    real_embed,
)
from .mobius import (
    INFINITE_ORDER,
    BinaryFormSpace,
    InvariantFunction,
    MobiusMap,
    _fixed_by,
    commutator,
    compose,
    finite_order,
    invariant_search,
)
from .modgroup import ResidueMatrix, group_order, kernel_words, spans_layer, word_value
from .quatalg import INF, QuaternionAlgebra, hilbert_symbol, is_division, ramified_places, split_2adic, symbol_table
from .units import (
    SATURATED,
    STANDARD,
    UnitStream,
    closing_prefix,
    embedding_flags,
    enumerate_units,
    enumerate_units_saturated,
    find_example_algebra,
    height,
    images_surject,
    is_torsion,
    mod2_image_obstruction,
    reduce_units,
    torsion_check,
)

VERIFIED = "verified"
REFUTED = "refuted-at-this-level"
SEARCH_EXHAUSTED = "not-found"
ASSUMPTION = "assumption"

VERDICTS = (VERIFIED, REFUTED, SEARCH_EXHAUSTED, ASSUMPTION)

# Precision used for the 2-adic square-root witness in stage 1.
SQUARE_PRECISION = 10

INDEX_METHOD = "closed form: psi of the local elementary divisors of h, multiplied over the primes"
TRACE_METHOD = ("scan pairs of standard-slice units U, V, in shells of slice index, "
                "for a trace of U h V h^-1 that is not an algebraic integer")
TRACE_NOTE = (
    "Gamma has finite covolume and covolumes of Fuchsian groups are bounded below (Siegel), so a discrete "
    "<Gamma, h Gamma h^-1> would contain Gamma with some finite index n, and g^(n!) would lie in Gamma for each of "
    "its elements g; tr(g^(n!)) is then an integer and a monic integer polynomial in tr g, so every trace would be "
    "an algebraic integer (Takeuchi 1975; Maclachlan-Reid 2003, Thm 8.3.2)"
)


class ConfigError(ValueError):
    """Raised for malformed configuration files or override strings."""


# --------------------------------------------------------------------------
# serialization helpers


def frac_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def parse_frac(s: str) -> Fraction:
    return Fraction(s)


def rows_json(rows):
    """Row-major matrix of rationals as nested "num/den" strings."""
    return [[frac_str(e) for e in row] for row in rows]


def rows_from_json(data):
    return tuple(tuple(parse_frac(e) for e in row) for row in data)


def quad_json(x: RealQuadElem):
    return {"d": x.d, "u": frac_str(x.u), "v": frac_str(x.v)}


def coords_json(q):
    """A quaternion's coordinates as "num/den" strings."""
    return [frac_str(c) for c in q.coords()]


def _reject_floats(obj, path="$"):
    if isinstance(obj, float):
        raise TypeError(f"float at {path}; bundles must stay exact")
    if isinstance(obj, dict):
        for k, v in obj.items():
            _reject_floats(v, f"{path}.{k}")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _reject_floats(v, f"{path}[{i}]")


def canonical_json(obj) -> str:
    _reject_floats(obj)
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


# --------------------------------------------------------------------------
# configuration

def _as_int(s: str) -> int:
    try:
        return int(s, 10)
    except ValueError:
        raise ConfigError(f"expected an integer, got {s!r}")


def _as_frac(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"expected a rational, got {s!r}")


@dataclass(frozen=True)
class RunConfig:
    """Effective configuration for one pipeline run.

    Every field but `explicit` is a config key with its default, and its
    type (int, Fraction or str) picks the key's parser.  `explicit` records
    which keys were actually set by the user (file or override), as opposed
    to defaulted.  Pipelines use it to decide whether an index comparison
    was requested.
    """

    d: int = 17
    a: Fraction = Fraction(2)
    b: int = 0
    b_search_bound: int = 100
    unit_height: int = 50
    k_max: int = 5
    h: str = "1,-1/2,0,1"
    invariant_degree: int = 8
    claimed_index: int = 3
    pair: str = "-1,-1"
    order_kind: str = SATURATED
    explicit: frozenset = field(default_factory=frozenset)

    def pair_values(self):
        parts = [p.strip() for p in self.pair.split(",")]
        if len(parts) != 2:
            raise ConfigError("pair needs exactly two entries")
        a, b = (_as_frac(p) for p in parts)
        if a == 0 or b == 0:
            raise ConfigError("pair entries must be nonzero")
        return a, b

    @cached_property
    def algebra(self) -> QuaternionAlgebra:
        """(d, b) for an explicit b, else the first admissible algebra that
        find_example_algebra reaches; ValueError when its search ends
        empty.  Resolved once per config."""
        if self.b:
            return QuaternionAlgebra(self.d, self.b)
        return find_example_algebra(self.d, self.b_search_bound)


# key -> parser; the annotations are strings under postponed evaluation
_PARSERS = {"int": _as_int, "Fraction": _as_frac, "str": str}
_KEYS = {f.name: _PARSERS[f.type] for f in fields(RunConfig) if f.name != "explicit"}


def parse_conjugator_spec(spec: str):
    """("rational", rows) for "a,b,c,d" or ("quaternion", coords) for
    "quat:x0,x1,x2,x3"."""
    text = spec.strip()
    kind = "rational"
    if text.startswith("quat:"):
        kind = "quaternion"
        text = text[5:]
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ConfigError(f"conjugator spec needs four entries, got {len(parts)}")
    vals = tuple(_as_frac(p) for p in parts)
    if kind == "rational":
        rows = ((vals[0], vals[1]), (vals[2], vals[3]))
        if vals[0] * vals[3] - vals[1] * vals[2] == 0:
            raise ConfigError("conjugator matrix is singular")
        return kind, rows
    if all(v == 0 for v in vals):
        raise ConfigError("zero quaternion cannot conjugate")
    if any(v.denominator & (v.denominator - 1) for v in vals):
        raise ConfigError("quaternionic conjugator has a denominator away from 2")
    return kind, vals


def _validate(cfg: RunConfig) -> RunConfig:
    if cfg.d < 1:
        raise ConfigError("d must be a positive integer")
    if cfg.a == 0:
        raise ConfigError("a must be nonzero")
    if cfg.b < 0:
        raise ConfigError("b must be nonnegative (0 = search)")
    for key in ("b_search_bound", "unit_height", "k_max", "invariant_degree", "claimed_index"):
        if getattr(cfg, key) < 1:
            raise ConfigError(f"{key} must be positive")
    if cfg.order_kind not in (STANDARD, SATURATED):
        raise ConfigError(f"order_kind must be {STANDARD!r} or {SATURATED!r}")
    parse_conjugator_spec(cfg.h)
    cfg.pair_values()
    return cfg


def parse_config_text(text: str):
    """key = value lines; '#' starts a comment; unknown keys are errors."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def load_config(path=None, overrides=()) -> RunConfig:
    """Build a RunConfig from an optional file plus "key=value" overrides."""
    values = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                values = parse_config_text(fh.read())
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot read config file: {e}")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, value = item.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}")
        values[key] = value
    parsed = {key: parse(values[key]) for key, parse in _KEYS.items() if key in values}
    return _validate(RunConfig(**parsed, explicit=frozenset(values)))


def config_mapping(cfg: RunConfig):
    """Canonical string form of every hashed key, defaults included.

    compare_claimed is derived, not settable: the sl2z and intersect
    pipelines only compare against claimed_index when the user actually
    set it, and that choice changes the bundle, so it must change the
    hash too.
    """
    out = {}
    for key in _KEYS:
        # Fractions print minimally ("2", "-1/2"); everything else is an
        # int or already a string
        out[key] = str(getattr(cfg, key))
    out["compare_claimed"] = "1" if "claimed_index" in cfg.explicit else "0"
    return out


def config_hash(cfg: RunConfig) -> str:
    mapping = config_mapping(cfg)
    blob = "".join(f"{k} = {mapping[k]}\n" for k in sorted(mapping))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------
# certificates and bundles


class _Mismatch(Exception):
    """A check on a claim failed; the message names the check.  In a
    pipeline it is an internal fault."""


def _expect(ok, what: str):
    if not ok:
        raise _Mismatch(what)


@dataclass
class Certificate:
    """One claim.  Its verdict is what the claim's rule gives for the
    witness; only context and stages that did not run pass one."""

    claim: str
    method: str
    inputs: dict
    witness: dict | None = None
    depends_on: tuple = ()
    notes: tuple = ()
    verdict: str | None = None

    def __post_init__(self):
        if self.verdict is None:
            self.verdict = _rule_verdict(self.claim, self.witness, self.inputs)
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")

    def as_dict(self):
        return {
            "id": self.claim,
            "verdict": self.verdict,
            "method": self.method,
            "inputs": self.inputs,
            "witness": self.witness,
            "depends_on": list(self.depends_on),
            "notes": list(self.notes),
        }


def _not_run(claim: str, method: str, blocker: str) -> Certificate:
    return Certificate(
        claim=claim,
        verdict=ASSUMPTION,
        method=method,
        inputs={},
        witness=None,
        depends_on=(blocker,),
        notes=(f"not run: depends on {blocker}, which was not verified",),
    )


# claim id -> note, in bundle order
_CONTEXTS = {
    "quaternionic.cocompact-context":
        "unit groups of division algebras split at infinity act cocompactly; recorded as standing context",
    "quaternionic.degree-two-context":
        "no degree-two version of this construction exists; recorded as context, nothing here computes it",
    "sl2z.ramification-context": "the ambient modular family has cusps, so these covers are ramified there",
}


def _context(claim: str) -> Certificate:
    """Standing context, recorded as an assumption without a computation."""
    return Certificate(claim=claim, verdict=ASSUMPTION, method="recorded, not computed", inputs={}, notes=(_CONTEXTS[claim],))


def make_bundle(pipeline: str, cfg: RunConfig, claims) -> dict:
    """The pipeline's bundle, re-verified before it is returned."""
    bundle = {
        "tool": "covercert",
        "tool_version": __version__,
        "pipeline": pipeline,
        "config": config_mapping(cfg),
        "config_hash": config_hash(cfg),
        "claims": [c.as_dict() for c in claims],
    }
    _check_reverify(bundle)
    return bundle


def render_bundle(bundle: dict) -> str:
    return canonical_json(bundle)


def bundle_exit_code(bundle: dict) -> int:
    """1 when any claim was refuted at its level, else 0."""
    for claim in bundle["claims"]:
        if claim["verdict"] == REFUTED:
            return 1
    return 0


# --------------------------------------------------------------------------
# dihedral pipeline


def _invariant_json(f):
    return {
        "degree": f.degree,
        "numerator": list(f.numerator),
        "denominator": list(f.denominator),
        "character": [frac_str(c) for c in f.character],
        "formula": f.dehomogenized(),
    }


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


@lru_cache(maxsize=64)
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
    notes = ()
    if order != INFINITE_ORDER:
        notes = ("the two involutions generate a finite group here; no free product",)
    return Certificate(
        claim="dihedral.commutator-order",
        method="power scan backed by the trace-squared-over-determinant test",
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
# quaternionic pipeline


# what the construction asks of (d, b): a division algebra split at 2 and
# at infinity is exactly one whose _algebra_symbols equal these
_ADMISSIBLE = {"symbol_at_2": 1, "symbol_at_inf": 1, "division": True}


def _algebra_symbols(algebra: QuaternionAlgebra) -> dict:
    a, b = algebra.a, algebra.b
    return {"symbol_at_2": hilbert_symbol(a, b, 2), "symbol_at_inf": hilbert_symbol(a, b, INF), "division": is_division(algebra)}


def _residue_rows(g: ResidueMatrix):
    """A unit's image as the witnesses record it."""
    return [[g.a, g.b], [g.c, g.d]]


# Stage 4 closes the unit images only at the top level min(k_max,
# BASE_LEVEL), where SL2(Z/8) has 384 elements; each lower level is that
# closure reduced, and each level above it is certified by three kernel words.
BASE_LEVEL = 3
BASE_METHOD = "reduce a 2-saturated unit slice mod 2^k and close under multiplication"
BASE_NOTE = (
    "the generators are units whose images mod 2^k, at the top level k, the closure used; reduction mod 2^j is a "
    "homomorphism, so the image at each level j below k is the closure reduced mod 2^j"
)
LIFT_METHOD = (
    "reduce a 2-saturated unit slice mod 2^k and close under multiplication up to level 3; "
    "above it, lift layer by layer with three kernel words in the level-3 generators"
)
LIFT_NOTES = (
    "levels up to 3 reduce the closure of the generators' images mod 8; each level k above 3 raises the three kernel "
    "words in the generators to the 2^(k-3)-th power, which is I + 2^(k-1)X mod 2^k with the X spanning sl2(F_2), so "
    "the image holds the kernel of reduction to level k-1 and, being full there, is full at level k",
    "a closed subgroup of SL2(Z_2) that surjects mod 8 is all of SL2(Z_2) (Dokchitser-Dokchitser, Math. Z. 2012); "
    "cited as context only, every recorded level is checked by its own witness",
)


def _surjectivity_claim(cfg: RunConfig, found) -> Certificate:
    """Stage 4: unit images fill SL2(Z/2^k) at every level up to k_max.
    found is what its search found: the saturated units whose images the
    closure used, in order; that closure at the top level min(k_max,
    BASE_LEVEL); and kernel words in those units, or None.  The witness
    records the units once, with their images at the top level.  Each level
    up to the top counts the closure's distinct reductions, and the first
    level that fails ends the list.  Each level above BASE_LEVEL records the
    power that carries the kernel words, recorded once, into its layer."""
    units, table, words = found
    k_top = min(cfg.k_max, BASE_LEVEL)
    levels = []
    for k in range(1, k_top + 1):
        order, size = len({tuple(e % 2**k for e in x.entries()) for x in table.elements}), group_order(2, k)
        levels.append({"level": k, "group_order": size, "image_order": order, "surjects": order == size})
        if order != size:
            break
    full = levels[-1]["surjects"]
    witness = {
        "generators": [
            {"coords": coords_json(u), "matrix": _residue_rows(g), "modulus": 2**k_top} for u, g in zip(units, table.generators)
        ],
        "levels": levels,
        # a closure that fills the group stops at the unit that fills it
        "height_reached": _height_reached(units[-1] if full else None, cfg),
    }
    if full and cfg.k_max > BASE_LEVEL:
        _expect(words is not None, f"no kernel words lift level {BASE_LEVEL}")
        lifts = reduce_units(units, split_2adic(cfg.algebra), cfg.k_max)
        values = [word_value(lifts, w) for w in words]
        for k in range(BASE_LEVEL + 1, cfg.k_max + 1):
            values = [x * x for x in values]  # now the 2^(k-3)-th powers
            _expect(spans_layer(values, k), f"kernel words at level {k} do not span the kernel of reduction to level {k - 1}")
            size = group_order(2, k)
            levels.append({"level": k, "group_order": size, "image_order": size, "surjects": True, "exponent": 2 ** (k - BASE_LEVEL)})
        witness["kernel_words"] = [[list(letter) for letter in w] for w in words]
    return Certificate(
        claim="quaternionic.congruence-surjectivity",
        method=BASE_METHOD if cfg.k_max <= BASE_LEVEL else LIFT_METHOD,
        inputs={"d": cfg.d, "unit_height": cfg.unit_height, "k_max": cfg.k_max, "order_kind": SATURATED},
        witness=witness,
        depends_on=("quaternionic.torsion-free",),
        notes=(BASE_NOTE,) if cfg.k_max <= BASE_LEVEL else LIFT_NOTES,
    )


def _surjectivity_search(cfg: RunConfig, split):
    """Stage 4's search: the saturated stream read until its images close
    mod 2^min(k_max, BASE_LEVEL), or up to unit_height when they never do.
    Returns the units whose images the closure used, the closure, and
    kernel words in those units when k_max lies above BASE_LEVEL and the
    images fill it, else None."""
    k_top = min(cfg.k_max, BASE_LEVEL)
    read, table = closing_prefix(UnitStream(split.algebra, SATURATED, cfg.unit_height), split, k_top)
    images = reduce_units(read, split, k_top)
    units = [read[images.index(g)] for g in table.generators]
    words = None
    if cfg.k_max > BASE_LEVEL and table.order == group_order(2, BASE_LEVEL):
        words = kernel_words(reduce_units(units, split, cfg.k_max))
    return units, table, words


RATIONAL_INDEX_NOTE = "the primitive integral multiple of h has elementary divisors 1 and N, and the index is psi(N) (Shimura 1971, 3.1)"
QUATERNION_INDEX_NOTE = (
    "each split prime contributes the size of a sphere in its Bruhat-Tits tree, each ramified prime 1; "
    "the algebra is split at infinity, so by strong approximation their product is the global index (Vigneras 1980, III.4)"
)


def _index_certificate(claim, h, inputs, claimed, depends_on=()):
    """The intersection-index claim for conjugator h.  Its witness records
    what the formula read, its local factors and, when claimed is not None,
    the comparison with the claimed index, which refutes the claim when the
    two differ."""
    result = local_intersection(h)
    witness = {
        "local_factors": [dict(read, prime=p, exponent=n, factor=psi(p, n)) for p, n, read in result.factors],
        "computed_index_in_gamma": result.index,
        "computed_index_in_conjugate": result.index,
    }
    if result.matrix is not None:
        witness["primitive_matrix"] = [list(row) for row in result.matrix]
    notes = (RATIONAL_INDEX_NOTE if h.rows is not None else QUATERNION_INDEX_NOTE,)
    if claimed is not None:
        witness.update(claimed_index=claimed, agrees_with_claimed=result.index == claimed)
        if result.index != claimed:
            notes += ("the computed index supersedes the claimed one",)
    return Certificate(claim=claim, method=INDEX_METHOD, inputs=inputs, witness=witness, depends_on=depends_on, notes=notes)


def _explicit_claim(cfg: RunConfig):
    """claimed_index when the user set it, else None (nothing to compare)."""
    return cfg.claimed_index if "claimed_index" in cfg.explicit else None


def _conjugator(spec: str, algebra) -> Conjugator:
    """The Conjugator for an h spec: rational rows, or a quaternion of the
    algebra that algebra() returns; it is called only for a quaternion.  A
    quaternion whose index the closed form cannot decide is a configuration
    error."""
    kind, data = parse_conjugator_spec(spec)
    if kind == "rational":
        return Conjugator.from_rows(data)
    try:
        return Conjugator.from_quaternion(algebra().element(*data))
    except ValueError as e:
        raise ConfigError(str(e))


SQUARE_METHOD = "Hensel lift of a square root of d in the 2-adic integers"
ALGEBRA_METHOD = "search b by increasing height and test ramification by Hilbert symbols"
TORSION_METHOD = "quadratic embedding tests for sqrt(-1) and sqrt(-3), plus a finite-order scan of the unit slice"
OBSTRUCTION_METHOD = "reduce the standard-basis unit slice mod 2 and close"

# the quaternionic stages in bundle order, with the method a stage that did
# not run records
_QUATERNIONIC_STAGES = (
    ("quaternionic.2adic-square", SQUARE_METHOD),
    ("quaternionic.algebra", ALGEBRA_METHOD),
    ("quaternionic.torsion-free", TORSION_METHOD),
    ("quaternionic.standard-order-obstruction", OBSTRUCTION_METHOD),
    ("quaternionic.congruence-surjectivity", BASE_METHOD),
    ("quaternionic.intersection-index", INDEX_METHOD),
    ("quaternionic.nondiscrete", TRACE_METHOD),
)
# the stages no later stage rests on: one that is not verified stops nothing
_NON_BLOCKING = ("quaternionic.standard-order-obstruction", "quaternionic.intersection-index")


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
    """Stage 2: a division algebra (d, b) split at 2 and at infinity."""
    inputs, witness = {"d": cfg.d, "b_search_bound": cfg.b_search_bound}, None
    try:
        algebra = cfg.algebra
    except ValueError as e:
        notes = (str(e),)
    else:
        witness = _algebra_symbols(algebra)
        if witness != _ADMISSIBLE:  # only an explicit b can miss
            inputs, notes = dict(inputs, b=cfg.b), ("the requested b fails division or splitting at 2 or infinity",)
        else:
            witness = {"a": frac_str(algebra.a), "b": frac_str(algebra.b), "ramified_places": ramified_places(algebra), **witness}
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


def _blocks(claim_id: str, verdict: str) -> bool:
    """Whether a quaternionic stage with this verdict stops the run."""
    return verdict != VERIFIED and claim_id not in _NON_BLOCKING


def run_quaternionic(cfg: RunConfig) -> dict:
    claims = []
    for claim in _quaternionic_stages(cfg):
        claims.append(claim)
        if _blocks(claim.claim, claim.verdict):
            break
    claims += [_not_run(cid, method, claims[-1].claim) for cid, method in _QUATERNIONIC_STAGES[len(claims):]]
    claims += [_context("quaternionic.cocompact-context"), _context("quaternionic.degree-two-context")]
    return make_bundle("quaternionic", cfg, claims)


def _quaternionic_stages(cfg: RunConfig):
    """Yield the claims of _QUATERNIONIC_STAGES in order.  run_quaternionic
    reads no further than a blocking stage that is not verified, so each
    stage may use what the stages before it computed."""
    yield _square_claim(cfg)
    yield _algebra_claim(cfg)
    algebra = cfg.algebra
    # an h the closed form cannot decide is an input error: reject it
    # before the unit stages enumerate
    _conjugator(cfg.h, lambda: algebra)

    # stage 3: only when sqrt(-1) embeds are the standard units read, up to
    # the first one of finite order (see _torsion_claim).  The unit stages
    # read one standard stream, each only as far as its witness
    std = UnitStream(algebra, STANDARD, cfg.unit_height)
    scan = embedding_flags(algebra)["embeds_sqrt_minus_1"]
    yield _torsion_claim(cfg, next((q for q in std if is_torsion(q)), None) if scan else None)

    split = split_2adic(algebra)
    images = {}  # mod-2 image -> the first unit with it
    for u in std:
        images.setdefault(ResidueMatrix(*split.residues(u, 1), 2), u)
        if len(images) == 2:  # all that mod2_image_obstruction allows
            break
    yield _obstruction_claim(cfg, list(images.values()))

    yield _surjectivity_claim(cfg, _surjectivity_search(cfg, split))

    yield _quaternionic_index_claim(cfg)
    yield _nondiscrete_stage(cfg, std)


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
            finite_order_unit=None if found is None else coords_json(found),
            height_reached=_height_reached(found, cfg) if flags["embeds_sqrt_minus_1"] else 0,
        ),
        depends_on=("quaternionic.algebra",),
        notes=("no finite-order units means the group acts freely, so the covers carry no ramification",),
    )


def _obstruction_claim(cfg: RunConfig, found) -> Certificate:
    """The standard-basis order misses surjectivity mod 2; recorded so the
    choice of the 2-saturated order is visible.  found is the first
    standard unit of each mod-2 image, read until there are two."""
    images = reduce_units(found, split_2adic(cfg.algebra), 1)
    _, table = images_surject(images, 1)
    return Certificate(
        claim="quaternionic.standard-order-obstruction",
        method=OBSTRUCTION_METHOD,
        inputs={"d": cfg.d, "unit_height": cfg.unit_height, "order_kind": STANDARD},
        witness={
            "image_order_mod_2": table.order,
            "group_order_mod_2": group_order(2, 1),
            "images": [{"coords": coords_json(u), "matrix": _residue_rows(g)} for u, g in zip(found, images)],
            "height_reached": _height_reached(found[-1] if len(found) == 2 else None, cfg),
        },
        depends_on=("quaternionic.algebra",),
        notes=(mod2_image_obstruction(cfg.algebra),),
    )


def _height_reached(stop, cfg: RunConfig) -> int:
    """A unit stage's reach: the height of the unit it stopped at, or
    unit_height when it read every unit up to the cap."""
    return cfg.unit_height if stop is None else height(stop)


def _nondiscrete_stage(cfg: RunConfig, std: UnitStream) -> Certificate:
    """The trace stage, reading the standard stream in shells up to the
    first pair with a non-integral trace."""
    found = find_nonintegral_trace(*_trace_frame("quaternionic", cfg), (u.coords() for u in std))
    return _nondiscrete_claim("quaternionic", cfg, found)


# --------------------------------------------------------------------------
# non-discreteness, one trace claim for quaternionic and sl2z


# I, T, U and [[2, 1], [1, 1]] as coordinate vectors in the matrix units,
# that is, by their entries: four elements of SL2(Z) whose coordinate
# matrix has determinant -1, so they span M2(Z) over Z
SL2Z_SPAN = ((1, 0, 0, 1), (1, 1, 0, 1), (1, 0, 1, 1), (2, 1, 1, 1))
MATRIX_UNITS = tuple(((int(m == 0), int(m == 1)), (int(m == 2), int(m == 3))) for m in range(4))
SL2Z_TRACE_METHOD = "scan pairs X, Y of I, T, U and [[2,1],[1,1]], which span M2(Z), for a non-integral tr(X h Y h^-1)"
NORMALISER_NOTE = ("every pair of the four has an integral trace, so by bilinearity h M2(Z) h^-1 = M2(Z): h lies in "
                   "Q^x GL2(Z) and normalises Gamma, and <Gamma, h Gamma h^-1> is Gamma itself")

# pipeline -> the claim's method, its note without a witness, and the config keys its inputs record
_TRACE_PLANS = {
    "quaternionic": (TRACE_METHOD, "every pair of units in this slice has an integral trace", ("d", "h", "unit_height")),
    "sl2z": (SL2Z_TRACE_METHOD, NORMALISER_NOTE, ("h",)),
}


def _trace_frame(pipeline: str, cfg: RunConfig):
    """(H, basis): h as a real matrix, and the four real matrices in whose
    span the pipeline's elements of Gamma are integer coordinate vectors.
    The trace search and its re-verification both take them from here."""
    if pipeline == "sl2z":
        return _sl2z_rows(cfg), MATRIX_UNITS
    kind, data = parse_conjugator_spec(cfg.h)
    algebra = cfg.algebra
    return data if kind == "rational" else real_embed(algebra.element(*data)), quaternion_basis(algebra)


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
        _expect(not is_algebraic_integer(t), "the trace is an algebraic integer")
        trace = quad_json(t) if isinstance(t, RealQuadElem) else frac_str(t)
        witness = {"units": [[frac_str(c) for c in u], [frac_str(c) for c in v]], "trace": trace}
        if "unit_height" in keys:
            witness["height_reached"] = int(max(abs(c) for c in (*u, *v)))
        note = TRACE_NOTE
    return Certificate(
        claim=f"{pipeline}.nondiscrete",
        method=method,
        inputs={key: getattr(cfg, key) for key in keys},
        witness=witness,
        depends_on=(f"{pipeline}.intersection-index",),
        notes=(note,),
    )


# --------------------------------------------------------------------------
# modular pipeline


def _sl2z_rows(cfg: RunConfig):
    kind, rows = parse_conjugator_spec(cfg.h)
    if kind != "rational":
        raise ConfigError("this pipeline needs a rational conjugator matrix")
    return rows


def _sl2z_index_claim(cfg: RunConfig) -> Certificate:
    return _index_certificate("sl2z.intersection-index", Conjugator.from_rows(_sl2z_rows(cfg)), {"h": cfg.h}, _explicit_claim(cfg))


def run_sl2z(cfg: RunConfig) -> dict:
    index = _sl2z_index_claim(cfg)
    found = find_nonintegral_trace(*_trace_frame("sl2z", cfg), SL2Z_SPAN)  # at most 16 pairs
    return make_bundle("sl2z", cfg, [index, _nondiscrete_claim("sl2z", cfg, found), _context("sl2z.ramification-context")])


# --------------------------------------------------------------------------
# ad-hoc pipelines: hilbert, units, intersect


def _symbol_table_claim(cfg: RunConfig) -> Certificate:
    a, b = cfg.pair_values()
    table = symbol_table(a, b)
    ramified = [str(v) for v, s in table if s == -1]
    return Certificate(
        claim="hilbert.symbol-table",
        method="Hilbert symbols at 2, the odd primes of both square classes, and infinity",
        inputs={"a": frac_str(a), "b": frac_str(b)},
        witness={
            "symbols": [[str(v), s] for v, s in table],
            "product_over_places": (-1) ** len(ramified),  # every symbol is +-1
            "ramified_places": ramified,
            "division": bool(ramified),
        },
        notes=("the symbols multiply to one over all places; ramified places come in pairs",),
    )


def run_hilbert(cfg: RunConfig) -> dict:
    return make_bundle("hilbert", cfg, [_symbol_table_claim(cfg)])


def _resolve_algebra(cfg: RunConfig):
    try:
        algebra = cfg.algebra
    except ValueError as e:
        raise ConfigError(str(e))
    if _algebra_symbols(algebra) != _ADMISSIBLE:
        raise ConfigError(f"b={cfg.b} does not give a division algebra split at 2 and at infinity")
    return algebra


def _units_slice_claim(cfg: RunConfig) -> Certificate:
    if cfg.order_kind == SATURATED and cfg.d % 4 != 1:
        raise ConfigError("the 2-saturated order needs d = 1 mod 4")
    algebra = _resolve_algebra(cfg)
    if cfg.order_kind == SATURATED:
        slice_ = enumerate_units_saturated(algebra, cfg.unit_height)
    else:
        slice_ = enumerate_units(algebra, cfg.unit_height)
    torsion = torsion_check(slice_)
    witness = {
        "a": frac_str(algebra.a),
        "b": frac_str(algebra.b),
        "order_kind": cfg.order_kind,
        "bound": cfg.unit_height,
        "count": len(slice_.elements),
        "first_elements": [coords_json(u) for u in slice_.elements[:8]],
        "slice_torsion_free": torsion["slice_torsion_free"],
        "algebra_torsion_free": torsion["algebra_torsion_free"],
    }
    notes = ()
    if cfg.order_kind == SATURATED:
        notes = (mod2_image_obstruction(algebra),)
    return Certificate(
        claim="units.slice",
        method="exhaustive norm-one coordinate enumeration up to the height bound",
        inputs={"d": cfg.d, "unit_height": cfg.unit_height, "order_kind": cfg.order_kind},
        witness=witness,
        notes=notes,
    )


def run_units(cfg: RunConfig) -> dict:
    return make_bundle("units", cfg, [_units_slice_claim(cfg)])


def _intersect_index_claim(cfg: RunConfig) -> Certificate:
    h = _conjugator(cfg.h, lambda: _resolve_algebra(cfg))
    return _index_certificate("intersect.index", h, {"h": cfg.h}, _explicit_claim(cfg))


def run_intersect(cfg: RunConfig) -> dict:
    return make_bundle("intersect", cfg, [_intersect_index_claim(cfg)])


PIPELINES = {
    "dihedral": run_dihedral,
    "quaternionic": run_quaternionic,
    "sl2z": run_sl2z,
    "hilbert": run_hilbert,
    "units": run_units,
    "intersect": run_intersect,
}


# --------------------------------------------------------------------------
# re-verification
#
# Every claim is re-checked by rebuilding it.  The bundle's config is read
# once, and it must round-trip and match config_hash.  A search claim's
# found objects are read back from its witness and checked to be what they
# claim to be, and what the pipeline took from its search (a closure, a
# trace) is recomputed.  A search runs again only where the claim rests on
# its exhaustion: the joint search behind an empty list at a = +-1, a
# refuted surjectivity search, and a trace search that recorded no pair.
# The claim's builder rebuilds it, every field but the verdict must match,
# and the claim's rule checks the verdict.  The pipelines re-verify in
# make_bundle before returning, and a fresh process can call
# reverify_bundle on a parsed bundle file.


def _cfg_from_bundle(bundle) -> RunConfig:
    """The run's config read back from the bundle, claimed_index counting as
    set exactly when compare_claimed is "1".  The recorded config must be
    the one config_mapping gives for it and hash to config_hash."""
    recorded = bundle["config"]
    cfg = load_config(None, [f"{k}={v}" for k, v in recorded.items() if k in _KEYS])
    cfg = replace(cfg, explicit=frozenset({"claimed_index"} if recorded.get("compare_claimed") == "1" else ()))
    _expect(config_mapping(cfg) == recorded, "the recorded config is not the canonical form of a config")
    _expect(config_hash(cfg) == bundle["config_hash"], "config_hash is not the hash of the recorded config")
    return cfg


def _read_unit(coords, cfg: RunConfig, kind=STANDARD):
    """A recorded unit, which must have norm one and height at most
    unit_height; a standard-order one must be integral, and a 2-saturated
    one integral at 2, which reducing it checks."""
    u = cfg.algebra.element(*(parse_frac(c) for c in coords))
    integral = kind == SATURATED or all(c.denominator == 1 for c in u.coords())
    _expect(integral and u.nrd() == 1, f"unit {coords_json(u)} is not a norm-one {kind}-order element")
    _expect(height(u) <= cfg.unit_height, f"unit {coords_json(u)} lies above unit_height {cfg.unit_height}")
    return u


def _read_invariants(recorded, gens, max_degree):
    """The recorded functions, each a nonconstant invariant of every
    generator with degree at most max_degree, checked by substitution
    against its character.  The substitution operators are built once per
    degree."""
    spaces, found = {}, []
    for data in recorded:
        f = InvariantFunction(
            degree=data["degree"],
            numerator=tuple(data["numerator"]),
            denominator=tuple(data["denominator"]),
            character=tuple(parse_frac(c) for c in data["character"]),
        )
        _expect(1 <= f.degree <= max_degree, f"recorded degree {f.degree} is outside 1 to {max_degree}")
        _expect(f.is_nonconstant(), f"recorded degree-{f.degree} function is constant")
        if f.degree not in spaces:
            spaces[f.degree] = BinaryFormSpace.build(gens, f.degree)
        _expect(_fixed_by(f, spaces[f.degree]), f"recorded degree-{f.degree} function is not invariant")
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


def _read_torsion_unit(claim, cfg: RunConfig):
    """The recorded finite-order unit, checked by its norm and trace.  The
    stream is scanned only when sqrt(-1) embeds."""
    coords = claim["witness"]["finite_order_unit"]
    if coords is None:
        return None
    _expect(embedding_flags(cfg.algebra)["embeds_sqrt_minus_1"], "a finite-order unit is recorded, but sqrt(-1) does not embed")
    u = _read_unit(coords, cfg)
    _expect(u.trd() in (-1, 0, 1), f"recorded unit {coords_json(u)} has trace {u.trd()}, not -1, 0 or 1")
    return u


def _read_obstruction_units(claim, cfg: RunConfig):
    """The recorded units, whose mod-2 images must differ.  The splitting
    must send every basis element, so every standard-order element, to a
    matrix [[x, y], [b y, x]] mod 2; only two of those have determinant 1,
    so the standard order misses SL2(Z/2) at every height."""
    algebra = cfg.algebra
    split = split_2adic(algebra)
    basis = [split.residues(algebra.element(*(int(k == m) for k in range(4))), 1) for m in range(4)]
    _expect(all(x == x2 and by == algebra.b * y % 2 for x, y, by, x2 in basis),
            "the standard basis does not reduce mod 2 into [[x, y], [b y, x]]")
    found = [_read_unit(entry["coords"], cfg) for entry in claim["witness"]["images"]]
    _expect(len(set(reduce_units(found, split, 1))) == len(found), "two recorded units share a mod-2 image")
    return found


def _read_surjectivity(claim, cfg: RunConfig):
    """The recorded saturated units, the closure of their images at
    min(k_max, BASE_LEVEL), recomputed, and the recorded kernel words, whose
    letters must name those units.  Levels that end in one that does not
    surject say that the search read every unit up to unit_height, so the
    search runs again."""
    witness, split = claim["witness"], split_2adic(cfg.algebra)
    if not witness["levels"][-1]["surjects"]:
        return _surjectivity_search(cfg, split)
    units = [_read_unit(g["coords"], cfg, SATURATED) for g in witness["generators"]]
    k_top = min(cfg.k_max, BASE_LEVEL)
    _, table = images_surject(reduce_units(units, split, k_top), k_top)
    _expect(len(table.generators) == len(units), "a recorded generator lies in the closure of the ones before it")
    words = witness.get("kernel_words")
    if words is None:
        return units, table, None
    _expect(all(0 <= i < len(units) and s in (1, -1) for w in words for i, s in w), "a kernel word names no recorded generator")
    return units, table, [tuple(map(tuple, w)) for w in words]


def _read_sl2z_element(entries):
    """A recorded element of SL2(Z), as its entries a, b, c, d."""
    a, b, c, d = x = tuple(parse_frac(e) for e in entries)
    _expect(all(e.denominator == 1 for e in x), f"element {entries} has an entry that is not an integer")
    _expect(a * d - b * c == 1, f"element {entries} has determinant {a * d - b * c}, not 1")
    return x


def _read_trace_pair(pipeline: str, claim, cfg: RunConfig):
    """The recorded pair X, Y, each checked to lie in Gamma, as coordinate
    vectors, and the trace of X h Y h^-1 recomputed by three matrix
    products; no slice is enumerated.  With no pair recorded, the search
    runs again: over the 16 sl2z pairs, or over the standard units up to
    unit_height, which it reads only when the trace form is not integral."""
    H, basis = _trace_frame(pipeline, cfg)
    if pipeline == "sl2z":
        vectors, read = SL2Z_SPAN, _read_sl2z_element
    else:
        stream = UnitStream(cfg.algebra, STANDARD, cfg.unit_height)
        vectors, read = (u.coords() for u in stream), lambda c: _read_unit(c, cfg).coords()
    if claim["witness"] is None:
        return find_nonintegral_trace(H, basis, vectors)
    u, v = (read(entry) for entry in claim["witness"]["units"])
    return u, v, pair_trace(H, basis, u, v)


def _scales_by_a_squared(witness, inputs):
    a = parse_frac(inputs["a"])
    return MobiusMap.from_rows(rows_from_json(witness["matrix"])) == MobiusMap.from_rows(((1, 0), (0, a * a)))


def _index_agrees(witness, inputs):
    return witness.get("agrees_with_claimed", True)


def _witnessed(witness, inputs):
    """The rule of a claim that records a witness only when it holds: what a
    search found, or the unit dump."""
    return True


# claim id -> (holds, build, read), in bundle order.  holds(witness, inputs)
# is the rule that decides a witnessed claim's verdict, in the pipelines and
# in re-verification alike.  build is the claim's one builder, which its
# pipeline calls too: build(cfg) for a computed claim, whose read is None,
# and build(cfg, found) for a search claim, whose read(claim, cfg) reads
# found back from the witness.
_CLAIM_KINDS = {
    "dihedral.commutator-map": (_scales_by_a_squared, _commutator_map_claim, None),
    "dihedral.commutator-order": (lambda w, _: w["order"] == INFINITE_ORDER, _commutator_order_claim, None),
    "dihedral.invariant-field-index.sigma":
        (lambda w, _: w["index"] == 2, partial(_field_index_claim, "sigma"), partial(_read_field_invariants, "sigma")),
    "dihedral.invariant-field-index.sigma-a":
        (lambda w, _: w["index"] == 2, partial(_field_index_claim, "sigma-a"), partial(_read_field_invariants, "sigma-a")),
    "dihedral.invariant-intersection": (lambda w, _: not w["joint_invariants"], _joint_claim, _read_joint_invariants),
    "quaternionic.2adic-square": (lambda w, _: "square_root_residue" in w, _square_claim, None),
    "quaternionic.algebra": (lambda w, _: all(w[key] == v for key, v in _ADMISSIBLE.items()), _algebra_claim, None),
    "quaternionic.torsion-free": (lambda w, _: w["algebra_torsion_free"], _torsion_claim, _read_torsion_unit),
    "quaternionic.standard-order-obstruction":
        (lambda w, _: w["image_order_mod_2"] < w["group_order_mod_2"], _obstruction_claim, _read_obstruction_units),
    "quaternionic.congruence-surjectivity":
        (lambda w, _: all(e["surjects"] for e in w["levels"]), _surjectivity_claim, _read_surjectivity),
    "quaternionic.intersection-index": (_index_agrees, _quaternionic_index_claim, None),
    "quaternionic.nondiscrete":
        (_witnessed, partial(_nondiscrete_claim, "quaternionic"), partial(_read_trace_pair, "quaternionic")),
    "sl2z.intersection-index": (_index_agrees, _sl2z_index_claim, None),
    "sl2z.nondiscrete": (_witnessed, partial(_nondiscrete_claim, "sl2z"), partial(_read_trace_pair, "sl2z")),
    "hilbert.symbol-table": (lambda w, _: w["product_over_places"] == 1, _symbol_table_claim, None),
    "units.slice": (_witnessed, _units_slice_claim, None),
    "intersect.index": (_index_agrees, _intersect_index_claim, None),
}


def _rule_verdict(claim_id: str, witness, inputs) -> str:
    if witness is None:
        return SEARCH_EXHAUSTED
    holds, _, _ = _CLAIM_KINDS[claim_id]
    return VERIFIED if holds(witness, inputs) else REFUTED


def _expected(claim, cfg, stub) -> dict:
    """The claim as it must read: stub for a stage that did not run (None
    for any other claim), a context's standing claim, and any other claim as
    its builder rebuilds it, from the checked config cfg (or the exception
    that reading it raised) and, for a search claim, from what it found.  A
    claim may go without a witness only as not-found."""
    cid = claim["id"]
    if stub is not None:
        return stub
    if cid in _CONTEXTS:
        return _context(cid).as_dict()
    _expect(cid in _CLAIM_KINDS, "no re-verifier for this claim")
    holds, build, read = _CLAIM_KINDS[cid]
    if claim["witness"] is None:
        _expect(claim["verdict"] != ASSUMPTION, "only context and stages that did not run are assumptions")
        _expect(claim["verdict"] == SEARCH_EXHAUSTED, f"a claim without a witness cannot be {claim['verdict']}")
        _expect(read is None or holds is _witnessed, "this claim always records a witness")
    if isinstance(cfg, Exception):
        raise cfg
    want = build(cfg) if read is None else build(cfg, read(claim, cfg))
    return json.loads(json.dumps(want.as_dict()))


def _expect_as_rebuilt(claim, want, stub):
    """A stub and a context must be as expected.  Any other claim must match
    its rebuild in every field but the verdict, and the reason names each
    field that differs, and each differing key of the inputs and the
    witness; then its verdict must be the one its rule gives."""
    if stub is not None:
        _expect(claim == stub, f"{stub['depends_on'][0]} is not verified, so this stage must be the stub of one that did not run")
    elif claim["id"] in _CONTEXTS:
        _expect(claim == want, "the context differs from the standing one")
    else:
        differ = []
        for key in sorted((set(claim) | set(want)) - {"verdict"}):
            got, expected = claim.get(key), want.get(key)
            if isinstance(got, dict) and isinstance(expected, dict):
                differ += [f"{key}.{k}" for k in sorted(set(got) | set(expected)) if got.get(k) != expected.get(k)]
            elif got != expected:
                differ.append(key)
        _expect(not differ, f"the claim rebuilt from the config differs in {', '.join(differ)}")
        _expect(claim["verdict"] == want["verdict"], f"the rule gives {want['verdict']} for this witness, not {claim['verdict']}")


def _claim_list_problem(bundle):
    """Why the bundle does not list its pipeline's claim ids, once each and
    in order, or None when it does."""
    pipeline = bundle["pipeline"]
    want = [cid for cid in (*_CLAIM_KINDS, *_CONTEXTS) if cid.split(".")[0] == pipeline]
    got = [claim["id"] for claim in bundle["claims"]]
    missing = [cid for cid in want if cid not in got]
    if missing:
        return f"the bundle lists no {missing[0]} claim"
    if got != want:
        return f"the claims are not the {pipeline} pipeline's, once each and in order"
    return None


def reverify_bundle(bundle: dict):
    """Re-check every claim from the bundle content alone.

    The config is read once; it must round-trip and hash to config_hash.
    Every claim is rebuilt by its builder, a search claim from what it
    found, read back from its witness, and must match the rebuild; its
    verdict must then be the one the claim's rule gives.  A quaternionic
    stage that follows the first blocking stage that is not verified must
    be its _not_run stub, and no other stage may be one; the rebuilt
    verdict places the stubs, so a tampered verdict or witness fails once,
    on its own claim.  Returns [(claim id, ok, reason)] covering all
    claims, plus a failing entry under the pipeline's name when the bundle
    does not list that pipeline's claims in order.  reason is None for a
    passing claim; otherwise it names the check that failed, or gives the
    type and message of the exception the check raised.
    """
    try:
        cfg = _cfg_from_bundle(bundle)
    except Exception as e:  # every claim that needs the config fails with it
        cfg = e
    methods = dict(_QUATERNIONIC_STAGES)
    results, blocker = [], None
    for claim in bundle["claims"]:
        cid, reason, verdict = claim["id"], None, claim["verdict"]
        stub = _not_run(cid, methods[cid], blocker).as_dict() if blocker and cid in methods else None
        try:
            want = _expected(claim, cfg, stub)
            verdict = want["verdict"]  # a claim that cannot be rebuilt keeps its own
            _expect_as_rebuilt(claim, want, stub)
        except _Mismatch as e:
            reason = str(e)
        except Exception as e:
            reason = f"{type(e).__name__}: {e}"
        results.append((cid, reason is None, reason))
        if cid in methods and not blocker and _blocks(cid, verdict):
            blocker = cid
    problem = _claim_list_problem(bundle)
    if problem:
        results.append((bundle["pipeline"], False, problem))
    return results


def _check_reverify(bundle: dict):
    # round-trip through the serialized form so re-verification sees
    # exactly what a reader of the file would see
    parsed = json.loads(render_bundle(bundle))
    bad = [f"{cid} ({reason})" for cid, ok, reason in reverify_bundle(parsed) if not ok]
    if bad:
        raise AssertionError(f"witness re-verification failed for: {'; '.join(bad)}")
