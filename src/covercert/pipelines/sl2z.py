"""The sl2z pipeline: the intersection index for h acting on SL2(Z), and the
non-discreteness of <Gamma, h Gamma h^-1> from one non-integral trace.  Its
trace claim is the one the quaternionic pipeline records too; it needs
fuchsian alone."""

from __future__ import annotations

from functools import partial

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
    parse_frac,
)
from ..fuchsian import RealQuadElem, find_nonintegral_trace, is_algebraic_integer, pair_trace, quaternion_basis, real_embed
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
MATRIX_UNITS = tuple(((int(m == 0), int(m == 1)), (int(m == 2), int(m == 3))) for m in range(4))
SL2Z_TRACE_METHOD = "scan pairs X, Y of I, T, U and [[2,1],[1,1]], which span M2(Z), for a non-integral tr(X h Y h^-1)"
NORMALISER_NOTE = ("every pair of the four has an integral trace, so by bilinearity h M2(Z) h^-1 = M2(Z): h lies in "
                   "Q^x GL2(Z) and normalises Gamma, and <Gamma, h Gamma h^-1> is Gamma itself")

# pipeline -> the claim's method, its note without a witness, and the config keys its inputs record
_TRACE_PLANS = {
    "quaternionic": (TRACE_METHOD, "every pair of units in this slice has an integral trace", ("d", "h", "unit_height")),
    "sl2z": (SL2Z_TRACE_METHOD, NORMALISER_NOTE, ("h",)),
}


def quad_json(x: RealQuadElem):
    return {"d": x.d, "u": frac_str(x.u), "v": frac_str(x.v)}


def _sl2z_rows(cfg: RunConfig):
    kind, rows = parse_conjugator_spec(cfg.h)
    if kind != "rational":
        raise ConfigError("this pipeline needs a rational conjugator matrix")
    return rows


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


def _sl2z_index_claim(cfg: RunConfig) -> Certificate:
    return _index_certificate("sl2z.intersection-index", Conjugator.from_rows(_sl2z_rows(cfg)), {"h": cfg.h}, _explicit_claim(cfg))


def run_sl2z(cfg: RunConfig) -> dict:
    index = _sl2z_index_claim(cfg)
    found = find_nonintegral_trace(*_trace_frame("sl2z", cfg), SL2Z_SPAN)  # at most 16 pairs
    return make_bundle("sl2z", cfg, [index, _nondiscrete_claim("sl2z", cfg, found), _context("sl2z.ramification-context")])


# --------------------------------------------------------------------------
# re-verification


def _read_sl2z_element(entries):
    """A recorded element of SL2(Z), as its entries a, b, c, d."""
    a, b, c, d = x = tuple(parse_frac(e) for e in entries)
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
    H, basis = _trace_frame(pipeline, cfg)
    if claim["witness"] is None:
        return find_nonintegral_trace(H, basis, vectors)
    u, v = (read(entry) for entry in claim["witness"]["units"])
    return u, v, pair_trace(H, basis, u, v)


# claim id -> (holds, build, read), in bundle order; see core
CLAIM_KINDS = {
    "sl2z.intersection-index": (_index_agrees, _sl2z_index_claim, None),
    "sl2z.nondiscrete": (_witnessed, partial(_nondiscrete_claim, "sl2z"), partial(_read_trace_pair, "sl2z")),
}
# claim id -> note, listed after the claims
CONTEXTS = {
    "sl2z.ramification-context": "the ambient modular family has cusps, so these covers are ramified there",
}
