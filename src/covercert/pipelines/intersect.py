"""The intersect pipeline: one intersection index [Gamma : Gamma cap h
Gamma h^-1], with its factor at every prime.  Its index claim is the one
the quaternionic and sl2z pipelines record too; it needs commens alone."""

from __future__ import annotations

from ..commens import Conjugator, local_intersection, psi
from ..core import Certificate, ConfigError, RunConfig, make_bundle, parse_conjugator_spec

INDEX_METHOD = "closed form: psi of the local elementary divisors of h, multiplied over the primes"
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
        return Conjugator.from_quaternion(algebra(), data)
    except ValueError as e:
        raise ConfigError(str(e))


def _index_agrees(witness, inputs):
    return witness.get("agrees_with_claimed", True)


def _intersect_index_claim(cfg: RunConfig) -> Certificate:
    def algebra():  # imported here: a rational h loads neither quatalg nor hilbert
        from .hilbert import _resolve_algebra
        return _resolve_algebra(cfg)

    h = _conjugator(cfg.h, algebra)
    return _index_certificate("intersect.index", h, {"h": cfg.h}, _explicit_claim(cfg))


def run_intersect(cfg: RunConfig) -> dict:
    return make_bundle("intersect", cfg, [_intersect_index_claim(cfg)])


# claim id -> (holds, build, read); see core
CLAIM_KINDS = {
    "intersect.index": (_index_agrees, _intersect_index_claim, None),
}
