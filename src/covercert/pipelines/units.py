"""The units pipeline: a norm-one unit slice dump with torsion flags."""

from __future__ import annotations

from ..core import Certificate, RunConfig, _witnessed, frac_str, run_pipeline, unit_json
from ..units import SATURATED, enumerate_units, enumerate_units_saturated, mod2_image_obstruction, torsion_check
from .hilbert import _require_saturated_order, _resolve_algebra


def _units_slice_claim(cfg: RunConfig) -> Certificate:
    if cfg.order_kind == SATURATED:
        _require_saturated_order(cfg.d)
    algebra = _resolve_algebra(cfg)
    if cfg.order_kind == SATURATED:
        stream = enumerate_units_saturated(algebra, cfg.unit_height)
    else:
        stream = enumerate_units(algebra, cfg.unit_height)
    torsion = torsion_check(stream)
    witness = {
        "a": frac_str(algebra.a),
        "b": frac_str(algebra.b),
        "order_kind": cfg.order_kind,
        "bound": cfg.unit_height,
        "count": len(stream.units),
        "first_elements": [unit_json(x, stream.scale) for x in stream.units[:8]],
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
    return run_pipeline("units", cfg)


# claim id -> (holds, build, find); see core
CLAIM_KINDS = {
    "units.slice": (_witnessed, _units_slice_claim, None),
}
