"""The hilbert pipeline: one Hilbert-symbol table with the product-formula
check.  It also holds the config checks that the units and intersect
pipelines share with the quaternionic one: an explicit b must give an
admissible algebra (QuaternionAlgebra.admissible), and the 2-saturated
order needs d = 1 mod 4."""

from __future__ import annotations

from ..core import Certificate, ConfigError, RunConfig, frac_str, run_pipeline
from ..quatalg import symbol_table


def _resolve_algebra(cfg: RunConfig):
    try:
        algebra = cfg.algebra
    except ValueError as e:
        raise ConfigError(str(e))
    if not algebra.admissible:
        raise ConfigError(f"b={cfg.b} does not give a division algebra split at 2 and at infinity")
    return algebra


def _require_saturated_order(d: int):
    """The 2-saturated order of (d, b) exists only for d = 1 mod 4."""
    if d % 4 != 1:
        raise ConfigError("the 2-saturated order needs d = 1 mod 4")


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
    return run_pipeline("hilbert", cfg)


# claim id -> (holds, build, find); see core
CLAIM_KINDS = {
    "hilbert.symbol-table": (lambda w, _: w["product_over_places"] == 1, _symbol_table_claim, None),
}
