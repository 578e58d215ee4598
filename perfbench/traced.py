"""Run one covercert CLI call with spans around the public layer functions.

Usage: python3 traced.py PIPELINE [ARGS...] with covercert importable and
PERFBENCH_SPANS naming the JSON file the spans are written to at exit.
With PERFBENCH_CPROFILE=1 the call also runs under cProfile, and the
profile's call count for each wrapped function is written alongside, to
cross-check the span counts.

Only layer entry points are wrapped.  Leaf arithmetic (exact, mat2, util
and the ResidueMatrix, Quaternion and RealQuadElem methods) runs millions
of times per call, so a wrapper there would dominate the run; its cost
lands in the self time of its callers.

Each span is [name, parent index, start, end, count]; count is what the
function returned, measured by the counter given below (or 0).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import covercert.cli
from covercert import certify

# (module, function, span name, counter over the return value)
TARGETS = (
    ("units", "enumerate_units_saturated", None, None),
    ("units", "enumerate_units", None, None),
    ("units", "reduce_units", None, len),
    ("units", "surjects_at_level", None, None),
    ("units", "torsion_check", None, None),
    ("modgroup", "closure", None, lambda t: t.order),
    # the lru_cache object itself, so that cache hits count as calls
    ("modgroup", "enumerate_group", None, lambda t: t.order),
    ("commens", "local_intersection", None, lambda r: r.modulus),
    ("commens", "sl2z_case", None, lambda r: r.modulus),
    ("fuchsian", "jorgensen_violation", None, None),
    ("fuchsian", "find_infinite_elliptic", None, None),
    ("mobius", "invariant_search", None, None),
    ("quatalg", "hilbert_symbol", None, None),
    ("quatalg", "split_2adic", None, None),
    ("certify", "reverify_bundle", None, None),
    ("certify", "render_bundle", None, None),
) + tuple(("certify", fn.__name__, "certify.pipeline", None) for fn in certify.PIPELINES.values())


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0, 0]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[3] = time.perf_counter()
            if counter is not None:
                span[4] = counter(result)
            return result

        return traced


def install(tracer: Tracer) -> dict:
    """Replace every covercert namespace entry that holds a target, since
    modules import each other's functions by name.  Returns span name ->
    the original functions recorded under it."""
    package = [m for n, m in sys.modules.items() if n == "covercert" or n.startswith("covercert.")]
    originals = {}
    for module, attr, name, counter in TARGETS:
        name = name or f"{module}.{attr}"
        orig = getattr(sys.modules[f"covercert.{module}"], attr)
        wrapped = tracer.wrap(name, orig, counter)
        for mod in package:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
        for key, value in certify.PIPELINES.items():
            if value is orig:
                certify.PIPELINES[key] = wrapped
        originals.setdefault(name, []).append(orig)
    return originals


def profile_counts(stats, originals: dict) -> dict:
    """cProfile call counts of the original functions, per span name.  For
    enumerate_group this is the cache misses only: the cache is native."""
    counts = {}
    for name, fns in originals.items():
        counts[name] = 0
        for fn in fns:
            code = getattr(fn, "__wrapped__", fn).__code__
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            counts[name] += stats.stats[key][1] if key in stats.stats else 0
    return counts


def main(argv) -> int:
    tracer = Tracer()
    originals = install(tracer)
    run = tracer.wrap("cli.main", covercert.cli.main)
    out = {"spans": tracer.spans}
    try:
        if os.environ.get("PERFBENCH_CPROFILE") == "1":
            import cProfile
            import pstats

            prof = cProfile.Profile()
            try:
                rc = prof.runcall(run, argv)
            finally:
                out["cprofile"] = profile_counts(pstats.Stats(prof), originals)
        else:
            rc = run(argv)
    finally:
        with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as fh:
            json.dump(out, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
