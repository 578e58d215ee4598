"""Rewrite golden bundles from the table in test_certify.GOLDEN.

Usage: PYTHONPATH=src python tests/regen_golden.py [NAME ...]

With no names every file in the table is rewritten, otherwise only the
named ones.  Each bundle is computed in-process from the table's pipeline
and overrides and rendered exactly as test_golden_bundle_bytes compares it,
so a regenerated file cannot drift from the table.  Say in CHANGES.md why
a file's bytes changed.
"""

import sys

from covercert import certify
from covercert.certify import bundle_exit_code, load_config, render_bundle
from test_certify import GOLDEN, GOLDEN_DIR


def main(names) -> int:
    unknown = [name for name in names if name not in GOLDEN]
    if unknown:
        print(f"not in GOLDEN: {', '.join(unknown)}", file=sys.stderr)
        return 2
    for name in names or sorted(GOLDEN):
        pipeline, overrides, exit_code = GOLDEN[name]
        bundle = certify.PIPELINES[pipeline](load_config(None, overrides))
        if bundle_exit_code(bundle) != exit_code:
            print(f"{name}: exit code {bundle_exit_code(bundle)}, the table says {exit_code}", file=sys.stderr)
            return 1
        data = render_bundle(bundle).encode("utf-8")
        path = GOLDEN_DIR / f"{name}.json"
        state = "unchanged" if path.exists() and path.read_bytes() == data else "rewritten"
        path.write_bytes(data)
        print(f"{name}: {state}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
