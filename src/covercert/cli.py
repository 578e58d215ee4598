"""Command line front end.

One subcommand per pipeline.  Every subcommand reads an optional config
file (key = value lines) plus repeatable --set overrides, runs the
pipeline, and writes the certificate bundle to --out or stdout.

Exit codes: 0 when every claim was verified (or a search came back empty
or context was recorded), 1 when some claim was refuted at its level,
2 for configuration or usage errors, 3 when the run could not finish (a
blown budget or an internal fault).  Exit 1 is a verdict, so no error ever
takes it; codes 2 and 3 print one "error:" line on stderr.
"""

from __future__ import annotations

import argparse
import sys

from .core import PIPELINE_NAMES, ConfigError, bundle_exit_code, load_config, pipeline_runner, render_bundle

_HELP = {
    "dihedral": "involution pair over Q: commutator order and invariant subfields",
    "quaternionic": "staged run: algebra, torsion, surjectivity, intersection index, discreteness",
    "sl2z": "rational conjugation of SL2(Z): intersection index and a non-integral trace",
    "hilbert": "Hilbert symbol table for one pair of rationals",
    "units": "dump a norm-one unit slice of a quaternion order",
    "intersect": "intersection index for one conjugator",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covercert",
        description="verify cover-intersection claims and emit certificate bundles",
    )
    sub = parser.add_subparsers(dest="pipeline", required=True, metavar="PIPELINE")
    for name in PIPELINE_NAMES:
        p = sub.add_parser(name, help=_HELP[name])
        p.add_argument("--config", metavar="PATH", default=None, help="config file of key = value lines")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )
        p.add_argument("--out", metavar="PATH", default=None, help="write the bundle here instead of stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
        # the one pipeline module this run needs is imported here, so a
        # module that fails to import exits 3 like any other fault
        bundle = pipeline_runner(args.pipeline)(cfg)
        text = render_bundle(bundle)
        if not args.out:
            sys.stdout.write(text)
    except ConfigError as e:
        return _error(str(e), 2)
    except Exception as e:
        return _error(f"{type(e).__name__}: {e}", 3)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            return _error(f"cannot write --out: {e}", 2)
    return bundle_exit_code(bundle)


def _error(message: str, code: int) -> int:
    """Print message as one "error:" line on stderr and return code."""
    print(f"error: {' '.join(message.split())}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
