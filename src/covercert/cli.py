"""Command line front end.

covercert PIPELINE [--config PATH] [--set KEY=VALUE]... [--out PATH] runs
one pipeline on an optional config file (key = value lines) plus --set
overrides and writes the certificate bundle to --out or stdout.

Exit codes: 0 when every claim was verified (or a search came back empty
or context was recorded), 1 when some claim was refuted at its level,
2 for configuration or usage errors, 3 when the run could not finish (a
blown budget or an internal fault).  Exit 1 is a verdict, so no error ever
takes it; codes 2 and 3 print one "error:" line on stderr.
"""

from __future__ import annotations

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

_EXPECTED = "expected one of " + ", ".join(PIPELINE_NAMES)


def parse_args(argv):
    """(pipeline, config, overrides, out) from argv, or None for -h/--help.
    Each flag takes its value as the next argument or after "="; --set
    repeats, and a repeated --config or --out keeps its last value.  A usage
    error prints one "error:" line and raises SystemExit(2)."""
    pipeline, opts, args = None, {"--config": [None], "--set": [], "--out": [None]}, iter(argv)
    for arg in args:
        flag, eq, value = arg.partition("=")
        if arg in ("-h", "--help"):
            return None
        if flag in opts:
            value = value if eq else next(args, "-")  # a missing value reads as a flag
            if value.startswith("-") and not eq:
                raise SystemExit(_error(f"{flag} needs a value", 2))
            opts[flag].append(value)
        elif arg.startswith("-"):
            raise SystemExit(_error(f"unknown option {arg!r}", 2))
        elif pipeline is None and arg in PIPELINE_NAMES:
            pipeline = arg
        else:
            raise SystemExit(_error(f"unexpected argument {arg!r}" if pipeline else f"unknown pipeline {arg!r}; {_EXPECTED}", 2))
    if pipeline is None:
        raise SystemExit(_error(f"no pipeline given; {_EXPECTED}", 2))
    return pipeline, opts["--config"][-1], opts["--set"], opts["--out"][-1]


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args is None:
        print("usage: covercert PIPELINE [--config PATH] [--set KEY=VALUE]... [--out PATH]\n\npipelines:")
        print("".join(f"  {name:<14}{_HELP[name]}\n" for name in PIPELINE_NAMES), end="")
        return 0
    pipeline, config, overrides, out = args
    try:
        cfg = load_config(config, overrides)
        # the one pipeline module this run needs is imported here, so a
        # module that fails to import exits 3 like any other fault
        bundle = pipeline_runner(pipeline)(cfg)
        text = render_bundle(bundle)
        if not out:
            sys.stdout.write(text)
    except ConfigError as e:
        return _error(str(e), 2)
    except Exception as e:
        return _error(f"{type(e).__name__}: {e}", 3)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
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
