"""The certificate core: verdicts, serialization, configuration, bundles and
re-verification.

Each pipeline runs an ordered list of stages against one configuration and
emits a bundle: a JSON document listing one claim per stage, with the exact
inputs, the method, a verdict, and a witness that can be re-checked from
the bundle alone.  Verdicts come from a fixed four-word vocabulary:

  verified               the stated check ran and passed
  refuted-at-this-level  the stated check ran and failed at the stated bound
  not-found              a search exhausted its budget without a witness
  assumption             context recorded without a computation

Each pipeline lives in its own module, covercert.pipelines.<name>.  Its
CLAIM_KINDS table gives each claim id its one builder, which the pipeline
and re-verification both call, its one rule, which decides the verdict
from the witness, and for a search claim its one finder, which is both the
search and the reader of what the search found.  No witness gives
not-found, and otherwise the verdict is verified when the rule holds and
refuted-at-this-level when it does not.  Only context (the module's
CONTEXTS) and stages that did not run are assumptions.  A pipeline whose
stages rest on each other lists them in STAGES, claim id -> the method
that the stub of a stage that did not run records, and a stage that is not
verified stops the run unless it is in NON_BLOCKING; the stages that did
not run are still listed (verdict "assumption", with a note saying why) so
the bundle always shows the full stage plan.  run_pipeline is the one
claim loop of every pipeline, and it and reverify_bundle place the stubs
by one rule (_stub).

A pipeline module is imported only when a run or a claim id names it, and
only through PIPELINE_NAMES, so one run loads the code of its own pipeline
and of the layers that pipeline reaches.

Bundles are deterministic: object keys are sorted, rationals are rendered
as "num/den" strings, matrices are row-major arrays, and nothing depends
on the clock.  Two runs with the same effective configuration produce
byte-identical output.
"""

from __future__ import annotations

import importlib
import json
from collections import namedtuple
from fractions import Fraction
from functools import cached_property

# hashlib's built-in fallback: hashlib itself loads OpenSSL in every process
try:
    from _sha256 import sha256
except ImportError:  # renamed _sha2 in Python 3.12
    from _sha2 import sha256

from . import __version__

VERIFIED = "verified"
REFUTED = "refuted-at-this-level"
SEARCH_EXHAUSTED = "not-found"
ASSUMPTION = "assumption"

VERDICTS = (VERIFIED, REFUTED, SEARCH_EXHAUSTED, ASSUMPTION)

# the pipelines, in the order the command line lists them
PIPELINE_NAMES = ("dihedral", "quaternionic", "sl2z", "hilbert", "units", "intersect")

# the unit orders order_kind names: units.STANDARD and units.SATURATED
ORDER_KINDS = ("standard", "2-saturated")


class ConfigError(ValueError):
    """Raised for malformed configuration files or override strings."""


# --------------------------------------------------------------------------
# serialization helpers


def frac_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def rows_json(rows):
    """Row-major matrix of rationals as nested "num/den" strings."""
    return [[frac_str(e) for e in row] for row in rows]


def unit_json(x, s=1):
    """The coordinates of the quaternion x/s as "num/den" strings."""
    return [frac_str(Fraction(c, s)) for c in x]


_LEAVES = (str, int, type(None))  # checked in place: most of a bundle is leaves


def _require_plain(obj, path="$"):
    """TypeError unless obj holds only dicts with str keys, lists, str, int
    and None: the values that a JSON round trip returns unchanged."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError(f"key {k!r} at {path} is not a string")
            if not isinstance(v, _LEAVES):
                _require_plain(v, f"{path}.{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            if not isinstance(v, _LEAVES):
                _require_plain(v, f"{path}[{i}]")
    elif not isinstance(obj, _LEAVES):
        raise TypeError(f"{type(obj).__name__} at {path}; a bundle holds only exact JSON values")


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


# config key -> default; a default's type (int, Fraction or str) picks the
# key's parser
_DEFAULTS = {
    "d": 17,
    "a": Fraction(2),
    "b": 0,
    "unit_height": 50,
    "k_max": 5,
    "h": "1,-1/2,0,1",
    "invariant_degree": 8,
    "claimed_index": 3,
    "pair": "-1,-1",
    "order_kind": "2-saturated",
}


class RunConfig(namedtuple("RunConfig", [*_DEFAULTS, "explicit"], defaults=[*_DEFAULTS.values(), frozenset()])):
    """Effective configuration for one pipeline run.

    Every field but `explicit` is a config key with its default.
    `explicit` records which keys were actually set by the user (file or
    override), as opposed to defaulted.  Pipelines use it to decide whether
    an index comparison was requested.  There are no __slots__, so that
    algebra can be cached on the instance.
    """

    def pair_values(self):
        parts = [p.strip() for p in self.pair.split(",")]
        if len(parts) != 2:
            raise ConfigError("pair needs exactly two entries")
        a, b = (_as_frac(p) for p in parts)
        if a == 0 or b == 0:
            raise ConfigError("pair entries must be nonzero")
        return a, b

    @cached_property
    def algebra(self):
        """(d, b) for an explicit b, else the first admissible algebra that
        find_example_algebra finds; ValueError for a d that is a perfect
        square or not a 2-adic square.  Resolved once per config."""
        # imported here: a pipeline that reads no algebra loads no quatalg
        from .quatalg import QuaternionAlgebra, find_example_algebra

        if self.b:
            return QuaternionAlgebra(self.d, self.b)
        return find_example_algebra(self.d)


# key -> parser
_PARSERS = {int: _as_int, Fraction: _as_frac, str: str}
_KEYS = {key: _PARSERS[type(default)] for key, default in _DEFAULTS.items()}


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
    for key in ("unit_height", "k_max", "invariant_degree", "claimed_index"):
        if getattr(cfg, key) < 1:
            raise ConfigError(f"{key} must be positive")
    if cfg.order_kind not in ORDER_KINDS:
        raise ConfigError(f"order_kind must be {ORDER_KINDS[0]!r} or {ORDER_KINDS[1]!r}")
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
    return sha256(blob.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------
# pipeline modules


def pipeline_module(name):
    """The module of the pipeline called name, imported on first use, or
    None when name is not in PIPELINE_NAMES: a name read from a bundle is
    compared with that table, never imported itself."""
    if name not in PIPELINE_NAMES:
        return None
    return importlib.import_module(f"{__package__}.pipelines.{name}")


def pipeline_runner(name):
    """run_<name> of the pipeline called name, a name in PIPELINE_NAMES:
    what the command line runs, and what certify.PIPELINES maps name to."""
    return getattr(pipeline_module(name), f"run_{name}")


# A pipeline module's CLAIM_KINDS maps claim id -> (holds, build, find), in
# bundle order.  holds(witness, inputs) is the rule that decides a witnessed
# claim's verdict, in the pipelines and in re-verification alike.  build is
# the claim's one builder: build(cfg) for a computed claim, whose find is
# None, and build(cfg, found) for a search claim.  find(cfg) runs the
# search; find(cfg, claim) reads found back from the claim's witness and
# checks it, and searches again only where the claim rests on the search's
# exhaustion.


def _table(claim_id, name):
    """The table called name (CLAIM_KINDS, CONTEXTS, STAGES or
    NON_BLOCKING) of the pipeline module that the prefix of claim_id names;
    empty when the prefix names no pipeline or its module has no such
    table."""
    module = pipeline_module(claim_id.split(".")[0]) if isinstance(claim_id, str) else None
    return getattr(module, name, {})


# --------------------------------------------------------------------------
# certificates and bundles


class _Mismatch(Exception):
    """A check on a claim failed; the message names the check.  In a
    pipeline it is an internal fault."""


def _expect(ok, what: str):
    if not ok:
        raise _Mismatch(what)


class Certificate:
    """One claim.  Its verdict is what the claim's rule gives for the
    witness; only context and stages that did not run pass one."""

    __slots__ = ("claim", "method", "inputs", "witness", "depends_on", "notes", "verdict")

    def __init__(self, claim: str, method: str, inputs: dict, witness: dict | None = None,
                 depends_on: tuple = (), notes: tuple = (), verdict: str | None = None):
        if verdict is None:
            verdict = _rule_verdict(claim, witness, inputs)
        if verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {verdict!r}")
        self.claim, self.method, self.inputs, self.witness = claim, method, inputs, witness
        self.depends_on, self.notes, self.verdict = depends_on, notes, verdict

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


def _context(claim: str) -> Certificate:
    """Standing context, recorded as an assumption without a computation;
    its note is the one in its pipeline's CONTEXTS."""
    note = _table(claim, "CONTEXTS")[claim]
    return Certificate(claim=claim, verdict=ASSUMPTION, method="recorded, not computed", inputs={}, notes=(note,))


def _stub(claim_id: str, blocker) -> Certificate | None:
    """The _not_run stub that a stage must be once the stage blocker has
    stopped the run, or None for a claim that runs: no stage has blocked,
    or the claim is not in its pipeline's STAGES."""
    methods = _table(claim_id, "STAGES")
    return _not_run(claim_id, methods[claim_id], blocker) if blocker and claim_id in methods else None


def _blocks(claim_id: str, verdict: str) -> bool:
    """Whether a stage with this verdict stops the run: one in its
    pipeline's STAGES that is not verified and not NON_BLOCKING."""
    return claim_id in _table(claim_id, "STAGES") and verdict != VERIFIED and claim_id not in _table(claim_id, "NON_BLOCKING")


def make_bundle(pipeline: str, cfg: RunConfig, claims) -> dict:
    """The pipeline's bundle, plain and re-verified as built before it is returned."""
    bundle = {
        "tool": "covercert",
        "tool_version": __version__,
        "pipeline": pipeline,
        "config": config_mapping(cfg),
        "config_hash": config_hash(cfg),
        "claims": [c.as_dict() for c in claims],
    }
    _require_plain(bundle)
    bad = [f"{cid} ({reason})" for cid, ok, reason in reverify_bundle(bundle) if not ok]
    if bad:
        raise AssertionError(f"witness re-verification failed for: {'; '.join(bad)}")
    return bundle


def run_pipeline(name: str, cfg: RunConfig) -> dict:
    """The bundle of the pipeline called name, a name in PIPELINE_NAMES: each
    claim of its CLAIM_KINDS in order, built by build(cfg) or, for a search
    claim, build(cfg, find(cfg)); each stage after the first one that
    blocks is its stub, and the CONTEXTS follow.  A stage may use what the
    stages before it checked, as none runs after one that blocks."""
    module = pipeline_module(name)
    claims, blocker = [], None
    for cid, (_, build, find) in module.CLAIM_KINDS.items():
        claim = _stub(cid, blocker) or (build(cfg) if find is None else build(cfg, find(cfg)))
        claims.append(claim)
        if not blocker and _blocks(cid, claim.verdict):
            blocker = cid
    claims += [_context(cid) for cid in getattr(module, "CONTEXTS", {})]
    return make_bundle(name, cfg, claims)


def render_bundle(bundle: dict) -> str:
    _require_plain(bundle)
    return json.dumps(bundle, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def bundle_exit_code(bundle: dict) -> int:
    """1 when any claim was refuted at its level, else 0."""
    for claim in bundle["claims"]:
        if claim["verdict"] == REFUTED:
            return 1
    return 0


# --------------------------------------------------------------------------
# re-verification
#
# Every claim is re-checked by rebuilding it.  The bundle's config is read
# once, and it must round-trip and match config_hash.  A search claim's
# finder reads its found objects back from its witness and checks them to
# be what they claim to be, and what the pipeline took from its search (a
# closure, a trace) is recomputed.  The finder searches again only where
# the claim rests on the search's exhaustion: a refuted surjectivity
# search, and a torsion or trace search that recorded no unit or pair.  A
# computed claim, such as a complete listing of invariants, is rebuilt
# whole.
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
    cfg = cfg._replace(explicit=frozenset({"claimed_index"} if recorded.get("compare_claimed") == "1" else ()))
    _expect(config_mapping(cfg) == recorded, "the recorded config is not the canonical form of a config")
    _expect(config_hash(cfg) == bundle["config_hash"], "config_hash is not the hash of the recorded config")
    return cfg


def _witnessed(witness, inputs):
    """The rule of a claim that records a witness only when it holds: what a
    search found, or the unit dump."""
    return True


def _rule_verdict(claim_id: str, witness, inputs) -> str:
    if witness is None:
        return SEARCH_EXHAUSTED
    holds, _, _ = _table(claim_id, "CLAIM_KINDS")[claim_id]
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
    if cid in _table(cid, "CONTEXTS"):
        return _context(cid).as_dict()
    kinds = _table(cid, "CLAIM_KINDS")
    _expect(cid in kinds, "no re-verifier for this claim")
    holds, build, find = kinds[cid]
    if claim["witness"] is None:
        _expect(claim["verdict"] != ASSUMPTION, "only context and stages that did not run are assumptions")
        _expect(claim["verdict"] == SEARCH_EXHAUSTED, f"a claim without a witness cannot be {claim['verdict']}")
        _expect(find is None or holds is _witnessed, "this claim always records a witness")
    if isinstance(cfg, Exception):
        raise cfg
    want = (build(cfg) if find is None else build(cfg, find(cfg, claim))).as_dict()
    _require_plain(want)  # Fraction(1) == 1: a builder's Fraction would match a file's int
    return want


def _expect_as_rebuilt(claim, want, stub):
    """A stub and a context must be as expected.  Any other claim must match
    its rebuild in every field but the verdict, and the reason names each
    field that differs, and each differing key of the inputs and the
    witness; then its verdict must be the one its rule gives."""
    if stub is not None:
        _expect(claim == stub, f"{stub['depends_on'][0]} is not verified, so this stage must be the stub of one that did not run")
    elif claim["id"] in _table(claim["id"], "CONTEXTS"):
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
    module = pipeline_module(pipeline)
    want = [*getattr(module, "CLAIM_KINDS", {}), *getattr(module, "CONTEXTS", {})]
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
    verdict must then be the one the claim's rule gives.  A stage that
    follows the first blocking stage that is not verified must be its
    _not_run stub, and no other stage may be one; the rebuilt verdict
    places the stubs, so a tampered verdict or witness fails once, on its
    own claim.  Returns [(claim id, ok, reason)] covering all claims, plus
    a failing entry under the pipeline's name when the bundle does not list
    that pipeline's claims in order.  reason is None for a passing claim;
    otherwise it names the check that failed, or gives the type and message
    of the exception the check raised.
    """
    try:
        cfg = _cfg_from_bundle(bundle)
    except Exception as e:  # every claim that needs the config fails with it
        cfg = e
    results, blocker = [], None
    for claim in bundle["claims"]:
        cid, reason, verdict = claim["id"], None, claim["verdict"]
        stub = _stub(cid, blocker)
        stub = stub and stub.as_dict()
        try:
            want = _expected(claim, cfg, stub)
            verdict = want["verdict"]  # a claim that cannot be rebuilt keeps its own
            _expect_as_rebuilt(claim, want, stub)
        except _Mismatch as e:
            reason = str(e)
        except Exception as e:
            reason = f"{type(e).__name__}: {e}"
        results.append((cid, reason is None, reason))
        if not blocker and _blocks(cid, verdict):
            blocker = cid
    problem = _claim_list_problem(bundle)
    if problem:
        results.append((bundle["pipeline"], False, problem))
    return results
