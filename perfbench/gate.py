"""Correctness gate for benchmark operations.

Every operation is one ``covercert`` CLI call.  Its result fails the gate
when any of these holds:

- the exit code is outside the README contract {0, 1, 2}, or differs from
  the one the operation expects;
- stderr carries a Python traceback;
- stdout is not a bundle that validates against the packaged
  ``certificate_schema.json``;
- stdout differs from an earlier run of the same operation in this session;
- an answer disagrees with an oracle below.

The oracles are independent of covercert: they use only integer arithmetic
and published formulas, never the package's own code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

import jsonschema

CONTRACT_EXIT_CODES = (0, 1, 2)


# --------------------------------------------------------------------------
# oracles


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1 by trial division."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def psi(n: int) -> int:
    """Dedekind psi: n * prod_{p | n} (1 + 1/p), the index of Gamma_0(n)."""
    out = n
    for p in prime_factors(n):
        out = out // p * (p + 1)
    return out


def smith_form_2x2(m) -> tuple[int, int]:
    """Elementary divisors (d1, d2) of a nonsingular 2x2 integer matrix:
    d1 is the gcd of the entries and d1 * d2 = |det|."""
    (a, b), (c, d) = m
    d1 = gcd(gcd(a, b), gcd(c, d))
    return d1, abs(a * d - b * c) // d1


def primitive_scaling(rows) -> tuple[tuple[int, int], tuple[int, int]]:
    """The integral matrix with coprime entries on the line through a
    rational 2x2 matrix."""
    rows = [[Fraction(x) for x in row] for row in rows]
    den = 1
    for row in rows:
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
    ints = [[int(x * den) for x in row] for row in rows]
    g = gcd(*(x for row in ints for x in row))
    return tuple(tuple(x // g for x in row) for row in ints)


def rational_index(rows) -> int:
    """[SL2(Z) : SL2(Z) cap h SL2(Z) h^-1] for rational h.

    With h = U diag(d1, d2) V, U and V in GL2(Z), the index is psi(d2/d1)
    (Shimura 1971, section 3.1); scalars do not change it, so the primitive
    integral scaling of h gives d1 = 1.
    """
    d1, d2 = smith_form_2x2(primitive_scaling(rows))
    return psi(d2 // d1)


def two_adic_denominator(rows) -> int:
    """max(0, -min v_2) over the nonzero entries of h and h^-1."""
    rows = [[Fraction(x) for x in row] for row in rows]
    (a, b), (c, d) = rows
    det = a * d - b * c
    inv = [[d / det, -b / det], [-c / det, a / det]]
    vals = [_v2(x) for row in rows + inv for x in row if x != 0]
    return max(0, -min(vals))


def _v2(x: Fraction) -> int:
    n, d, v = x.numerator, x.denominator, 0
    while n % 2 == 0:
        n //= 2
        v += 1
    while d % 2 == 0:
        d //= 2
        v -= 1
    return v


def quaternion_index(coords, a: int, b: int) -> int:
    """2-local index for a quaternionic conjugator q in the algebra (a, b).

    With a = 1 mod 4 and a*b odd, the order Z<1, (1+i)/2, j, (j+k)/2> has odd
    reduced discriminant a*b, so at 2 it is M2(Z_2) when the algebra splits
    there.  Scaled by a power of 2 to lie in that order but not in twice it,
    q has elementary divisors (1, 2^n) with n = v_2(nrd q), and the index is
    the size of the radius-n sphere of the Bruhat-Tits tree, psi(2^n).
    """
    if a % 4 != 1 or (a * b) % 2 == 0:
        raise ValueError("needs a = 1 mod 4 and a*b odd")
    q = [Fraction(x) for x in coords]
    while not _in_saturated_order(q):
        q = [2 * x for x in q]
    while _in_saturated_order([x / 2 for x in q]):
        q = [x / 2 for x in q]
    x0, x1, x2, x3 = q
    nrd = x0 * x0 - a * x1 * x1 - b * x2 * x2 + a * b * x3 * x3
    return psi(2 ** _v2(nrd))


def _in_saturated_order(q) -> bool:
    doubled = [2 * x for x in q]
    if any(t.denominator != 1 for t in doubled):
        return False
    u, v, w, z = (int(t) for t in doubled)
    return (u - v) % 2 == 0 and (w - z) % 2 == 0


def sl2_order(p: int, k: int) -> int:
    """|SL2(Z/p^k)| = p^(3k-2) * (p^2 - 1)."""
    return p ** (3 * k - 2) * (p * p - 1)


# --------------------------------------------------------------------------
# the gate


@dataclass(frozen=True)
class Operation:
    """One CLI call and everything its result must satisfy.

    ``verdicts`` is the full ordered (claim id, verdict) vector.
    ``answers`` maps a claim id to witness keys and their required values.
    ``denominator_valuation``, when set, is the v in K = k + 2v that every
    level of the intersection claim must work at.  ``known_defect`` names a
    documented program defect that makes ``answers`` fail; such a failure
    still counts as failed, but not as unexpected.
    """

    argv: tuple
    exit_code: int
    verdicts: tuple
    answers: dict = field(default_factory=dict)
    denominator_valuation: int | None = None
    known_defect: str = ""

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Result:
    exit_code: int
    stdout: bytes
    stderr: bytes
    timed_out: bool = False


@dataclass(frozen=True)
class Failure:
    kind: str  # exit, timeout, traceback, schema, nondeterministic, answer
    detail: str


class Gate:
    """Checks operation results; remembers stdout per operation so a
    repeated operation that prints something else fails."""

    def __init__(self, schema: dict):
        jsonschema.Draft202012Validator.check_schema(schema)
        self._validator = jsonschema.Draft202012Validator(schema)
        self._seen: dict[str, bytes] = {}

    def check(self, op: Operation, res: Result) -> list[Failure]:
        if res.timed_out:
            return [Failure("timeout", "operation exceeded its time limit")]
        out = []
        if res.exit_code not in CONTRACT_EXIT_CODES:
            out.append(Failure("exit", f"exit code {res.exit_code} is outside the contract"))
        elif res.exit_code != op.exit_code:
            out.append(Failure("exit", f"exit code {res.exit_code}, expected {op.exit_code}"))
        if b"Traceback (most recent call last)" in res.stderr:
            out.append(Failure("traceback", res.stderr.decode(errors="replace").strip().splitlines()[-1]))
        previous = self._seen.setdefault(op.label, res.stdout)
        if previous != res.stdout:
            out.append(Failure("nondeterministic", "stdout differs from an earlier run"))
        try:
            bundle = json.loads(res.stdout)
        except ValueError:
            return out + [Failure("schema", "stdout is not JSON")]
        error = jsonschema.exceptions.best_match(self._validator.iter_errors(bundle))
        if error is not None:
            return out + [Failure("schema", error.message)]
        try:
            problems = answer_problems(op, bundle)
        except (KeyError, TypeError, ValueError) as e:
            problems = [f"witness has an unexpected shape: {e!r}"]
        return out + [Failure("answer", msg) for msg in problems]


def answer_problems(op: Operation, bundle: dict) -> list[str]:
    claims = {c["id"]: c for c in bundle["claims"]}
    got = tuple((c["id"], c["verdict"]) for c in bundle["claims"])
    problems = []
    if got != op.verdicts:
        problems.append(f"verdicts {got}, expected {op.verdicts}")
    for cid, want in op.answers.items():
        witness = (claims.get(cid) or {}).get("witness") or {}
        for key, value in want.items():
            if witness.get(key) != value:
                problems.append(f"{cid}: {key} = {witness.get(key)!r}, expected {value!r}")
    for claim in bundle["claims"]:
        problems += _level_problems(op, claim)
    return problems


def _level_problems(op: Operation, claim: dict) -> list[str]:
    """Group orders recorded at each level must match |SL2(Z/p^K)|."""
    problems = []
    intersection = claim["id"].endswith(("intersection-index", "intersect.index"))
    for entry in (claim["witness"] or {}).get("levels", []):
        where = f"{claim['id']} level {entry.get('level')}"
        if "group_order" in entry:  # surjectivity
            want = sl2_order(2, entry["level"])
            if entry["group_order"] != want or (entry["surjects"] and entry["image_order"] != want):
                problems.append(f"{where}: group/image order, expected {want}")
        for block in entry.get("blocks", []):  # sl2z, one block per prime
            p, _k, K = block["working_level"]
            if block["ambient_order"] != sl2_order(p, K):
                problems.append(f"{where}: ambient order at p={p}, expected {sl2_order(p, K)}")
        if "working_modulus" in entry and "ambient_order" in entry:
            K = entry["working_modulus"].bit_length() - 1
            if entry["working_modulus"] != 2 ** K or entry["ambient_order"] != sl2_order(2, K):
                problems.append(f"{where}: ambient order, expected {sl2_order(2, K)}")
        if intersection and op.denominator_valuation is not None:
            want = 2 ** (entry["level"] + 2 * op.denominator_valuation)
            if entry["working_modulus"] != want:
                problems.append(f"{where}: working modulus {entry['working_modulus']}, expected {want}")
    return problems
