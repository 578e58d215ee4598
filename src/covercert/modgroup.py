"""The finite groups SL2(Z/p^k) and their subgroups as explicit tables.

Everything is stored extensionally: a subgroup is its element list in a
deterministic discovery order, so downstream certificates can refer to
indices and witnesses reproducibly.  At p = 2 no table above level 3 is
needed: a closed subgroup of SL2(Z_2) that is full mod 8 is full at every
level (the squaring argument in pipelines.quaternionic's TOWER_NOTES).

ResidueMatrix, which checks its determinant when it is built, is the
boundary type: callers pass generators as ResidueMatrix.  The loop of
closure runs on plain entry tuples (a, b, c, d) reduced mod m, with the
product written out, and a table's elements are such tuples.
"""

from collections import namedtuple
from functools import lru_cache

from .util import is_prime


class ResidueMatrix(namedtuple("ResidueMatrix", "a b c d m")):
    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int, m: int):
        if m < 2:
            raise ValueError("modulus must be >= 2")
        a, b, c, d = a % m, b % m, c % m, d % m
        if (a * d - b * c) % m != 1:
            raise ValueError("determinant is not 1 at this modulus")
        return super().__new__(cls, a, b, c, d, m)

    def inverse(self) -> "ResidueMatrix":
        # adjugate = inverse since det = 1
        return ResidueMatrix(self.d, -self.b, -self.c, self.a, self.m)

    def entries(self):
        return (self.a, self.b, self.c, self.d)


class SubgroupTable(namedtuple("SubgroupTable", "modulus elements generators")):
    __slots__ = ()

    @property
    def order(self) -> int:
        return len(self.elements)


def group_order(p: int, k: int) -> int:
    """|SL2(Z/p^k)| = p^(3k-2) * (p^2 - 1)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("level must be >= 1")
    return p ** (3 * k - 2) * (p * p - 1)


def closure(generators, stop: int = 0) -> SubgroupTable:
    """Breadth-first closure under right multiplication by the generators
    and their inverses.

    generators is any iterable of ResidueMatrix, read in order.  A
    generator already in the running closure is skipped; any other extends
    the search from where it stopped instead of restarting it.  The first
    generator is always kept, so the table's generators are the subsequence
    actually used.  With stop set, no generator is read once the closure
    holds stop elements.  Discovery order is deterministic: generators in
    input order, elements in insertion order.  The elements are entry
    tuples (a, b, c, d) reduced mod m, each checked to have determinant 1
    as it enters; every product is one of them or a new one.
    """
    seen, order, used, step = set(), [], [], []
    for g in generators:
        if not used:
            m = g.m
            order.append((1, 0, 0, 1))
            seen.add(order[0])
        elif g.m != m:
            raise ValueError("mixed moduli")
        elif g.entries() in seen:
            continue
        used.append(g)
        gi = g.inverse()
        new = [g.entries()] if gi == g else [g.entries(), gi.entries()]
        step += new
        # order[:n] is already closed under the earlier generators, so it
        # needs only the new ones; what they reach needs all of them
        n = len(order)
        i = 0
        while i < len(order):
            a, b, c, d = order[i]
            for p, q, r, s in new if i < n else step:
                y = ((a * p + b * r) % m, (a * q + b * s) % m, (c * p + d * r) % m, (c * q + d * s) % m)
                if y not in seen:
                    if (y[0] * y[3] - y[1] * y[2]) % m != 1:
                        raise ValueError("determinant is not 1 at this modulus")
                    seen.add(y)
                    order.append(y)
            i += 1
        if len(order) == stop:
            break
    if not used:
        raise ValueError("need at least one generator")
    return SubgroupTable(m, tuple(order), tuple(used))


@lru_cache(maxsize=8)
def enumerate_group(p: int, k: int) -> SubgroupTable:
    """The full SL2(Z/p^k) via closure of the two elementary matrices.

    They generate SL2(Z), and reduction mod p^k is surjective, so the
    closure is the whole group; the order formula is asserted as a check.
    """
    want = group_order(p, k)
    m = p ** k
    table = closure([ResidueMatrix(1, 1, 0, 1, m), ResidueMatrix(1, 0, 1, 1, m)])
    assert table.order == want, "enumeration disagrees with the order formula"
    return table
