"""The finite groups SL2(Z/p^k) and their subgroups as explicit tables.

Everything is stored extensionally: a subgroup is its element list in a
deterministic discovery order, so downstream certificates can refer to
indices and witnesses reproducibly.
"""

from dataclasses import dataclass
from functools import lru_cache

from .util import is_prime

DEFAULT_CAP = 1 << 24


@dataclass(frozen=True, slots=True)
class ResidueMatrix:
    a: int
    b: int
    c: int
    d: int
    m: int

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("modulus must be >= 2")
        for f in ("a", "b", "c", "d"):
            object.__setattr__(self, f, getattr(self, f) % self.m)
        if (self.a * self.d - self.b * self.c) % self.m != 1:
            raise ValueError("determinant is not 1 at this modulus")

    @classmethod
    def identity(cls, m: int) -> "ResidueMatrix":
        return cls(1, 0, 0, 1, m)

    def __mul__(self, other: "ResidueMatrix") -> "ResidueMatrix":
        if self.m != other.m:
            raise ValueError("mixed moduli")
        m = self.m
        return ResidueMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            m,
        )

    def inverse(self) -> "ResidueMatrix":
        # adjugate = inverse since det = 1
        return ResidueMatrix(self.d, -self.b, -self.c, self.a, self.m)

    def entries(self):
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class SubgroupTable:
    modulus: int
    elements: tuple
    element_set: frozenset
    generators: tuple

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, x: ResidueMatrix) -> bool:
        return x in self.element_set


def group_order(p: int, k: int) -> int:
    """|SL2(Z/p^k)| = p^(3k-2) * (p^2 - 1)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("level must be >= 1")
    return p ** (3 * k - 2) * (p * p - 1)


def closure(generators, cap: int = DEFAULT_CAP) -> SubgroupTable:
    """Breadth-first closure under right multiplication by the generators
    and their inverses.

    A generator already in the running closure is skipped; any other
    extends the search from where it stopped instead of restarting it.  The
    first generator is always kept, so the table's generators are the
    subsequence actually used.  Discovery order is deterministic:
    generators in input order, elements in insertion order.
    """
    if not generators:
        raise ValueError("need at least one generator")
    m = generators[0].m
    ident = ResidueMatrix.identity(m)
    seen = {ident}
    order = [ident]
    used, step = [], []
    for g in generators:
        if g.m != m:
            raise ValueError("mixed moduli")
        if used and g in seen:
            continue
        used.append(g)
        gi = g.inverse()
        new = [g] if gi == g else [g, gi]
        step += new
        # order[:n] is already closed under the earlier generators, so it
        # needs only the new ones; what they reach needs all of them
        n = len(order)
        i = 0
        while i < len(order):
            x = order[i]
            for s in new if i < n else step:
                y = x * s
                if y not in seen:
                    if len(seen) >= cap:
                        raise ValueError(f"closure exceeds cap {cap}")
                    seen.add(y)
                    order.append(y)
            i += 1
    return SubgroupTable(m, tuple(order), frozenset(seen), tuple(used))


@lru_cache(maxsize=8)
def enumerate_group(p: int, k: int, cap: int = DEFAULT_CAP) -> SubgroupTable:
    """The full SL2(Z/p^k) via closure of the two elementary matrices.

    They generate SL2(Z), and reduction mod p^k is surjective, so the
    closure is the whole group; the order formula is asserted as a check.
    """
    want = group_order(p, k)
    if want > cap:
        raise ValueError(f"group order {want} exceeds cap {cap}")
    m = p ** k
    table = closure([ResidueMatrix(1, 1, 0, 1, m),
                     ResidueMatrix(1, 0, 1, 1, m)], cap)
    assert table.order == want, "enumeration disagrees with the order formula"
    return table

