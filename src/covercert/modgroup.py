"""The finite groups SL2(Z/p^k) and their subgroups as explicit tables.

Everything is stored extensionally: a subgroup is its element list in a
deterministic discovery order, so downstream certificates can refer to
indices and witnesses reproducibly.  Above level 3 at p = 2 no table is
built: the kernel-layer words at the end of this module carry a subgroup
that is full mod 8 through every higher level.

ResidueMatrix, which checks its determinant when it is built, is the
boundary type: callers pass generators as ResidueMatrix.  The loops of
closure and kernel_words run on plain entry tuples (a, b, c, d) reduced
mod m, with the product written out, and a table's elements are such
tuples.
"""

from dataclasses import dataclass
from functools import lru_cache

from .util import is_prime


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
    return SubgroupTable(m, tuple(order), frozenset(seen), tuple(used))


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


# --------------------------------------------------------------------------
# kernel layers of SL2(Z/2^k) -> SL2(Z/2^(k-1))
#
# For k >= 2 the kernel is {I + 2^(k-1) X : X in sl2(F_2)}, elementary
# abelian of order 8, so a subgroup that is full mod 2^(k-1) and holds
# three kernel elements whose X span sl2(F_2) is full mod 2^k.  If
# g = I + 4X mod 8 then g^(2^(k-3)) = I + 2^(k-1) X mod 2^k for k >= 3, so
# three such words in the generators serve every layer above 3.


def word_value(generators, word) -> ResidueMatrix:
    """The product of word's letters (i, e), each generators[i]^e with
    e = +-1, from left to right."""
    out = ResidueMatrix.identity(generators[0].m)
    for i, e in word:
        g = generators[i]
        out = out * (g if e == 1 else g.inverse())
    return out


def layer_vector(entries, k: int):
    """X packed as x + 2y + 4z when the matrix with entry tuple
    (a, b, c, d) is I + 2^(k-1) X mod 2^k with X = [[x, y], [z, x]] in
    sl2(F_2); None when it is not I mod 2^(k-1).

    The entries must be reduced mod a multiple of 2^k.
    """
    q = 2 ** (k - 1)
    a, b, c, d = (e % (2 * q) for e in entries)
    a, d = a - 1, d - 1
    if a % q or b % q or c % q or d % q:
        return None
    return (a // q) % 2 | (b // q) % 2 << 1 | (c // q) % 2 << 2


def spans_layer(values, k: int) -> bool:
    """Whether every value is I + 2^(k-1) X mod 2^k with the X spanning
    sl2(F_2): then the values generate the kernel of reduction from level
    k to level k-1."""
    span = {0}
    for x in values:
        v = layer_vector(x.entries(), k)
        if v is None:
            return False
        span |= {s ^ v for s in span}
    return len(span) == 8


def kernel_words(generators):
    """Three words in generators whose values are I + 4X mod 8 with the X
    spanning sl2(F_2), or None when the classes they reach run out first.

    Breadth-first over the classes mod 8 under right multiplication by the
    generators and their inverses, as closure does, carrying each class's
    value at the generators' modulus m (a multiple of 8), as an entry
    tuple, and its word; the first three classes I mod 4 whose X are
    independent are kept.  At most |SL2(Z/8)| = 384 classes are visited.
    A letter is (i, e): generators[i] to the power e = +-1.
    """
    m = generators[0].m
    if any(g.m != m for g in generators):
        raise ValueError("mixed moduli")
    letters = [((i, e), (g if e == 1 else g.inverse()).entries()) for i, g in enumerate(generators) for e in (1, -1)]
    seen = {(1, 0, 0, 1)}
    queue = [((1, 0, 0, 1), ())]
    words, span = [], {0}
    for (a, b, c, d), word in queue:
        for letter, (p, q, r, s) in letters:
            y = ((a * p + b * r) % m, (a * q + b * s) % m, (c * p + d * r) % m, (c * q + d * s) % m)
            key = (y[0] % 8, y[1] % 8, y[2] % 8, y[3] % 8)
            if key in seen:
                continue
            seen.add(key)
            queue.append((y, word + (letter,)))
            v = layer_vector(key, 3)
            if v is not None and v not in span:
                words.append(word + (letter,))
                span |= {t ^ v for t in span}
                if len(words) == 3:
                    return words
    return None
