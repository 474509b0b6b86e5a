"""Finite abelian groups, characters, and finite groups as Cayley tables.

Abelian groups are kept in invariant-factor form, reached from any list of
cyclic orders by gcd and lcm alone, with no factoring; subgroup orders are
integer arithmetic too, not enumerations.  Elements are tuples of residues,
one per factor.  Characters evaluate into Q/Z: the value is the
exact fraction t of a full turn, i.e. the root of unity exp(2*pi*i*t).
General finite groups are multiplication tables validated on construction
(rows are permutations, two-sided identity, associativity by Light's test
over a generating set).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod

from .limits import as_int, check_enum


@dataclass(frozen=True, repr=False)
class FiniteAbelianGroup:
    """Z_{n1} x ... x Z_{nk} with n1 | n2 | ... and every ni >= 2.

    The empty factor list is the trivial group.  Elements are tuples of
    residues in lexicographic order.
    """

    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self):
        factors = tuple(as_int(n, "invariant factor") for n in self.invariant_factors)
        for n in factors:
            if n < 2:
                raise ValueError(f"invariant factor {n} < 2")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise ValueError(f"broken divisibility chain: {a} does not divide {b}")
        object.__setattr__(self, "invariant_factors", factors)

    @classmethod
    def from_cyclic_orders(cls, orders) -> "FiniteAbelianGroup":
        """Canonical invariant-factor form of a product of cyclic groups.

        Each order n is merged into the chain c_1 | ... | c_k from the top by
        Z_c x Z_n = Z_lcm(c, n) x Z_gcd(c, n): c becomes the lcm and the gcd
        moves down until it is 1 or the factor below it divides it, where it
        is inserted.  No order is factored, and the chain is stored as
        merged, without a second check: ints >= 2, each dividing the next.
        """
        chain: list[int] = []
        for n in orders:
            n = as_int(n, "cyclic order")
            if n < 1:
                raise ValueError("cyclic order must be >= 1")
            i = len(chain)
            while n > 1 and i and n % chain[i - 1]:
                i -= 1
                chain[i], n = lcm(chain[i], n), gcd(chain[i], n)
            if n > 1:
                chain.insert(i, n)
        group = object.__new__(cls)
        object.__setattr__(group, "invariant_factors", tuple(chain))
        return group

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def zero(self):
        return (0,) * self.rank

    def unit_generators(self) -> list[tuple]:
        return [tuple(int(j == i) for j in range(self.rank)) for i in range(self.rank)]

    def elements(self):
        return product(*(range(n) for n in self.invariant_factors))

    def contains(self, x) -> bool:
        return len(x) == self.rank and all(
            0 <= a < n for a, n in zip(x, self.invariant_factors)
        )

    def add(self, x, y):
        return tuple((a + b) % n for a, b, n in zip(x, y, self.invariant_factors))

    def scalar_mul(self, k: int, x):
        return tuple((k * a) % n for a, n in zip(x, self.invariant_factors))

    def _check_members(self, generators) -> None:
        for g in generators:
            if not self.contains(tuple(g)):
                raise ValueError(f"{g} is not an element of {self}")

    def subgroup(self, generators) -> tuple:
        """All elements generated by ``generators``, sorted lexicographically.

        A coset walk, one add per element: <g_1..g_j> is the disjoint union
        of the cosets H + i g_j, 0 <= i < m, of H = <g_1..g_{j-1}>, where m
        is the least i > 0 with i g_j in H.
        """
        self._check_members(generators)
        factors = self.invariant_factors
        elems = [self.zero()]
        seen = set(elems)
        for g in map(tuple, generators):
            h, shift = elems[:], g
            while shift not in seen:
                coset = [tuple((a + b) % n for a, b, n in zip(x, shift, factors)) for x in h]
                elems += coset
                seen.update(coset)
                shift = self.add(shift, g)
        return tuple(sorted(elems))

    def subgroup_order(self, generators) -> int:
        """|<generators>| without enumerating it, one coordinate at a time:
        Euclid steps leave a single generator p with a nonzero entry d there,
        the projection to Z_n contributes n / gcd(d, n), and the other
        generators with (n / gcd(d, n)) p generate its kernel."""
        self._check_members(generators)
        gens, order = [tuple(g) for g in generators], 1
        for i, n in enumerate(self.invariant_factors):
            pivot, kernel = self.zero(), []
            for g in gens:
                while g[i]:
                    pivot, g = g, self.add(pivot, self.scalar_mul(-(pivot[i] // g[i]), g))
                kernel.append(g)
            step = n // gcd(pivot[i], n)
            order *= step
            gens = kernel + [self.scalar_mul(step, pivot)]
        return order

    def __str__(self):
        if not self.invariant_factors:
            return "Z1"
        return "x".join(f"Z{n}" for n in self.invariant_factors)

    def __repr__(self):
        return f"FiniteAbelianGroup({list(self.invariant_factors)!r})"

    def to_json(self) -> str:
        return json.dumps({"invariant_factors": list(self.invariant_factors)})

    @classmethod
    def from_json(cls, text: str) -> "FiniteAbelianGroup":
        doc = json.loads(text)
        return cls(doc["invariant_factors"])


@dataclass(frozen=True, repr=False)
class Character:
    """A character of a finite abelian group, stored by exponents.

    The character with exponents (t1, ..., tk) sends (a1, ..., ak) to the
    root of unity with angle sum(ti*ai/ni) of a full turn; ``value`` returns
    that angle as an exact element of Q/Z.
    """

    group: FiniteAbelianGroup
    exponents: tuple[int, ...]

    def __post_init__(self):
        given = tuple(self.exponents)
        if len(given) != self.group.rank:
            raise ValueError("one exponent per invariant factor required")
        exps = tuple(as_int(t, "character exponent") % n
                     for t, n in zip(given, self.group.invariant_factors))
        object.__setattr__(self, "exponents", exps)

    def value(self, element) -> Fraction:
        if not self.group.contains(tuple(element)):
            raise ValueError(f"{element} is not in {self.group}")
        total = Fraction(0)
        for t, a, n in zip(self.exponents, element, self.group.invariant_factors):
            total += Fraction(t * a, n)
        return total % 1

    __call__ = value

    def __mul__(self, other: "Character") -> "Character":
        if self.group != other.group:
            raise ValueError("characters of different groups")
        return Character(
            self.group,
            tuple(a + b for a, b in zip(self.exponents, other.exponents)),
        )

    def __repr__(self):
        return f"Character({self.group!r}, {self.exponents!r})"


def dual_group(group: FiniteAbelianGroup) -> FiniteAbelianGroup:
    """The Pontryagin dual; same invariant factors, non-canonically."""
    return FiniteAbelianGroup(group.invariant_factors)


def characters(group: FiniteAbelianGroup):
    """All |A| characters, exponent tuples in lexicographic order."""
    for exps in group.elements():
        yield Character(group, exps)


@dataclass(frozen=True, repr=False)
class FiniteGroup:
    """A finite group given by its Cayley table.

    ``cayley[i][j]`` is the index of the product of elements i and j.  Rows
    must be permutations and the identity a two-sided unit.  The a with
    (x a) y = x (a y) for all x, y are closed under products, so Light's test
    (Clifford-Preston 1961, section 1.2) checks them on greedy generators.
    """

    cayley: tuple[tuple[int, ...], ...]
    identity: int = 0
    order: int = field(init=False, compare=False)
    inverses: tuple[int, ...] = field(init=False, compare=False)

    def __post_init__(self):
        table = tuple(tuple(as_int(x, "Cayley entry") for x in row) for row in self.cayley)
        n = len(table)
        for row in table:
            if len(row) != n or set(row) != set(range(n)):
                raise ValueError("Cayley table rows must be permutations")
        e = as_int(self.identity, "identity index")
        if not 0 <= e < n:
            raise ValueError("identity index out of range")
        for i in range(n):
            if table[e][i] != i or table[i][e] != i:
                raise ValueError("identity is not a two-sided unit")
        gens, reached = [], {e}
        for g in range(n):
            if g not in reached:
                gens.append(g)
                stack = [table[x][g] for x in reached]
                while stack:
                    y = stack.pop()
                    if y not in reached:
                        reached.add(y)
                        stack.extend(table[y][a] for a in gens)
        check_enum(n * n * len(gens), what=f"associativity check ({n}^2 x {len(gens)} gens)")
        for a in gens:
            for x, row in enumerate(table):
                for y, ay in enumerate(table[a]):
                    if table[row[a]][y] != row[ay]:
                        raise ValueError(f"associativity fails at ({x},{a},{y})")
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "cayley", table)
        object.__setattr__(self, "identity", e)
        object.__setattr__(self, "inverses", tuple(row.index(e) for row in table))

    def mul(self, i: int, j: int) -> int:
        return self.cayley[i][j]

    def inv(self, i: int) -> int:
        return self.inverses[i]

    def commutator(self, i: int, j: int) -> int:
        return self.mul(self.mul(i, j), self.mul(self.inv(i), self.inv(j)))

    def is_abelian(self) -> bool:
        return all(
            self.cayley[i][j] == self.cayley[j][i]
            for i in range(self.order)
            for j in range(i)
        )

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"

    def to_json(self) -> str:
        return json.dumps(
            {
                "order": self.order,
                "cayley": [list(r) for r in self.cayley],
                "identity": self.identity,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "FiniteGroup":
        doc = json.loads(text)
        g = cls(doc["cayley"], doc["identity"])
        if g.order != doc["order"]:
            raise ValueError("order field does not match table size")
        return g


def conjugacy_classes(group: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Partition of element indices into conjugacy classes.

    Classes are sorted internally and listed by smallest member, so the
    identity class comes first.
    """
    remaining = set(range(group.order))
    classes = []
    while remaining:
        x = min(remaining)
        orbit = {group.mul(group.mul(g, x), group.inv(g)) for g in range(group.order)}
        classes.append(tuple(sorted(orbit)))
        remaining -= orbit
    return tuple(sorted(classes))


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic order must be >= 1")
    return FiniteGroup([[(i + j) % n for j in range(n)] for i in range(n)], 0)


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    n, m = a.order, b.order

    def idx(i, j):
        return i * m + j

    table = [
        [
            idx(a.mul(i1, i2), b.mul(j1, j2))
            for i2 in range(n)
            for j2 in range(m)
        ]
        for i1 in range(n)
        for j1 in range(m)
    ]
    return FiniteGroup(table, idx(a.identity, b.identity))


def abelian_cayley(group: FiniteAbelianGroup) -> FiniteGroup:
    """The Cayley-table avatar of an abelian group (lexicographic indexing)."""
    check_enum(group.order**2, what="Cayley table (|A|^2 entries)")
    elems = list(group.elements())
    index = {e: i for i, e in enumerate(elems)}
    table = [[index[group.add(x, y)] for y in elems] for x in elems]
    return FiniteGroup(table, index[group.zero()])


def symmetric_group_3() -> FiniteGroup:
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):  # (p*q)(x) = p(q(x))
        return tuple(p[q[x]] for x in range(3))

    table = [[index[compose(p, q)] for q in perms] for p in perms]
    return FiniteGroup(table, index[(0, 1, 2)])


def dihedral_group_4() -> FiniteGroup:
    """Symmetries of the square; element a + 4b stands for r^a s^b."""

    def mul(x, y):
        a1, b1 = x % 4, x // 4
        a2, b2 = y % 4, y // 4
        a = (a1 + (a2 if b1 == 0 else -a2)) % 4
        return a + 4 * ((b1 + b2) % 2)

    return FiniteGroup([[mul(x, y) for y in range(8)] for x in range(8)], 0)


def quaternion_group_8() -> FiniteGroup:
    """Unit quaternions {+-1, +-i, +-j, +-k}; index 2*axis + (sign<0)."""
    axis_mul = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (2, 0): (1, 2), (3, 0): (1, 3),
        (1, 1): (-1, 0), (2, 2): (-1, 0), (3, 3): (-1, 0),
        (1, 2): (1, 3), (2, 3): (1, 1), (3, 1): (1, 2),
        (2, 1): (-1, 3), (3, 2): (-1, 1), (1, 3): (-1, 2),
    }

    def mul(x, y):
        ax, sx = x // 2, 1 - 2 * (x % 2)
        ay, sy = y // 2, 1 - 2 * (y % 2)
        s, a = axis_mul[(ax, ay)]
        sign = sx * sy * s
        return 2 * a + (0 if sign > 0 else 1)

    return FiniteGroup([[mul(x, y) for y in range(8)] for x in range(8)], 0)


def parse_cyclic_orders(name: str) -> list[int]:
    """The cyclic orders of 'Z4xZ2'-style names, in the order written."""
    name = name.strip()
    if name in ("Z1", "1", "trivial", "0"):
        return []
    orders = []
    for part in name.split("x"):
        part = part.strip()
        if not part.startswith("Z"):
            raise ValueError(f"cannot parse abelian group {name!r}")
        orders.append(int(part[1:]))
    return orders


def parse_abelian(name: str) -> FiniteAbelianGroup:
    """Parse the mini-language 'Z2', 'Z2xZ4', 'Z1' into an abelian group."""
    return FiniteAbelianGroup.from_cyclic_orders(parse_cyclic_orders(name))


NONABELIAN_PRESETS = {"S3": symmetric_group_3, "D4": dihedral_group_4, "Q8": quaternion_group_8}


def named_group(name: str) -> FiniteGroup:
    """Group presets for the CLI mini-language and the test suite."""
    name = name.strip()
    if name in NONABELIAN_PRESETS:
        return NONABELIAN_PRESETS[name]()
    return abelian_cayley(parse_abelian(name))


def preset_group_documents() -> dict[str, str]:
    """The shipped presets as JSON documents in the Cayley-table schema."""
    names = ("Z2", "Z3", "Z4", "Z2xZ2", *NONABELIAN_PRESETS)
    return {name: named_group(name).to_json() for name in names}
