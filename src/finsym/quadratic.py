"""Quadratic refinements q: A -> Q/Z and their polarization bihomomorphisms.

Forms are given by values on generators plus the cross terms b(g_i, g_j),
where b(x, y) = q(x+y) - q(x) - q(y).  One expander,
``subgroup_quadratic_table``, turns them into a value table of exact
fractions mod 1, and one validator checks every table on construction,
over generators only: q(0) = 0, b(g, g) = 2 q(g), and b(x+g, y) =
b(x, y) + b(g, y) for all x, y, at O(|gens| * |A|^2).  That suffices:
additivity in each generator gives bi-additivity by induction on words,
and then x -> b(x, x) - 2 q(x) is additive and vanishes on generators, so
it vanishes and q(n*x) = n^2 * q(x).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import lcm, prod

from .groups import FiniteAbelianGroup
from .limits import check_enum


def mod1(x) -> Fraction:
    return Fraction(x) % 1


def polarization(group: FiniteAbelianGroup, table, x, y) -> Fraction:
    """b(x, y) = q(x+y) - q(x) - q(y) mod 1 for a value table q."""
    return (table[group.add(x, y)] - table[x] - table[y]) % 1


class QuadraticForm:
    __slots__ = ("domain", "table")

    def __init__(self, domain: FiniteAbelianGroup, gen_values, cross_terms=None):
        """Build q from q(g_i) = gen_values[i] and b(g_i, g_j) = cross_terms[(i, j)]."""
        table = subgroup_quadratic_table(
            domain, domain.unit_generators(), gen_values, cross_terms
        )
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "table", table)

    def __setattr__(self, name, value):
        raise AttributeError("QuadraticForm is immutable")

    @classmethod
    def from_values(cls, domain: FiniteAbelianGroup, values) -> "QuadraticForm":
        """Build q from a full value table (validated)."""
        obj = object.__new__(cls)
        table = {tuple(k): mod1(v) for k, v in values.items()}
        if set(table) != set(domain.elements()):
            raise ValueError("value table must cover the whole group")
        _validate(domain, domain.unit_generators(), table)
        object.__setattr__(obj, "domain", domain)
        object.__setattr__(obj, "table", table)
        return obj

    def __call__(self, elem) -> Fraction:
        return self.table[tuple(elem)]

    def polarization(self, x, y) -> Fraction:
        return polarization(self.domain, self.table, tuple(x), tuple(y))

    def gen_values(self) -> tuple[Fraction, ...]:
        return tuple(self.table[g] for g in self.domain.unit_generators())

    def cross_terms(self) -> dict[tuple[int, int], Fraction]:
        gens = self.domain.unit_generators()
        pairs = combinations(range(len(gens)), 2)
        return {(i, j): self.polarization(gens[i], gens[j]) for i, j in pairs}

    def to_json(self) -> str:
        import json

        return json.dumps(
            {
                "group": {"invariant_factors": list(self.domain.invariant_factors)},
                "gen_values": [str(v) for v in self.gen_values()],
                "cross_terms": [
                    [i, j, str(v)] for (i, j), v in sorted(self.cross_terms().items())
                ],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "QuadraticForm":
        import json

        doc = json.loads(text)
        domain = FiniteAbelianGroup(doc["group"]["invariant_factors"])
        cross = {(int(i), int(j)): Fraction(v) for i, j, v in doc.get("cross_terms", [])}
        return cls(domain, [Fraction(v) for v in doc["gen_values"]], cross)

    def __repr__(self):
        return f"QuadraticForm({self.domain!r}, {self.table!r})"


def bihomomorphism(q: QuadraticForm):
    """The polarization b(x, y) as a dict over all pairs.

    Nothing is re-checked here: every QuadraticForm was validated when it
    was built, over generators only (b(g, g) = 2 q(g) and b additive in each
    generator g), and additivity in each generator gives bi-additivity by
    induction on words.
    """
    elems = list(q.domain.elements())
    return {(x, y): q.polarization(x, y) for x in elems for y in elems}


def subgroup_quadratic_table(
    group: FiniteAbelianGroup, generators, gen_values, cross_terms=None
):
    """Expand a quadratic form over the subgroup of ``group`` generated by
    ``generators``, from values on those generators and cross terms:
    q(sum c_i g_i) = sum c_i^2 q(g_i) + sum_{i<j} c_i c_j b(g_i, g_j).

    Returns a dict mapping each subgroup element (as an ambient tuple) to
    its value in Q/Z.  Inconsistent data (two generator words giving the
    same element but different values) is rejected, as is any table that
    is not a quadratic refinement on the subgroup.
    """
    generators = [tuple(g) for g in generators]
    gen_values = tuple(mod1(v) for v in gen_values)
    if len(gen_values) != len(generators):
        raise ValueError("one value per generator required")
    for g in generators:
        if not group.contains(g):
            raise ValueError(f"{g} is not an element of {group}")
    cross = {(i, j): mod1(v) for (i, j), v in (cross_terms or {}).items()}
    if not all(0 <= i < j < len(generators) for i, j in cross):
        raise ValueError("cross terms are indexed by pairs i < j")
    # integers over the common denominator d: exact, and cheaper than Fractions
    d = lcm(*(v.denominator for v in (*gen_values, *cross.values())))
    nums = [int(v * d) for v in gen_values]
    cross = {ij: int(v * d) for ij, v in cross.items()}
    orders = [group.element_order(g) for g in generators]
    check_enum(prod(orders), what="quadratic table expansion")
    table: dict[tuple, Fraction] = {}
    for coeffs in product(*(range(n) for n in orders)):
        elem = tuple(
            sum(c * g[k] for c, g in zip(coeffs, generators)) % n
            for k, n in enumerate(group.invariant_factors)
        )
        q = sum(c * c * n for c, n in zip(coeffs, nums))
        q += sum(coeffs[i] * coeffs[j] * m for (i, j), m in cross.items())
        q = Fraction(q % d, d)
        if table.setdefault(elem, q) != q:
            raise ValueError(f"inconsistent quadratic data at {elem}")
    # a zero generator only ever enters with coefficient 0, so its data is
    # never expanded above: compare every given value with the table
    for g, v in zip(generators, gen_values):
        if table[g] != v:
            raise ValueError(f"value {v} given for generator {g} "
                             f"contradicts q({g}) = {table[g]}")
    for (i, j), m in cross.items():
        x, y = generators[i], generators[j]
        b = polarization(group, table, x, y)
        if b != Fraction(m, d):
            raise ValueError(f"cross term {Fraction(m, d)} given for generators {x}, {y} "
                             f"contradicts b = {b}")
    _validate(group, generators, table)
    return table


def _validate(group: FiniteAbelianGroup, generators, table) -> None:
    """Check that ``table``, defined on the subgroup that ``generators``
    generate, is a quadratic refinement; see the module docstring."""
    check_enum(len(generators) * len(table) ** 2, what="quadratic refinement check")
    if table[group.zero()] != 0:
        raise ValueError("q(0) must vanish")
    for g in generators:
        if polarization(group, table, g, g) != 2 * table[g] % 1:
            raise ValueError(f"q(2*{g}) != 2^2 q({g})")
    # b(x+g, y) - b(x, y) - b(g, y) must vanish; integers over the common denominator
    d = lcm(*(v.denominator for v in table.values()))
    t = {x: int(v * d) for x, v in table.items()}
    for g in generators:
        for x in t:
            xg = group.add(x, g)
            for y in t:
                defect = t[group.add(xg, y)] - t[xg] - t[group.add(x, y)] - t[group.add(g, y)]
                if (defect + t[x] + t[g] + t[y]) % d:
                    raise ValueError("polarization is not bi-additive")
