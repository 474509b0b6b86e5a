"""Quadratic refinements q: A -> Q/Z and their polarization bihomomorphisms.

Forms are given by values on generators plus the cross terms b(g_i, g_j),
where b(x, y) = q(x+y) - q(x) - q(y).  One walk over the Cayley graph of
the subgroup, ``_walk``, turns them into a value table of exact fractions
mod 1 and checks them on the way, at O(|gens|^2 * |A|): each element x
carries q(x) and the row b(x, g_j), and every edge x -> x + g_i must agree
with what is stored where it lands.  A table is checked by walking from its
own generator data and comparing.  That suffices: agreeing edges make
x -> b(x, g_j) a homomorphism, and expanding q(x+y+g) along the edge from
x+y gives b(x+g, y) = b(x, y) + b(g, y) for all x, y and each generator g.
Additivity in each generator gives bi-additivity by induction on words,
and then x -> b(x, x) - 2 q(x) is additive and vanishes on generators, so
it vanishes and q(n*x) = n^2 * q(x).  Conversely every refinement with the
given data satisfies every edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

from .groups import FiniteAbelianGroup
from .limits import check_enum


def mod1(x) -> Fraction:
    return Fraction(x) % 1


def polarization(group: FiniteAbelianGroup, table, x, y) -> Fraction:
    """b(x, y) = q(x+y) - q(x) - q(y) mod 1 for a value table q."""
    return (table[group.add(x, y)] - table[x] - table[y]) % 1


@dataclass(frozen=True, eq=False, init=False, repr=False)
class QuadraticForm:
    """A quadratic refinement q: A -> Q/Z, kept as its value table on all of A."""

    domain: FiniteAbelianGroup
    table: dict

    def __init__(self, domain: FiniteAbelianGroup, gen_values, cross_terms=None):
        """Build q from q(g_i) = gen_values[i] and b(g_i, g_j) = cross_terms[(i, j)]."""
        table = subgroup_quadratic_table(
            domain, domain.unit_generators(), gen_values, cross_terms
        )
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "table", table)

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
    """The polarization b(x, y) as a dict over all pairs, each value one
    Fraction of an integer numerator over the lcm d of the table's
    denominators.

    Nothing is re-checked here: every QuadraticForm was checked when it was
    built, by the one walk over its group (see the module docstring).
    """
    check_enum(q.domain.order**2, what="polarization table (|A|^2 pairs)")
    d = lcm(*(v.denominator for v in q.table.values()))
    nums = {x: v.numerator * (d // v.denominator) for x, v in q.table.items()}
    add, elems = q.domain.add, list(q.domain.elements())
    return {(x, y): Fraction((nums[add(x, y)] - nums[x] - nums[y]) % d, d)
            for x in elems for y in elems}


def subgroup_quadratic_table(group: FiniteAbelianGroup, generators, gen_values, cross_terms=None):
    """The quadratic refinement on the subgroup of ``group`` generated by
    ``generators`` with q(g_i) = gen_values[i] and b(g_i, g_j) =
    cross_terms[(i, j)] (absent pairs: 0), as a dict from each subgroup
    element (an ambient tuple) to its value in Q/Z.  Data that no
    refinement has raises ValueError; see ``_walk``.
    """
    generators = [tuple(g) for g in generators]
    gen_values = tuple(mod1(v) for v in gen_values)
    if len(gen_values) != len(generators):
        raise ValueError("one value per generator required")
    cross = {(i, j): mod1(v) for (i, j), v in (cross_terms or {}).items()}
    if not all(0 <= i < j < len(generators) for i, j in cross):
        raise ValueError("cross terms are indexed by pairs i < j")
    return _walk(group, generators, gen_values, cross)


def _validate(group: FiniteAbelianGroup, generators, table) -> None:
    """Check that ``table``, defined on the subgroup that ``generators``
    generate, is a quadratic refinement: walk from its own generator values
    and polarizations, then compare."""
    cross = {(i, j): polarization(group, table, x, y)
             for (i, x), (j, y) in combinations(enumerate(generators), 2)}
    if _walk(group, generators, [table[g] for g in generators], cross) != table:
        raise ValueError("table is not a quadratic refinement: its generator values "
                         "and polarizations give another one")


def _walk(group: FiniteAbelianGroup, generators, gen_values, cross) -> dict:
    """One walk over the Cayley graph of the subgroup: each element x
    carries q(x) and the row b(x, g_j), and the edge x -> x + g_i gives
    q(x + g_i) = q(x) + q(g_i) + b(x, g_i) and b(x + g_i, -) = b(x, -) +
    b(g_i, -), with b(g_i, g_i) = 2 q(g_i).  Every edge must agree with
    what is stored where it lands; see the module docstring."""
    n = len(generators)
    check_enum(n * n * group.subgroup_order(generators), what="quadratic refinement check")
    # integers over the common denominator d: exact, and cheaper than Fractions
    d = lcm(*(v.denominator for v in (*gen_values, *cross.values())))
    nums = [int(v * d) for v in gen_values]
    rows = [tuple(2 * nums[i] if i == j else int(cross.get((min(i, j), max(i, j)), 0) * d)
                  for j in range(n)) for i in range(n)]
    seen = {group.zero(): (0, (0,) * n)}
    order = list(seen)
    for x in order:
        qx, bx = seen[x]
        for g, qg, bg, bxg in zip(generators, nums, rows, bx):
            y = group.add(x, g)
            new = ((qx + qg + bxg) % d, tuple((s + t) % d for s, t in zip(bx, bg)))
            old = seen.setdefault(y, new)
            if old is new:  # y was not yet reached
                order.append(y)
            elif old != new:
                what = f"q({y}) = {Fraction(old[0], d)}" if old[0] != new[0] else f"b({y}, -)"
                raise ValueError(f"the step from {x} by generator {g} contradicts {what}")
    return {x: Fraction(qx, d) for x, (qx, _) in sorted(seen.items())}
