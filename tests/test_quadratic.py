from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from finsym.groups import FiniteAbelianGroup
from finsym.limits import GuardExceeded, max_enum
from finsym.quadratic import QuadraticForm, bihomomorphism, subgroup_quadratic_table

Z2 = FiniteAbelianGroup([2])
Z4 = FiniteAbelianGroup([4])


def test_zero_form_has_zero_polarization():
    q = QuadraticForm(Z2, [0])
    b = bihomomorphism(q)
    assert all(v == 0 for v in b.values())


def test_z2_quarter_form():
    # q(m) = m^2/4: b(1,1) = q(0) - 2 q(1) = -1/2 = 1/2 mod 1
    q = QuadraticForm(Z2, [Fraction(1, 4)])
    assert q((1,)) == Fraction(1, 4)
    assert q.polarization((1,), (1,)) == Fraction(1, 2)


def test_z4_eighth_form():
    # q(a) = a^2/8: b(1,1) = q(2) - 2 q(1) = 4/8 - 2/8 = 1/4
    q = QuadraticForm(Z4, [Fraction(1, 8)])
    assert q((2,)) == Fraction(1, 2)
    assert q((3,)) == Fraction(1, 8)
    assert q.polarization((1,), (1,)) == Fraction(1, 4)


def test_refinement_identity_enforced():
    # q(g) = 1/3 on Z2 would need 4*q(g) = 0 mod 1
    with pytest.raises(ValueError):
        QuadraticForm(Z2, [Fraction(1, 3)])


def test_non_biadditive_polarization_rejected():
    # q(g) = 1/16 on Z4 satisfies q(k g) = k^2 q(g) pointwise but its
    # polarization fails additivity: b(1,3) + b(1,1) != b(1,0)
    with pytest.raises(ValueError):
        QuadraticForm(Z4, [Fraction(1, 16)])
    with pytest.raises(ValueError):
        subgroup_quadratic_table(FiniteAbelianGroup([8]), [(2,)], [Fraction(1, 16)])


def test_from_values_round_trip():
    q = QuadraticForm(Z4, [Fraction(1, 8)])
    again = QuadraticForm.from_values(Z4, dict(q.table))
    assert again.table == q.table
    with pytest.raises(ValueError):
        QuadraticForm.from_values(Z4, {(0,): 0, (1,): Fraction(1, 8)})


def test_cross_term_form_is_biadditive():
    g = FiniteAbelianGroup([2, 4])
    q = QuadraticForm(g, [Fraction(1, 4), Fraction(1, 8)],
                      cross_terms={(0, 1): Fraction(1, 2)})
    b = bihomomorphism(q)
    assert b[((1, 0), (0, 1))] == Fraction(1, 2)
    # exhaustive symmetry
    for x in g.elements():
        for y in g.elements():
            assert b[(x, y)] == b[(y, x)]


def test_invalid_cross_term_rejected():
    g = FiniteAbelianGroup([2, 2])
    # b(g0, g1) = 1/3 is not killed by the order-2 generators
    with pytest.raises(ValueError):
        QuadraticForm(g, [0, 0], cross_terms={(0, 1): Fraction(1, 3)})


def test_polarization_biadditive_on_larger_group():
    # the generator-level validator accepts it; the exhaustive oracle agrees
    g = FiniteAbelianGroup([4, 8])
    q = QuadraticForm(g, [Fraction(1, 8), Fraction(3, 16)],
                      cross_terms={(0, 1): Fraction(1, 4)})
    assert exhaustive_verdict(g, q.table)
    b = bihomomorphism(q)
    assert b[((1, 0), (0, 1))] == Fraction(1, 4)


def test_json_round_trip():
    g = FiniteAbelianGroup([2, 4])
    q = QuadraticForm(g, [Fraction(1, 4), Fraction(1, 8)],
                      cross_terms={(0, 1): Fraction(1, 2)})
    again = QuadraticForm.from_json(q.to_json())
    assert again.table == q.table
    assert again.gen_values() == (Fraction(1, 4), Fraction(1, 8))
    assert again.cross_terms() == {(0, 1): Fraction(1, 2)}


class TestSubgroupTables:
    def test_even_subgroup_of_z4(self):
        table = subgroup_quadratic_table(Z4, [(2,)], [Fraction(1, 4)])
        assert table == {(0,): 0, (2,): Fraction(1, 4)}

    def test_inconsistent_generator_data_rejected(self):
        with pytest.raises(ValueError):
            subgroup_quadratic_table(Z2, [(1,), (1,)], [0, Fraction(1, 4)])

    def test_redundant_but_consistent_generators(self):
        # two copies of the same generator need the matching cross term
        # b(g, g) = q(2g) - 2 q(g) = -1/2
        table = subgroup_quadratic_table(
            Z2,
            [(1,), (1,)],
            [Fraction(1, 4), Fraction(1, 4)],
            cross_terms={(0, 1): Fraction(1, 2)},
        )
        assert table[(1,)] == Fraction(1, 4)

    def test_trivial_subgroup(self):
        table = subgroup_quadratic_table(Z4, [], [])
        assert table == {(0,): 0}

    def test_zero_generator_data_must_match_the_table(self):
        # the zero generator only enters its words with coefficient 0, so
        # q(0) = 1/4 or b(g, 0) = 1/2 must be caught after the expansion
        z2z2 = FiniteAbelianGroup([2, 2])
        gens = [(1, 0), (0, 0)]
        with pytest.raises(ValueError, match="contradicts q"):
            subgroup_quadratic_table(z2z2, gens, [Fraction(1, 4), Fraction(1, 4)])
        with pytest.raises(ValueError, match="contradicts b"):
            subgroup_quadratic_table(z2z2, gens, [Fraction(1, 4), 0],
                                     cross_terms={(0, 1): Fraction(1, 2)})
        table = subgroup_quadratic_table(z2z2, gens, [Fraction(1, 4), 0])
        assert table == {(0, 0): 0, (1, 0): Fraction(1, 4)}


def exhaustive_verdict(group, table) -> bool:
    """The former O(|A|^3) check, kept as the oracle for the generator-level
    validator: q(0) = 0, closure, q(kx) = k^2 q(x) for every x and k, and
    b(x+z, y) = b(x, y) + b(z, y) for every triple.  Values are scaled to
    integers mod d, the common denominator."""
    add = group.add
    d = lcm(*(v.denominator for v in table.values()))
    t = {x: int(v * d) for x, v in table.items()}
    if t.get(group.zero()) != 0:
        return False
    for x in t:
        acc, k = x, 1
        while True:
            acc, k = add(acc, x), k + 1
            if t.get(acc) != k * k * t[x] % d:
                return False
            if acc == group.zero():
                break
    if any(add(x, y) not in t for x in t for y in t):
        return False
    b = {(x, y): (t[add(x, y)] - t[x] - t[y]) % d for x in t for y in t}
    return all(
        b[add(x, z), y] == (b[x, y] + b[z, y]) % d for x in t for y in t for z in t
    )


def accepts(build) -> bool:
    try:
        build()
    except ValueError:
        return False
    return True


class TestValidatorMatchesExhaustiveOracle:
    GRID = [Fraction(k, 16) for k in range(16)]

    @staticmethod
    def unit_expansion(group, gen_values, cross):
        """q(x) = sum x_i^2 q(g_i) + sum x_i x_j b(g_i, g_j), in sixteenths."""
        nums = [int(16 * v) for v in gen_values]
        cross = {ij: int(16 * v) for ij, v in cross.items()}
        return {
            x: Fraction((sum(c * c * n for c, n in zip(x, nums))
                         + sum(x[i] * x[j] * m for (i, j), m in cross.items())) % 16, 16)
            for x in group.elements()
        }

    def check_grid(self, cases):
        verdicts = set()
        for group, table, build in cases:
            verdict = exhaustive_verdict(group, table)
            assert accepts(build) == verdict, table
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_quadratic_form_on_z4(self):
        self.check_grid(
            (Z4, self.unit_expansion(Z4, [v], {}), lambda v=v: QuadraticForm(Z4, [v]))
            for v in self.GRID
        )

    def test_quadratic_form_on_z2_z4(self):
        g = FiniteAbelianGroup([2, 4])
        self.check_grid(
            (g, self.unit_expansion(g, [v0, v1], {(0, 1): c}),
             lambda v0=v0, v1=v1, c=c: QuadraticForm(g, [v0, v1], {(0, 1): c}))
            for v0 in self.GRID for v1 in self.GRID for c in self.GRID
        )

    def test_from_values_on_z2_z2(self):
        g = FiniteAbelianGroup([2, 2])
        elems = list(g.elements())
        quarters = [Fraction(k, 4) for k in range(4)]
        tables = (dict(zip(elems, values)) for values in product(quarters, repeat=4))
        self.check_grid(
            (g, t, lambda t=t: QuadraticForm.from_values(g, t)) for t in tables
        )

    def test_subgroup_tables_in_z8(self):
        # words c = 1..ord(a), so the table keeps the value given for a even
        # when a = 0 and a word of length ord(a) lands on 0
        z8 = FiniteAbelianGroup([8])
        self.check_grid(
            (z8,
             {z8.scalar_mul(c, (a,)): c * c * v % 1
              for c in range(1, z8.element_order((a,)) + 1)},
             lambda a=a, v=v: subgroup_quadratic_table(z8, [(a,)], [v]))
            for a in range(8) for v in self.GRID
        )


def test_refinement_check_is_charged_per_generator_and_pair():
    z16 = FiniteAbelianGroup([16])
    with max_enum(256):
        QuadraticForm(z16, [Fraction(1, 32)])
    with max_enum(255), pytest.raises(GuardExceeded, match="quadratic refinement check"):
        QuadraticForm(z16, [Fraction(1, 32)])


def test_redundant_generators_charge_the_expansion():
    # 40 copies of one Z2 generator: 2^40 words for a two-element table
    with pytest.raises(GuardExceeded, match="quadratic table expansion"):
        subgroup_quadratic_table(Z2, [(1,)] * 40, [0] * 40)
