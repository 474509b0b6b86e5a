import random
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm, prod

import numpy as np
import pytest

from finsym.groups import (
    Character,
    FiniteAbelianGroup,
    FiniteGroup,
    abelian_cayley,
    characters,
    conjugacy_classes,
    cyclic_group,
    dihedral_group_4,
    direct_product,
    dual_group,
    named_group,
    parse_abelian,
    quaternion_group_8,
    symmetric_group_3,
)
from finsym.limits import GuardExceeded, max_enum


class TestFiniteAbelianGroup:
    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            FiniteAbelianGroup([4, 2])
        with pytest.raises(ValueError):
            FiniteAbelianGroup([1])
        assert FiniteAbelianGroup([2, 6]).order == 12
        assert FiniteAbelianGroup().order == 1

    def test_from_cyclic_orders(self):
        assert FiniteAbelianGroup.from_cyclic_orders([2, 3]) == FiniteAbelianGroup([6])
        assert FiniteAbelianGroup.from_cyclic_orders([6, 4]) == FiniteAbelianGroup([2, 12])
        assert FiniteAbelianGroup.from_cyclic_orders([2, 2]) == FiniteAbelianGroup([2, 2])
        assert FiniteAbelianGroup.from_cyclic_orders([1, 1]) == FiniteAbelianGroup()

    def test_from_cyclic_orders_stores_what_the_constructor_accepts(self):
        """The merged chain is stored without a second check: the validating
        constructor accepts it as it is, and its factors are exact ints."""
        rng = random.Random(3030)
        wraps = (int, np.int64, np.uint16, lambda n: True if n == 1 else n)
        for _ in range(400):
            orders = [rng.choice(wraps)(rng.choice((1, 1, 2, 3, 4, 6, 8, 9, 12, 25, 27, 360)))
                      for _ in range(rng.randrange(16))]
            group = FiniteAbelianGroup.from_cyclic_orders(orders)
            again = FiniteAbelianGroup(group.invariant_factors)
            assert group == again and hash(group) == hash(again), orders
            assert type(group.invariant_factors) is tuple, orders
            assert all(type(n) is int for n in group.invariant_factors), orders
            assert group.order == prod(int(n) for n in orders), orders

    @pytest.mark.parametrize("orders,message", [
        ([2, 0], "cyclic order must be >= 1"),
        ([4, -3], "cyclic order must be >= 1"),
        ([False], "cyclic order must be >= 1"),
        ([2, 1.5], "cyclic order 1.5 is not an integer"),
    ])
    def test_from_cyclic_orders_checks_each_order(self, orders, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            FiniteAbelianGroup.from_cyclic_orders(orders)

    def test_arithmetic(self):
        g = FiniteAbelianGroup([2, 4])
        assert g.add((1, 3), (1, 2)) == (0, 1)
        assert g.scalar_mul(3, (1, 2)) == (1, 2)
        assert g.subgroup_order([(0, 2)]) == 2
        assert g.subgroup_order([(1, 1)]) == 4

    def test_subgroup_closure(self):
        g = FiniteAbelianGroup([2, 4])
        sub = g.subgroup([(0, 2), (1, 0)])
        assert sub == ((0, 0), (0, 2), (1, 0), (1, 2))
        assert g.subgroup([]) == ((0, 0),)

    def test_json_round_trip(self):
        g = FiniteAbelianGroup([2, 6])
        assert FiniteAbelianGroup.from_json(g.to_json()) == g

    def test_parse(self):
        assert parse_abelian("Z2xZ4") == FiniteAbelianGroup([2, 4])
        assert parse_abelian("Z4xZ2") == FiniteAbelianGroup([2, 4])
        assert parse_abelian("trivial").order == 1


@lru_cache(maxsize=None)
def _cyclic_order_counts(n: int) -> Counter:
    return Counter(n // gcd(a, n) for a in range(n))


def _order_counts(orders) -> Counter:
    """#{x : ord(x) = d} for each d in Z_{n_1} x ... x Z_{n_k}, counted over
    all elements: a in Z_n has order n / gcd(a, n), and a tuple's order is
    the lcm of its entries' orders."""
    counts = Counter({1: 1})
    for n in orders:
        merged = Counter()
        for d, c in counts.items():
            for e, m in _cyclic_order_counts(n).items():
                merged[lcm(d, e)] += c * m
        counts = merged
    return counts


def _chains(bound: int, start: int = 2, prefix=()):
    """Every invariant-factor chain with product at most ``bound``."""
    yield prefix
    for n in range(start, bound // prod(prefix) + 1):
        if not prefix or n % prefix[-1] == 0:
            yield from _chains(bound, n, prefix + (n,))


ORDER_SET = list(range(1, 13)) + [16, 18, 25, 27]


class TestInvariantsByArithmetic:
    """The gcd/lcm merge, element orders and subgroup orders against
    enumerations: two finite abelian groups are isomorphic exactly when
    they have equally many elements of each order."""

    def test_merge_matches_the_order_count_oracle(self):
        checked = 0
        for length in range(4):
            for orders in product(ORDER_SET, repeat=length):
                if prod(orders) > 4096:
                    continue
                factors = FiniteAbelianGroup.from_cyclic_orders(orders).invariant_factors
                assert all(n >= 2 for n in factors), orders
                assert all(b % a == 0 for a, b in zip(factors, factors[1:])), orders
                assert _order_counts(factors) == _order_counts(orders), orders
                checked += 1
        assert checked == 4159

    @pytest.mark.parametrize("name,canonical", [
        ("Z3xZ4", "Z12"), ("Z4xZ3", "Z12"), ("Z3xZ12", "Z3xZ12"), ("Z9xZ2", "Z18"),
        ("Z3xZ2xZ2", "Z2xZ6"), ("Z25xZ4xZ9", "Z900"), ("Z6xZ10xZ15", "Z30xZ30"),
    ])
    def test_mixed_primes_in_any_order(self, name, canonical):
        assert str(parse_abelian(name)) == canonical

    def test_cyclic_subgroup_order_matches_repeated_addition(self):
        groups = [FiniteAbelianGroup(chain) for chain in _chains(64)]
        assert len(groups) == 117  # sum over n <= 64 of the partitions of n's exponents
        for g in groups:
            for x in g.elements():
                k, y = 1, x
                while any(y):
                    y, k = g.add(y, x), k + 1
                assert g.subgroup_order([x]) == k, (g, x)

    def test_subgroup_order_matches_the_enumeration(self):
        rng = random.Random(13)
        chains = [(2, 4, 8), (3, 12), (2, 2, 6), (6, 36), (5, 25), (4, 4), (30,), (2, 6, 12),
                  ()]
        for _ in range(300):
            g = FiniteAbelianGroup(rng.choice(chains))
            gens = [tuple(rng.randrange(n) for n in g.invariant_factors)
                    for _ in range(rng.randrange(4))]
            assert g.subgroup_order(gens) == len(g.subgroup(gens)), (g, gens)

    def test_subgroup_order_rejects_outsiders(self):
        with pytest.raises(ValueError, match=r"\[2, 0\] is not an element of Z2xZ4"):
            FiniteAbelianGroup([2, 4]).subgroup_order([[2, 0]])


def _closure_subgroup(group, generators):
    """The closure of {0} under adding generators, one probe per element and
    generator: the reference for the coset walk of ``subgroup``."""
    seen = {group.zero()}
    frontier = [group.zero()]
    while frontier:
        x = frontier.pop()
        for g in generators:
            y = group.add(x, tuple(g))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return tuple(sorted(seen))


Z2Z4Z8 = FiniteAbelianGroup([2, 4, 8])


class TestSubgroupCosetWalk:
    def test_matches_the_closure_on_random_generators(self):
        rng = random.Random(33)
        chains = [(), (2,), (7,), (2, 4, 8), (3, 12), (2, 2, 6), (6, 36), (4, 4), (30,),
                  (2, 6, 12), (2, 2, 2, 2)]
        for _ in range(600):
            g = FiniteAbelianGroup(rng.choice(chains))
            gens = [tuple(rng.randrange(n) for n in g.invariant_factors)
                    for _ in range(rng.randrange(5))]
            if gens and rng.random() < 0.3:  # a zero and a repeated generator
                gens.insert(rng.randrange(len(gens) + 1), g.zero())
                gens.append(rng.choice(gens))
            assert g.subgroup(gens) == _closure_subgroup(g, gens), (g, gens)

    def test_every_pair_of_generators_of_z2_z4_z8(self):
        elems = list(Z2Z4Z8.elements())
        for x in elems:
            for y in elems:
                assert Z2Z4Z8.subgroup([x, y]) == _closure_subgroup(Z2Z4Z8, [x, y]), (x, y)

    def test_rank_zero_empty_zero_and_repeated_generators(self):
        trivial = FiniteAbelianGroup([])
        assert trivial.subgroup([]) == trivial.subgroup([()]) == ((),)
        assert trivial.subgroup([[], ()]) == ((),)
        assert Z2Z4Z8.subgroup([]) == Z2Z4Z8.subgroup([(0, 0, 0)] * 3) == ((0, 0, 0),)
        once = Z2Z4Z8.subgroup([(1, 1, 1)])
        assert len(once) == 8 and once == _closure_subgroup(Z2Z4Z8, [(1, 1, 1)])
        assert Z2Z4Z8.subgroup([(1, 1, 1), [1, 1, 1], (0, 0, 0), (1, 1, 1)]) == once
        assert Z2Z4Z8.subgroup([(1, 1, 1), (0, 2, 6)]) == once  # 6 (1, 1, 1)

    def test_unit_generators_list_the_group_in_order(self):
        assert Z2Z4Z8.subgroup(Z2Z4Z8.unit_generators()) == tuple(Z2Z4Z8.elements())
        assert Z2Z4Z8.subgroup(Z2Z4Z8.unit_generators()[::-1]) == tuple(Z2Z4Z8.elements())

    def test_rejects_outsiders(self):
        with pytest.raises(ValueError, match=r"\(0, 4, 0\) is not an element of Z2xZ4xZ8"):
            Z2Z4Z8.subgroup([(1, 0, 0), (0, 4, 0)])


class TestDualAndCharacters:
    def test_dual_preserves_invariant_factors(self):
        for factors in ((4,), (), (2, 6)):
            g = FiniteAbelianGroup(factors)
            assert dual_group(g).invariant_factors == g.invariant_factors

    def test_character_count(self):
        g = FiniteAbelianGroup([2, 6])
        assert len(list(characters(g))) == 12

    def test_character_values_are_exact(self):
        g = FiniteAbelianGroup([4])
        chi = Character(g, (1,))
        assert chi.value((1,)) == Fraction(1, 4)
        assert chi.value((3,)) == Fraction(3, 4)
        assert Character(g, (2,)).value((2,)) == 0

    def test_pairing_nondegenerate(self):
        # for every nonidentity a there is a character not vanishing on it
        for factors in ((2,), (3,), (2, 2), (2, 4), (2, 6)):
            g = FiniteAbelianGroup(factors)
            for a in g.elements():
                if a == g.zero():
                    continue
                assert any(chi.value(a) != 0 for chi in characters(g))

    def test_character_product(self):
        g = FiniteAbelianGroup([2, 4])
        chi = Character(g, (1, 1)) * Character(g, (1, 3))
        assert chi.exponents == (0, 0)


class TestFiniteGroup:
    def test_validation_rejects_broken_tables(self):
        with pytest.raises(ValueError):
            FiniteGroup([[0, 0], [1, 1]], 0)  # not a Latin square
        with pytest.raises(ValueError):
            FiniteGroup([[1, 0], [0, 1]], 0)  # identity is not a unit

    def test_presets_are_groups(self):
        for g in (cyclic_group(5), symmetric_group_3(), dihedral_group_4(),
                  quaternion_group_8()):
            assert g.mul(g.identity, 1) == 1
            for i in range(g.order):
                assert g.mul(i, g.inv(i)) == g.identity

    def test_abelianness(self):
        assert cyclic_group(6).is_abelian()
        assert not symmetric_group_3().is_abelian()
        assert not quaternion_group_8().is_abelian()

    def test_direct_product_order(self):
        g = direct_product(cyclic_group(2), cyclic_group(2))
        assert g.order == 4 and g.is_abelian()

    def test_abelian_cayley_matches(self):
        g = abelian_cayley(FiniteAbelianGroup([2, 2]))
        assert g.order == 4 and g.is_abelian()

    def test_named_groups(self):
        assert named_group("Z2xZ4").order == 8
        assert named_group("S3").order == 6
        with pytest.raises(ValueError):
            named_group("E8")

    def test_json_round_trip(self):
        g = symmetric_group_3()
        assert FiniteGroup.from_json(g.to_json()) == g

    def test_preset_documents(self):
        from finsym.groups import preset_group_documents

        docs = preset_group_documents()
        assert set(docs) == {"Z2", "Z3", "Z4", "Z2xZ2", "S3", "D4", "Q8"}
        for name, text in docs.items():
            assert FiniteGroup.from_json(text) == named_group(name)


def _cubic_validation(cayley, identity):
    """The former validator: Latin square, two-sided inverses by search, and
    all n^3 triples.  Returns the inverses, or None for a rejected table."""
    table = [list(row) for row in cayley]
    n = len(table)
    idx = set(range(n))
    if any(len(row) != n or set(row) != idx for row in table):
        return None
    if any({table[i][j] for i in range(n)} != idx for j in range(n)):
        return None
    e = identity
    if not 0 <= e < n or any(table[e][i] != i or table[i][e] != i for i in range(n)):
        return None
    inv = []
    for i in range(n):
        found = [j for j in range(n) if table[i][j] == e and table[j][i] == e]
        if not found:
            return None
        inv.append(found[0])
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    return None
    return tuple(inv)


def _light_validation(cayley, identity):
    try:
        return FiniteGroup(cayley, identity).inverses
    except ValueError:
        return None


def _relabel(table, perm):
    """The same magma with element i renamed perm[i]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = perm[table[i][j]]
    return out


def _unit_latin_square(rng, n):
    """A random Latin square with unit 0, by randomized backtracking."""
    table = [[None] * n for _ in range(n)]
    table[0] = list(range(n))
    for i in range(n):
        table[i][0] = i
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        used = set(table[i]) | {table[r][j] for r in range(n)}
        choices = [v for v in range(n) if v not in used]
        rng.shuffle(choices)
        for v in choices:
            table[i][j] = v
            if fill(k + 1):
                return True
        table[i][j] = None
        return False

    assert fill(0)
    return table


def _unit_row_permutations(rng, n):
    """Rows are permutations and 0 is a two-sided unit; columns are free."""
    table = [list(range(n))]
    for i in range(1, n):
        rest = [v for v in range(n) if v != i]
        rng.shuffle(rest)
        table.append([i] + rest)
    return table


def _product_table(t1, t2):
    """The direct product of two magmas, element (i, j) at i * len(t2) + j."""
    m = len(t2)
    return [[t1[i1][i2] * m + t2[j1][j2] for i2 in range(len(t1)) for j2 in range(m)]
            for i1 in range(len(t1)) for j1 in range(m)]


# a loop of order 5 (x x = 0 for all x): Latin, with a unit, not associative
LOOP_5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]
# abelian groups of order <= 32, as in the finite-group bench catalogue
ABELIAN_LE_32 = [
    "Z1", "Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "Z7", "Z8", "Z2xZ4", "Z2xZ2xZ2", "Z9",
    "Z3xZ3", "Z10", "Z12", "Z2xZ6", "Z16", "Z4xZ4", "Z2xZ8", "Z2xZ2xZ4", "Z18", "Z20",
    "Z24", "Z2xZ12", "Z5xZ5", "Z27", "Z3xZ9", "Z28", "Z30", "Z32", "Z2xZ2xZ2xZ4",
]


def _oracle_tables():
    named = [named_group(n) for n in ("S3", "D4", "Q8", *ABELIAN_LE_32)]
    products = [
        direct_product(a, b)
        for a, b in ((cyclic_group(2), cyclic_group(3)), (symmetric_group_3(), cyclic_group(2)),
                     (quaternion_group_8(), cyclic_group(2)),
                     (dihedral_group_4(), cyclic_group(3)))
    ]
    tables = [(g.cayley, g.identity) for g in (*named, *products)]
    rng = random.Random(20240917)
    for n in range(1, 7):
        for _ in range(12):
            for table in (_unit_latin_square(rng, n), _unit_row_permutations(rng, n)):
                perm = list(range(n))
                rng.shuffle(perm)
                tables.append((_relabel(table, perm), perm[0]))
    tables.append((LOOP_5, 0))
    # the first greedy generator, (e, 1) in the Z2 factor, is associative
    tables.append((_product_table(LOOP_5, cyclic_group(2).cayley), 0))
    tables.append((_relabel(LOOP_5, [3, 1, 4, 0, 2]), 3))
    # broken inputs: a row that is no permutation, no unit, a unit out of range, a short row
    tables += [([[0, 0], [1, 1]], 0), ([[1, 0], [0, 1]], 0), ([[0]], 1), ([[0, 1], [1]], 0)]
    return tables


class TestLightValidatorOracle:
    def test_agrees_with_the_cubic_validator(self):
        verdicts = set()
        for cayley, identity in _oracle_tables():
            old = _cubic_validation(cayley, identity)
            assert _light_validation(cayley, identity) == old, (cayley, identity)
            verdicts.add(old is None)
        assert verdicts == {True, False}

    def test_nonassociative_loop_is_rejected(self):
        with pytest.raises(ValueError, match="associativity fails"):
            FiniteGroup(LOOP_5, 0)

    def test_charge_is_n_squared_times_generators(self):
        # S3 from transposition 1: right multiples of e reach {0, 1}, so
        # 2 joins as a second generator; 6^2 x 2 = 72 checks
        cayley = symmetric_group_3().cayley
        with max_enum(72):
            FiniteGroup(cayley, 0)
        with max_enum(71), pytest.raises(GuardExceeded, match=r"6\^2 x 2 gens"):
            FiniteGroup(cayley, 0)

    def test_cayley_table_is_charged_before_it_is_built(self):
        with max_enum(10**6), pytest.raises(GuardExceeded, match="Cayley table"):
            abelian_cayley(FiniteAbelianGroup([2000]))


class TestConjugacyClasses:
    def test_cyclic_three_singletons(self):
        assert conjugacy_classes(cyclic_group(3)) == ((0,), (1,), (2,))

    def test_s3_class_sizes(self):
        sizes = sorted(len(c) for c in conjugacy_classes(symmetric_group_3()))
        assert sizes == [1, 2, 3]

    def test_q8_class_sizes(self):
        sizes = sorted(len(c) for c in conjugacy_classes(quaternion_group_8()))
        assert sizes == [1, 1, 2, 2, 2]

    def test_d4_class_sizes(self):
        sizes = sorted(len(c) for c in conjugacy_classes(dihedral_group_4()))
        assert sizes == [1, 1, 2, 2, 2]

    def test_identity_class_is_singleton(self):
        for name in ("Z2", "S3", "D4", "Q8"):
            g = named_group(name)
            classes = conjugacy_classes(g)
            assert (g.identity,) in classes

    def test_abelian_class_count_equals_order(self):
        for name in ("Z2", "Z3", "Z2xZ2", "Z2xZ4"):
            g = named_group(name)
            assert len(conjugacy_classes(g)) == g.order

    def test_classes_partition_the_group(self):
        g = quaternion_group_8()
        classes = conjugacy_classes(g)
        flat = sorted(i for c in classes for i in c)
        assert flat == list(range(g.order))
