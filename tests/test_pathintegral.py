from fractions import Fraction
from itertools import product

import pytest

from finsym import limits

from finsym.complexes import (
    circle,
    disjoint_union,
    klein_bottle,
    pants,
    real_projective_space,
    sphere,
    surface,
    torus,
)
from finsym.groups import (
    FiniteAbelianGroup,
    conjugacy_classes,
    cyclic_group,
    direct_product,
    named_group,
)
from finsym.limits import GuardExceeded, max_enum
from finsym.pathintegral import (
    PiFiniteTarget,
    em_category_simple_count,
    em_partition,
    em_partition_bruteforce,
    em_state_space_dim,
    partition,
    surface_gauge_count,
)

Z2 = FiniteAbelianGroup([2])
Z3 = FiniteAbelianGroup([3])
Z2Z2 = FiniteAbelianGroup([2, 2])
Z5 = FiniteAbelianGroup([5])


class TestEmPartition:
    @pytest.mark.parametrize("coeffs", [Z2, Z3, Z2Z2])
    def test_s5_gives_group_order(self, coeffs):
        # H^0 = A in the (+1) slot, H^1 = H^2 = 0
        assert em_partition(sphere(5), coeffs, 2) == coeffs.order

    def test_t5_z2(self):
        # H^q(T^5; Z_2) = Z_2^C(5,q): 2^(10 - 5 + 1)
        assert em_partition(torus(5), Z2, 2) == 64

    def test_circle_degree_one(self):
        # groupoid cardinality of A // A
        assert em_partition(circle(), Z3, 1) == 1

    def test_open_complex_rejected(self):
        with pytest.raises(ValueError):
            em_partition(pants()[0], Z2, 2)

    def test_multiplicative_on_disjoint_union(self):
        m = torus(2)
        mm = disjoint_union(m, m)
        for n in (1, 2):
            assert em_partition(mm, Z2, n) == em_partition(m, Z2, n) ** 2

    @pytest.mark.parametrize(
        "cx",
        [sphere(2), sphere(3), torus(2), torus(3), real_projective_space(2),
         real_projective_space(3), klein_bottle()],
    )
    @pytest.mark.parametrize("coeffs", [Z2, Z3])
    @pytest.mark.parametrize("n", [1, 2])
    def test_groupoid_cardinality_oracle(self, cx, coeffs, n):
        assert em_partition(cx, coeffs, n) == em_partition_bruteforce(cx, coeffs, n)

    @pytest.mark.parametrize(
        "cx", [sphere(3), torus(3), real_projective_space(3)]
    )
    def test_oracle_extends_to_degree_three(self, cx):
        # the alternating product is adopted for every n; spot-check n = 3
        assert em_partition(cx, Z2, 3) == em_partition_bruteforce(cx, Z2, 3)


class TestStateSpaces:
    def test_s4_is_one_dimensional(self):
        assert em_state_space_dim(sphere(4), Z2, 2) == 1

    def test_t4_z2(self):
        assert em_state_space_dim(torus(4), Z2, 2) == 64

    @pytest.mark.parametrize(
        "coeffs", [Z2, Z3, Z5, Z2Z2, FiniteAbelianGroup([2, 4])]
    )
    def test_sphere_two_components_count(self, coeffs):
        # pi_0 Map(S^2, B^2 A) = H^2(S^2; A) = A
        assert em_state_space_dim(sphere(2), coeffs, 2) == coeffs.order


class TestCategoryCount:
    def test_s3_single_simple(self):
        assert em_category_simple_count(sphere(3), Z2) == 1

    def test_t3_z2(self):
        assert em_category_simple_count(torus(3), Z2) == 64

    def test_rp3_z2(self):
        assert em_category_simple_count(real_projective_space(3), Z2) == 4

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError):
            em_category_simple_count(torus(2), Z2)


class TestSurfaceCounts:
    def test_z2_torus(self):
        assert surface_gauge_count(named_group("Z2"), 1) == 2

    def test_s3_torus_equals_class_count(self):
        assert surface_gauge_count(named_group("S3"), 1) == 3

    def test_z2_genus_two(self):
        assert surface_gauge_count(named_group("Z2"), 2) == 8

    def test_genus_zero(self):
        assert surface_gauge_count(named_group("S3"), 0) == Fraction(1, 6)

    @pytest.mark.parametrize("name", ["Z2", "Z3", "Z2xZ2", "S3", "D4", "Q8"])
    def test_torus_theorem(self, name):
        g = named_group(name)
        assert surface_gauge_count(g, 1) == len(conjugacy_classes(g))

    @pytest.mark.parametrize("name", ["Z2", "Z3", "Z2xZ2"])
    @pytest.mark.parametrize("genus", [1, 2, 3])
    def test_abelian_closed_form(self, name, genus):
        g = named_group(name)
        assert surface_gauge_count(g, genus) == Fraction(g.order) ** (2 * genus - 1)

    def test_guard(self):
        with max_enum(1000), pytest.raises(GuardExceeded) as exc:
            surface_gauge_count(named_group("Q8"), 3)
        assert str(exc.value) == (
            "gauge tuple enumeration needs 262144 states, guard allows 1000"
        )

    def test_trivial_group_at_large_genus_is_guarded(self):
        # |G|^{2g} = 1, so only the g |G|^2 term of the charge can trip
        with max_enum(1000), pytest.raises(GuardExceeded, match="needs 1000000 states"):
            surface_gauge_count(cyclic_group(1), 10**6)


def tuple_count(group, genus):
    """Brute-force oracle: enumerate all |G|^{2g} tuples and keep those with
    prod [a_i, b_i] = e."""
    count = 0
    for tup in product(range(group.order), repeat=2 * genus):
        acc = group.identity
        for i in range(genus):
            acc = group.mul(acc, group.commutator(tup[2 * i], tup[2 * i + 1]))
        if acc == group.identity:
            count += 1
    return Fraction(count, group.order)


# (group, degrees of its irreducible characters); a product's degrees are
# the products of its factors' degrees
S3_DEGREES = (1, 1, 2)
ORACLE_GROUPS = [
    ("S3", named_group("S3"), S3_DEGREES),
    ("D4", named_group("D4"), (1, 1, 1, 1, 2)),
    ("Q8", named_group("Q8"), (1, 1, 1, 1, 2)),
    ("Z2xZ2", named_group("Z2xZ2"), (1,) * 4),
    *((f"C{n}", cyclic_group(n), (1,) * n) for n in range(1, 7)),
    ("S3xC2", direct_product(named_group("S3"), cyclic_group(2)),
     tuple(d * e for d in S3_DEGREES for e in (1, 1))),
]


def frobenius_mednykh(degrees, genus):
    """Sum over irreducible characters of (|G| / chi(1))^{2g - 2}."""
    order = sum(d * d for d in degrees)
    return sum((Fraction(order, d) ** (2 * genus - 2) for d in degrees), Fraction(0))


class TestSurfaceCountOracles:
    @pytest.mark.parametrize(
        "group, genus",
        [
            pytest.param(group, genus, id=f"{name}-g{genus}")
            for name, group, _ in ORACLE_GROUPS
            for genus in range(11)
            if group.order ** (2 * genus) <= 2**18
        ],
    )
    def test_equals_tuple_enumeration(self, group, genus):
        assert surface_gauge_count(group, genus) == tuple_count(group, genus)

    @pytest.mark.parametrize(
        "group, degrees", [pytest.param(g, d, id=name) for name, g, d in ORACLE_GROUPS]
    )
    def test_equals_frobenius_mednykh(self, group, degrees, monkeypatch):
        # the kept tuple-count charge reaches 12^20 at genus 10, above the 2^24 ceiling
        monkeypatch.setattr(limits, "HARD_CEILING", 2**80)
        assert len(degrees) == len(conjugacy_classes(group))
        for genus in range(11):
            assert surface_gauge_count(group, genus) == frobenius_mednykh(degrees, genus)


class TestTargets:
    def test_nonabelian_target_needs_degree_one(self):
        with pytest.raises(ValueError):
            PiFiniteTarget(named_group("S3"), 2)

    def test_partition_dispatch_abelian(self):
        target = PiFiniteTarget(Z2, 2)
        assert partition(target, torus(5)) == 64

    def test_partition_dispatch_nonabelian_surface(self):
        target = PiFiniteTarget(named_group("S3"), 1)
        assert partition(target, surface(2)) == surface_gauge_count(named_group("S3"), 2)
        assert partition(target, torus(2)) == 3

    @pytest.mark.parametrize("cx,genus", [(surface(g), g) for g in range(5)] + [(torus(2), 1)],
                             ids=[f"surface{g}" for g in range(5)] + ["torus2"])
    def test_partition_recognizes_surface_genus(self, cx, genus):
        s3 = named_group("S3")
        assert partition(PiFiniteTarget(s3, 1), cx) == surface_gauge_count(s3, genus)

    def test_partition_nonabelian_rejected_off_surfaces(self):
        target = PiFiniteTarget(named_group("S3"), 1)
        for cx in (klein_bottle(), real_projective_space(2), torus(3), sphere(3)):
            with pytest.raises(ValueError, match="closed surfaces only"):
                partition(target, cx)
