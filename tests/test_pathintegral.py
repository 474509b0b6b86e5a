from fractions import Fraction

import pytest

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
from finsym.groups import FiniteAbelianGroup, conjugacy_classes, named_group
from finsym.limits import GuardExceeded
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
        with pytest.raises(GuardExceeded):
            surface_gauge_count(named_group("Q8"), 3, limit=1000)


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

    def test_partition_nonabelian_rejected_off_surfaces(self):
        target = PiFiniteTarget(named_group("S3"), 1)
        with pytest.raises(ValueError):
            partition(target, torus(3))
