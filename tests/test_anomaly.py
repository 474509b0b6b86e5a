from fractions import Fraction
from math import gcd, sqrt

import pytest

from finsym.anomaly import (
    ChiralAngle,
    MinimalTFT,
    allowed_lines,
    allowed_lines_from_generator_values,
    chiral_fuse,
    defect_quantum_dim,
    flux_projector_action,
    fractional_instanton,
    gauss_sum,
    gauss_sum_direct,
    minimal_tft_data,
    ym_theta_pi_anomaly,
)
from finsym.groups import FiniteAbelianGroup
from finsym.quadratic import QuadraticForm

Z2 = FiniteAbelianGroup([2])
Z4 = FiniteAbelianGroup([4])
Z2Z2 = FiniteAbelianGroup([2, 2])
Z2Z4 = FiniteAbelianGroup([2, 4])


class TestAllowedLines:
    def test_pure_wilson_spectrum(self):
        # A' = 0: no 't Hooft flux, every character allowed
        lattice = allowed_lines(Z2, [], {(0,): 0})
        assert lattice.pairs == (((0,), (0,)), ((0,), (1,)))

    def test_unscrewed_magnetic_spectrum(self):
        # A' = A, q = 0: flux lines with no electric dressing
        lattice = allowed_lines(Z2, [(1,)], QuadraticForm(Z2, [0]))
        assert lattice.pairs == (((0,), (0,)), ((1,), (0,)))

    def test_dyonic_spectrum(self):
        # A' = A, q(m) = m^2/4: b(1,1) = 1/2 forces the dressing
        lattice = allowed_lines(Z2, [(1,)], QuadraticForm(Z2, [Fraction(1, 4)]))
        assert lattice.pairs == (((0,), (0,)), ((1,), (1,)))

    def test_generator_value_wrapper(self):
        lattice = allowed_lines_from_generator_values(Z2, [(1,)], [Fraction(1, 4)])
        assert lattice.pairs == (((0,), (0,)), ((1,), (1,)))

    def test_z4_dyonic_lattice_by_hand(self):
        # q(a) = a^2/8 on Z4 gives b(j,k) = jk/4, so the character forced on
        # the flux m is x -> -mx/4, i.e. exponent 3m mod 4
        lattice = allowed_lines(Z4, [(1,)], QuadraticForm(Z4, [Fraction(1, 8)]))
        assert lattice.pairs == (
            ((0,), (0,)), ((1,), (3,)), ((2,), (2,)), ((3,), (1,))
        )

    def test_selection_rule_holds_pairwise(self):
        # e restricted to A' must be -b(m, .) for every produced pair
        table = {(0,): Fraction(0), (2,): Fraction(1, 4)}
        lattice = allowed_lines(Z4, [(2,)], table)
        from finsym.groups import Character

        for m, exps in lattice.pairs:
            chi = Character(Z4, exps)
            for x in ((0,), (2,)):
                b = (table[Z4.add(m, x)] - table[m] - table[x]) % 1 if m in table else None
                if m in table:
                    assert chi.value(x) == (-b) % 1

    @pytest.mark.parametrize(
        "ambient,gens,gen_values",
        [
            (Z2, [], []),
            (Z2, [(1,)], [Fraction(1, 4)]),
            (Z4, [(2,)], [Fraction(1, 4)]),
            (Z4, [(1,)], [Fraction(1, 8)]),
            (Z2Z2, [(1, 0)], [Fraction(1, 4)]),
            (Z2Z2, [(1, 0), (0, 1)], [0, 0]),
            (Z2Z4, [(1, 0), (0, 2)], [Fraction(1, 4), Fraction(1, 4)]),
            (Z2Z4, [(0, 1)], [Fraction(1, 8)]),
        ],
    )
    def test_count_and_closure(self, ambient, gens, gen_values):
        lattice = allowed_lines_from_generator_values(ambient, gens, gen_values)
        assert len(lattice.pairs) == ambient.order
        assert lattice.is_closed_under_addition()

    def test_quadratic_form_on_proper_subgroup_rejected(self):
        with pytest.raises(ValueError):
            allowed_lines(Z4, [(2,)], QuadraticForm(Z4, [Fraction(1, 8)]))

    def test_q_not_on_subgroup_rejected(self):
        with pytest.raises(ValueError):
            allowed_lines(Z4, [(2,)], {(0,): 0, (1,): Fraction(1, 8)})

    @pytest.mark.parametrize(
        "table",
        [
            # q(a) = a^2/16 passes q(na) = n^2 q(a) but is not bi-additive
            {(a,): Fraction(a * a, 16) for a in range(4)},
            # a^2/8 with q(0) = 1/2
            {(0,): Fraction(1, 2), (1,): Fraction(1, 8),
             (2,): Fraction(1, 2), (3,): Fraction(1, 8)},
        ],
    )
    def test_raw_table_that_is_no_refinement_rejected(self, table):
        with pytest.raises(ValueError):
            allowed_lines(Z4, [(1,)], table)


class TestMinimalTFT:
    def test_semion(self):
        table = minimal_tft_data(MinimalTFT(2, 1))
        assert table.spins == (Fraction(0), Fraction(1, 4))
        assert table.charges == (0, 1)

    def test_trivial_theory(self):
        table = minimal_tft_data(MinimalTFT(1, 1))
        assert table.spins == (Fraction(0),)

    def test_n3_spins(self):
        table = minimal_tft_data(MinimalTFT(3, 1))
        assert table.spins == (Fraction(0), Fraction(1, 6), Fraction(2, 3))

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError):
            MinimalTFT(4, 2)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_braiding_bilinear_and_nondegenerate(self, n):
        for p in range(n):
            if gcd(p, n) != 1:
                continue
            table = minimal_tft_data(MinimalTFT(n, p))
            for j in range(n):
                for jp in range(n):
                    for k in range(n):
                        assert table.braiding((j + jp) % n, k) == (
                            table.braiding(j, k) + table.braiding(jp, k)
                        ) % 1
            transparent = [
                k for k in range(n)
                if all(table.braiding(j, k) == 0 for j in range(n))
            ]
            assert transparent == [0]
            rows = {tuple(table.braiding(j, k) for j in range(n)) for k in range(n)}
            assert len(rows) == n

    def test_spin_charge_relation(self):
        # B(1, k) = theta(k+1) - theta(k) - theta(1) consistency
        table = minimal_tft_data(MinimalTFT(5, 2))
        for k in range(4):
            lhs = table.braiding(1, k)
            rhs = (table.spins[k + 1] - table.spins[k] - table.spins[1]) % 1
            assert lhs == rhs


class TestDefectDimensions:
    def test_values(self):
        assert defect_quantum_dim(1) == 1.0
        assert abs(defect_quantum_dim(2) - 0.7071067811865476) <= 1e-15
        assert defect_quantum_dim(9) == pytest.approx(1 / 3, abs=1e-15)

    def test_matches_sqrt(self):
        for n in range(1, 20):
            assert defect_quantum_dim(n) == pytest.approx(1 / sqrt(n), abs=1e-15)


class TestFluxProjector:
    @pytest.mark.parametrize(
        "n,m,expected", [(4, 0, 1), (4, 2, 0), (1, 7, 1), (3, 6, 1), (3, 5, 0)]
    )
    def test_values(self, n, m, expected):
        assert flux_projector_action(n, m) == expected


class TestChiralFusion:
    def test_quarter_squared(self):
        result, condensed = chiral_fuse(ChiralAngle.of(1, 4), ChiralAngle.of(1, 4))
        assert result.value == Fraction(1, 2)
        assert condensed == 2

    def test_inverse_angles(self):
        result, condensed = chiral_fuse(ChiralAngle.of(1, 3), ChiralAngle.of(2, 3))
        assert result.value == 0
        assert condensed == 3

    def test_unit(self):
        result, condensed = chiral_fuse(ChiralAngle.of(0, 1), ChiralAngle.of(3, 7))
        assert result.value == Fraction(3, 7)
        assert condensed == 1

    def test_equal_denominator_gcd_rule(self):
        # gauging Z_gcd(p+q, N) when both denominators are N
        for n in (4, 6, 9):
            for p in range(n):
                for q in range(n):
                    a, b = ChiralAngle.of(p, n), ChiralAngle.of(q, n)
                    if a.n != n or b.n != n:
                        continue  # p/N reduced away from denominator N
                    _, condensed = chiral_fuse(a, b)
                    assert condensed == (gcd(p + q, n) or n)

    def test_associative_and_commutative(self):
        angles = [
            ChiralAngle.of(p, n)
            for n in (1, 2, 3, 4, 5, 7, 12, 30)
            for p in range(min(n, 4))
        ]
        sample = angles[::3]
        for a in sample:
            for b in sample:
                ab, _ = chiral_fuse(a, b)
                ba, _ = chiral_fuse(b, a)
                assert ab == ba
                for c in sample[::2]:
                    lhs, _ = chiral_fuse(ab, c)
                    bc, _ = chiral_fuse(b, c)
                    rhs, _ = chiral_fuse(a, bc)
                    assert lhs == rhs


class TestThetaPiParity:
    def test_su2_is_anomalous(self):
        assert ym_theta_pi_anomaly(2).anomalous

    @pytest.mark.parametrize("n", range(2, 17))
    def test_parity(self, n):
        verdict = ym_theta_pi_anomaly(n)
        assert verdict.anomalous is (n % 2 == 0)
        if not verdict.anomalous:
            assert 2 * verdict.counterterm == n - 1

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            ym_theta_pi_anomaly(1)


class TestFractionalInstanton:
    def test_su2_half_flux(self):
        assert fractional_instanton(2, 1) == Fraction(3, 4)

    def test_zero_flux(self):
        for n in (2, 3, 5, 8):
            assert fractional_instanton(n, 0) == 0

    def test_n3_full_reduction(self):
        # P = 3 reduced mod gcd(2,3)*3 = 3 is 0
        assert fractional_instanton(3, 3) == 0

    def test_spin_restriction(self):
        assert fractional_instanton(2, 2, spin=True) == Fraction(1, 2)
        with pytest.raises(ValueError):
            fractional_instanton(2, 1, spin=True)


class TestGaussSums:
    @pytest.mark.parametrize("n", range(1, 21))
    def test_exact_and_direct(self, n):
        for p in range(n if n > 1 else 2):
            if gcd(p, n) != 1:
                continue
            assert gauss_sum(n, p) == n
            direct = gauss_sum_direct(n, p)
            assert abs(direct - n) <= 1e-9

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            gauss_sum(4, 2)
