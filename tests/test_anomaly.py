import random
from fractions import Fraction
from math import gcd, sqrt

import pytest

from finsym.anomaly import (
    AnyonTable,
    ChiralAngle,
    LineLattice,
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
from finsym.groups import FiniteAbelianGroup, characters
from finsym.quadratic import QuadraticForm, polarization, subgroup_quadratic_table

Z2 = FiniteAbelianGroup([2])
Z4 = FiniteAbelianGroup([4])
Z2Z2 = FiniteAbelianGroup([2, 2])
Z2Z4 = FiniteAbelianGroup([2, 4])
Z4Z4 = FiniteAbelianGroup([4, 4])


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
    def test_count_and_closure(self, ambient, gens, gen_values, monkeypatch):
        # A' is read off the expanded table; it is never enumerated apart
        calls, subgroup = [], FiniteAbelianGroup.subgroup
        monkeypatch.setattr(FiniteAbelianGroup, "subgroup",
                            lambda self, g: calls.append(g) or subgroup(self, g))
        lattice = allowed_lines_from_generator_values(ambient, gens, gen_values)
        assert calls == []
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


def _scan_lines(ambient, sub_elems, table):
    """The former selection: every (m, chi) pair, tested at every x in A'."""
    return tuple(sorted(
        (m, chi.exponents)
        for m in sub_elems
        for chi in characters(ambient)
        if all(chi.value(x) == -polarization(ambient, table, m, x) % 1 for x in sub_elems)
    ))


# (A, generators of A'): trivial, full, proper, zero and redundant generators
SELECTION_CASES = [
    (Z2, []),
    (Z2, [(1,)]),
    (Z2, [(0,)]),
    (Z4, [(2,)]),
    (Z4, [(1,)]),
    (Z4, [(2,), (1,)]),
    (Z2Z2, [(1, 0)]),
    (Z2Z2, [(1, 1)]),
    (Z2Z2, [(1, 0), (0, 1)]),
    (Z2Z2, [(1, 0), (0, 1), (1, 1)]),
    (Z2Z4, [(0, 2)]),
    (Z2Z4, [(1, 2)]),
    (Z2Z4, [(1, 0), (0, 1)]),
    (Z2Z4, [(1, 1), (0, 0)]),
    (Z2Z4, [(0, 1), (0, 2)]),
    (Z4Z4, [(2, 0), (0, 2)]),
    (Z4Z4, [(1, 1)]),
    (Z4Z4, [(1, 0), (0, 1)]),
    (Z4Z4, [(1, 0), (1, 1), (0, 0)]),
]


def _random_data(ambient, gens, rng):
    d = 2 * ambient.exponent
    values = [Fraction(rng.randrange(d), d) for _ in gens]
    cross = {(i, j): Fraction(rng.randrange(d), d)
             for i in range(len(gens)) for j in range(i + 1, len(gens)) if rng.random() < 0.5}
    return values, cross


def _refinements(ambient, gens, rng, tries=24):
    """Valid (values, cross terms, table) for q on A': random data that
    happens to refine, and restrictions of random forms on A, which are
    consistent on redundant and zero generators too."""
    found = []
    pairs = [(i, j) for i in range(len(gens)) for j in range(i + 1, len(gens))]
    for _ in range(tries):
        candidates = [_random_data(ambient, gens, rng)]
        try:
            q = QuadraticForm(ambient, *_random_data(ambient, ambient.unit_generators(), rng))
        except ValueError:
            pass
        else:
            candidates.append(([q(g) for g in gens],
                               {(i, j): q.polarization(gens[i], gens[j]) for i, j in pairs}))
        for values, cross in candidates:
            try:
                table = subgroup_quadratic_table(ambient, gens, values, cross)
            except ValueError:
                continue
            found.append((values, cross, table))
    return found


class TestSelectionOracle:
    @pytest.mark.parametrize("ambient,gens", SELECTION_CASES)
    def test_generator_buckets_match_the_full_scan(self, ambient, gens):
        rng = random.Random(f"{ambient}{gens}")
        sub_elems = ambient.subgroup(gens)
        found = _refinements(ambient, gens, rng)
        assert found
        for values, cross, table in found:
            expected = _scan_lines(ambient, sub_elems, table)
            lattice = allowed_lines_from_generator_values(ambient, gens, values, cross)
            assert lattice.pairs == expected
            assert allowed_lines(ambient, gens, table).pairs == expected


def _pairwise_closed(lattice):
    """The former closure check: every sum of two pairs is a pair."""
    seen = set(lattice.pairs)
    a = lattice.ambient
    return all((a.add(m1, m2), a.add(e1, e2)) in seen
               for m1, e1 in lattice.pairs for m2, e2 in lattice.pairs)


def _span(ambient, gens):
    """The subgroup of A x A^dual generated by ``gens``, by plain closure."""
    zero = (ambient.zero(), ambient.zero())
    seen, frontier = {zero}, [zero]
    while frontier:
        m, e = frontier.pop()
        for gm, ge in gens:
            p = (ambient.add(m, gm), ambient.add(e, ge))
            if p not in seen:
                seen.add(p)
                frontier.append(p)
    return seen


class TestClosureOracle:
    @pytest.mark.parametrize("ambient", [Z2, Z4, Z2Z2, Z2Z4])
    def test_coset_growth_matches_pairwise_closure(self, ambient):
        rng = random.Random(str(ambient))
        universe = [(m, e) for m in ambient.elements() for e in ambient.elements()]
        subsets = [set(), {universe[0]}, set(universe[1:]), set(universe)]
        for _ in range(30):
            sub = _span(ambient, rng.sample(universe, rng.randrange(3)))
            shift = rng.choice(universe)
            subsets += [
                sub,
                sub - {rng.choice(sorted(sub))},
                sub - {universe[0]},
                {(ambient.add(m, shift[0]), ambient.add(e, shift[1])) for m, e in sub},
                sub | {shift},
                set(rng.sample(universe, rng.randrange(len(universe) + 1))),
            ]
        verdicts = set()
        for subset in subsets:
            lattice = LineLattice(ambient, tuple(sorted(subset)))
            verdict = _pairwise_closed(lattice)
            assert lattice.is_closed_under_addition() == verdict, sorted(subset)
            verdicts.add(verdict)
        assert verdicts == {True, False}


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

    # every N up to 50, then primes, prime powers and composites up to 300:
    # the full table for every N <= 300 and every level would take seconds
    SPIN_NS = [*range(1, 51), 64, 97, 120, 210, 256, 299, 300]

    @staticmethod
    def levels(n):
        """Every p in [0, N) coprime to N, and two levels outside it."""
        return [p for p in range(n) if gcd(p, n) == 1] + [-1, 2 * n + 1]

    def test_spins_and_charges_match_the_fraction_reference(self):
        for n in self.SPIN_NS:
            for p in self.levels(n):
                table = minimal_tft_data(MinimalTFT(n, p))
                assert table.spins == tuple(Fraction(p * k * k, 2 * n) % 1 for k in range(n))
                assert table.charges == tuple(p * k % n for k in range(n)), (n, p)

    def test_braiding_matches_the_fraction_reference(self):
        """Every N <= 300 and level p, at sampled labels (negative and >= N
        among them); every label pair in [-N, 2N) for N <= 12."""
        rng = random.Random(33)
        for n in range(1, 301):
            for p in self.levels(n):
                table = AnyonTable(n, p, (), ())
                span = range(-n, 2 * n)
                if n <= 12:
                    pairs = [(j, k) for j in span for k in span]
                else:
                    pairs = [(-1, n - 1)]
                    pairs += [(rng.choice(span), rng.choice(span)) for _ in range(4)]
                for j, k in pairs:
                    assert table.braiding(j, k) == Fraction(p * j * k, n) % 1, (n, p, j, k)

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
        for n, p in ((-5, 2), (0, 1)):
            for fn in (gauss_sum, gauss_sum_direct):
                with pytest.raises(ValueError, match="N must be >= 1"):
                    fn(n, p)
