import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from finsym import ising
from finsym.ising import (
    BETA_C,
    SECTORS,
    Background,
    IsingLattice,
    _histograms,
    edges,
    frustration_histogram,
    gauged_partition,
    kw_dual_beta,
    kw_ratio,
    partition_bruteforce,
    partition_transfer,
    sector_histograms,
    sector_partitions,
    transfer_matrix,
    weight,
)
from finsym.limits import GuardExceeded, max_enum

BETAS = (0.1, 0.3, BETA_C, 1.0)
ORACLE_BETAS = (0.05, 0.3, BETA_C, 0.5, 1.2, 3.0, 20.0)
SMALL_TORI = [(2, 2), (3, 3), (2, 4), (3, 4), (4, 4)]


class TestWeights:
    def test_aligned_weight_is_one(self):
        for beta in (0.01, 0.5, 7.0):
            assert weight(beta, 1) == 1.0

    def test_halving_beta(self):
        assert weight(math.log(2) / 2, -1) == pytest.approx(0.5, abs=1e-15)

    def test_low_temperature_limit(self):
        assert weight(20.0, -1) < 1e-17

    def test_validation(self):
        with pytest.raises(ValueError):
            weight(-1.0, 1)
        with pytest.raises(ValueError):
            weight(1.0, 0)


class TestBruteForce:
    def test_1x1_trivial(self):
        # two spins, two self-edges each with aligned product
        lat = IsingLattice(1, 1, 0.7)
        assert partition_bruteforce(lat) == 2.0

    def test_1x1_fully_twisted(self):
        beta = 0.7
        lat = IsingLattice(1, 1, beta)
        bg = Background.from_holonomies(lat, 1, 1)
        assert partition_bruteforce(lat, bg) == pytest.approx(
            2 * math.exp(-4 * beta), rel=1e-15
        )

    def test_edge_count(self):
        lat = IsingLattice(3, 4, 1.0)
        assert len(edges(lat)) == 24

    def test_histogram_total(self):
        lat = IsingLattice(2, 3, 1.0)
        assert sum(frustration_histogram(lat)) == 2**6

    def test_2x2_histogram_by_hand(self):
        # the 8 edges are 4 doubled pairs forming a 4-cycle of sites; the
        # number of unequal pairs around a cycle is even, so the frustration
        # count is 2m with m in {0, 2, 4} and multiplicities 2, 12, 2
        lat = IsingLattice(2, 2, 0.5)
        hist = frustration_histogram(lat)
        expected = {0: 2, 4: 12, 8: 2}
        assert {k: int(v) for k, v in enumerate(hist) if v} == expected

    def test_2x2_twisted_histogram_by_hand(self):
        # with the spatial wrap twisted, each doubled horizontal pair has
        # exactly one frustrated edge whatever the spins; the vertical pairs
        # contribute 0, 2 or 4 with multiplicities 4, 8, 4
        lat = IsingLattice(2, 2, 0.5)
        hist = frustration_histogram(lat, Background.from_holonomies(lat, 1, 0))
        expected = {2: 4, 4: 8, 6: 4}
        assert {k: int(v) for k, v in enumerate(hist) if v} == expected

    def test_guard_is_the_only_size_limit(self):
        # 21-24 sites are exact; 25 sites exceed the 2^24 ceiling
        assert sum(frustration_histogram(IsingLattice(7, 3, 1.0))) == 2**21
        with pytest.raises(GuardExceeded) as exc:
            partition_bruteforce(IsingLattice(5, 5, 1.0))
        assert str(exc.value) == ("spin configuration enumeration needs 33554432 states, "
                                  "guard allows 16777216")


class TestTransferMatrix:
    def test_positive_entries(self):
        m = transfer_matrix(3, 0.4)
        assert np.all(m > 0)

    def test_perron_frobenius_gap(self):
        for beta in BETAS:
            m = transfer_matrix(4, beta)
            eigs = np.sort(np.abs(np.linalg.eigvals(m)))[::-1]
            assert eigs[0] - eigs[1] > 0

    def test_2x2_matches_bruteforce(self):
        lat = IsingLattice(2, 2, 0.3)
        zb = partition_bruteforce(lat)
        zt = partition_transfer(lat)
        assert abs(zb - zt) / zb <= 1e-12

    @pytest.mark.parametrize("shape", [(1, 1), (1, 4), (4, 1), (2, 3), (3, 3), (4, 4)])
    @pytest.mark.parametrize("beta", BETAS)
    def test_all_sectors_match_bruteforce(self, shape, beta):
        lat = IsingLattice(shape[0], shape[1], beta)
        for sector in SECTORS:
            zb = partition_bruteforce(lat, Background.from_holonomies(lat, *sector))
            zt = partition_transfer(lat, sector)
            assert abs(zb - zt) / zb <= 1e-12

    def test_orientation_swap_symmetry(self):
        beta = 0.37
        for (length, time_steps) in [(2, 3), (1, 5), (4, 2)]:
            a = IsingLattice(length, time_steps, beta)
            b = IsingLattice(time_steps, length, beta)
            for h_x, h_t in SECTORS:
                za = partition_bruteforce(a, Background.from_holonomies(a, h_x, h_t))
                zb = partition_bruteforce(b, Background.from_holonomies(b, h_t, h_x))
                assert za == pytest.approx(zb, rel=1e-13)

    def test_entries_are_guarded(self):
        # 4^12 = 2^24 entries is the ceiling itself
        with pytest.raises(GuardExceeded, match="transfer matrix entries needs 67108864 states"):
            transfer_matrix(13, 0.5)
        with pytest.raises(GuardExceeded, match="needs at least 2\\^65536 states"):
            transfer_matrix(10**100, 0.5)
        with pytest.raises(ValueError, match="transfer width must be >= 1"):
            transfer_matrix(0, 0.5)


class TestBackgrounds:
    def test_coboundary_invariance(self):
        lat = IsingLattice(3, 3, 0.44)
        for sector in SECTORS:
            bg = Background.from_holonomies(lat, *sector)
            z = partition_bruteforce(lat, bg)
            for site in ((0, 0), (1, 2), (2, 1)):
                flipped = bg.flip_site(*site)
                assert partition_bruteforce(lat, flipped) == pytest.approx(
                    z, rel=1e-12
                )

    def test_self_edge_sites_gauge_trivially(self):
        lat = IsingLattice(1, 2, 0.8)
        bg = Background.trivial(lat)
        z = partition_bruteforce(lat, bg)
        assert partition_bruteforce(lat, bg.flip_site(0, 0)) == pytest.approx(
            z, rel=1e-14
        )

    def test_validation(self):
        lat = IsingLattice(2, 2, 1.0)
        with pytest.raises(ValueError):
            Background(lat, (1,) * 7)
        with pytest.raises(ValueError):
            Background(lat, (1,) * 7 + (2,))


class TestKramersWannier:
    def test_involution(self):
        for beta in (0.1, 0.44, 1.0, 2.0):
            assert kw_dual_beta(kw_dual_beta(beta)) == pytest.approx(beta, abs=1e-12)

    def test_fixed_point(self):
        assert math.sinh(2 * BETA_C) == pytest.approx(1.0, abs=1e-12)
        assert kw_dual_beta(BETA_C) == pytest.approx(BETA_C, abs=1e-12)
        assert BETA_C == pytest.approx(0.44068679350977147, abs=1e-15)

    def test_monotone_decreasing(self):
        grid = np.linspace(0.05, 3.0, 40)
        duals = [kw_dual_beta(b) for b in grid]
        assert all(x > y for x, y in zip(duals, duals[1:]))

    def test_large_beta_does_not_overflow(self):
        # sinh(2 beta) overflows past beta ~ 355; the dual is ~ exp(-2 beta)
        dual = kw_dual_beta(360.0)
        assert math.isfinite(dual) and dual > 0
        assert dual == pytest.approx(math.exp(-720.0), rel=1e-9)
        assert kw_dual_beta(349.0) > kw_dual_beta(351.0) > dual

    def test_dual_is_within_three_ulps(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            for i in range(241):
                beta = 10.0 ** (-12 + i * (12 + math.log10(316.0)) / 240)
                exact = mpmath.asinh(1 / mpmath.sinh(2 * mpmath.mpf(beta))) / 2
                dual = kw_dual_beta(beta)
                assert abs(mpmath.mpf(dual) - exact) <= 3 * math.ulp(dual), beta

    @pytest.mark.parametrize("beta", [1e-309, 1e-320, 5e-324])
    def test_subnormal_beta_has_a_finite_dual(self, beta):
        # 1/sinh(2 beta) overflows a float here, its asinh does not
        mpmath = pytest.importorskip("mpmath")
        dual = kw_dual_beta(beta)
        assert math.isfinite(dual)
        with mpmath.workdps(60):
            exact = mpmath.asinh(1 / mpmath.sinh(2 * mpmath.mpf(beta))) / 2
            assert abs(mpmath.mpf(dual) - exact) <= 3 * math.ulp(dual)

    def test_dual_underflow_is_value_error(self):
        with pytest.raises(ValueError, match="underflows"):
            kw_dual_beta(400.0)

    def test_gauged_1x1_closed_form(self):
        beta = 0.9
        lat = IsingLattice(1, 1, beta)
        expected = (1 + math.exp(-2 * beta)) ** 2
        assert gauged_partition(lat) == pytest.approx(expected, rel=1e-14)

    def test_regauging_returns_original(self):
        lat = IsingLattice(2, 3, 0.52)
        z = partition_bruteforce(lat)
        regauged = 0.5 * sum(
            gauged_partition(lat, dual_sector=k) for k in SECTORS
        )
        assert regauged == pytest.approx(z, rel=1e-12)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 3), (2, 3)])
    def test_ratio_constant_over_beta_grid(self, shape):
        # pin the constant from two betas, then check a 10-point grid
        length, time_steps = shape
        c1 = kw_ratio(IsingLattice(length, time_steps, 0.2))
        c2 = kw_ratio(IsingLattice(length, time_steps, 0.9))
        assert abs(c1 - c2) / c1 <= 1e-9
        for beta in np.linspace(0.15, 1.2, 10):
            r = kw_ratio(IsingLattice(length, time_steps, float(beta)))
            assert abs(r - c1) / c1 <= 1e-9

    @pytest.mark.parametrize("shape", SMALL_TORI)
    def test_transfer_ratio_equals_bruteforce(self, shape):
        for beta in (0.2, BETA_C, 0.9):
            lat = IsingLattice(*shape, beta)
            brute = kw_ratio(lat)
            assert abs(kw_ratio(lat, method="transfer") - brute) <= 1e-12 * brute

    def test_gauged_at_critical_point_ratio(self):
        # at the self-dual point the gauged/original ratio is the same
        # beta-independent constant in the KW normalization
        lat = IsingLattice(2, 2, BETA_C)
        assert kw_ratio(lat) == pytest.approx(kw_ratio(IsingLattice(2, 2, 0.3)),
                                              rel=1e-9)

    def test_sector_partitions_both_methods(self):
        lat = IsingLattice(2, 2, 0.61)
        bf = sector_partitions(lat, method="bruteforce")
        tm = sector_partitions(lat, method="transfer")
        for sector in SECTORS:
            assert bf[sector] == pytest.approx(tm[sector], rel=1e-12)


def spin_product_histogram(lat, bg):
    """Oracle: an edge is frustrated when s_i * s_j * eps_e = -1, summed over
    the int8 +-1 spins of every one of the 2^(L*T) configurations."""
    n = lat.sites
    configs = np.arange(2**n, dtype=np.int32)
    spins = [(1 - 2 * ((configs >> s) & 1)).astype(np.int8) for s in range(n)]
    frustrated = np.zeros(2**n, dtype=np.int8)
    for (i, j), eps in zip(edges(lat), bg.twists):
        frustrated += (1 - spins[i] * spins[j] * eps) // 2
    return tuple(int(c) for c in np.bincount(frustrated, minlength=2 * n + 1))


def outer_product_counts(length, spatial_twist):
    """Oracle: frustrated-edge counts of the transfer matrix, [next, cur],
    from one dense outer product of +-1 spins per column."""
    rows = np.arange(2**length, dtype=np.int64)
    spins = [1 - 2 * ((rows >> x) & 1) for x in range(length)]
    horiz = np.zeros(2**length, dtype=np.float64)
    for x in range(length):
        eps = -1 if (spatial_twist % 2 and x == length - 1) else 1
        horiz += (1 - spins[x] * spins[(x + 1) % length] * eps) // 2
    vert = np.zeros((2**length, 2**length), dtype=np.float64)
    for x in range(length):
        vert += (1 - np.outer(spins[x], spins[x])) // 2
    return vert + horiz[np.newaxis, :]


SMALL_LATTICES = [(length, steps) for length in range(1, 17) for steps in range(1, 17)
                  if length * steps <= 16]


def random_background(lat, seed):
    rng = random.Random(seed)
    return Background(lat, tuple(rng.choice((-1, 1)) for _ in range(2 * lat.sites)))


def transposed(bg):
    """The same twists on the T x L torus: spatial and temporal edges swap."""
    lat = bg.lattice
    flipped = IsingLattice(lat.time_steps, lat.length, lat.beta)
    spatial, temporal = bg.twists[:lat.sites], bg.twists[lat.sites:]
    order = [x * lat.length + t for t in range(lat.length) for x in range(lat.time_steps)]
    return Background(flipped, tuple(temporal[i] for i in order) + tuple(spatial[i] for i in order))


class TestOnePassSectors:
    @pytest.mark.parametrize("shape", SMALL_LATTICES + [(4, 5), (5, 4), (2, 10)])
    def test_histograms_match_spin_products(self, shape):
        lat = IsingLattice(*shape, 1.0)
        hists = sector_histograms(lat)
        assert list(hists) == list(SECTORS)
        for sector in SECTORS:
            bg = Background.from_holonomies(lat, *sector)
            expected = spin_product_histogram(lat, bg)
            assert hists[sector] == expected
            assert frustration_histogram(lat, bg) == expected
            assert sum(expected) == 2**lat.sites
        gauge_moved = Background.from_holonomies(lat, 1, 1).flip_site(0, 0)
        for bg in (random_background(lat, shape[0] * 17 + shape[1]), gauge_moved):
            assert frustration_histogram(lat, bg) == spin_product_histogram(lat, bg)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (2, 3), (3, 5), (4, 5), (2, 10)])
    def test_transposed_torus_has_the_same_histogram(self, shape):
        lat = IsingLattice(*shape, 1.0)
        for bg in [random_background(lat, 100 * lat.sites + seed) for seed in range(3)] + [
                Background.from_holonomies(lat, *sector) for sector in SECTORS]:
            flipped = transposed(bg)
            assert frustration_histogram(flipped.lattice, flipped) == \
                frustration_histogram(lat, bg)
            assert sum(frustration_histogram(lat, bg)) == 2**lat.sites

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 3), (2, 5), (4, 4), (5, 4)])
    def test_partition_sum_is_the_exact_sum_rounded(self, shape):
        for beta in (1e-300, 0.05, 0.3, BETA_C, 0.6, 1.1, 5.0, 372.0):
            lat = IsingLattice(*shape, beta)
            zs = sector_partitions(lat)
            for sector, hist in sector_histograms(lat).items():
                exact = sum(Fraction(c) * Fraction(math.exp(-2.0 * (beta * k)))
                            for k, c in enumerate(hist))
                assert abs(zs[sector] - exact) <= Fraction(1, 10**15) * exact

    @pytest.mark.parametrize("shape", SMALL_LATTICES)
    def test_one_kernel_call_serves_every_background(self, shape, monkeypatch):
        lat = IsingLattice(*shape, 1.0)
        bgs = [random_background(lat, shape[0] * 31 + shape[1] + seed) for seed in range(2)] + [
            Background.from_holonomies(lat, 1, 0)]
        charges, check_enum = [], ising.check_enum
        monkeypatch.setattr(ising, "check_enum",
                            lambda size, what: charges.append(size) or check_enum(size, what))
        hists = _histograms(lat, bgs)
        assert charges == [2**lat.sites]
        for bg, hist in zip(bgs, hists):
            assert hist == spin_product_histogram(lat, bg)

    @pytest.mark.parametrize("length", range(1, 11))
    def test_transfer_matrix_matches_outer_products(self, length):
        for twist in (0, 1):
            counts = outer_product_counts(length, twist)
            for beta in (0.05, 0.1, 0.3, BETA_C, 0.7, 1.3, 4.0):
                assert np.array_equal(transfer_matrix(length, beta, twist),
                                      np.exp(-2.0 * beta * counts))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (2, 3), (3, 2), (4, 4), (5, 7)])
    def test_transfer_sectors_equal_single_sector_calls(self, shape):
        for beta in (0.2, BETA_C, 1.1):
            lat = IsingLattice(*shape, beta)
            zs = sector_partitions(lat, method="transfer")
            assert list(zs) == list(SECTORS)
            for sector in SECTORS:
                assert zs[sector] == partition_transfer(lat, sector)

    def test_bruteforce_sectors_equal_single_sector_calls(self):
        lat = IsingLattice(3, 4, 0.37)
        zs = sector_partitions(lat)
        for sector in SECTORS:
            assert zs[sector] == partition_bruteforce(
                lat, Background.from_holonomies(lat, *sector))

    def test_one_enumeration_is_guarded(self):
        with max_enum(1000):
            with pytest.raises(GuardExceeded):
                sector_partitions(IsingLattice(4, 4, 0.4))

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            sector_partitions(IsingLattice(2, 2, 0.4), method="kaufman")


def dense_trace(m, steps, h_t):
    """Oracle: tr(M^T F^{h_t}) for the dense 2^L x 2^L transfer matrix M, as
    sum(A * (B F^{h_t}).T) = tr(A B F^{h_t}) over M^T = A B, so that T <= 2
    takes no matrix product (F reverses the columns)."""
    half = steps // 2
    b = np.linalg.matrix_power(m, steps - half)
    b = b[:, ::-1] if h_t else b
    if not half:
        return float(np.trace(b))
    return float(np.sum(np.linalg.matrix_power(m, half) * b.T))


def assert_sectors_close(got, expected, rel=1e-12):
    assert list(got) == list(SECTORS)
    for sector in SECTORS:
        assert abs(got[sector] - expected[sector]) <= rel * expected[sector], sector


class TestClosedForm:
    @pytest.mark.parametrize("length", range(1, 11))
    def test_matches_dense_oracle(self, length):
        # a few torus lengths T per row length L; the 2^L side bounds T
        all_steps = (1, 2, 3, 5, 7) if length <= 4 else (1, 2, 4, 7) if length <= 8 else (1, 2)
        for beta in ORACLE_BETAS:
            matrices = [transfer_matrix(length, beta, h_x) for h_x in (0, 1)]
            for steps in all_steps:
                expected = {(h_x, h_t): dense_trace(matrices[h_x], steps, h_t)
                            for h_x, h_t in SECTORS}
                assert_sectors_close(
                    sector_partitions(IsingLattice(length, steps, beta), "transfer"), expected)

    @pytest.mark.parametrize("shape_beta", [(4, 5, 2.0), (3, 6, 3.0), (2, 8, 5.0)])
    def test_low_temperature_matches_bruteforce(self, shape_beta):
        # a float evaluation of the same products is off by 8.8e-5 (4x5) and
        # by a factor 2.5e4 (3x6) in the (1, 1) sector
        lat = IsingLattice(*shape_beta)
        assert_sectors_close(sector_partitions(lat, "transfer"),
                             sector_partitions(lat, "bruteforce"))

    def test_sector_signs(self):
        assert ising._KAUFMAN_SIGNS == {(0, 0): (1, 1, 1, 1), (0, 1): (1, 1, -1, -1),
                                        (1, 0): (1, -1, 1, -1), (1, 1): (-1, 1, 1, -1)}
        # on 1 x 1 each wrap twist frustrates its self-edge whatever the spin
        for beta in (0.1, BETA_C, 2.0, 30.0):
            w = math.exp(-2 * beta)
            assert_sectors_close(sector_partitions(IsingLattice(1, 1, beta), "transfer"),
                                 {(0, 0): 2.0, (0, 1): 2 * w, (1, 0): 2 * w, (1, 1): 2 * w * w},
                                 rel=1e-14)

    def test_orientation_swap_up_to_12x12(self):
        for length in range(1, 13):
            for steps in range(length + 1, 13):
                for beta in (0.3, BETA_C, 1.2, 3.0):
                    a = sector_partitions(IsingLattice(length, steps, beta), "transfer")
                    b = sector_partitions(IsingLattice(steps, length, beta), "transfer")
                    assert_sectors_close(a, {(h_x, h_t): b[(h_t, h_x)]
                                             for h_x, h_t in SECTORS})

    def test_huge_torus_length(self):
        # on 1 x T the transfer eigenvalues are e^{-2 b h_x} (1 +- w)
        beta, steps = 20.0, 10**18
        w = math.exp(-2 * beta)
        plus, minus = math.exp(steps * math.log1p(w)), math.exp(steps * math.log1p(-w))
        assert_sectors_close(sector_partitions(IsingLattice(1, steps, beta), "transfer"),
                             {(0, 0): plus + minus, (0, 1): plus - minus,
                              (1, 0): 0.0, (1, 1): 0.0})

    def test_12x12_is_quick(self):
        lat = IsingLattice(12, 12, BETA_C)
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            sector_partitions(lat, "transfer")
            best = min(best, time.perf_counter() - start)
        assert best < 0.01


THIN_TORI = [(13, 1), (20, 1), (21, 1), (22, 1), (24, 1), (11, 2), (12, 2), (8, 3), (6, 4),
             (4, 6), (3, 8), (2, 12), (1, 24)]


class TestGuardIsTheOnlyLimit:
    @pytest.mark.parametrize("shape", THIN_TORI)
    def test_bruteforce_matches_transfer_up_to_24_sites(self, shape):
        for beta in (0.05, 0.3, BETA_C, 0.9, 2.5):
            lat = IsingLattice(*shape, beta)
            assert_sectors_close(sector_partitions(lat, "transfer"), sector_partitions(lat),
                                 rel=1e-14)

    @pytest.mark.parametrize("shape", [(30, 5), (50, 3), (100, 2), (17, 4)])
    def test_orientation_swap_of_wide_tori(self, shape):
        for beta in (0.3, BETA_C, 1.2, 3.0):
            a = sector_partitions(IsingLattice(*shape, beta), "transfer")
            b = sector_partitions(IsingLattice(*shape[::-1], beta), "transfer")
            assert_sectors_close(a, {(h_x, h_t): b[(h_t, h_x)] for h_x, h_t in SECTORS},
                                 rel=1e-14)

    def test_transfer_charge_counts_the_bits_of_t(self):
        lat = IsingLattice(12, 10**1000, 300.0)
        assert ising.evaluation_cost(lat, "transfer") == 12 * ising.transfer_digits(lat) * 3322
        start = time.perf_counter()
        with pytest.raises(GuardExceeded, match="^transfer evaluation needs "):
            sector_partitions(lat, "transfer")
        assert time.perf_counter() - start < 1.0

    def test_second_pass_is_charged_at_its_precision(self):
        # the twisted sectors lie below 2^-1075, so the second pass runs at
        # about 350 digits where the first ran at 42
        lat = IsingLattice(12, 12, 372.0)
        first = ising.evaluation_cost(lat, "transfer")
        with max_enum(first), pytest.raises(GuardExceeded, match="transfer evaluation"):
            sector_partitions(lat, "transfer")
        with max_enum(10 * first):
            assert sector_partitions(lat, "transfer")[(0, 0)] == 2.0

    def test_brute_force_charge_builds_no_huge_power(self):
        lat = IsingLattice(10**6, 10**6, 0.4)
        assert ising.evaluation_cost(lat, "bruteforce") == 2**65536

    @pytest.mark.parametrize("shape", [(1000, 1000), (1, 10**20)])
    def test_brute_force_charges_before_building_backgrounds(self, shape):
        # a background holds 2*L*T twists: 2e6 here, or more than a tuple can
        lat = IsingLattice(*shape, 0.4)
        for compute in (sector_partitions, frustration_histogram):
            start = time.perf_counter()
            with pytest.raises(GuardExceeded, match="^spin configuration enumeration needs "
                                                    "at least 2\\^65536 states"):
                compute(lat)
            assert time.perf_counter() - start < 0.1


class TestTransferEdgeBetas:
    @pytest.mark.parametrize("beta", [5e-324, 1e-300])
    @pytest.mark.parametrize("shape", [(4, 4), (2, 8), (1, 16), (3, 5)])
    def test_tiny_beta_matches_bruteforce(self, shape, beta):
        lat = IsingLattice(*shape, beta)
        assert_sectors_close(sector_partitions(lat, "transfer"),
                             sector_partitions(lat, "bruteforce"))

    @pytest.mark.parametrize("beta", [5e-324, 1e-300, 372.0, 373.0, 1e3, 1e308])
    def test_edge_betas_return_floats(self, beta):
        for shape in ((2, 2), (12, 12), (12, 1), (1, 12)):
            zs = sector_partitions(IsingLattice(*shape, beta), "transfer")
            assert all(math.isfinite(z) and z >= 0 for z in zs.values())
        if beta >= 372.0:  # the ground state, as brute force has it
            assert sector_partitions(IsingLattice(4, 5, beta), "transfer") == \
                sector_partitions(IsingLattice(4, 5, beta), "bruteforce")

    def test_worst_precision_corner_is_quick(self):
        # the twisted sectors lie below 2^-1075, so the second pass runs at
        # the full bound of about 350 digits
        for beta in (371.5, 372.0, 372.4):
            start = time.perf_counter()
            zs = sector_partitions(IsingLattice(12, 12, beta), "transfer")
            assert time.perf_counter() - start < 1.0
            assert zs == {(0, 0): 2.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 0.0}

    def test_long_torus_overflow_is_quick(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="overflows a float"):
            partition_transfer(IsingLattice(4, 300, 0.05))
        assert time.perf_counter() - start < 0.5


class TestTransferOverflow:
    @pytest.mark.parametrize("shape_beta", [(4, 300, 0.05), (2, 1100, 0.01)])
    def test_overflow_is_value_error(self, shape_beta):
        lat = IsingLattice(*shape_beta)
        with pytest.raises(ValueError, match="overflows a float"):
            partition_transfer(lat)
        with pytest.raises(ValueError, match="overflows a float"):
            sector_partitions(lat, method="transfer")

    def test_overflow_of_the_top_eigenvalue_power_is_value_error(self):
        # Lambda^T itself leaves decimal's exponent range: decimal.Overflow
        # inside the closed form becomes the same ValueError
        start = time.perf_counter()
        with pytest.raises(ValueError, match="Z overflows a float"):
            sector_partitions(IsingLattice(12, 10**19, BETA_C), "transfer")
        assert time.perf_counter() - start < 1.0

    def test_long_finite_torus_still_returns(self):
        z = partition_transfer(IsingLattice(4, 200, 0.05))
        assert math.isfinite(z) and z > 0


class TestValidation:
    def test_lattice_validation(self):
        with pytest.raises(ValueError):
            IsingLattice(0, 1, 1.0)
        with pytest.raises(ValueError):
            IsingLattice(1, 1, 0.0)

    def test_background_of_another_lattice_rejected(self):
        lat = IsingLattice(2, 2, 1.0)
        other = Background.trivial(IsingLattice(2, 2, 0.5))
        with pytest.raises(ValueError, match="different lattice"):
            frustration_histogram(lat, other)
        with pytest.raises(ValueError, match="different lattice"):
            _histograms(lat, [Background.trivial(lat), other])
