import json
import math
import random
import re
from decimal import Context, Decimal

import numpy as np
import pytest

from finsym import fusion
from finsym.cli import fmt_float, main
from finsym.fusion import (
    FusionRing,
    Obstruction,
    RingElement,
    _is_invertible,
    _pf_enclosure,
    _rounded,
    fiber_functor_obstruction,
    group_ring,
    pf_dimensions,
    quotient_defect_composition,
    square_root_obstruction,
    tambara_yamagami,
)
from finsym.groups import named_group, preset_group_documents
from finsym.limits import GuardExceeded, max_enum


def simple(ring, label):
    return RingElement(ring, tuple(1 if l == label else 0 for l in ring.labels))


class TestGroupRing:
    def test_z2(self):
        ring = group_ring(named_group("Z2"))
        assert ring.labels == ("1", "g1")
        g = simple(ring, "g1")
        assert (g * g).coefficients == (1, 0)

    def test_s3_is_a_valid_nonabelian_ring(self):
        ring = group_ring(named_group("S3"))
        assert ring.rank == 6
        a, b = simple(ring, "g1"), simple(ring, "g2")
        assert (a * b).coefficients != (b * a).coefficients

    def test_trivial_group(self):
        assert group_ring(named_group("Z1")).rank == 1

    def test_json_round_trip(self):
        ring = group_ring(named_group("Z3"))
        assert FusionRing.from_json(ring.to_json()) == ring


class TestTambaraYamagami:
    def test_ising_relations(self):
        # g^2 = 1, g x = x, x^2 = 1 + g
        ring = tambara_yamagami(named_group("Z2"))
        g, x = simple(ring, "g1"), simple(ring, "N")
        assert (g * g).coefficients == simple(ring, "1").coefficients
        assert (g * x).coefficients == x.coefficients
        assert (x * g).coefficients == x.coefficients
        assert (x * x).coefficients == (1, 1, 0)

    def test_z3_duality_line(self):
        ring = tambara_yamagami(named_group("Z3"))
        n = simple(ring, "N")
        assert (n * n).coefficients == (1, 1, 1, 0)

    def test_trivial_group_gives_z2_ring(self):
        ring = tambara_yamagami(named_group("Z1"))
        n = simple(ring, "N")
        assert (n * n).coefficients == (1, 0)

    def test_nonabelian_rejected(self):
        with pytest.raises(ValueError):
            tambara_yamagami(named_group("S3"))


class TestRingValidation:
    def test_broken_unit_rejected(self):
        with pytest.raises(ValueError):
            FusionRing(["1", "x"], 0,
                       [[[1, 0], [0, 0]], [[0, 1], [1, 0]]], [0, 1])

    def test_broken_associativity_rejected(self):
        # a*a = b*b = 1, a*b = b*a = a: then (a*a)*b = b but a*(a*b) = 1
        n = [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [1, 0, 0], [0, 1, 0]],
            [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
        ]
        with pytest.raises(ValueError, match="associativity"):
            FusionRing(["1", "a", "b"], 0, n, [0, 1, 2])

    def test_first_failing_triple_is_named(self):
        # x*x = 1 + 2y, x*y = y*x = x, y*y = 1 + y: (x*x)*y = 2 + 3y but
        # x*(x*y) = 1 + 2y; neither x nor y is one simple of earlier ones, so
        # both are middles, and (x, x, y) is the first failing triple in
        # i, j, k order with j over the middles
        n = [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [1, 0, 2], [0, 1, 0]],
            [[0, 0, 1], [0, 1, 0], [1, 0, 1]],
        ]
        with pytest.raises(ValueError, match="^associativity fails at x,x,y$"):
            FusionRing(["1", "x", "y"], 0, n, [0, 1, 2])

    def test_simples_found_only_inside_sums_are_middles(self):
        # unit listed last; x*x = b + c + 1, x*b = x*c = x, b*b = c + 1,
        # b*c = 0, c*c = b + 1.  b and c are the first terms of sums of
        # earlier simples, never one simple, so both are middles: every
        # triple with middle x passes, and (x, b, b) fails
        n = [
            [[0, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]],
            [[1, 0, 0, 0], [0, 0, 1, 1], [0, 0, 0, 0], [0, 1, 0, 0]],
            [[1, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0]],
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        ]
        assert {j for _, j, _ in all_triples_failures(n)} == {1, 2}
        with pytest.raises(ValueError, match="^associativity fails at x,b,b$"):
            FusionRing(["x", "b", "c", "1"], 3, n, [0, 1, 2, 3])

    def test_associativity_check_is_guarded(self):
        z6 = named_group("Z6")
        with max_enum(6**3 - 1), pytest.raises(GuardExceeded, match="6\\^3"):
            group_ring(z6)
        with max_enum(6**3):
            assert group_ring(z6).rank == 6

    def test_broken_duality_rejected(self):
        # Z3 fusion with the identity involution: N_(g,g)^1 = 1 fails
        g = named_group("Z3")
        n = [
            [[1 if g.mul(i, j) == k else 0 for k in range(3)] for j in range(3)]
            for i in range(3)
        ]
        with pytest.raises(ValueError):
            FusionRing(["1", "a", "b"], 0, n, [0, 1, 2])


def all_triples_failures(n):
    """The former validator's loop over all rank^3 triples, kept as the
    oracle for Light's test: every (i, j, k) with (i x j) x k != i x (j x k)."""
    rank = len(n)
    terms = [[tuple((k, x) for k, x in enumerate(row) if x) for row in plane] for plane in n]
    failures = set()
    for i in range(rank):
        for j in range(rank):
            ij = terms[i][j]
            for k in range(rank):
                left = {}
                for m, c in ij:
                    for l, x in terms[m][k]:
                        left[l] = left.get(l, 0) + c * x
                right = {}
                for m, c in terms[j][k]:
                    for l, x in terms[i][m]:
                        right[l] = right.get(l, 0) + c * x
                if left != right:
                    failures.add((i, j, k))
    return failures


def random_table(rng, rank):
    """A random fusion tensor on simples 0..rank-1 that obeys the unit and
    duality laws, with a random involution as dual and the unit at a random
    index; every other multiplicity is drawn from 0..2."""
    order = list(range(rank))
    rng.shuffle(order)  # order[0] is the unit
    dual = list(range(rank))
    for a, b in zip(order[1::2], order[2::2]):
        if rng.random() < 0.5:
            dual[a], dual[b] = b, a
    n = [[[0] * rank for _ in range(rank)] for _ in range(rank)]
    for i in range(rank):
        for j in range(rank):
            if order[0] in (i, j):
                n[i][j][i if j == order[0] else j] = 1
                continue
            for k in range(rank):
                n[i][j][k] = int(j == dual[i]) if k == order[0] else rng.choice((0, 0, 1, 1, 2))
    return order[0], n, dual


def perturbed_tables(rng, ring, count):
    """``count`` copies of the ring's tensor with one or two multiplicities
    N_ij^k changed, i, j, k all other than the unit, so that the unit and
    duality laws still hold."""
    others = [i for i in range(ring.rank) if i != ring.unit]
    for _ in range(count):
        n = [[list(row) for row in plane] for plane in ring.n_tensor]
        for _ in range(rng.choice((1, 2))):
            i, j, k = (rng.choice(others) for _ in range(3))
            n[i][j][k] = rng.choice([v for v in range(3) if v != n[i][j][k]])
        yield n


def relabeled(rng, unit, n, dual):
    """The same table with its simples listed in a random order."""
    rank = len(n)
    new = list(range(rank))
    rng.shuffle(new)  # simple i becomes new[i]
    old = sorted(range(rank), key=new.__getitem__)
    table = [[[n[old[a]][old[b]][old[c]] for c in range(rank)] for b in range(rank)]
             for a in range(rank)]
    return new[unit], table, [new[dual[old[a]]] for a in range(rank)]


ORACLE_RINGS = [(group_ring, name) for name in ("S3", "D4", "Q8", "Z6", "Z2xZ4")] + [
    (tambara_yamagami, name) for name in ("Z3", "Z2xZ2", "Z4", "Z5")]


class TestLightsTestOracle:
    def assert_verdict_matches(self, unit, n, dual):
        """FusionRing accepts the table exactly when the all-triples oracle
        finds no failing triple, and a rejection names a failing triple."""
        labels = [f"s{i}" for i in range(len(n))]
        failures = all_triples_failures(n)
        try:
            FusionRing(labels, unit, n, dual)
        except ValueError as exc:
            named = re.fullmatch(r"associativity fails at s(\d+),s(\d+),s(\d+)", str(exc))
            assert named, exc
            assert tuple(map(int, named.groups())) in failures
            return False
        assert not failures
        return True

    def test_random_tables(self):
        rng = random.Random(2024)
        verdicts = [self.assert_verdict_matches(*random_table(rng, rank))
                    for rank in range(1, 6) for _ in range(300)]
        assert 0 < sum(verdicts) < len(verdicts)

    @pytest.mark.parametrize("build,name", ORACLE_RINGS)
    def test_perturbed_group_and_ty_rings(self, build, name):
        # listed in random orders, so that the middles vary
        ring = build(named_group(name))
        rng = random.Random(name)
        for _ in range(10):
            assert self.assert_verdict_matches(*relabeled(rng, ring.unit, ring.n_tensor,
                                                          ring.dual))
        for n in perturbed_tables(rng, ring, 120):
            self.assert_verdict_matches(*relabeled(rng, ring.unit, n, ring.dual))


class TestTrustedPath:
    @pytest.mark.parametrize("build,name", ORACLE_RINGS + [(tambara_yamagami, "Z59")])
    def test_package_rings_equal_their_checked_tables(self, build, name):
        # ORACLE_RINGS holds group_ring(Z2xZ4)
        ring = build(named_group(name))
        checked = FusionRing(ring.labels, ring.unit, ring.n_tensor, ring.dual)
        assert checked == ring and hash(checked) == hash(ring)

    def test_package_rings_check_no_multiplicity(self, monkeypatch):
        z59, z2z4 = named_group("Z59"), named_group("Z2xZ4")
        checked = []
        monkeypatch.setattr(fusion, "as_int", lambda x, what: checked.append(what) or x)
        assert tambara_yamagami(z59).rank == 60 and group_ring(z2z4).rank == 8
        assert checked == []

    @pytest.mark.parametrize("build,name", ORACLE_RINGS)
    def test_perturbed_terms_still_run_lights_test(self, build, name):
        ring = build(named_group(name))
        rng, failing = random.Random(name), 0
        for n in perturbed_tables(rng, ring, 30):
            terms = tuple(tuple(tuple((k, x) for k, x in enumerate(row) if x) for row in plane)
                          for plane in n)
            if all_triples_failures(n):
                failing += 1
                with pytest.raises(ValueError, match="^associativity fails at "):
                    FusionRing._trusted(ring.labels, ring.unit, terms, ring.dual)
            else:
                assert FusionRing._trusted(ring.labels, ring.unit, terms, ring.dual) == (
                    FusionRing(ring.labels, ring.unit, n, ring.dual))
        assert failing


def fusion_matrix(ring, i: int):
    """Left multiplication by simple i as a float numpy array: entry
    (k, j) = N_ij^k."""
    rank, plane = ring.rank, ring.n_tensor[i]
    return np.array(
        [[plane[j][k] for j in range(rank)] for k in range(rank)],
        dtype=float,
    )


def float_power_iteration(ring):
    """The former float PF dimensions, kept as the oracle for the exact
    enclosure: power iteration on N_i + I to 1e-14, 1 for invertibles."""
    dims = []
    for i in range(ring.rank):
        if _is_invertible(ring, i):
            dims.append(1.0)
            continue
        mat = fusion_matrix(ring, i)
        shifted = mat + np.eye(ring.rank)
        vec = np.ones(ring.rank) / np.sqrt(ring.rank)
        for _ in range(10**5):
            nxt = shifted @ vec
            nxt = nxt / np.linalg.norm(nxt)
            if np.linalg.norm(nxt - vec) <= 1e-14:
                vec = nxt
                break
            vec = nxt
        else:
            raise RuntimeError(f"power iteration did not converge for {ring.labels[i]}")
        dims.append(float(np.linalg.norm(mat @ vec)))
    return dims


def fibonacci_ring():
    # t x t = 1 + t
    return FusionRing(["1", "t"], 0, [[[1, 0], [0, 1]], [[0, 1], [1, 1]]], [0, 1])


def product_ring(a, b):
    """The Deligne product: simples (i, i'), N = N_ij^k N'_i'j'^k'."""
    pairs = [(i, j) for i in range(a.rank) for j in range(b.rank)]
    na, nb = a.n_tensor, b.n_tensor
    return FusionRing(
        [f"{a.labels[i]}.{b.labels[j]}" for i, j in pairs],
        pairs.index((a.unit, b.unit)),
        [[[na[i][k][m] * nb[j][l][n] for m, n in pairs]
          for k, l in pairs] for i, j in pairs],
        [pairs.index((a.dual[i], b.dual[j])) for i, j in pairs],
    )


def rep_s4_ring():
    """Rep(S4): 1, sign s, the 2-dim p and the 3-dim a and b = a x s."""
    products = {"ss": "1", "sp": "p", "sa": "b", "sb": "a", "pp": "1sp", "pa": "ab",
                "pb": "ab", "aa": "1pab", "ab": "spab", "bb": "1pab"}

    def simples(x, y):  # the simples in x x y, each once
        if "1" in (x, y):
            return (x + y).replace("1", "", 1)
        return products.get(x + y) or products[y + x]

    labels = "1spab"
    n = [[[int(z in simples(x, y)) for z in labels] for y in labels] for x in labels]
    return FusionRing(list(labels), 0, n, [0, 1, 2, 3, 4])


def nearest_double_to_sqrt(n: int) -> float:
    """The float nearest sqrt(n), n >= 1, from math.isqrt: s = floor of
    sqrt(n) with one bit more than the 53 kept, rounded up on that bit (a
    tie would need sqrt(n) to have exactly 54 bits, so it is never one)."""
    e = (n.bit_length() - 1) // 2  # 2^e <= sqrt(n) < 2^(e+1)
    s = math.isqrt(n << 2 * (53 - e))  # floor(sqrt(n) * 2^(53-e)), 54 bits
    return math.ldexp((s + 1) >> 1, e - 52)


def float_permutation_test(ring, i) -> bool:
    """The former float check on the fusion matrix, kept as the oracle for
    the exact invertibility test."""
    mat = fusion_matrix(ring, i)
    return bool(
        np.all((mat == 0) | (mat == 1))
        and np.all(mat.sum(axis=0) == 1)
        and np.all(mat.sum(axis=1) == 1)
    )


class TestInvertibility:
    @pytest.mark.parametrize("name", sorted(preset_group_documents()))
    def test_exact_check_matches_float_permutation_test(self, name):
        group = named_group(name)
        rings = [group_ring(group)]
        if group.is_abelian():
            rings.append(tambara_yamagami(group))
        for ring in rings:
            exact = [_is_invertible(ring, i) for i in range(ring.rank)]
            assert exact == [float_permutation_test(ring, i) for i in range(ring.rank)]
            assert exact == [label != "N" for label in ring.labels]

    def test_fibonacci_object_is_not_invertible(self):
        # the row of t x t sums to 2
        ring = fibonacci_ring()
        assert [_is_invertible(ring, i) for i in range(2)] == [True, False]
        assert [float_permutation_test(ring, i) for i in range(2)] == [True, False]


TY_SQRT_GROUPS = [f"Z{n}" for n in range(2, 60)] + ["Z2xZ2", "Z2xZ4", "Z2xZ6", "Z2xZ2xZ2xZ4"]


class TestDimensions:
    @pytest.mark.parametrize("name", sorted(preset_group_documents()))
    def test_group_ring_dims_are_one(self, name):
        ring = group_ring(named_group(name))
        assert pf_dimensions(ring) == [1.0] * ring.rank
        assert {_pf_enclosure(ring, i) for i in range(ring.rank)} == {(1, 1)}

    def test_ty_z2_dims(self):
        dims = pf_dimensions(tambara_yamagami(named_group("Z2")))
        assert dims[0] == dims[1] == 1.0
        assert abs(dims[2] - math.sqrt(2)) <= 1e-12

    def test_ty_z4_dims(self):
        dims = pf_dimensions(tambara_yamagami(named_group("Z4")))
        assert abs(dims[-1] - 2.0) <= 1e-12

    @pytest.mark.parametrize("name", TY_SQRT_GROUPS)
    def test_duality_dim_is_sqrt_group_order(self, name):
        order = named_group(name).order
        ring = tambara_yamagami(named_group(name))
        lo, hi = _pf_enclosure(ring, ring.rank - 1)
        assert lo * lo <= order <= hi * hi
        d = pf_dimensions(ring)[-1]
        assert d == float(lo) == float(hi) == nearest_double_to_sqrt(order)
        # the printed digits: the correctly rounded 15-digit decimal square root
        assert _rounded(lo)[0] == _rounded(hi)[0] == Decimal(order).sqrt(Context(prec=15))

    @pytest.mark.parametrize(
        "ring_builder",
        [
            lambda: group_ring(named_group("S3")),
            lambda: tambara_yamagami(named_group("Z2")),
            lambda: tambara_yamagami(named_group("Z3")),
            lambda: tambara_yamagami(named_group("Z4")),
            fibonacci_ring,
            lambda: product_ring(tambara_yamagami(named_group("Z2")), fibonacci_ring()),
            lambda: product_ring(tambara_yamagami(named_group("Z3")),
                                 tambara_yamagami(named_group("Z2"))),
        ],
    )
    def test_dims_multiplicative(self, ring_builder):
        ring = ring_builder()
        dims, n = pf_dimensions(ring), ring.n_tensor
        for i in range(ring.rank):
            for j in range(ring.rank):
                lhs = dims[i] * dims[j]
                rhs = sum(
                    n[i][j][k] * dims[k] for k in range(ring.rank)
                )
                assert abs(lhs - rhs) <= 1e-9


class TestCertifiedDimensions:
    @pytest.mark.parametrize("name,printed", [
        ("Z12", "3.46410161513775"), ("Z24", "4.89897948556636"),
        ("Z26", "5.09901951359278"), ("Z2xZ6", "3.46410161513775"),
        # sqrt 18 = 4.24264068711928514..., its nearest float 4.24264068711928477...
        ("Z18", "4.24264068711929"), ("Z2xZ9", "4.24264068711929"),
        ("Z3xZ6", "4.24264068711929"), ("Z211", "14.525839046334"),
    ])
    def test_cli_prints_the_correct_fifteenth_digit(self, capsys, name, printed):
        assert main(["fusion", "--ty", name, "--report", "dims"]) == 0
        assert json.loads(capsys.readouterr().out)["dims"][-1] == printed

    @pytest.mark.parametrize("n", range(2, 61))
    def test_cli_dims_are_the_rounded_square_root(self, capsys, n):
        assert main(["fusion", "--ty", f"Z{n}", "--report", "dims"]) == 0
        dims = json.loads(capsys.readouterr().out)["dims"]
        assert dims[:-1] == ["1"] * n
        assert Decimal(dims[-1]) == Decimal(n).sqrt(Context(prec=15))

    def _count_computed(self, monkeypatch):
        computed = []
        original = fusion._pf_iterate

        def counted(ring, i):
            computed.append(i)
            return original(ring, i)

        monkeypatch.setattr(fusion, "_pf_iterate", counted)
        return computed

    def test_default_report_computes_each_enclosure_once(self, capsys, monkeypatch):
        computed = self._count_computed(monkeypatch)
        assert main(["fusion", "--ty", "Z3"]) == 0
        # dims and the fiber-functor obstruction share the rank-4 ring's four
        assert sorted(computed) == [0, 1, 2, 3]
        assert json.loads(capsys.readouterr().out)["dims"] == ["1", "1", "1", "1.73205080756888"]

    def test_library_calls_share_the_enclosures_of_one_ring(self, monkeypatch):
        computed = self._count_computed(monkeypatch)
        ring = tambara_yamagami(named_group("Z4"))
        assert pf_dimensions(ring) == [1.0] * 4 + [2.0]
        assert fiber_functor_obstruction(ring).verdict == "possible"
        assert sorted(computed) == list(range(5))
        # a ring built apart is equal and computes its own
        assert tambara_yamagami(named_group("Z4")) == ring
        pf_dimensions(tambara_yamagami(named_group("Z4")))
        assert len(computed) == 10

    def test_printed_digits_round_the_enclosure_not_the_float(self):
        # x (x) x = 1 + 2x: d = 1 + sqrt 2 = 2.41421356237309505..., while its
        # nearest float is 2.41421356237309492...
        ring = FusionRing(["1", "x"], 0, [[[1, 0], [0, 1]], [[0, 1], [1, 2]]], [0, 1])
        lo, hi = _pf_enclosure(ring, 1)
        assert fmt_float(pf_dimensions(ring)[1]) == "2.41421356237309"
        assert fmt_float(_rounded(lo)[0]) == fmt_float(_rounded(hi)[0]) == "2.4142135623731"

    def test_detail_rounds_the_enclosure_not_the_float(self):
        # x (x) x = 1 + 74x: d = 37 + sqrt 1370 = 74.01351104664349..., while its
        # nearest float is 74.01351104664350...
        ring = FusionRing(["1", "x"], 0, [[[1, 0], [0, 1]], [[0, 1], [1, 74]]], [0, 1])
        assert fiber_functor_obstruction(ring) == Obstruction(
            "impossible", "x", "d(x) = 74.013511046643 is not an integer")

    def test_fibonacci_gives_the_golden_ratio(self):
        ring = fibonacci_ring()
        lo, hi = _pf_enclosure(ring, 1)
        assert (2 * lo - 1) ** 2 <= 5 <= (2 * hi - 1) ** 2
        golden = (1 + Decimal(5).sqrt(Context(prec=60))) / 2
        assert pf_dimensions(ring) == [1.0, float(golden)]

    @pytest.mark.parametrize("ring_builder", [
        fibonacci_ring,
        lambda: product_ring(fibonacci_ring(), fibonacci_ring()),
        lambda: product_ring(tambara_yamagami(named_group("Z3")),
                             tambara_yamagami(named_group("Z2"))),
        lambda: tambara_yamagami(named_group("Z3xZ3")),
        lambda: tambara_yamagami(named_group("Z59")),
        lambda: group_ring(named_group("S3")),
    ])
    def test_float_power_iteration_agrees(self, ring_builder):
        ring = ring_builder()
        exact, floats = pf_dimensions(ring), float_power_iteration(ring)
        assert all(abs(d - f) <= 1e-12 * d for d, f in zip(exact, floats))


class TestObstructions:
    def test_ty_z2_has_no_fiber_functor(self):
        verdict = fiber_functor_obstruction(tambara_yamagami(named_group("Z2")))
        assert verdict.verdict == "impossible"
        assert verdict.witness == "N"

    def test_group_ring_is_inconclusive(self):
        assert fiber_functor_obstruction(group_ring(named_group("Z5"))).verdict == "possible"

    def test_ty_z4_inconclusive_by_dims_alone(self):
        assert fiber_functor_obstruction(tambara_yamagami(named_group("Z4"))).verdict == "possible"

    @pytest.mark.parametrize("name", ["Z4", "Z2xZ2", "Z9", "Z3xZ3", "Z16", "Z4xZ4", "Z2xZ8"])
    def test_square_orders_have_integral_dims(self, name):
        ring = tambara_yamagami(named_group(name))
        assert fiber_functor_obstruction(ring) == Obstruction(
            "possible", detail="all PF dimensions integral (inconclusive)")

    @pytest.mark.parametrize("name,detail", [
        ("Z2", "d(N) = 1.414213562373 is not an integer; exactly, d^2 = 2 is not a perfect square"),
        ("Z3", "d(N) = 1.732050807569 is not an integer; exactly, d^2 = 3 is not a perfect square"),
        ("Z8", "d(N) = 2.828427124746 is not an integer; exactly, d^2 = 8 is not a perfect square"),
    ])
    def test_non_square_orders_name_the_duality_line(self, name, detail):
        ring = tambara_yamagami(named_group(name))
        assert fiber_functor_obstruction(ring) == Obstruction("impossible", "N", detail)

    def test_ty_integrality_needs_no_determinant(self, monkeypatch):
        # N x N is the sum of the |G| invertibles: d(N)^2 = |G| exactly
        def refuse(_):
            raise AssertionError("Bareiss determinant called")

        monkeypatch.setattr(fusion, "_det", refuse)
        for n in [*range(1, 61), 225]:
            ring = tambara_yamagami(named_group(f"Z{n}"))
            verdict = fiber_functor_obstruction(ring).verdict
            assert (verdict == "possible") == (math.isqrt(n) ** 2 == n), n

    def test_other_rings_still_reach_the_determinant(self, monkeypatch):
        # a x a = 1 + p + a + b holds the non-invertible p, and the enclosures
        # of d(a) = d(b) = 3 are not exact, so det(N_a - 3I) = 0 decides them
        dets = []
        original = fusion._det

        def counted(m):
            dets.append(original(m))
            return dets[-1]

        monkeypatch.setattr(fusion, "_det", counted)
        assert fiber_functor_obstruction(rep_s4_ring()).verdict == "possible"
        assert dets == [0, 0]
        assert pf_dimensions(rep_s4_ring()) == [1.0, 1.0, 2.0, 3.0, 3.0]

    def test_fibonacci_object_obstructs_without_a_square_count(self):
        assert fiber_functor_obstruction(fibonacci_ring()) == Obstruction(
            "impossible", "t", "d(t) = 1.618033988750 is not an integer")

    def test_square_root_obstruction(self):
        assert square_root_obstruction(group_ring(named_group("Z2"))).verdict == "no_sqrt"
        assert square_root_obstruction(group_ring(named_group("Z3"))).verdict == "no_sqrt"
        assert square_root_obstruction(group_ring(named_group("Z4"))).verdict == "inconclusive"


class TestQuotientDefect:
    @pytest.mark.parametrize("name", ["Z1", "Z2", "Z3", "Z2xZ2", "S3", "D4", "Q8"])
    def test_square_is_order_times_itself(self, name):
        group = named_group(name)
        elt = quotient_defect_composition(group)
        assert (elt * elt).coefficients == (group.order * elt).coefficients

    def test_z2_element(self):
        elt = quotient_defect_composition(named_group("Z2"))
        assert str(elt) == "1 + g1"
        assert str(elt * elt) == "2*1 + 2*g1"

    def test_trivial_group_gives_unit(self):
        elt = quotient_defect_composition(named_group("Z1"))
        assert elt.coefficients == (1,)


class TestRingElements:
    def test_addition_and_scalar(self):
        ring = group_ring(named_group("Z3"))
        a = simple(ring, "g1")
        assert (a + a).coefficients == (0, 2, 0)
        assert (3 * a).coefficients == (0, 3, 0)

    def test_cross_ring_rejected(self):
        a = simple(group_ring(named_group("Z2")), "1")
        b = simple(group_ring(named_group("Z3")), "1")
        with pytest.raises(ValueError):
            a * b
