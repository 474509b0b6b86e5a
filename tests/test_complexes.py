import random

import pytest

from finsym.complexes import (
    ChainComplex,
    SubcomplexMap,
    _cyclic_orders,
    circle,
    cohomology,
    count_cocycles,
    disjoint_union,
    disk,
    empty_subcomplex,
    enumerate_cocycles,
    glue_complexes,
    interval,
    is_closed,
    klein_bottle,
    pants,
    preset,
    product,
    quotient,
    real_projective_space,
    relative_cohomology,
    restriction_map,
    sphere,
    surface,
    torus,
)
from finsym import complexes, tqft2d
from finsym.groups import FiniteAbelianGroup
from finsym.intmatrix import IntMatrix, invariant_factors, smith_normal_form_full
from finsym.limits import GuardExceeded, max_enum
from test_intmatrix import matmul
from test_random_complexes import random_two_stage_complex
from test_tqft2d import merged_in_boundary

Z2 = FiniteAbelianGroup([2])
Z3 = FiniteAbelianGroup([3])
Z4 = FiniteAbelianGroup([4])
Z2Z2 = FiniteAbelianGroup([2, 2])

SMALL_PRESETS = [
    circle(),
    interval(),
    sphere(2),
    sphere(3),
    torus(2),
    torus(3),
    surface(0),
    surface(1),
    surface(2),
    surface(3),
    surface(4),
    real_projective_space(2),
    real_projective_space(3),
    klein_bottle(),
    pants()[0],
    disk()[0],
]
ALL_PRESETS = [preset(name) for name in ("circle", "interval", "klein", "disk", "pants")] + [
    preset(name, p) for name, params in (("sphere", range(1, 6)), ("torus", range(1, 6)),
                                         ("surface", range(5)), ("rp", range(1, 5)))
    for p in params]


def dense_boundary(cx, k):
    """d_k: C_k -> C_{k-1} as an IntMatrix from the sparse columns of cx
    (zero-shaped outside 1..top_dim)."""
    rows, cols = cx.n_cells(k - 1), cx.n_cells(k)
    data = [[0] * cols for _ in range(rows)]
    for j, col in enumerate(cx.columns(k)):
        for i, v in col:
            data[i][j] = v
    return IntMatrix(data, rows=rows, cols=cols)


class TestPresets:
    def test_circle_cells(self):
        c = circle()
        assert c.cells == (1, 1)
        assert dense_boundary(c, 1) == IntMatrix.zeros(1, 1)

    def test_surface_two(self):
        s = surface(2)
        assert s.cells == (1, 4, 1)
        assert dense_boundary(s, 2) == IntMatrix.zeros(4, 1)

    def test_rp2_boundaries(self):
        rp2 = real_projective_space(2)
        assert dense_boundary(rp2, 2) == IntMatrix([[2]])
        assert dense_boundary(rp2, 1) == IntMatrix([[0]])

    def test_preset_dispatch(self):
        assert preset("torus", 3).cells == (1, 3, 3, 1)
        with pytest.raises(ValueError):
            preset("torus")
        with pytest.raises(ValueError):
            preset("moebius")
        with pytest.raises(ValueError):
            preset("sphere", 9)
        # the general formulas give the lower-dimensional presets themselves:
        # the surface path integral recognises surfaces by equality
        assert preset("sphere", 1) == circle() and hash(sphere(1)) == hash(circle())
        assert preset("surface", 0) == sphere(2) and hash(surface(0)) == hash(sphere(2))

    @pytest.mark.parametrize("cx", SMALL_PRESETS + [torus(4), torus(5)])
    def test_boundary_squares_to_zero(self, cx):
        for k in range(2, cx.top_dim + 1):
            square = matmul(dense_boundary(cx, k - 1), dense_boundary(cx, k))
            assert not any(map(any, square.data))

    def test_broken_complex_rejected(self):
        with pytest.raises(ValueError):
            ChainComplex((1, 1, 1), (IntMatrix([[1]]), IntMatrix([[1]])))


class TestProduct:
    def test_torus_cells(self):
        assert product(circle(), circle()).cells == (1, 2, 1)

    def test_cylinder_cells(self):
        assert product(circle(), interval()).cells == (2, 3, 1)

    def test_s2_x_s2_cells(self):
        assert product(sphere(2), sphere(2)).cells == (1, 0, 2, 0, 1)

    def test_torus_5_binomial_cells(self):
        assert torus(5).cells == (1, 5, 10, 10, 5, 1)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_torus_is_the_product_of_circles(self, n):
        # the iterated product is the oracle of the spelled-out preset
        iterated = circle()
        for _ in range(n - 1):
            iterated = product(iterated, circle())
        assert torus(n) == iterated and hash(torus(n)) == hash(iterated)
        for q in range(n + 1):
            assert [f.reps for f in cohomology(torus(n), Z2Z2, q).factors] == \
                [f.reps for f in cohomology(iterated, Z2Z2, q).factors]

    def test_disjoint_union_adds(self):
        two = disjoint_union(circle(), circle())
        assert two.cells == (2, 2)
        assert cohomology(two, Z2, 0).order == 4


class TestCohomology:
    def test_circle_all_n(self):
        for coeffs in (Z2, Z3, Z4, Z2Z2):
            assert cohomology(circle(), coeffs, 1).group == coeffs

    def test_torus_h1(self):
        assert cohomology(torus(2), Z2, 1).group == Z2Z2

    def test_rp2_torsion(self):
        assert cohomology(real_projective_space(2), Z2, 2).group == Z2
        assert cohomology(real_projective_space(2), Z3, 2).order == 1

    def test_trivial_coefficients(self):
        assert cohomology(torus(2), FiniteAbelianGroup(), 1).order == 1

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            cohomology(circle(), Z2, 2)

    @pytest.mark.parametrize("cx", SMALL_PRESETS)
    @pytest.mark.parametrize("coeffs", [Z2, Z3, Z4, Z2Z2])
    def test_snf_matches_bruteforce_oracle(self, cx, coeffs):
        for q in range(cx.top_dim + 1):
            reps = enumerate_cocycles(cx, coeffs, q)
            assert cohomology(cx, coeffs, q).order == len(reps)

    @pytest.mark.parametrize("cx", SMALL_PRESETS)
    def test_euler_characteristic_vs_mod_p_dims(self, cx):
        for p in (2, 3):
            coeffs = FiniteAbelianGroup([p])
            ranks = []
            for q in range(cx.top_dim + 1):
                order = cohomology(cx, coeffs, q).order
                dim = 0
                while p**dim < order:
                    dim += 1
                assert p**dim == order
                ranks.append(dim)
            alt = sum((-1) ** q * r for q, r in enumerate(ranks))
            assert alt == sum((-1) ** k * c for k, c in enumerate(cx.cells))

    def test_kunneth_dimension_sum(self):
        pairs = [(circle(), circle()), (sphere(2), sphere(2))]
        for p in (2, 3):
            coeffs = FiniteAbelianGroup([p])
            for a, b in pairs:
                prod_cx = product(a, b)

                def dim(cx, q):
                    if q > cx.top_dim:
                        return 0
                    order = cohomology(cx, coeffs, q).order
                    d = 0
                    while p**d < order:
                        d += 1
                    return d

                for q in range(prod_cx.top_dim + 1):
                    expected = sum(
                        dim(a, i) * dim(b, q - i) for i in range(q + 1)
                    )
                    assert dim(prod_cx, q) == expected

    def test_torus_binomial_ladder(self):
        from math import comb

        for n in range(2, 6):
            cx = torus(n)
            for coeffs in (Z2, FiniteAbelianGroup([6])):
                for q in range(n + 1):
                    order = cohomology(cx, coeffs, q).order
                    assert order == coeffs.order ** comb(n, q)

    def test_surface_first_cohomology_rank(self):
        for g in range(5):
            for coeffs in (Z2, Z3):
                assert cohomology(surface(g), coeffs, 1).order == coeffs.order ** (2 * g)

    def test_rp4_torsion_ladder(self):
        rp4 = real_projective_space(4)
        for q in range(1, 5):
            assert cohomology(rp4, Z2, q).group == Z2
            assert cohomology(rp4, Z4, q).group == Z2
            assert cohomology(rp4, Z3, q).order == 1

    def test_class_coordinates_round_trip(self):
        h = cohomology(torus(2), Z4, 1)
        for label in h.classes():
            rep = h.representative(label)
            assert h.coordinates(rep) == label

    def test_klein_first_cohomology_with_z4(self):
        h = cohomology(klein_bottle(), Z4, 1)
        # H^1(K; Z_4) = Z_4 x Z_2
        assert h.group == FiniteAbelianGroup([2, 4])


class TestEnumeration:
    def test_torus_z2_four_classes(self):
        assert len(enumerate_cocycles(torus(2), Z2, 1)) == 4

    def test_sphere_one_class(self):
        assert len(enumerate_cocycles(sphere(2), Z2, 1)) == 1

    def test_klein_four_classes(self):
        assert len(enumerate_cocycles(klein_bottle(), Z2, 1)) == 4

    def test_count_cocycles(self):
        assert count_cocycles(torus(2), Z2, 1) == 4

    @pytest.mark.parametrize("cx", [torus(2), real_projective_space(2),
                                    klein_bottle(), pants()[0]])
    @pytest.mark.parametrize("coeffs", [Z2, Z3, Z4])
    def test_order_is_cocycles_over_coboundaries(self, cx, coeffs):
        from finsym.complexes import count_coboundaries

        for q in range(cx.top_dim + 1):
            z = count_cocycles(cx, coeffs, q)
            b = count_coboundaries(cx, coeffs, q)
            assert z % b == 0
            assert cohomology(cx, coeffs, q).order == z // b

    def test_guard(self):
        with max_enum(1), pytest.raises(GuardExceeded):
            enumerate_cocycles(torus(2), Z2, 1)


class TestRelative:
    def test_cylinder_one_end(self):
        cyl = product(circle(), interval())
        end0 = SubcomplexMap(circle(), cyl, ((0,), (1,)))
        assert relative_cohomology(cyl, end0, Z2, 0).order == 1

    def test_cylinder_empty_sub(self):
        cyl = product(circle(), interval())
        assert relative_cohomology(cyl, empty_subcomplex(cyl), Z2, 0).group == Z2

    def test_disk_rel_boundary(self):
        cx, boundary = disk()
        assert relative_cohomology(cx, boundary, Z2, 1).order == 1
        assert relative_cohomology(cx, boundary, Z2, 2).group == Z2

    def test_wrong_target_rejected(self):
        cx, boundary = disk()
        with pytest.raises(ValueError):
            relative_cohomology(torus(2), boundary, Z2, 0)

    @pytest.mark.parametrize("coeffs", [Z2, Z3, Z4, Z2Z2])
    def test_long_exact_sequence_order_identity(self, coeffs):
        # for the pair (W, S) the sequence
        #   0 -> H^0(W,S) -> H^0(W) -> H^0(S) -> H^1(W,S) -> ...
        # is exact, so the alternating product of the orders is 1
        cyl = product(circle(), interval())
        pairs = [
            (disk()[0], disk()[1]),
            (cyl, SubcomplexMap(circle(), cyl, ((0,), (1,)))),
        ]
        cx, (cuff1, cuff2, _) = pants()
        both = SubcomplexMap(
            disjoint_union(circle(), circle()),
            cx,
            ((cuff1.cell_maps[0][0], cuff2.cell_maps[0][0]),
             (cuff1.cell_maps[1][0], cuff2.cell_maps[1][0])),
        )
        pairs.append((cx, both))
        for w, sub in pairs:
            orders = []
            for q in range(w.top_dim + 1):
                orders.append(relative_cohomology(w, sub, coeffs, q).order)
                orders.append(cohomology(w, coeffs, q).order)
                if q <= sub.source.top_dim:
                    orders.append(cohomology(sub.source, coeffs, q).order)
                else:
                    orders.append(1)
            from fractions import Fraction

            alternating = Fraction(1)
            for i, order in enumerate(orders):
                alternating *= Fraction(order) if i % 2 == 0 else Fraction(1, order)
            assert alternating == 1, (w.cells, str(coeffs), orders)


QUOTIENT_BORDISMS = [
    tqft2d.bordism_preset(shape)
    for shape in ("cylinder", "pants", "copants", "cap", "cup", "torus", "sphere")
] + [
    tqft2d.glue(tqft2d.bordism_preset(a), tqft2d.bordism_preset(b))
    for a, b in (("cylinder", "cylinder"), ("cap", "copants"), ("pants", "cup"))
]
# Each of those bordisms with its merged in-boundary and each boundary circle.
QUOTIENT_SUBS = [(b.w, sub) for b in QUOTIENT_BORDISMS
                 for sub in (merged_in_boundary(b), *b.in_circles, *b.out_circles)]


class TestQuotient:
    @pytest.mark.parametrize("cx", SMALL_PRESETS, ids=repr)
    def test_quotient_by_nothing_is_the_complex(self, cx):
        assert quotient(cx, empty_subcomplex(cx)) == cx

    def test_disk_mod_boundary(self):
        cx, boundary = disk()
        assert quotient(cx, boundary).cells == (0, 0, 1)

    def test_pants_mod_one_cuff(self):
        cx, (cuff1, _, _) = pants()
        q = quotient(cx, cuff1)
        assert q.cells == (2, 4, 1)
        # vertex 0 and edge 0 are gone; the others move down by one
        assert q.columns(1) == ((), (), ((1, 1),), ((0, -1), (1, 1)))
        assert q.columns(2) == (((0, 1), (1, -1)),)

    def test_wrong_target_rejected(self):
        _, boundary = disk()
        with pytest.raises(ValueError, match="does not land in the given complex"):
            quotient(torus(2), boundary)

    @pytest.mark.parametrize("coeffs", [Z2, Z3, Z4, Z2Z2], ids=str)
    @pytest.mark.parametrize("b", QUOTIENT_BORDISMS, ids=lambda b: repr(b.w))
    def test_relative_cohomology_matches_bruteforce(self, b, coeffs):
        subs = [merged_in_boundary(b), *b.in_circles, *b.out_circles]
        for sub in subs:
            rel = quotient(b.w, sub)
            for q in range(b.w.top_dim + 1):
                assert len(enumerate_cocycles(rel, coeffs, q)) == (
                    relative_cohomology(b.w, sub, coeffs, q).order
                )


def assert_isomorphism(rmap):
    """The induced map is a bijection: equal orders and injective on classes."""
    assert rmap.source.order == rmap.target.order
    assert len({rmap.apply(label) for label in rmap.source.classes()}) == rmap.source.order


class TestRestriction:
    def test_pants_to_in_boundary_iso(self):
        cx, (cuff1, cuff2, waist) = pants()
        both = SubcomplexMap(
            disjoint_union(circle(), circle()),
            cx,
            ((cuff1.cell_maps[0][0], cuff2.cell_maps[0][0]),
             (cuff1.cell_maps[1][0], cuff2.cell_maps[1][0])),
        )
        rmap = restriction_map(cx, both, Z2, 1)
        assert rmap.source.order == 4 and rmap.target.order == 4
        assert_isomorphism(rmap)

    def test_pants_to_out_is_sum(self):
        cx, (cuff1, cuff2, waist) = pants()
        to_waist = restriction_map(cx, waist, Z2, 1)
        to_c1 = restriction_map(cx, cuff1, Z2, 1)
        to_c2 = restriction_map(cx, cuff2, Z2, 1)
        for label in to_waist.source.classes():
            a = to_c1.apply(label)[0][0]
            b = to_c2.apply(label)[0][0]
            c = to_waist.apply(label)[0][0]
            assert c == (a + b) % 2

    def test_cylinder_ends_identity(self):
        cyl = product(circle(), interval())
        end0 = SubcomplexMap(circle(), cyl, ((0,), (1,)))
        end1 = SubcomplexMap(circle(), cyl, ((1,), (2,)))
        for coeffs in (Z2, Z3):
            m0 = restriction_map(cyl, end0, coeffs, 1)
            m1 = restriction_map(cyl, end1, coeffs, 1)
            for label in m0.source.classes():
                assert m0.apply(label) == m1.apply(label)
            assert_isomorphism(m0)

    def test_restriction_is_additive(self):
        cx, (_, _, waist) = pants()
        rmap = restriction_map(cx, waist, Z4, 1)
        h = rmap.source
        labels = list(h.classes())
        for la in labels:
            for lb in labels:
                summed = h.coordinates(
                    tuple(
                        tuple((x + y) % 4 for x, y in zip(ca, cb))
                        for ca, cb in zip(h.representative(la), h.representative(lb))
                    )
                )
                lhs = rmap.apply(summed)
                rhs = tuple(
                    tuple((x + y) % o for x, y, o in zip(a, b, f.orders))
                    for a, b, f in zip(rmap.apply(la), rmap.apply(lb), rmap.target.factors)
                )
                assert lhs == rhs

    def test_empty_maps_above_the_source_top_degree_are_dropped(self):
        # a nonempty one is refused (tests/test_constructor_errors.py)
        cx, rim = disk()
        assert SubcomplexMap(circle(), cx, ((0,), (0,), ())) == rim

    def test_non_chain_map_rejected(self):
        # the disk's edge alone, without its bounding face data matching
        cx, _ = disk()
        with pytest.raises(ValueError):
            # interval -> disk sending u to the loop e: endpoints disagree
            SubcomplexMap(interval(), cx, ((0, 0), (0,)))


class TestClosedness:
    @pytest.mark.parametrize(
        "cx,expected",
        [
            (torus(2), True),
            (sphere(3), True),
            (klein_bottle(), True),
            (real_projective_space(3), True),
            (pants()[0], False),
            (disk()[0], False),
            (product(circle(), interval()), False),
            (interval(), False),
        ],
    )
    def test_is_closed(self, cx, expected):
        assert is_closed(cx) is expected


class TestGlue:
    def test_two_cylinders_make_a_longer_cylinder(self):
        a = product(circle(), interval())
        b = product(circle(), interval())
        glued, b_map = glue_complexes(a, b, {0: {0: 1}, 1: {1: 2}})
        # same homotopy type as a cylinder
        assert cohomology(glued, Z2, 1).order == 2
        assert not is_closed(glued)
        assert sum((-1) ** k * c for k, c in enumerate(glued.cells)) == 0

    def test_bad_identification_rejected(self):
        cx, _ = disk()
        with pytest.raises(ValueError):
            # identify the disk's face without identifying its boundary edge
            glue_complexes(cx, cx, {2: {0: 0}})

    @pytest.mark.parametrize("cx", ALL_PRESETS + [
        product(klein_bottle(), interval()), product(real_projective_space(2), klein_bottle())],
        ids=repr)
    def test_json_round_trip(self, cx):
        assert ChainComplex.from_json(cx.to_json()) == cx

    @pytest.mark.parametrize("cx,text", [
        (ChainComplex((2, 0), ((),)), '{"cells": [2, 0], "boundaries": [[[], []]]}'),
        (sphere(3), '{"cells": [1, 0, 0, 1], "boundaries": [[[]], [], []]}'),
        (real_projective_space(2), '{"cells": [1, 1, 1], "boundaries": [[[0]], [[2]]]}'),
    ], ids=repr)
    def test_json_prints_the_dense_rows_of_each_boundary(self, cx, text):
        assert cx.to_json() == text
        assert ChainComplex.from_json(text) == cx


def _cohomology_by_products(cx, coeffs, q):
    """Per factor (orders, reps) by the dense route: two default Smith
    forms of the whole coboundaries and three IntMatrix products.  Oracle of
    the reduced route's orders and classes."""
    c = cx.n_cells(q)
    snf = smith_normal_form_full(cx.coboundary(q))
    r = snf.rank
    images = matmul(snf.v_inv, cx.coboundary(q - 1))
    w = smith_normal_form_full(IntMatrix(images.data[r:], rows=c - r, cols=images.cols))
    v = snf.v.data
    tails = matmul(IntMatrix([row[r:] for row in v], rows=c, cols=c - r), w.u_inv)
    lifts = IntMatrix([row[:r] + t for row, t in zip(v, tails.data)], rows=c, cols=c)
    out = []
    for n in coeffs.invariant_factors:
        orders = _cyclic_orders(c, snf.diagonal, w.diagonal, n)
        steps = tuple(n // o if i < r else 1 for i, o in enumerate(orders))
        kept = [i for i, o in enumerate(orders) if o > 1]
        cols = list(zip(*lifts.data))
        reps = tuple(tuple(steps[i] * x % n for x in cols[i]) for i in kept)
        out.append((tuple(orders[i] for i in kept), reps))
    return out


def _kunneth(*bettis):
    """Betti numbers of a product of torsion-free complexes: the convolution."""
    out = (1,)
    for b in bettis:
        out = tuple(sum(out[i] * b[q - i] for i in range(len(out)) if 0 <= q - i < len(b))
                    for q in range(len(out) + len(b) - 1))
    return out


T3_BETTI, SIGMA4_BETTI = (1, 3, 3, 1), (1, 8, 1)
# complexes whose every boundary is zero, with their Betti numbers
ZERO_BOUNDARY = [
    (torus(5), _kunneth(*[(1, 1)] * 5)),
    (surface(4), SIGMA4_BETTI),
    (product(surface(4), surface(4)), _kunneth(SIGMA4_BETTI, SIGMA4_BETTI)),
    (product(torus(3), torus(3)), _kunneth(T3_BETTI, T3_BETTI)),
    (product(sphere(2), torus(3)), _kunneth((1, 0, 1), T3_BETTI)),
]


def test_empty_residual_blocks_need_no_smith_form(monkeypatch):
    """With every boundary zero, H^q(X; A) = A^{b_q} (Kunneth), read off the
    cells alone: each q-cell is a free summand and no Smith form runs."""

    def refuse(*args, **kwargs):
        raise AssertionError("a Smith form ran on an empty residual block")

    monkeypatch.setattr(complexes, "smith_normal_form_full", refuse)
    coeffs = FiniteAbelianGroup([2, 4, 8])
    for cx, betti in ZERO_BOUNDARY:
        assert len(betti) == cx.top_dim + 1
        for q, b in enumerate(betti):
            h = cohomology(cx, coeffs, q)
            assert h.order == coeffs.order ** b, (cx.cells, q)
            for f in h.factors:
                for i, rep in enumerate(f.reps):
                    assert f.coordinates(rep) == tuple(int(i == j) for j in range(len(f.reps)))


def _oracle_complexes():
    # ALL_PRESETS holds T^5 and surface(4)
    yield from ALL_PRESETS
    yield from (cx for cx, _ in ZERO_BOUNDARY[2:])
    iterated = circle()
    for _ in range(4):
        iterated = product(iterated, circle())
        yield iterated
    yield from (quotient(w, sub) for w, sub in QUOTIENT_SUBS)
    for base, count in ((31_000, 25), (77_000, 10), (55_000, 10)):
        yield from (random_two_stage_complex(random.Random(base + s)) for s in range(count))


@pytest.mark.parametrize("coeffs", [FiniteAbelianGroup([2, 12]), FiniteAbelianGroup([5])],
                         ids=str)
def test_dense_route_gives_the_same_orders_and_classes(coeffs):
    """The orders equal the dense route's exactly, and the coordinates of its
    representatives form an automorphism of prod Z_orders: the matrix of
    those coordinates beside diag(orders) has only invariant factors 1."""
    for cx in _oracle_complexes():
        for q in range(cx.top_dim + 1):
            dense = _cohomology_by_products(cx, coeffs, q)
            for f, (orders, reps) in zip(cohomology(cx, coeffs, q).factors, dense):
                assert f.orders == orders, (cx.cells, q)
                k = len(orders)
                cols = [f.coordinates(rep) for rep in reps]
                m = IntMatrix([[col[i] for col in cols] + [o * (i == j) for j, o in enumerate(orders)]
                               for i in range(k)], rows=k, cols=2 * k)
                assert invariant_factors(m) == (1,) * k, (cx.cells, q)


PROPERTY_COEFFS = [FiniteAbelianGroup([2, 12]), FiniteAbelianGroup([5]), FiniteAbelianGroup([3, 9])]


def _factors_with_coboundaries():
    """(complex, degree, delta^q, delta^{q-1}, factor) over the oracle complexes."""
    for cx in _oracle_complexes():
        for q in range(cx.top_dim + 1):
            delta, delta_in = cx.coboundary(q), cx.coboundary(q - 1)
            for coeffs in PROPERTY_COEFFS:
                for f in cohomology(cx, coeffs, q).factors:
                    yield cx, q, delta, delta_in, f


def _class_plus_coboundary(rng, f, delta_in):
    """(coefficients, a combination of f's reps plus a random coboundary)."""
    coeffs = [rng.randrange(-2 * o, 2 * o) for o in f.orders]
    y = [rng.randrange(f.n) for _ in range(delta_in.cols)]
    return coeffs, [sum(a * rep[t] for a, rep in zip(coeffs, f.reps)) + b
                    for t, b in enumerate(delta_in.apply_vector(y))]


def test_representatives_are_cocycles_with_unit_coordinates():
    for cx, q, delta, _, f in _factors_with_coboundaries():
        for i, rep in enumerate(f.reps):
            assert not any(v % f.n for v in delta.apply_vector(rep)), (cx.cells, q)
            assert f.coordinates(rep) == tuple(int(i == j) for j in range(len(f.reps)))


def test_coordinates_read_a_class_through_any_coboundary():
    rng = random.Random(2601)
    for cx, q, _, delta_in, f in _factors_with_coboundaries():
        for _ in range(4):
            coeffs, x = _class_plus_coboundary(rng, f, delta_in)
            assert f.coordinates(x) == tuple(a % o for a, o in zip(coeffs, f.orders)), (
                cx.cells, q)


def test_coordinates_reject_exactly_the_non_cocycles():
    rng = random.Random(2602)
    for cx, q, delta, delta_in, f in _factors_with_coboundaries():
        for _ in range(4):
            x = _class_plus_coboundary(rng, f, delta_in)[1]
            if x and rng.random() < 0.75:
                x[rng.randrange(len(x))] += rng.randrange(1, f.n)
            if any(v % f.n for v in delta.apply_vector(x)):
                with pytest.raises(ValueError, match="not a cocycle"):
                    f.coordinates(x)
            else:
                assert len(f.coordinates(x)) == len(f.orders)
