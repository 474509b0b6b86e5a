from fractions import Fraction

import pytest

from finsym import complexes
from finsym.complexes import (
    ChainComplex,
    SubcomplexMap,
    circle,
    cohomology,
    cohomology_order,
    disjoint_union,
    disk,
    interval,
    product,
    quotient,
    torus,
)
from finsym.groups import FiniteAbelianGroup, parse_abelian
from finsym.limits import GuardExceeded, max_enum
from finsym.pathintegral import surface_gauge_count
from finsym.groups import abelian_cayley
from finsym.tqft2d import (
    _SHAPES,
    Bordism,
    BordismMatrix,
    StateSpace,
    bordism_matrix,
    bordism_preset,
    bordism_union,
    cap,
    closed_surface,
    closed_torus,
    compose,
    copants_bordism,
    cup,
    cylinder,
    glue,
    identity_matrix,
    normalization_constant,
    pants_bordism,
    solve_problem_one,
    tensor,
    trace_check,
)

Z2 = FiniteAbelianGroup([2])
Z3 = FiniteAbelianGroup([3])
Z4 = FiniteAbelianGroup([4])
Z2Z2 = FiniteAbelianGroup([2, 2])

GROUPS = [Z2, Z3, Z4, Z2Z2]


def circles(r: int) -> ChainComplex:
    """The disjoint union of r standard circles (the empty complex if r = 0)."""
    cx = ChainComplex((0,), ())
    for _ in range(r):
        cx = disjoint_union(cx, circle())
    return cx


def merged_in_boundary(b: Bordism) -> SubcomplexMap:
    """Oracle: every in-circle of ``b`` merged into one inclusion through the
    validating constructor; C(W) modulo it gives H^*(W, in-boundary)."""
    deg0 = tuple(m.cell_maps[0][0] for m in b.in_circles)
    deg1 = tuple(m.cell_maps[1][0] for m in b.in_circles)
    return SubcomplexMap(circles(len(b.in_circles)), b.w, (deg0, deg1))


class TestStateSpace:
    def test_dims(self):
        assert StateSpace(Z2, 1).dim == 2
        assert StateSpace(Z2Z2, 2).dim == 16
        assert StateSpace(Z3, 0).dim == 1

    def test_lexicographic_basis(self):
        space = StateSpace(Z2, 2)
        assert space.basis == (
            ((0,), (0,)), ((0,), (1,)), ((1,), (0,)), ((1,), (1,))
        )
        assert space.index(((1,), (0,))) == 2

    def test_dim_is_h1_of_the_circles(self):
        for r in (0, 1, 3):
            space = StateSpace(Z3, r)
            cx = circles(r)
            h1 = cohomology(cx, Z3, 1).order if cx.top_dim >= 1 else 1
            assert space.dim == h1 == Z3.order**r

    @pytest.mark.parametrize("group", [Z3, parse_abelian("Z2xZ4")], ids=str)
    def test_basis_is_listed_on_first_use_in_nested_loop_order(self, group):
        space = StateSpace(group, 2)
        assert "basis" not in vars(space) and "_index" not in vars(space)
        nested = tuple((a, b) for a in group.elements() for b in group.elements())
        assert space.basis == nested and len(nested) == space.dim
        assert [space.index(x) for x in nested] == list(range(space.dim))


class TestNormalization:
    def test_cylinder_is_circle_times_interval(self):
        cyl = cylinder()
        assert cyl.w == product(circle(), interval())
        assert [end.cell_maps for end in cyl.in_circles + cyl.out_circles] == [
            ((0,), (1,)), ((1,), (2,))]

    def test_cylinder_constant_is_one(self):
        assert normalization_constant(cylinder(), Z2) == 1

    def test_pants_constant_is_one(self):
        assert normalization_constant(pants_bordism(), Z3) == 1

    def test_closed_constant_is_inverse_h0(self):
        assert normalization_constant(closed_torus(), Z2) == Fraction(1, 2)
        assert normalization_constant(cap(), Z3) == Fraction(1, 3)
        assert normalization_constant(cup(), Z3) == 1

    def test_inclusions_and_bordisms_compare_by_value(self):
        assert cylinder() == cylinder()
        assert disk()[1] == disk()[1]


def _outside_bordisms():
    """Bordisms built through the validating constructors: one whose edge
    from the in-circle meets vertex 1 with coefficient 2, and the cylinder
    with an isolated extra vertex."""
    two = ChainComplex((2, 2), ([(), [(0, -1), (1, 2)]],))
    yield Bordism(two, (SubcomplexMap(circle(), two, ((0,), (0,))),), ())
    cyl = ChainComplex((3, 3, 1), ([[(0, -1), (1, 1)], (), ()], [[(1, 1), (2, -1)]]))
    yield Bordism(cyl, (SubcomplexMap(circle(), cyl, ((0,), (1,))),),
                  (SubcomplexMap(circle(), cyl, ((1,), (2,))),))


def _normalized_bordisms():
    """The presets, every glue and bordism_union pair of them, every
    three-fold glue (whose in-circle vertices lift through chains of
    fills), and the outside-built bordisms."""
    shapes = [bordism_preset(shape) for shape in _SHAPES]
    yield from shapes
    for a in shapes:
        for b in shapes:
            if len(a.out_circles) == len(b.in_circles):
                yield glue(a, b)
            yield bordism_union(a, b)
    for a in shapes:
        for b in shapes:
            for c in shapes:
                if (len(a.out_circles), len(b.out_circles)) == (len(b.in_circles),
                                                                len(c.in_circles)):
                    yield glue(glue(a, b), c)
    yield from _outside_bordisms()


@pytest.mark.parametrize("group", [parse_abelian(a) for a in ("Z2", "Z3", "Z2xZ4", "Z2xZ2xZ2")],
                         ids=str)
def test_normalization_matches_the_quotient_route(group):
    """c(W) read from W's reduction equals 1/|H^0| of C(W) modulo the merged
    in-circles."""
    count = 0
    for b in _normalized_bordisms():
        h0 = cohomology_order(quotient(b.w, merged_in_boundary(b)), group, 0)
        assert normalization_constant(b, group) == Fraction(1, h0), b.w
        count += 1
    assert count == 128


def test_trivial_group_gives_value_one_on_the_one_empty_label():
    """Over Z1 each state space has one label, an empty tuple per circle, and
    each bordism has value 1 on it: the closed form that the per-factor
    labels, zipped over no factors, must keep."""
    z1 = FiniteAbelianGroup([])
    count = 0
    for b in _normalized_bordisms():
        m = bordism_matrix(b, z1)
        ins, outs = ((),) * len(b.in_circles), ((),) * len(b.out_circles)
        assert (m.value, m.support) == (1, frozenset({(outs, ins)})), b.w
        assert (m.source.basis, m.target.basis) == ((ins,), (outs,))
        assert m.entries == ((1,),)
        count += 1
    assert count == 128
    assert all(trace_check(circles, z1).passed for circles in (0, 1, 2))


def _overlapping_in_circles(kind):
    if kind == "same cuff twice":
        pants = pants_bordism()
        return Bordism(pants.w, (pants.in_circles[0],) * 2, pants.out_circles)
    loop = ChainComplex((2, 1), ([()],))
    ends = tuple(SubcomplexMap(circle(), loop, ((v,), (0,))) for v in (0, 1))
    return Bordism(loop, ends, ())


@pytest.mark.parametrize("kind,degree", [("same cuff twice", 0), ("one loop, two vertices", 1)])
def test_overlapping_in_circles_are_rejected(kind, degree):
    b = _overlapping_in_circles(kind)
    message = f"degree {degree} map is not injective"
    with pytest.raises(ValueError, match=message):
        normalization_constant(b, Z2)
    with pytest.raises(ValueError, match=message):
        bordism_matrix(b, Z2)


@pytest.fixture
def reductions(monkeypatch):
    """Every complex that ``complexes._Reduction`` reduces from here on."""
    reduced = []

    class Counted(complexes._Reduction):
        def __init__(self, cx):
            reduced.append(cx)
            super().__init__(cx)

    monkeypatch.setattr(complexes, "_Reduction", Counted)
    return reduced


class TestOneReductionPerBordism:
    @pytest.mark.parametrize("shape", list(_SHAPES))
    def test_a_fresh_bordism_is_reduced_once(self, reductions, shape):
        b = bordism_preset(shape)
        bordism_matrix(b, Z2Z2)
        assert reductions == [b.w]

    def test_problem_one_reduces_pants_cylinder_and_torus(self, reductions):
        solve_problem_one(Z2)
        assert [cx.cells for cx in reductions] == [(3, 5, 1), (2, 3, 1), (1, 2, 1)]

    def test_a_negative_circle_count_is_refused_before_any_evaluation(self, reductions):
        with pytest.raises(ValueError, match="circle count must be >= 0"):
            trace_check(-1, Z2)
        assert reductions == []


class TestBordismMatrices:
    @pytest.mark.parametrize("group", GROUPS)
    def test_cylinder_is_identity(self, group):
        assert bordism_matrix(cylinder(), group).is_identity()

    def test_pants_is_group_algebra_multiplication_z2(self):
        mat = bordism_matrix(pants_bordism(), Z2)
        assert [[int(x) for x in row] for row in mat.entries] == [
            [1, 0, 0, 1],
            [0, 1, 1, 0],
        ]

    @pytest.mark.parametrize("group", GROUPS)
    def test_pants_entries(self, group):
        mat = bordism_matrix(pants_bordism(), group)
        for i, out in enumerate(mat.target.basis):
            for j, pair in enumerate(mat.source.basis):
                expected = 1 if group.add(pair[0], pair[1]) == out[0] else 0
                assert mat[i, j] == expected

    @pytest.mark.parametrize("group", [Z2, Z3])
    def test_copants_entries(self, group):
        mat = bordism_matrix(copants_bordism(), group)
        for i, pair in enumerate(mat.target.basis):
            for j, out in enumerate(mat.source.basis):
                expected = 1 if group.add(pair[0], pair[1]) == out[0] else 0
                assert mat[i, j] == expected

    def test_cap_and_cup(self):
        cap_m = bordism_matrix(cap(), Z3)
        assert cap_m.source.dim == 1 and cap_m.target.dim == 3
        assert [x for row in cap_m.entries for x in row] == [
            Fraction(1, 3), Fraction(0), Fraction(0)
        ]
        cup_m = bordism_matrix(cup(), Z3)
        assert cup_m.entries == ((Fraction(1), Fraction(0), Fraction(0)),)

    def test_closed_torus_scalar(self):
        assert bordism_matrix(closed_torus(), Z2).scalar() == 2
        assert bordism_matrix(closed_torus(), Z3).scalar() == 3

    def test_unsupported_shape(self):
        with pytest.raises(ValueError):
            bordism_preset("klein")


class TestComposites:
    @pytest.mark.parametrize("group", [Z2, Z3])
    def test_associativity(self, group):
        pm = bordism_matrix(pants_bordism(), group)
        cyl = bordism_matrix(cylinder(), group)
        assert compose(pm, tensor(pm, cyl)).entries == compose(pm, tensor(cyl, pm)).entries

    @pytest.mark.parametrize("group", [Z2, Z3])
    def test_sphere_from_cup_cap(self, group):
        scalar = compose(
            bordism_matrix(cup(), group), bordism_matrix(cap(), group)
        ).scalar()
        assert scalar == surface_gauge_count(abelian_cayley(group), 0)

    def test_pairing_from_cup_pants(self):
        pairing = compose(
            bordism_matrix(cup(), Z3), bordism_matrix(pants_bordism(), Z3)
        )
        for j, pair in enumerate(pairing.source.basis):
            expected = 1 if Z3.add(pair[0], pair[1]) == (0,) else 0
            assert pairing.entries[0][j] == expected

    def test_formal_glue_agree_on_single_circle_interfaces(self):
        for group in (Z2, Z3):
            formal = compose(
                bordism_matrix(cylinder(), group), bordism_matrix(cylinder(), group)
            )
            geometric = bordism_matrix(glue(cylinder(), cylinder()), group)
            assert formal.entries == geometric.entries

    @pytest.mark.parametrize("group", [Z2, Z3, Z2Z2])
    def test_frobenius_identity(self, group):
        # (m x 1)(1 x Delta) = Delta o m as formal matrices
        pm = bordism_matrix(pants_bordism(), group)
        cm = bordism_matrix(copants_bordism(), group)
        cyl = bordism_matrix(cylinder(), group)
        lhs = compose(tensor(pm, cyl), tensor(cyl, cm))
        rhs = compose(cm, pm)
        assert lhs.entries == rhs.entries
        lhs2 = compose(tensor(cyl, pm), tensor(cm, cyl))
        assert lhs2.entries == rhs.entries


class TestClosedSurfaces:
    @pytest.mark.parametrize("group", [Z2, Z3, Z2Z2])
    @pytest.mark.parametrize("genus", [0, 1, 2])
    def test_preset_scalars_match_bundle_counts(self, group, genus):
        scalar = bordism_matrix(closed_surface(genus), group).scalar()
        assert scalar == surface_gauge_count(abelian_cayley(group), genus)

    @pytest.mark.parametrize("group", [Z2, Z3])
    @pytest.mark.parametrize("genus", [0, 1, 2])
    def test_handle_composition_scalars(self, group, genus):
        b = cap()
        for _ in range(genus):
            b = glue(glue(b, copants_bordism()), pants_bordism())
        b = glue(b, cup())
        scalar = bordism_matrix(b, group).scalar()
        assert scalar == surface_gauge_count(abelian_cayley(group), genus)

    def test_sphere_through_pants(self):
        sphere_b = glue(glue(bordism_union(cap(), cap()), pants_bordism()), cup())
        assert bordism_matrix(sphere_b, Z2).scalar() == Fraction(1, 2)


class TestTraceIdentity:
    @pytest.mark.parametrize(
        "group,expected", [(Z2, 2), (Z3, 3), (Z2Z2, 4)]
    )
    def test_single_circle(self, group, expected):
        report = trace_check(1, group)
        assert report.passed
        assert report.cylinder_trace == expected
        assert report.closed_torus_value == expected

    @pytest.mark.parametrize("group", GROUPS)
    def test_no_circles(self, group):
        report = trace_check(0, group)
        assert report.passed
        assert report.cylinder_trace == report.closed_torus_value == 1
        assert report.state_space_dim == 1

    def test_two_circles(self):
        report = trace_check(2, Z2)
        assert report.passed and report.cylinder_trace == 4

    def test_closed_disjoint_tori_multiplicative(self):
        two = disjoint_union(torus(2), torus(2))
        assert bordism_matrix(Bordism(two, (), ()), Z2).scalar() == 4


class TestProblemOne:
    def test_report(self):
        report = solve_problem_one()
        assert report["state_space_dim"] == 2
        assert report["cylinder_is_identity"] is True
        assert report["trace_check"].passed
        pants_m = report["pants"]
        assert [[int(x) for x in row] for row in pants_m.entries] == [
            [1, 0, 0, 1],
            [0, 1, 1, 0],
        ]
        copants_m = report["copants"]
        assert [[int(x) for x in row] for row in copants_m.entries] == [
            [1, 0], [0, 1], [0, 1], [1, 0]
        ]


class TestValidation:
    def test_identity_matrix(self):
        assert identity_matrix(Z3, 1).is_identity()

    def test_compose_shape_mismatch(self):
        with pytest.raises(ValueError):
            compose(bordism_matrix(pants_bordism(), Z2),
                    bordism_matrix(cylinder(), Z2))

    def test_scalar_requires_closed(self):
        with pytest.raises(ValueError):
            bordism_matrix(cylinder(), Z2).scalar()

    def test_boundary_map_from_an_interval_is_rejected(self):
        w = interval()
        whole = SubcomplexMap(interval(), w, ((0, 1), (0,)))
        with pytest.raises(ValueError, match="standard circles"):
            Bordism(w, (whole,), ())
        with pytest.raises(ValueError, match="standard circles"):
            Bordism(w, (), (whole,))

    def test_an_equal_circle_built_apart_is_standard(self):
        pants = pants_bordism()
        own = ChainComplex((1, 1), ([()],))
        assert own is not circle() and own == circle()
        cuff = SubcomplexMap(own, pants.w, pants.in_circles[0].cell_maps)
        b = Bordism(pants.w, (cuff, pants.in_circles[1]), pants.out_circles)
        assert bordism_matrix(b, Z2) == bordism_matrix(pants, Z2)

    def test_glue_count_mismatch(self):
        with pytest.raises(ValueError):
            glue(cap(), pants_bordism())

    @pytest.mark.parametrize("entry", [Fraction(-1, 3), -1])
    def test_negative_entry_rejected(self, entry):
        space = StateSpace(Z2, 0)
        with pytest.raises(ValueError, match="nonnegative"):
            BordismMatrix(space, space, entry, frozenset({((), ())}))

    @pytest.mark.parametrize("entry", [Fraction(0), Fraction(1, 3), 2])
    def test_nonnegative_entry_accepted(self, entry):
        space = StateSpace(Z2, 0)
        assert BordismMatrix(space, space, entry, frozenset({((), ())})).scalar() == entry

    def test_compose_rejects_a_support_that_is_not_a_subgroup(self):
        # (0, 0) is reached through two middle labels, (1, 0) through one
        space = StateSpace(Z2, 1)
        inner = BordismMatrix(space, space, Fraction(1),
                              frozenset({((0,), (0,)), ((1,), (0,))}))
        outer = BordismMatrix(space, space, Fraction(1),
                              frozenset({((0,), (0,)), ((0,), (1,)), ((1,), (1,))}))
        with pytest.raises(ValueError, match="not subgroups"):
            compose(outer, inner)


# Dense oracles for the relation arithmetic, applied to ``.entries``.


def dense_product(x, y):
    return tuple(
        tuple(sum((x[i][k] * y[k][j] for k in range(len(y))), Fraction(0))
              for j in range(len(y[0])))
        for i in range(len(x))
    )


def kronecker(x, y):
    return tuple(tuple(a * b for a in xr for b in yr) for xr in x for yr in y)


def dense_trace(x):
    return sum((x[i][i] for i in range(len(x))), Fraction(0))


def dense_is_identity(m: BordismMatrix) -> bool:
    n = m.source.dim
    return m.source == m.target and m.entries == tuple(
        tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


BASIC_SHAPES = ("cylinder", "pants", "copants", "cap", "cup")


def _composable(group):
    mats = [bordism_matrix(bordism_preset(s), group) for s in BASIC_SHAPES]
    return mats, [(x, y) for x in mats for y in mats if y.target == x.source]


class TestRelationArithmetic:
    @pytest.mark.parametrize("group", GROUPS, ids=str)
    def test_compose_is_the_dense_product(self, group):
        _, pairs = _composable(group)
        assert len(pairs) == 11
        for x, y in pairs:
            assert compose(x, y).entries == dense_product(x.entries, y.entries)

    @pytest.mark.parametrize("group", GROUPS, ids=str)
    def test_tensor_is_the_kronecker_product(self, group):
        mats, _ = _composable(group)
        for x in mats:
            for y in mats:
                assert tensor(x, y).entries == kronecker(x.entries, y.entries)

    @pytest.mark.parametrize("group", GROUPS, ids=str)
    def test_trace_and_identity_match_dense(self, group):
        mats, pairs = _composable(group)
        one = StateSpace(group, 1)
        derived = (mats + [compose(x, y) for x, y in pairs]
                   + [tensor(x, y) for x in mats for y in mats]
                   + [identity_matrix(group, c) for c in (0, 1, 2)]
                   # value 1 on part of the diagonal only
                   + [BordismMatrix(one, one, Fraction(1), frozenset({(one.basis[0],) * 2}))])
        squares = 0
        for m in derived:
            assert m.is_identity() == dense_is_identity(m)
            if m.source == m.target:
                assert m.trace() == dense_trace(m.entries)
                squares += 1
        assert squares > 10
        assert sum(m.is_identity() for m in derived) >= 5


def tally_matrix(b: Bordism, group: FiniteAbelianGroup):
    """Oracle: tally the boundary values of every class of H^1(W; A), one
    cyclic factor at a time, and count the classes behind each entry.
    Returns the dense rows, to compare with ``BordismMatrix.entries``."""
    source = StateSpace(group, len(b.in_circles))
    target = StateSpace(group, len(b.out_circles))
    in_edges = [m.cell_maps[1][0] for m in b.in_circles]
    out_edges = [m.cell_maps[1][0] for m in b.out_circles]
    per_factor = []
    for factor in cohomology(b.w, group, 1).factors:
        tally = {}
        for coords in factor.all_coords():
            rep = factor.representative(coords)
            key = (tuple(rep[e] for e in out_edges), tuple(rep[e] for e in in_edges))
            tally[key] = tally.get(key, 0) + 1
        per_factor.append(tally)
    c_w = normalization_constant(b, group)
    rows = []
    for out_label in target.basis:
        row = []
        for in_label in source.basis:
            count = 1
            for k, tally in enumerate(per_factor):
                key = (tuple(a[k] for a in out_label), tuple(a[k] for a in in_label))
                count *= tally.get(key, 0)
                if count == 0:
                    break
            row.append(c_w * count)
        rows.append(tuple(row))
    return tuple(rows)


ORACLE_COEFFS = [parse_abelian(a)
                 for a in ("Z2", "Z3", "Z4", "Z6", "Z2xZ2", "Z2xZ4", "Z2xZ4xZ8")]
# The tally enumerates H^1 and is slow per entry; it runs where |H^1| and
# the entry count both stay this small.
ORACLE_SIZE = 4096
# The glue pairs of the bench's cohomology workload.
GLUE_PAIRS = [
    ("pants", "copants"), ("pants", "cylinder"), ("cylinder", "copants"),
    ("cylinder", "cylinder"), ("cap", "cylinder"), ("cylinder", "cup"),
    ("cap", "cup"), ("pants", "cup"), ("cap", "copants"),
]
ORACLE_BORDISMS = (
    [(shape, build) for shape, build in _SHAPES.items()]
    + [(f"{f}.{s}", lambda f=f, s=s: glue(bordism_preset(f), bordism_preset(s)))
       for f, s in GLUE_PAIRS]
    + [("cylinder+pants", lambda: bordism_union(cylinder(), pants_bordism()))]
)


class TestRestrictionImage:
    @pytest.mark.parametrize("build", [b for _, b in ORACLE_BORDISMS],
                             ids=[name for name, _ in ORACLE_BORDISMS])
    def test_matches_the_class_tally(self, build):
        b = build()
        checked = 0
        for group in ORACLE_COEFFS:
            entries = group.order ** (len(b.in_circles) + len(b.out_circles))
            if max(cohomology(b.w, group, 1).order, entries) > ORACLE_SIZE:
                continue
            assert bordism_matrix(b, group).entries == tally_matrix(b, group), str(group)
            checked += 1
        assert checked >= 4

    def test_three_factor_pants_matches_the_class_tally(self):
        # |H^1| = 4096 and 64^3 entries: the largest case the tally covers
        group = parse_abelian("Z2xZ4xZ8")
        assert (bordism_matrix(pants_bordism(), group).entries
                == tally_matrix(pants_bordism(), group))

    def test_state_space_basis_is_guarded(self):
        with max_enum(15):
            assert StateSpace(Z2, 3).dim == 8
            with pytest.raises(GuardExceeded, match="state space basis"):
                StateSpace(Z4, 2)

    def test_entry_count_is_guarded(self):
        # pants over Z2: bases of 4 and 2 labels fit, its 8 entries do not
        with max_enum(7):
            with pytest.raises(GuardExceeded, match="bordism matrix entries"):
                bordism_matrix(pants_bordism(), Z2)
        with max_enum(8):
            assert bordism_matrix(pants_bordism(), Z2).target.dim == 2
