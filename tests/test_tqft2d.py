from fractions import Fraction

import pytest

from finsym.complexes import cohomology, disjoint_union, torus
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

    def test_boundary_complex_and_dim_invariant(self):
        from finsym.complexes import cohomology

        for circles in (0, 1, 3):
            space = StateSpace(Z3, circles)
            cx = space.boundary_complex()
            h1 = cohomology(cx, Z3, 1).order if cx.top_dim >= 1 else 1
            assert space.dim == h1 == Z3.order**circles


class TestNormalization:
    def test_cylinder_constant_is_one(self):
        assert normalization_constant(cylinder(), Z2) == 1

    def test_pants_constant_is_one(self):
        assert normalization_constant(pants_bordism(), Z3) == 1

    def test_closed_constant_is_inverse_h0(self):
        assert normalization_constant(closed_torus(), Z2) == Fraction(1, 2)
        assert normalization_constant(cap(), Z3) == Fraction(1, 3)
        assert normalization_constant(cup(), Z3) == 1


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

    def test_glue_count_mismatch(self):
        with pytest.raises(ValueError):
            glue(cap(), pants_bordism())

    @pytest.mark.parametrize("entry", [Fraction(-1, 3), -1])
    def test_negative_entry_rejected(self, entry):
        space = StateSpace(Z2, 0)
        with pytest.raises(ValueError, match="nonnegative"):
            BordismMatrix(space, space, ((entry,),))

    @pytest.mark.parametrize("entry", [Fraction(0), Fraction(1, 3), 2])
    def test_nonnegative_entry_accepted(self, entry):
        space = StateSpace(Z2, 0)
        assert BordismMatrix(space, space, ((entry,),)).scalar() == entry


def tally_matrix(b: Bordism, group: FiniteAbelianGroup) -> BordismMatrix:
    """Oracle: tally the boundary values of every class of H^1(W; A), one
    cyclic factor at a time, and count the classes behind each entry."""
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
    return BordismMatrix(source, target, tuple(rows))


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
            assert bordism_matrix(b, group) == tally_matrix(b, group), str(group)
            checked += 1
        assert checked >= 4

    def test_three_factor_pants_matches_the_class_tally(self):
        # |H^1| = 4096 and 64^3 entries: the largest case the tally covers
        group = parse_abelian("Z2xZ4xZ8")
        assert bordism_matrix(pants_bordism(), group) == tally_matrix(pants_bordism(), group)

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
