"""Sparse boundary columns against dense oracles.

``dense_product`` and ``dense_glue`` are the matrix-based builders the
column-based ones replaced; every complex they build must have the same
cells and the same dense boundary matrices.  The package's builders store
their columns as given (``ChainComplex._trusted``), so each of their
complexes must also be stored exactly as the validating constructor would
store it.
"""

from operator import index

import pytest

from finsym import complexes, tqft2d
from finsym.complexes import (
    ChainComplex,
    SubcomplexMap,
    circle,
    disjoint_union,
    disk,
    glue_complexes,
    interval,
    klein_bottle,
    pants,
    preset,
    product,
    quotient,
    real_projective_space,
    sphere,
    surface,
    torus,
)
from finsym.intmatrix import IntMatrix
from test_complexes import QUOTIENT_SUBS, _oracle_complexes, dense_boundary

PRESETS = [
    circle(), interval(), sphere(2), sphere(3), torus(2), surface(2),
    real_projective_space(2), real_projective_space(3), klein_bottle(),
    disk()[0], pants()[0],
]
SHAPES = sorted(tqft2d._SHAPES)
GLUE_PAIRS = [
    (first, second) for first in SHAPES for second in SHAPES
    if len(tqft2d.bordism_preset(first).out_circles)
    == len(tqft2d.bordism_preset(second).in_circles)
]


def _entries(m: IntMatrix):
    return [(i, j, v) for i, row in enumerate(m.data) for j, v in enumerate(row) if v]


def _offsets(a, b, k):
    out = [0]
    for i in range(k + 1):
        out.append(out[-1] + a.n_cells(i) * b.n_cells(k - i))
    return out


def dense_product(a: ChainComplex, b: ChainComplex) -> ChainComplex:
    top = a.top_dim + b.top_dim
    offsets = [_offsets(a, b, k) for k in range(top + 1)]
    cells = [off[-1] for off in offsets]
    bnds = []
    for k in range(1, top + 1):
        rows = [[0] * cells[k] for _ in range(cells[k - 1])]
        for i in range(max(0, k - b.top_dim), min(k, a.top_dim) + 1):
            j = k - i
            nb = b.n_cells(j)
            col0 = offsets[k][i]
            if i >= 1:
                row0 = offsets[k - 1][i - 1]
                for ar, ai, coeff in _entries(dense_boundary(a, i)):
                    for bi in range(nb):
                        rows[row0 + ar * nb + bi][col0 + ai * nb + bi] += coeff
            if j >= 1:
                sign = -1 if i % 2 else 1
                row0 = offsets[k - 1][i]
                nb_row = b.n_cells(j - 1)
                for br, bi, coeff in _entries(dense_boundary(b, j)):
                    for ai in range(a.n_cells(i)):
                        rows[row0 + ai * nb_row + br][col0 + ai * nb + bi] += sign * coeff
        bnds.append(IntMatrix(rows, rows=cells[k - 1], cols=cells[k]))
    return ChainComplex(cells, bnds)


def dense_glue(a: ChainComplex, b: ChainComplex, identifications):
    top = max(a.top_dim, b.top_dim)
    ident = {k: dict(identifications.get(k, {})) for k in range(top + 1)}
    b_map, cells = [], []
    for k in range(top + 1):
        new_idx, pos = {}, a.n_cells(k)
        for j in range(b.n_cells(k)):
            if j in ident[k]:
                new_idx[j] = ident[k][j]
            else:
                new_idx[j], pos = pos, pos + 1
        b_map.append(tuple(new_idx[j] for j in range(b.n_cells(k))))
        cells.append(pos)
    bnds = []
    for k in range(1, top + 1):
        rows = [[0] * cells[k] for _ in range(cells[k - 1])]
        for i, j, v in _entries(dense_boundary(a, k)):
            rows[i][j] += v
        for i, j, v in _entries(dense_boundary(b, k)):
            if j not in ident[k]:
                rows[b_map[k - 1][i]][b_map[k][j]] += v
        bnds.append(IntMatrix(rows, rows=cells[k - 1], cols=cells[k]))
    return ChainComplex(cells, bnds), tuple(b_map)


def assert_stored_canonical(cx: ChainComplex):
    """cx holds the cells and columns the validating constructor makes of them."""
    again = ChainComplex(cx.cells, cx.boundaries)
    assert again == cx and hash(again) == hash(cx), cx
    assert type(cx.cells) is tuple and again.boundaries == cx.boundaries, cx


def assert_same_dense(x: ChainComplex, y: ChainComplex):
    assert x.cells == y.cells
    for k in range(x.top_dim + 2):
        assert dense_boundary(x, k) == dense_boundary(y, k)
    assert x.to_json() == y.to_json()
    assert x == y
    assert_stored_canonical(x)


@pytest.mark.parametrize("a", PRESETS, ids=repr)
@pytest.mark.parametrize("b", PRESETS, ids=repr)
def test_product_matches_dense_oracle(a, b):
    assert_same_dense(product(a, b), dense_product(a, b))


@pytest.mark.parametrize("a,b", [
    (product(torus(2), surface(2)), sphere(2)),
    (product(sphere(2), sphere(2)), surface(2)),
    (product(klein_bottle(), interval()), real_projective_space(3)),
], ids=["(T2xS2)xSph2", "(Sph2xSph2)xS2", "(KxI)xRP3"])
def test_nested_product_matches_dense_oracle(a, b):
    """Products of products, as the bench builds them: blocks whose factor
    degrees have only empty columns (one run of empty columns) and, in the
    last, blocks with a nonzero column on one side only."""
    assert_same_dense(product(a, b), dense_product(a, b))


@pytest.mark.parametrize("first", SHAPES)
@pytest.mark.parametrize("second", SHAPES)
def test_bordism_union_matches_dense_glue(first, second):
    a, b = tqft2d.bordism_preset(first), tqft2d.bordism_preset(second)
    union = tqft2d.bordism_union(a, b)
    oracle, _ = dense_glue(a.w, b.w, {})
    assert_same_dense(union.w, oracle)


@pytest.mark.parametrize("first,second", GLUE_PAIRS)
def test_bordism_glue_matches_dense_glue(first, second):
    a, b = tqft2d.bordism_preset(first), tqft2d.bordism_preset(second)
    ident = {0: {}, 1: {}}
    for out_map, in_map in zip(a.out_circles, b.in_circles):
        for k in (0, 1):
            ident[k][in_map.cell_maps[k][0]] = out_map.cell_maps[k][0]
    glued, b_map = glue_complexes(a.w, b.w, ident)
    oracle, oracle_map = dense_glue(a.w, b.w, ident)
    assert_same_dense(glued, oracle)
    assert b_map == oracle_map


@pytest.mark.parametrize("b,ident,b_map,expected", [
    # both ends of the interval go to the circle's vertex: d(u) = v - v = 0
    (interval(), {0: {0: 0, 1: 0}}, ((0, 0), (1,)), ChainComplex((1, 2), ([(), ()],))),
    # both ends of the cylinder go to the circle: d(v, I) = v - v and
    # d(e, I) = e - e, so the glue is the torus
    (tqft2d.cylinder().w, {0: {0: 0, 1: 0}, 1: {1: 0, 2: 0}}, ((0, 0), (1, 0, 0), (0,)),
     torus(2)),
], ids=["interval", "cylinder"])
def test_glue_sums_entries_of_cells_identified_with_one_cell(b, ident, b_map, expected):
    glued, glued_map = glue_complexes(circle(), b, ident)
    oracle, oracle_map = dense_glue(circle(), b, ident)
    assert_same_dense(glued, oracle)
    assert glued_map == oracle_map == b_map
    assert glued == expected


PRESET_ARGS = [(name, ()) for name in ("circle", "interval", "klein", "disk", "pants")] + [
    (name, (p,)) for name, params in (("sphere", range(1, 6)), ("torus", range(1, 6)),
                                      ("surface", range(5)), ("rp", range(1, 5)))
    for p in params
]


def _package_builds(oracle):
    """Every complex the package's builders make here: the presets, the
    products of all pairs of ``oracle``, the quotients of bordisms by their
    boundary circles, glued and united bordisms, non-injective glues and
    disjoint unions."""
    for name, params in PRESET_ARGS:
        yield preset(name, *params)
    yield from (product(a, b) for a in oracle for b in oracle)
    yield from (quotient(w, sub) for w, sub in QUOTIENT_SUBS)
    presets = {shape: tqft2d.bordism_preset(shape) for shape in SHAPES}
    for first, second in GLUE_PAIRS:
        yield tqft2d.glue(presets[first], presets[second]).w
    for first in SHAPES:
        for second in SHAPES:
            yield tqft2d.bordism_union(presets[first], presets[second]).w
    yield glue_complexes(circle(), interval(), {0: {0: 0, 1: 0}})[0]
    yield glue_complexes(circle(), tqft2d.cylinder().w, {0: {0: 0, 1: 0}, 1: {1: 0, 2: 0}})[0]
    yield disjoint_union(torus(2), surface(3))
    yield tqft2d.cylinder().w


def test_package_builds_are_stored_canonical_without_the_integer_check(monkeypatch):
    """No builder converts an entry with ``as_int``; what each stores is what
    the validating constructor stores."""
    oracle = list(_oracle_complexes())
    calls = []

    def recording(x, what):
        calls.append(what)
        return index(x)

    monkeypatch.setattr(complexes, "as_int", recording)
    count = 0
    for cx in _package_builds(oracle):
        assert calls == [], cx
        assert_stored_canonical(cx)
        calls.clear()
        count += 1
    assert count > len(oracle) ** 2


def _package_inclusions():
    """Every inclusion the package builds: the circles of ``disk`` and
    ``pants``, the ends of ``cylinder()``, the circles of ``glue`` and
    ``bordism_union`` over the shape pairs, and ``empty_subcomplex``."""
    yield disk()[1]
    yield from pants()[1]
    cyl = tqft2d.cylinder()
    yield from cyl.in_circles + cyl.out_circles
    presets = {shape: tqft2d.bordism_preset(shape) for shape in SHAPES}
    for first, second in GLUE_PAIRS:
        glued = tqft2d.glue(presets[first], presets[second])
        yield from glued.in_circles + glued.out_circles
    for first in SHAPES:
        for second in SHAPES:
            union = tqft2d.bordism_union(presets[first], presets[second])
            yield from union.in_circles + union.out_circles
    yield from (complexes.empty_subcomplex(cx) for cx in PRESETS)


def test_package_inclusions_are_stored_as_the_validating_constructor_stores_them(monkeypatch):
    """No package-built inclusion passes the validating constructor, and
    each equals what that constructor makes of it."""

    def refuse(self):
        raise AssertionError("a package-built inclusion was validated again")

    monkeypatch.setattr(SubcomplexMap, "__post_init__", refuse)
    built = list(_package_inclusions())
    monkeypatch.undo()
    assert len(built) > len(SHAPES) ** 2
    for m in built:
        assert SubcomplexMap(m.source, m.target, m.cell_maps) == m, m
        assert type(m.cell_maps) is tuple, m
        assert all(type(c) is tuple and all(type(i) is int for i in c) for c in m.cell_maps), m


@pytest.mark.parametrize("identifications", [
    {1: {5: 0}},      # no b-cell 5
    {0: {0: 3}},      # no a-cell 3
    {0: {-1: 0}},
    {4: {0: 0}},      # no cells in degree 4
    {0: {0: 0.0}},    # not a cell index
    {0: {0.5: 0}},    # not a b-cell index
    {0.0: {0: 0}},    # not a degree
    {1: {0.0: 0}, 0: {0: 0, 1: 1}},
])
def test_glue_rejects_identifications_outside_the_cells(identifications):
    with pytest.raises(ValueError, match="identifications must map b-cells to a-cells "
                                         "of the same degree"):
        glue_complexes(interval(), interval(), identifications)


class TestColumns:
    def test_columns_are_canonical(self):
        messy = ChainComplex(
            (3, 5, 1),
            (
                [[(0, 0)], [], [(1, 0), (1, 0)], [(2, 1), (0, -1), (1, 0)],
                 [(2, 2), (1, -1), (2, -1)]],
                [[(2, -1), (1, 1), (0, 1), (3, 0), (4, 5), (4, -5)]],
            ),
        )
        dense = ChainComplex(
            (3, 5, 1),
            (IntMatrix([[0, 0, 0, -1, 0], [0, 0, 0, 0, -1], [0, 0, 0, 1, 1]]),
             IntMatrix([[1], [1], [-1], [0], [0]])),
        )
        assert messy == dense == pants()[0]
        assert messy.to_json() == dense.to_json()
        assert messy.boundaries[0][3] == ((0, -1), (2, 1))
        assert messy.boundaries[1] == (((0, 1), (1, 1), (2, -1)),)
        hash(messy.boundaries)

    @pytest.mark.parametrize("cells,boundaries", [
        ((1, 1), ([[(1, 1)]],)),           # row 1 of a one-vertex complex
        ((1, 1), ([[(-1, 1)]],)),
        ((1, 2), ([[]],)),                 # one column for two edges
        ((1, 1), ([[], []],)),
        ((1, 1), (IntMatrix([[0, 0]]),)),  # dense shape mismatch
    ])
    def test_malformed_columns_rejected(self, cells, boundaries):
        with pytest.raises(ValueError):
            ChainComplex(cells, boundaries)

    @pytest.mark.parametrize("build", [ChainComplex, ChainComplex._trusted],
                             ids=["validating", "trusted"])
    def test_sparse_d_squared_nonzero_rejected(self, build):
        with pytest.raises(ValueError, match="d_1 o d_2"):
            build((2, 1, 1), ((((0, -1), (1, 1)),), (((0, 1),),)))
        # the failing column of d_3 comes after empty ones
        with pytest.raises(ValueError, match="d_2 o d_3 != 0"):
            build((1, 1, 1, 3), (((),), (((0, 2),),), ((), (), ((0, 1),))))
        # two edges v0 -> v1 and a face along e0 - e1: the products cancel
        build((2, 2, 1), ((((0, -1), (1, 1)),) * 2, (((0, 1), (1, -1)),)))
        # the same boundary whose entries cancel is fine
        ChainComplex((2, 1, 1), ([[(0, -1), (1, 1)]], [[(0, 1), (0, -1)]]))


@pytest.fixture
def intmatrix_builds(monkeypatch):
    """Every IntMatrix built, through the public constructor or the trusted one."""
    calls = []
    init, trusted = IntMatrix.__init__, IntMatrix._trusted

    def counting(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    def counting_trusted(cls, *args):
        calls.append(args)
        return trusted(*args)

    monkeypatch.setattr(IntMatrix, "__init__", counting)
    monkeypatch.setattr(IntMatrix, "_trusted", classmethod(counting_trusted))
    return calls


def test_only_coboundaries_build_dense_matrices(intmatrix_builds):
    for name, params in [("circle", ()), ("interval", ()), ("klein", ()), ("disk", ()),
                         ("pants", ()), ("sphere", (4,)), ("torus", (3,)),
                         ("surface", (3,)), ("rp", (4,))]:
        preset(name, *params)
    cx = product(surface(2), torus(2))
    glue_complexes(cx, circle(), {0: {0: 0}})
    tqft2d.glue(tqft2d.pants_bordism(), tqft2d.copants_bordism())
    SubcomplexMap(circle(), pants()[0], ((2,), (2,)))
    assert intmatrix_builds == []
    cx.coboundary(2)
    assert len(intmatrix_builds) == 1
