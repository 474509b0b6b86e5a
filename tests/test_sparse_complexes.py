"""Sparse boundary columns against dense oracles.

``dense_product`` and ``dense_glue`` are the matrix-based builders the
column-based ones replaced; every complex they build must have the same
cells and the same dense boundary matrices.
"""

import pytest

from finsym import tqft2d
from finsym.complexes import (
    ChainComplex,
    SubcomplexMap,
    circle,
    disk,
    glue_complexes,
    interval,
    klein_bottle,
    pants,
    preset,
    product,
    real_projective_space,
    sphere,
    surface,
    torus,
)
from finsym.intmatrix import IntMatrix

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
                for ar, ai, coeff in _entries(a.boundary(i)):
                    for bi in range(nb):
                        rows[row0 + ar * nb + bi][col0 + ai * nb + bi] += coeff
            if j >= 1:
                sign = -1 if i % 2 else 1
                row0 = offsets[k - 1][i]
                nb_row = b.n_cells(j - 1)
                for br, bi, coeff in _entries(b.boundary(j)):
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
        for i, j, v in _entries(a.boundary(k)):
            rows[i][j] += v
        for i, j, v in _entries(b.boundary(k)):
            if j not in ident[k]:
                rows[b_map[k - 1][i]][b_map[k][j]] += v
        bnds.append(IntMatrix(rows, rows=cells[k - 1], cols=cells[k]))
    return ChainComplex(cells, bnds), tuple(b_map)


def assert_same_dense(x: ChainComplex, y: ChainComplex):
    assert x.cells == y.cells
    for k in range(x.top_dim + 2):
        assert x.boundary(k) == y.boundary(k)
    assert x.to_json() == y.to_json()
    assert x == y


@pytest.mark.parametrize("a", PRESETS, ids=repr)
@pytest.mark.parametrize("b", PRESETS, ids=repr)
def test_product_matches_dense_oracle(a, b):
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


def test_glue_sums_entries_of_cells_identified_with_one_cell():
    # both ends of the interval go to the circle's vertex: d(u) = v - v = 0
    glued, b_map = glue_complexes(circle(), interval(), {0: {0: 0, 1: 0}})
    oracle, oracle_map = dense_glue(circle(), interval(), {0: {0: 0, 1: 0}})
    assert_same_dense(glued, oracle)
    assert b_map == oracle_map == ((0, 0), (1,))
    assert glued.boundary(1) == IntMatrix([[0, 0]])


@pytest.mark.parametrize("identifications", [
    {1: {5: 0}},      # no b-cell 5
    {0: {0: 3}},      # no a-cell 3
    {0: {-1: 0}},
    {4: {0: 0}},      # no cells in degree 4
])
def test_glue_rejects_identifications_outside_the_cells(identifications):
    with pytest.raises(ValueError):
        glue_complexes(circle(), circle(), identifications)


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

    def test_sparse_d_squared_nonzero_rejected(self):
        with pytest.raises(ValueError, match="d_1 o d_2"):
            ChainComplex((2, 1, 1), ([[(0, -1), (1, 1)]], [[(0, 1)]]))
        # the same boundary whose entries cancel is fine
        ChainComplex((2, 1, 1), ([[(0, -1), (1, 1)]], [[(0, 1), (0, -1)]]))


@pytest.fixture
def intmatrix_builds(monkeypatch):
    calls = []
    init = IntMatrix.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(IntMatrix, "__init__", counting)
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
