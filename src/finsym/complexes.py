"""Finite cell complexes and exact cohomology with finite abelian coefficients.

A ChainComplex stores each boundary map of a finite CW complex as sparse
integer columns, the few nonzero entries of each cell's boundary.  Outside
input is checked and canonicalized once, entry by entry; the package's own
builders (presets, products, quotients, gluing) emit canonical columns and
store them as they are (``ChainComplex._trusted``), and d o d = 0 is summed
over the nonzero entries of nonempty columns only.  So building, gluing and
checking a complex costs a constant per cell plus its nonzero entries, and a
complex whose boundaries are all zero is checked for free; a product emits a
block of cell pairs whose factor columns are all empty as one run of empty
columns.  Inclusions the package builds (boundary circles, the empty
subcomplex) are stored as built too (``SubcomplexMap._trusted``), and the
check that an inclusion commutes with the boundaries runs on every one.  Each
complex is reduced once, on first use, by unit-pivot elimination straight
from those columns: every entry +-1 of a boundary map removes its two cells
(the Gaussian-elimination lemma), and what is left, the residual, has no
unit entry.  Cohomology with coefficients in A = Z_{n1} x ... x Z_{nk}
reads that one reduction at every degree.  Where the residual block, the
q-cells that touch a residual entry, is not empty, a call runs two full
Smith normal forms over Z on it, shared by every cyclic factor: of
delta^q, carrying delta^{q-1} along, then of the block that leaves,
carrying the first one's transforms (no products); where it is empty, none.
A cell that touches no residual entry is a free Z_n summand as it stands.
By the universal coefficient theorem each H^q(C; Z_n) is a product of
Z_gcd(d, n) over their invariant factors d and a free Z_n part; generator
representatives are lifted through the recorded pivots, and exact class
coordinates and induced restriction maps come from the same transforms.
Where only the group type or |H^q| is needed, the same formula runs on
invariant factors alone (``cohomology_cyclic_orders``,
``cohomology_order``): the unit pivots and those of the residual.
Relative cohomology is that of the quotient complex C(W)/C(S)
(``quotient``).  ``coboundary`` is the one dense view of a complex; it
serves the brute-force cochain enumerator, the independent oracle for all of
this.

Cell structures for the preset manifolds are the minimal standard ones
(one-vertex surfaces, standard RP^n); their boundary columns are spelled
out below so golden tests are deterministic.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import product as iproduct
from math import comb, gcd, prod

from .groups import FiniteAbelianGroup
from .intmatrix import IntMatrix, invariant_factors, smith_normal_form_full
from .limits import as_int, check_enum


def _column(entries, rows: int) -> tuple[tuple[int, int], ...]:
    """Canonical sparse column of outside input: integer rows in range and
    integer coefficients, then merged (``_merged``)."""
    checked = []
    for i, v in entries:
        i = as_int(i, "boundary row")
        if not 0 <= i < rows:
            raise ValueError(f"boundary row {i} out of range 0..{rows - 1}")
        checked.append((i, as_int(v, "boundary coefficient")))
    return _merged(checked)


def _merged(entries) -> tuple[tuple[int, int], ...]:
    """(row, coeff) pairs of exact ints as a canonical column: rows sorted,
    duplicates summed and zeros dropped."""
    acc = {}
    for i, v in entries:
        acc[i] = acc.get(i, 0) + v
    return tuple(sorted((i, v) for i, v in acc.items() if v))


def _check_square(bnds) -> None:
    """d_{k-1} o d_k = 0, summed over the nonzero entries of the nonempty
    columns of d_k only: an empty column, or a zero d_{k-1}, costs nothing."""
    for k in range(2, len(bnds) + 1):
        lower = bnds[k - 2]
        if not any(lower):
            continue
        for col in filter(None, bnds[k - 1]):
            acc = {}
            for i, v in col:
                for h, w in lower[i]:
                    acc[h] = acc.get(h, 0) + v * w
            if any(acc.values()):
                raise ValueError(f"d_{k-1} o d_{k} != 0")


@dataclass(frozen=True, repr=False)
class ChainComplex:
    """Cellular chain complex: cells_per_dim and boundaries d_k: C_k -> C_{k-1}.

    ``boundaries[k-1][j]`` is the boundary of the j-th k-cell, the canonical
    nonzero entries (row, coeff) of column j of d_k, for k = 1..top_dim.
    Outside input (this constructor, so ``from_json`` too) may give each
    degree as such columns (in any order, with duplicates or zeros) or as an
    IntMatrix; every entry is checked and canonicalized once.  Complexes the
    package builds from canonical columns (presets, ``product``,
    ``quotient``, ``glue_complexes``) go through ``_trusted``, which skips
    that.  Both check d o d = 0 exactly, over the nonzero entries
    (``_check_square``).  The unit-pivot reduction (``_Reduction``) is kept
    once made; it is not part of equality.
    """

    cells: tuple[int, ...]
    boundaries: tuple
    _reduction: object = field(default=None, init=False, compare=False)

    def __post_init__(self):
        cells = tuple(as_int(c, "cell count") for c in self.cells)
        if not cells or any(c < 0 for c in cells):
            raise ValueError("cells_per_dim must be nonempty and nonnegative")
        given = tuple(self.boundaries)
        if len(given) != len(cells) - 1:
            raise ValueError("need one boundary matrix per dimension 1..top_dim")
        bnds = []
        for k, b in enumerate(given, start=1):
            if isinstance(b, IntMatrix):
                if (b.rows, b.cols) != (cells[k - 1], cells[k]):
                    raise ValueError(f"boundary {k} has shape {(b.rows, b.cols)}, "
                                     f"expected {(cells[k - 1], cells[k])}")
                b = [[(i, row[j]) for i, row in enumerate(b.data)] for j in range(b.cols)]
            b = tuple(_column(col, cells[k - 1]) for col in b)
            if len(b) != cells[k]:
                raise ValueError(f"boundary {k} has {len(b)} columns, expected {cells[k]}")
            bnds.append(b)
        _check_square(bnds)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "boundaries", tuple(bnds))

    @classmethod
    def _trusted(cls, cells: tuple[int, ...], boundaries: tuple) -> "ChainComplex":
        """The complex of canonical tuple columns the package built itself,
        stored as given: no per-entry check, the same d o d = 0 check."""
        _check_square(boundaries)
        cx = object.__new__(cls)
        object.__setattr__(cx, "cells", cells)
        object.__setattr__(cx, "boundaries", boundaries)
        object.__setattr__(cx, "_reduction", None)
        return cx

    @property
    def top_dim(self) -> int:
        return len(self.cells) - 1

    def n_cells(self, k: int) -> int:
        return self.cells[k] if 0 <= k < len(self.cells) else 0

    def columns(self, k: int) -> tuple:
        """Sparse columns of d_k, one per k-cell (all empty outside 1..top_dim)."""
        if 1 <= k <= self.top_dim:
            return self.boundaries[k - 1]
        return ((),) * self.n_cells(k)

    def coboundary(self, q: int) -> IntMatrix:
        """delta^q: C^q -> C^{q+1}, the transpose of d_{q+1}; the one place a
        complex becomes an IntMatrix."""
        c = self.n_cells(q)
        rows = []
        for col in self.columns(q + 1):
            row = [0] * c
            for i, v in col:
                row[i] = v
            rows.append(tuple(row))
        return IntMatrix._trusted(tuple(rows), len(rows), c)

    def _reduced(self) -> "_Reduction":
        """The unit-pivot reduction of this complex, made on first use."""
        if self._reduction is None:
            object.__setattr__(self, "_reduction", _Reduction(self))
        return self._reduction

    def boundary_factors(self, k: int) -> tuple[int, ...]:
        """Invariant factors of d_k: a 1 per unit pivot, then the residual's."""
        red = self._reduced()
        if k not in red.factors:
            residual, factors = red.columns.get(k), ()
            if residual:
                rows = sorted({i for col in residual.values() for i in col})
                factors = invariant_factors(_dense(residual, sorted(residual), rows))
            red.factors[k] = (1,) * red.units.get(k, 0) + factors
        return red.factors[k]

    def __repr__(self):
        return f"ChainComplex(cells={self.cells})"

    def to_json(self) -> str:
        import json

        bnds = []
        for k, b in enumerate(self.boundaries, start=1):
            cols = [dict(col) for col in b]
            bnds.append([[col.get(i, 0) for col in cols] for i in range(self.cells[k - 1])])
        return json.dumps({"cells": list(self.cells), "boundaries": bnds})

    @classmethod
    def from_json(cls, text: str) -> "ChainComplex":
        import json

        doc = json.loads(text)
        cells = doc["cells"]
        bnds = [
            IntMatrix(rows, rows=cells[k], cols=cells[k + 1])
            for k, rows in enumerate(doc["boundaries"])
        ]
        return cls(cells, bnds)


class _Reduction:
    """A ChainComplex reduced by unit pivots, with what lifts and projects
    cochains between the two.

    Each step takes an entry p = +-1 of some d_k at (i, j), a (k-1)-cell i
    in the boundary of a k-cell j, and removes both cells: d_k loses row i
    and column j and gets the rank-1 update d_k[c][d] -= d_k[c][j] p
    d_k[i][d]; d_{k-1} loses column i and d_{k+1} row j, unchanged
    otherwise.  The result is chain-homotopy equivalent to the complex
    (Bar-Natan, J. Knot Theory Ramif. 16 (2007) 243, Lemma 4.2; Kaczynski,
    Mrozek and Slusarek, Comput. Math. Appl. 35 (1998) 59).  The scan is
    fixed, so the result is deterministic: degree by degree from d_1, the
    columns in index order until no unit is left, each taking its unit in
    the row with the fewest entries (the sparse-first pivot order of Dumas,
    Saunders and Villard, J. Symb. Comput. 32 (2001) 71).  A unit pivot
    contributes an invariant factor 1 to its d_k and changes none of the
    others.

    Per degree (a missing key: none): ``gone[k]`` is the set of removed
    k-cells; ``columns[k]`` maps each k-cell whose residual boundary is
    nonzero to that boundary {row: coeff}; ``units[k]`` counts the pivots
    of d_k.  Cochains move by the homotopy equivalence, in cell indices of
    the complex.  ``fills[q]`` holds (i, p, ((c, v), ...)) for each q-cell
    i removed as a pivot row: a lifted cocycle takes -p sum v x_c there,
    over the cells c of the pivot's column.  ``folds[q]`` holds
    (j, p, ((d, v), ...)) for each q-cell j removed as a pivot column: a
    projected cochain moves its value onto the cells d of the pivot's row
    as x_d -= v p x_j.  Fills apply in reverse order, folds in order.
    ``factors`` caches ``boundary_factors``.
    """

    __slots__ = ("gone", "columns", "units", "fills", "folds", "factors")

    def __init__(self, cx: ChainComplex):
        cols = [{}] + [{j: dict(col) for j, col in enumerate(b) if col} if any(b) else {}
                       for b in cx.boundaries] + [{}]
        rows = [{} for _ in cols]
        for ck, rk in zip(cols, rows):
            for j, col in ck.items():
                for i, v in col.items():
                    rk.setdefault(i, {})[j] = v
        self.columns = dict(enumerate(cols))
        self.gone, self.units, self.fills, self.folds, self.factors = {}, {}, {}, {}, {}
        for k in range(1, cx.top_dim + 1):
            ck, rk = cols[k], rows[k]
            todo = sorted(ck)
            while todo:
                touched = set()
                for j in todo:
                    col = ck.get(j, {})
                    pivots = [i for i, v in col.items() if v == 1 or v == -1]
                    if pivots:
                        i = min(pivots, key=lambda i: (len(rk[i]), i))
                        touched.update(self._eliminate(cols, rows, k, i, j))
                todo = sorted(touched.intersection(ck))

    def _eliminate(self, cols: list, rows: list, k: int, i: int, j: int) -> dict:
        """Remove the (k-1)-cell i and the k-cell j at the unit d_k[i][j] of
        the matrices held both ways, ``cols[k][j][i]`` = ``rows[k][i][j]``;
        returns the rest of row i, whose columns the update changed."""
        ck, rk = cols[k], rows[k]
        col, row = ck.pop(j), rk.pop(i)
        p = col.pop(i)
        del row[j]
        for d in row:
            del ck[d][i]
        for c in col:
            del rk[c][j]
        for d, w in row.items():
            cd = ck[d]
            for c, v in col.items():
                x = cd.get(c, 0) - v * p * w
                if x:
                    cd[c] = rk[c][d] = x
                else:
                    del cd[c], rk[c][d]
            if not cd:
                del ck[d]
        for c in col:
            if not rk[c]:
                del rk[c]
        _drop(cols[k - 1], rows[k - 1], i)
        _drop(rows[k + 1], cols[k + 1], j)
        self.fills.setdefault(k - 1, []).append((i, p, tuple(col.items())))
        self.folds.setdefault(k, []).append((j, p, tuple(row.items())))
        self.gone.setdefault(k - 1, set()).add(i)
        self.gone.setdefault(k, set()).add(j)
        self.units[k] = self.units.get(k, 0) + 1
        return row


def _drop(lines: dict, cross: dict, x) -> None:
    """Remove line x (a column or a row) from a sparse matrix held both ways."""
    for y in lines.pop(x, ()):
        line = cross[y]
        del line[x]
        if not line:
            del cross[y]


def _dense(lines: dict, rows, cols) -> IntMatrix:
    """rows x cols matrix whose row r spreads the sparse line ``lines[r]``
    ({col: value}, absent: zero) over ``cols``."""
    pos = {c: t for t, c in enumerate(cols)}
    data = []
    for r in rows:
        row = [0] * len(cols)
        for c, v in lines.get(r, {}).items():
            row[pos[c]] = v
        data.append(tuple(row))
    return IntMatrix._trusted(tuple(data), len(data), len(cols))


def _check_commutes(source: ChainComplex, target: ChainComplex, maps) -> None:
    """The inclusion ``maps`` (injective per degree) commutes with the
    boundaries: each source column, renumbered, is its image's column."""
    for k in range(1, source.top_dim + 1):
        tgt = target.columns(k)
        for j, col in enumerate(source.columns(k)):
            # injective maps keep a canonical column's rows distinct
            if tuple(sorted((maps[k - 1][i], v) for i, v in col)) != tgt[maps[k][j]]:
                raise ValueError("inclusion does not commute with boundaries")


@dataclass(frozen=True)
class SubcomplexMap:
    """Inclusion of a subcomplex, as per-degree injective cell-index maps.

    ``cell_maps[k][i]`` is the target index of the i-th source k-cell.  The
    inclusion must literally commute with the boundaries, which in
    particular forces the image to be closed under taking boundaries.
    Outside input (this constructor) has every index checked: one sequence
    per degree, each index an integer, in range, one per source cell (none
    above the source's top degree), injective per degree.  Inclusions the
    package builds from cells it already holds (``disk``, ``pants``, the 2d
    TFT's boundary circles, ``empty_subcomplex``) go through ``_trusted``,
    which stores the maps as given.  Both check commutation with the
    boundaries (``_check_commutes``).
    """

    source: ChainComplex
    target: ChainComplex
    cell_maps: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        source, target, cell_maps = self.source, self.target, self.cell_maps
        if not _is_sequence(cell_maps) or not all(map(_is_sequence, cell_maps)):
            raise ValueError("cell_maps must be one sequence of cell indices per degree")
        maps = []
        for k in range(max(source.top_dim + 1, len(cell_maps))):
            given = cell_maps[k] if k < len(cell_maps) else ()
            m = tuple(as_int(i, "cell index") for i in given)
            if len(m) != source.n_cells(k):
                raise ValueError(f"degree {k} map has wrong length")
            if len(set(m)) != len(m):
                raise ValueError(f"degree {k} map is not injective")
            if any(not 0 <= i < target.n_cells(k) for i in m):
                raise ValueError(f"degree {k} map goes out of range")
            maps.append(m)
        _check_commutes(source, target, maps)
        object.__setattr__(self, "cell_maps", tuple(maps[:source.top_dim + 1]))

    @classmethod
    def _trusted(cls, source: ChainComplex, target: ChainComplex,
                 cell_maps: tuple[tuple[int, ...], ...]) -> "SubcomplexMap":
        """The inclusion the package built itself, one tuple of in-range,
        injective int indices per source degree, stored as given: no
        per-index check, the same commutation check."""
        _check_commutes(source, target, cell_maps)
        m = object.__new__(cls)
        object.__setattr__(m, "source", source)
        object.__setattr__(m, "target", target)
        object.__setattr__(m, "cell_maps", cell_maps)
        return m

    def image_cells(self, k: int) -> tuple[int, ...]:
        if 0 <= k < len(self.cell_maps):
            return self.cell_maps[k]
        return ()

    def pull_back(self, cochain, q: int):
        """Restrict a degree-q cochain on the target along the inclusion."""
        return tuple(cochain[i] for i in self.image_cells(q))


def _is_sequence(x) -> bool:
    """Indexable with a length (a tuple, list, range or array), not a str or a mapping."""
    return (hasattr(x, "__getitem__") and hasattr(x, "__len__")
            and not isinstance(x, (str, Mapping)))


def empty_subcomplex(target: ChainComplex) -> SubcomplexMap:
    return SubcomplexMap._trusted(ChainComplex._trusted((0,), ()), target, ((),))


def quotient(w: ChainComplex, sub: SubcomplexMap) -> ChainComplex:
    """C(w)/C(sub), whose cohomology is H^*(w, sub): the cells of ``w``
    outside the image of ``sub``, in order, each boundary column restricted
    to them and renumbered (monotonely, so each column stays canonical)."""
    if sub.target != w:
        raise ValueError("subcomplex map does not land in the given complex")
    kept = [sorted(set(range(w.n_cells(k))) - set(sub.image_cells(k)))
            for k in range(w.top_dim + 1)]
    new = [{i: p for p, i in enumerate(cells)} for cells in kept]
    bnds = tuple(tuple(tuple((new[k - 1][i], v) for i, v in w.columns(k)[j] if i in new[k - 1])
                       for j in kept[k])
                 for k in range(1, w.top_dim + 1))
    return ChainComplex._trusted(tuple(len(cells) for cells in kept), bnds)


# ---------------------------------------------------------------------------
# Presets.  Boundary conventions, fixed once and for all:
#   circle        v; e (loop)                      d1 = 0
#   interval      v0, v1; u                        d1(u) = v1 - v0
#   sphere(n>=2)  v; one n-cell                    all d = 0
#   torus(n)      comb(n, k) k-cells of (S^1)^n    all d = 0
#   surface(g)    v; a1,b1,..,ag,bg; f             d = 0 (commutator word)
#   rp(n)         one cell per dim; d_k = 1+(-1)^k  (0, 2, 0, 2, ...)
#   klein         v; a, b; f with word a b a b^-1  d2 = (2, 0)^T
#   disk          v; e (loop); f with word e       d2(f) = e
#   pants         v1, v2, v3; e1, e2, e3 (loops), a: v1->v3, b: v2->v3;
#                 f with word (a^-1 e1 a)(b^-1 e2 b) e3^-1
#                 d2(f) = e1 + e2 - e3; boundary circles are (vi, ei)
# ---------------------------------------------------------------------------


def circle() -> ChainComplex:
    """The standard circle, one shared instance: every boundary circle of a
    bordism is checked against it."""
    return _CIRCLE


_CIRCLE = ChainComplex._trusted((1, 1), (((),),))


def interval() -> ChainComplex:
    return ChainComplex._trusted((2, 1), ((((0, -1), (1, 1)),),))


def sphere(n: int) -> ChainComplex:
    if not 1 <= n <= 5:
        raise ValueError("sphere(n) supports 1 <= n <= 5")
    cells = (1,) + (0,) * (n - 1) + (1,)
    return ChainComplex._trusted(cells, tuple(((),) * c for c in cells[1:]))


def torus(n: int) -> ChainComplex:
    if not 1 <= n <= 5:
        raise ValueError("torus(n) supports 1 <= n <= 5")
    cells = tuple(comb(n, k) for k in range(n + 1))
    return ChainComplex._trusted(cells, tuple(((),) * c for c in cells[1:]))


def surface(g: int) -> ChainComplex:
    if not 0 <= g <= 4:
        raise ValueError("surface(g) supports 0 <= g <= 4")
    # One vertex, 2g loops, one 2-cell along the product of commutators,
    # which abelianizes to zero.
    return ChainComplex._trusted((1, 2 * g, 1), (((),) * (2 * g), ((),)))


def real_projective_space(n: int) -> ChainComplex:
    if not 1 <= n <= 4:
        raise ValueError("rp(n) supports 1 <= n <= 4")
    return ChainComplex._trusted((1,) * (n + 1), tuple(
        (((0, 2),),) if k % 2 == 0 else ((),) for k in range(1, n + 1)))


def klein_bottle() -> ChainComplex:
    return ChainComplex._trusted((1, 2, 1), (((), ()), (((0, 2),),)))


def disk() -> tuple[ChainComplex, SubcomplexMap]:
    """The 2-disk and the inclusion of its boundary circle."""
    cx = ChainComplex._trusted((1, 1, 1), (((),), (((0, 1),),)))
    return cx, SubcomplexMap._trusted(circle(), cx, ((0,), (0,)))


def pants() -> tuple[ChainComplex, tuple[SubcomplexMap, SubcomplexMap, SubcomplexMap]]:
    """The three-holed sphere with its boundary circles exposed.

    Returns (complex, (cuff1, cuff2, waist)).  H^1 is A x A, restricting to
    (x, y) on the cuffs and x + y on the waist.
    """
    d1 = ((), (), (), ((0, -1), (2, 1)), ((1, -1), (2, 1)))
    cx = ChainComplex._trusted((3, 5, 1), (d1, (((0, 1), (1, 1), (2, -1)),)))
    cuff1 = SubcomplexMap._trusted(circle(), cx, ((0,), (0,)))
    cuff2 = SubcomplexMap._trusted(circle(), cx, ((1,), (1,)))
    waist = SubcomplexMap._trusted(circle(), cx, ((2,), (2,)))
    return cx, (cuff1, cuff2, waist)


_PRESETS = {
    "circle": (circle, 0),
    "interval": (interval, 0),
    "sphere": (sphere, 1),
    "torus": (torus, 1),
    "surface": (surface, 1),
    "rp": (real_projective_space, 1),
    "klein": (klein_bottle, 0),
    "disk": (lambda: disk()[0], 0),
    "pants": (lambda: pants()[0], 0),
}


def preset(name: str, *params: int) -> ChainComplex:
    """Named manifold complexes: sphere/torus/surface/rp take one parameter."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}")
    builder, arity = _PRESETS[name]
    if len(params) != arity:
        raise ValueError(f"preset {name!r} takes {arity} parameter(s)")
    return builder(*params)


def product(a: ChainComplex, b: ChainComplex) -> ChainComplex:
    """Tensor-product complex with Koszul signs.

    Degree-k cells are pairs (x, y) with deg x + deg y = k, grouped in
    blocks of increasing deg x, each block ordered by (x index, y index).
    d(x, y) = (dx, y) + (-1)^{deg x} (x, dy), one sparse column per pair,
    canonical as built: the (dx, y) rows come in order before the (x, dy)
    rows, and a pair of empty columns gives an empty one.  A block whose
    two factor degrees have only empty columns is one run of empty columns.
    """
    na, nb, ta, tb = a.cells, b.cells, a.top_dim, b.top_dim
    a_cols, b_cols = (((),) * na[0],) + a.boundaries, (((),) * nb[0],) + b.boundaries
    a_zero, b_zero = [not any(c) for c in a_cols], [not any(c) for c in b_cols]
    # start[i][j]: where the block of pairs of degrees (i, j) starts among
    # the degree-(i + j) cells
    cells, start = [0] * (ta + tb + 1), [[0] * (tb + 1) for _ in range(ta + 1)]
    for i, x in enumerate(na):
        for j, y in enumerate(nb):
            start[i][j] = cells[i + j]
            cells[i + j] += x * y
    bnds = []
    for k in range(1, ta + tb + 1):
        cols = []
        for i in range(max(0, k - tb), min(k, ta) + 1):
            j = k - i
            if a_zero[i] and b_zero[j]:
                cols += ((),) * (na[i] * nb[j])
                continue
            # (dx, y) rows sit in block (i - 1, j), (x, dy) rows in block
            # (i, j - 1); a degree-0 x or y has an empty boundary, so what
            # index -1 reads goes unused
            row_a, row_b, width, width_row = start[i - 1][j], start[i][j - 1], nb[j], nb[j - 1]
            sign = -1 if i % 2 else 1
            for ai, a_col in enumerate(a_cols[i]):
                for bi, b_col in enumerate(b_cols[j]):
                    cols.append(tuple([(row_a + ar * width + bi, v) for ar, v in a_col]
                                      + [(row_b + ai * width_row + br, sign * v)
                                         for br, v in b_col]) if a_col or b_col else ())
        bnds.append(tuple(cols))
    return ChainComplex._trusted(tuple(cells), tuple(bnds))


def disjoint_union(a: ChainComplex, b: ChainComplex) -> ChainComplex:
    """a then b, cell by cell: the glue of a and b along nothing."""
    return glue_complexes(a, b, {})[0]


def glue_complexes(a: ChainComplex, b: ChainComplex, identifications):
    """Pushout identifying cells of ``b`` with cells of ``a``.

    ``identifications[k]`` maps b-cell indices to a-cell indices in degree k,
    an int in 0..top; any other key, value or index raises ValueError.
    Identified cells must form a subcomplex of ``b`` whose boundary data
    matches that of the target a-cells.  Returns (glued complex, b_index_map)
    where b_index_map[k][old_b_index] = index in the glued complex.  The
    identifications need not be injective, so each renumbered b-column is
    merged (``_merged``).
    """
    top = max(a.top_dim, b.top_dim)
    if not isinstance(identifications, Mapping) or any(
            not (isinstance(k, int) and 0 <= k <= top and isinstance(pairs, Mapping))
            or any(not (isinstance(j, int) and isinstance(i, int)
                        and 0 <= j < b.n_cells(k) and 0 <= i < a.n_cells(k))
                   for j, i in pairs.items())
            for k, pairs in identifications.items()):
        raise ValueError("identifications must map b-cells to a-cells of the same degree")
    ident = {k: dict(identifications.get(k, {})) for k in range(top + 1)}
    b_map = []
    cells = []
    for k in range(top + 1):
        fresh = [j for j in range(b.n_cells(k)) if j not in ident[k]]
        new_idx = {j: a.n_cells(k) + p for p, j in enumerate(fresh)} | ident[k]
        b_map.append(tuple(new_idx[j] for j in range(b.n_cells(k))))
        cells.append(a.n_cells(k) + len(fresh))
    bnds = []
    for k in range(1, top + 1):
        b_cols, a_cols = b.columns(k), a.columns(k)
        for j, target in ident[k].items():
            if any(i not in ident[k - 1] for i, _ in b_cols[j]):
                raise ValueError("identified cells are not a subcomplex")
            if _merged((ident[k - 1][i], v) for i, v in b_cols[j]) != a_cols[target]:
                raise ValueError("identification breaks boundary matching")
        bnds.append(a_cols + tuple(_merged((b_map[k - 1][i], v) for i, v in col)
                                   for j, col in enumerate(b_cols) if j not in ident[k]))
    return ChainComplex._trusted(tuple(cells), tuple(bnds)), tuple(b_map)


# ---------------------------------------------------------------------------
# Cohomology.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _CyclicFactor:
    """H^q(C; Z_n) with generator representatives and class coordinates.

    ``coordinates`` checks delta^q x = 0 mod n on the sparse columns
    ``_cocycle`` of d_{q+1}, moves x onto the reduced complex through the
    recorded ``_folds`` (see ``_Reduction``) and then reads class coordinate
    i as the functional ``_coords[i] = (((cell, coeff), ...), step)``: its
    value on a cocycle is divisible by step (n / gcd(d, n) for a pivot of
    invariant factor d, 1 elsewhere), and the quotient taken modulo the
    order is the coordinate.  So ``coordinates`` is a group homomorphism
    from cocycles (mod n) onto prod Z_{orders}, and it maps rep i to e_i.
    """

    n: int
    ncells: int
    orders: tuple[int, ...]
    reps: tuple[tuple[int, ...], ...]
    _cocycle: tuple
    _folds: tuple
    _coords: tuple

    @property
    def order(self) -> int:
        return prod(self.orders)

    def coordinates(self, cochain) -> tuple[int, ...]:
        n = self.n
        x = [int(v) % n for v in cochain]
        if len(x) != self.ncells:
            raise ValueError("cochain length mismatch")
        if any(sum(v * x[i] for i, v in col) % n for col in self._cocycle):
            raise ValueError("not a cocycle mod n")
        for j, p, row in self._folds:
            t = p * x[j]
            for d, v in row:
                x[d] = (x[d] - v * t) % n
        return tuple(sum(v * x[i] for i, v in line) // step % order
                     for (line, step), order in zip(self._coords, self.orders))

    def representative(self, coords) -> tuple[int, ...]:
        if len(coords) != len(self.orders):
            raise ValueError("coordinate length mismatch")
        out = [0] * self.ncells
        for c, rep in zip(coords, self.reps):
            for i, v in enumerate(rep):
                out[i] = (out[i] + c * v) % self.n
        return tuple(out)

    def all_coords(self):
        return iproduct(*(range(f) for f in self.orders))


@dataclass(frozen=True)
class CohomologyGroup:
    """H^q(C; A), one _CyclicFactor per invariant factor of A.

    A degree-q cochain with A coefficients is a tuple of A-elements, one per
    q-cell.  Class labels are tuples of per-factor coordinate tuples.
    """

    degree: int
    coefficients: FiniteAbelianGroup
    group: FiniteAbelianGroup
    factors: tuple[_CyclicFactor, ...]
    ncells: int

    @property
    def order(self) -> int:
        return prod(f.order for f in self.factors)

    def classes(self):
        return iproduct(*(f.all_coords() for f in self.factors))

    def representative(self, label):
        per_factor = [f.representative(coords) for f, coords in zip(self.factors, label)]
        return tuple(
            tuple(vec[i] for vec in per_factor) for i in range(self.ncells)
        )

    def coordinates(self, cochain) -> tuple:
        if len(cochain) != self.ncells:
            raise ValueError("cochain length mismatch")
        return tuple(
            f.coordinates([cell[k] for cell in cochain])
            for k, f in enumerate(self.factors)
        )


def _cyclic_orders(c: int, out_factors, in_factors, n: int) -> list[int]:
    """Orders of the c coordinates of H^q(C; Z_n) (universal coefficients).

    gcd(d_i, n) over the r invariant factors d_i of delta^q, then gcd(e_j, n)
    over the s factors e_j of delta^{q-1}, then n on the c - r - s free ones.
    """
    free = c - len(out_factors) - len(in_factors)
    return [gcd(d, n) for d in out_factors] + [gcd(e, n) for e in in_factors] + [n] * free


def _check_degree(cx: ChainComplex, q: int) -> None:
    if not 0 <= q <= cx.top_dim:
        raise ValueError(f"degree {q} out of range 0..{cx.top_dim}")


def cohomology(cx: ChainComplex, coeffs: FiniteAbelianGroup, q: int) -> CohomologyGroup:
    """H^q(cx; coeffs), exactly, from the complex's unit-pivot reduction and
    two full Smith forms of its residual block, shared by every cyclic
    factor of the coefficients; an empty block needs neither.

    The block is the q-cells that touch a residual entry of delta^q or
    delta^{q-1}; every other kept q-cell is a free Z_n summand with itself
    as representative and its value as coordinate.  On a non-empty block
    the first Smith form is U delta^q V = D, of rank r, with V^-1 started
    as [I | delta^{q-1}].  d o d = 0 puts V^-1 delta^{q-1} on the c - r
    nonpivot rows; the second is of that block W, which has delta^{q-1}'s
    invariant factors, with U_W started as V^-1's nonpivot rows and U_W^-1
    as V's nonpivot columns; the unread U, U^-1 and V_W^-1 start empty.
    Coordinates are diag(I_r, U_W) V^-1, representatives the columns of
    V diag(I_r, U_W^-1), lifted through the recorded pivots.  Each Z_n then
    needs only gcds.
    """
    _check_degree(cx, q)
    red = cx._reduced()
    up, down = red.columns[q + 1], red.columns[q]
    block = sorted({i for col in up.values() for i in col}.union(down))
    inner = sorted({i for col in down.values() for i in col})
    c, e, rows = len(block), len(inner), len(up)
    # per class coordinate, block first and then the free cells: its
    # functional and its lift, sparse
    r, out_factors, in_factors, lines, lifted = 0, (), (), [], []
    if block:
        delta_in = _dense(down, block, inner)
        snf = smith_normal_form_full(
            _dense(up, sorted(up), block), u=IntMatrix._trusted(((),) * rows, rows, 0),
            u_inv=IntMatrix._trusted((), 0, rows), v_inv=IntMatrix._trusted(tuple(
                (0,) * i + (1,) + (0,) * (c - 1 - i) + row for i, row in enumerate(delta_in.data)
            ), c, c + e))
        r, v_inv = snf.rank, snf.v_inv.data
        w = smith_normal_form_full(
            IntMatrix._trusted(tuple(row[c:] for row in v_inv[r:]), c - r, e),
            u=IntMatrix._trusted(tuple(row[:c] for row in v_inv[r:]), c - r, c),
            u_inv=IntMatrix._trusted(tuple(row[r:] for row in snf.v.data), c, c - r),
            v_inv=IntMatrix._trusted(((),) * e, e, 0))
        out_factors, in_factors = snf.diagonal, w.diagonal
        lines = [tuple((i, v) for i, v in zip(block, row) if v) for row in v_inv[:r] + w.u.data]
        lifted = [{i: v for i, v in zip(block, col) if v}
                  for col in tuple(zip(*snf.v.data))[:r] + tuple(zip(*w.u_inv.data))]
    ncells = cx.n_cells(q)
    taken = red.gone.get(q, set()).union(block)
    for i in range(ncells):
        if i not in taken:
            lines.append(((i, 1),))
            lifted.append({i: 1})
    fills = red.fills.get(q, ())
    for x in lifted:
        for i, p, col in reversed(fills):
            x[i] = -p * sum(v * x.get(t, 0) for t, v in col)
    cocycle, folds = cx.columns(q + 1), tuple(red.folds.get(q, ()))
    factors = []
    for n in coeffs.invariant_factors:
        orders, reps, coords = [], [], []
        for i, o in enumerate(_cyclic_orders(c, out_factors, in_factors, n)
                              + [n] * (len(lifted) - c)):
            if o > 1:
                step = n // o if i < r else 1
                rep = [0] * ncells
                for t, v in lifted[i].items():
                    rep[t] = step * v % n
                orders.append(o)
                reps.append(tuple(rep))
                coords.append((lines[i], step))
        factors.append(_CyclicFactor(n, ncells, tuple(orders), tuple(reps), cocycle, folds,
                                     tuple(coords)))
    return CohomologyGroup(
        degree=q,
        coefficients=coeffs,
        group=FiniteAbelianGroup.from_cyclic_orders(o for f in factors for o in f.orders),
        factors=tuple(factors),
        ncells=ncells,
    )


def cohomology_cyclic_orders(cx: ChainComplex, coeffs: FiniteAbelianGroup,
                             q: int) -> list[int]:
    """Orders of cyclic groups whose product is H^q(cx; coeffs), from
    integer invariant factors alone (1s included).

    No transforms and no representatives:
    ``FiniteAbelianGroup.from_cyclic_orders`` of the list is
    ``cohomology(...).group`` at a fraction of the cost.  The complex keeps
    its unit-pivot reduction and the invariant factors of each boundary
    matrix, so every degree and coefficient group of one complex reduces
    it once.
    """
    _check_degree(cx, q)
    factors = (cx.boundary_factors(q + 1), cx.boundary_factors(q))
    return [o for n in coeffs.invariant_factors
            for o in _cyclic_orders(cx.n_cells(q), *factors, n)]


def cohomology_order(cx: ChainComplex, coeffs: FiniteAbelianGroup, q: int) -> int:
    """|H^q(cx; coeffs)|: the product of ``cohomology_cyclic_orders``."""
    return prod(cohomology_cyclic_orders(cx, coeffs, q))


def relative_cohomology(w: ChainComplex, sub: SubcomplexMap, coeffs: FiniteAbelianGroup,
                        q: int) -> CohomologyGroup:
    """H^q(w, sub; coeffs), the cohomology of the quotient complex C(w)/C(sub)."""
    return cohomology(quotient(w, sub), coeffs, q)


@dataclass(frozen=True)
class CohomologyMap:
    """Induced map H^q(target-side) -> H^q(source-side) of a SubcomplexMap,
    as one integer matrix per cyclic coefficient factor acting on class
    coordinates."""

    source: CohomologyGroup
    target: CohomologyGroup
    matrices: tuple[IntMatrix, ...]

    def apply(self, label) -> tuple:
        out = []
        for f_src, f_tgt, mat, coords in zip(
            self.source.factors, self.target.factors, self.matrices, label
        ):
            img = mat.apply_vector(coords)
            out.append(tuple(v % o for v, o in zip(img, f_tgt.orders)))
        return tuple(out)


def restriction_map(
    w: ChainComplex, sub: SubcomplexMap, coeffs: FiniteAbelianGroup, q: int
) -> CohomologyMap:
    """The restriction H^q(w; A) -> H^q(sub; A) on class coordinates."""
    big = cohomology(w, coeffs, q)
    small = cohomology(sub.source, coeffs, q)
    mats = []
    for f_big, f_small in zip(big.factors, small.factors):
        cols = []
        for rep in f_big.reps:
            pulled = sub.pull_back(rep, q)
            cols.append(f_small.coordinates(pulled))
        mats.append(IntMatrix._trusted(
            tuple(tuple(col[i] for col in cols) for i in range(len(f_small.orders))),
            len(f_small.orders), len(f_big.reps)))
    return CohomologyMap(source=big, target=small, matrices=tuple(mats))


# ---------------------------------------------------------------------------
# Brute-force oracle.
# ---------------------------------------------------------------------------


def _cyclic_cocycles(cx: ChainComplex, n: int, q: int):
    """All degree-q cocycles mod n, by exhaustive cochain enumeration."""
    c = cx.n_cells(q)
    check_enum(n**c, what=f"cochain enumeration ({n}^{c})")
    delta = cx.coboundary(q)
    out = []
    for x in iproduct(*(range(n) for _ in range(c))):
        if all(v % n == 0 for v in delta.apply_vector(x)):
            out.append(x)
    return out


def _cyclic_coboundary_group(cx: ChainComplex, n: int, q: int):
    """The subgroup of coboundaries in degree q mod n, by additive closure
    of the columns of delta^{q-1} (no enumeration of C^{q-1} needed)."""
    delta_in = cx.coboundary(q - 1)
    gens = [tuple(v % n for v in col) for col in zip(*delta_in.data)]
    return FiniteAbelianGroup([n] * cx.n_cells(q)).subgroup(gens)


def count_cocycles(cx: ChainComplex, coeffs: FiniteAbelianGroup, q: int) -> int:
    """#Z^q(cx; A) by brute force; independent of the SNF route."""
    total = 1
    for n in coeffs.invariant_factors:
        total *= len(_cyclic_cocycles(cx, n, q))
    return total


def count_coboundaries(cx: ChainComplex, coeffs: FiniteAbelianGroup, q: int) -> int:
    """#B^q(cx; A) by additive closure of the coboundary generators."""
    total = 1
    for n in coeffs.invariant_factors:
        total *= len(_cyclic_coboundary_group(cx, n, q))
    return total


def enumerate_cocycles(cx: ChainComplex, coeffs: FiniteAbelianGroup, q: int):
    """One representative cocycle per cohomology class, exhaustively.

    This is the oracle: it never touches the Smith-normal-form route.
    Representatives are tuples of A-elements, ordered lexicographically.
    """
    per_factor = []
    for n in coeffs.invariant_factors:
        cocycles = _cyclic_cocycles(cx, n, q)
        coboundaries = _cyclic_coboundary_group(cx, n, q)
        reps = []
        covered = set()
        for z in cocycles:
            if z in covered:
                continue
            reps.append(z)
            for b in coboundaries:
                covered.add(tuple((a + v) % n for a, v in zip(z, b)))
        per_factor.append(reps)
    ncells = cx.n_cells(q)
    out = []
    for combo in iproduct(*per_factor):
        out.append(tuple(tuple(vec[i] for vec in combo) for i in range(ncells)))
    return out


def is_closed(cx: ChainComplex) -> bool:
    """Mod-2 closedness test: every component carries a top class.

    For the compact manifold complexes used here, |H^top(M; Z_2)| equals
    |H^0(M; Z_2)| exactly when M has no boundary.
    """
    z2 = FiniteAbelianGroup([2])
    return cohomology_order(cx, z2, cx.top_dim) == cohomology_order(cx, z2, 0)
