"""Finite cell complexes and exact cohomology with finite abelian coefficients.

A ChainComplex stores each boundary map of a finite CW complex as sparse
integer columns, the few nonzero entries of each cell's boundary, so that
building, gluing and checking complexes costs their nonzero entries.  A
dense matrix is made in one place only, the coboundary an SNF reduces.
Cohomology with coefficients in A = Z_{n1} x ... x Z_{nk} comes from two
full Smith normal forms over Z per call, of delta^q and of delta^{q-1} in
delta^q's coordinates, shared by every cyclic factor.  By the universal
coefficient theorem each H^q(C; Z_n) is a product of Z_gcd(d, n) over their
invariant factors d and a free Z_n part; generator representatives, exact
class coordinates and induced restriction maps come from the same
transforms.  Where only |H^q| is needed, the same formula runs on invariant
factors alone (``cohomology_order``).  A brute-force cochain enumerator
doubles as the independent oracle for all of this.

Cell structures for the preset manifolds are the minimal standard ones
(one-vertex surfaces, standard RP^n); their boundary columns are spelled
out below so golden tests are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from math import gcd, prod

from .groups import FiniteAbelianGroup
from .intmatrix import IntMatrix, invariant_factors, smith_normal_form_full
from .limits import check_enum


def _column(entries, rows: int) -> tuple[tuple[int, int], ...]:
    """Canonical sparse column: (row, coeff) pairs with rows in range and
    sorted, duplicates summed and zeros dropped."""
    if not entries:
        return ()
    acc = {}
    for i, v in entries:
        if not 0 <= i < rows:
            raise ValueError(f"boundary row {i} out of range 0..{rows - 1}")
        acc[i] = acc.get(i, 0) + int(v)
    return tuple((i, acc[i]) for i in sorted(acc) if acc[i])


def _coboundary_matrix(columns, kept) -> IntMatrix:
    """Dense coboundary whose row j is the sparse boundary column
    ``columns[j]`` restricted to the cells ``kept``, in that order.

    This is the one place a complex becomes an IntMatrix.
    """
    position = {i: p for p, i in enumerate(kept)}
    rows = []
    for col in columns:
        row = [0] * len(position)
        for i, v in col:
            if i in position:
                row[position[i]] = v
        rows.append(row)
    return IntMatrix(rows, rows=len(rows), cols=len(position))


class ChainComplex:
    """Cellular chain complex: cells_per_dim and boundaries d_k: C_k -> C_{k-1}.

    ``boundaries[k-1][j]`` is the boundary of the j-th k-cell, the canonical
    nonzero entries (row, coeff) of column j of d_k, for k = 1..top_dim.
    Each degree may be given as such columns (in any order, with duplicates
    or zeros) or as an IntMatrix; either is stored as canonical columns.
    d o d = 0 is checked exactly, over the nonzero entries.
    """

    __slots__ = ("cells", "boundaries")

    def __init__(self, cells, boundaries):
        cells = tuple(int(c) for c in cells)
        if not cells or any(c < 0 for c in cells):
            raise ValueError("cells_per_dim must be nonempty and nonnegative")
        given = tuple(boundaries)
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
        for k in range(2, len(cells)):
            lower = bnds[k - 2]
            for col in bnds[k - 1]:
                if _column(((h, v * w) for i, v in col for h, w in lower[i]), cells[k - 2]):
                    raise ValueError(f"d_{k-1} o d_{k} != 0")
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "boundaries", tuple(bnds))

    def __setattr__(self, name, value):
        raise AttributeError("ChainComplex is immutable")

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

    def boundary(self, k: int) -> IntMatrix:
        """d_k: C_k -> C_{k-1} (zero-shaped outside 1..top_dim)."""
        return self.coboundary(k - 1).transpose()

    def coboundary(self, q: int) -> IntMatrix:
        """delta^q: C^q -> C^{q+1}, the transpose of d_{q+1}."""
        return _coboundary_matrix(self.columns(q + 1), range(self.n_cells(q)))

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * c for k, c in enumerate(self.cells))

    def __eq__(self, other):
        if not isinstance(other, ChainComplex):
            return NotImplemented
        return (self.cells, self.boundaries) == (other.cells, other.boundaries)

    def __repr__(self):
        return f"ChainComplex(cells={self.cells})"

    def to_json(self) -> str:
        import json

        bnds = [[list(r) for r in self.boundary(k).data] for k in range(1, len(self.cells))]
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


class SubcomplexMap:
    """Inclusion of a subcomplex, as per-degree injective cell-index maps.

    ``cell_maps[k][i]`` is the target index of the i-th source k-cell.  The
    inclusion must literally commute with the boundaries, which in
    particular forces the image to be closed under taking boundaries.
    """

    __slots__ = ("source", "target", "cell_maps")

    def __init__(self, source: ChainComplex, target: ChainComplex, cell_maps):
        maps = []
        for k in range(source.top_dim + 1):
            m = tuple(int(i) for i in (cell_maps[k] if k < len(cell_maps) else ()))
            if len(m) != source.n_cells(k):
                raise ValueError(f"degree {k} map has wrong length")
            if len(set(m)) != len(m):
                raise ValueError(f"degree {k} map is not injective")
            if any(not 0 <= i < target.n_cells(k) for i in m):
                raise ValueError(f"degree {k} map goes out of range")
            maps.append(m)
        for k in range(1, source.top_dim + 1):
            tgt = target.columns(k)
            for j, col in enumerate(source.columns(k)):
                # injective maps keep a canonical column's rows distinct
                if tuple(sorted((maps[k - 1][i], v) for i, v in col)) != tgt[maps[k][j]]:
                    raise ValueError("inclusion does not commute with boundaries")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "cell_maps", tuple(maps))

    def __setattr__(self, name, value):
        raise AttributeError("SubcomplexMap is immutable")

    def image_cells(self, k: int) -> tuple[int, ...]:
        if 0 <= k < len(self.cell_maps):
            return self.cell_maps[k]
        return ()

    def pull_back(self, cochain, q: int):
        """Restrict a degree-q cochain on the target along the inclusion."""
        return tuple(cochain[i] for i in self.image_cells(q))


def empty_subcomplex(target: ChainComplex) -> SubcomplexMap:
    return SubcomplexMap(ChainComplex((0,), ()), target, ((),))


# ---------------------------------------------------------------------------
# Presets.  Boundary conventions, fixed once and for all:
#   circle        v; e (loop)                      d1 = 0
#   interval      v0, v1; u                        d1(u) = v1 - v0
#   sphere(n>=2)  v; one n-cell                    all d = 0
#   surface(g)    v; a1,b1,..,ag,bg; f             d = 0 (commutator word)
#   rp(n)         one cell per dim; d_k = 1+(-1)^k  (0, 2, 0, 2, ...)
#   klein         v; a, b; f with word a b a b^-1  d2 = (2, 0)^T
#   disk          v; e (loop); f with word e       d2(f) = e
#   pants         v1, v2, v3; e1, e2, e3 (loops), a: v1->v3, b: v2->v3;
#                 f with word (a^-1 e1 a)(b^-1 e2 b) e3^-1
#                 d2(f) = e1 + e2 - e3; boundary circles are (vi, ei)
# ---------------------------------------------------------------------------


def circle() -> ChainComplex:
    return ChainComplex((1, 1), ([()],))


def interval() -> ChainComplex:
    return ChainComplex((2, 1), ([((0, -1), (1, 1))],))


def sphere(n: int) -> ChainComplex:
    if not 1 <= n <= 5:
        raise ValueError("sphere(n) supports 1 <= n <= 5")
    if n == 1:
        return circle()
    cells = [1] + [0] * (n - 1) + [1]
    return ChainComplex(cells, [[()] * c for c in cells[1:]])


def torus(n: int) -> ChainComplex:
    if not 1 <= n <= 5:
        raise ValueError("torus(n) supports 1 <= n <= 5")
    out = circle()
    for _ in range(n - 1):
        out = product(out, circle())
    return out


def surface(g: int) -> ChainComplex:
    if not 0 <= g <= 4:
        raise ValueError("surface(g) supports 0 <= g <= 4")
    if g == 0:
        return sphere(2)
    # One vertex, 2g loops, one 2-cell along the product of commutators,
    # which abelianizes to zero.
    return ChainComplex((1, 2 * g, 1), ([()] * (2 * g), [()]))


def real_projective_space(n: int) -> ChainComplex:
    if not 1 <= n <= 4:
        raise ValueError("rp(n) supports 1 <= n <= 4")
    return ChainComplex([1] * (n + 1), [[((0, 1 + (-1) ** k),)] for k in range(1, n + 1)])


def klein_bottle() -> ChainComplex:
    return ChainComplex((1, 2, 1), ([(), ()], [((0, 2),)]))


def disk() -> tuple[ChainComplex, SubcomplexMap]:
    """The 2-disk and the inclusion of its boundary circle."""
    cx = ChainComplex((1, 1, 1), ([()], [((0, 1),)]))
    return cx, SubcomplexMap(circle(), cx, ((0,), (0,)))


def pants() -> tuple[ChainComplex, tuple[SubcomplexMap, SubcomplexMap, SubcomplexMap]]:
    """The three-holed sphere with its boundary circles exposed.

    Returns (complex, (cuff1, cuff2, waist)).  H^1 is A x A, restricting to
    (x, y) on the cuffs and x + y on the waist.
    """
    d1 = [(), (), (), ((0, -1), (2, 1)), ((1, -1), (2, 1))]
    cx = ChainComplex((3, 5, 1), (d1, [((0, 1), (1, 1), (2, -1))]))
    cuff1 = SubcomplexMap(circle(), cx, ((0,), (0,)))
    cuff2 = SubcomplexMap(circle(), cx, ((1,), (1,)))
    waist = SubcomplexMap(circle(), cx, ((2,), (2,)))
    return cx, (cuff1, cuff2, waist)


_PRESETS = {
    "circle": (lambda: circle(), 0),
    "interval": (lambda: interval(), 0),
    "sphere": (sphere, 1),
    "torus": (torus, 1),
    "surface": (surface, 1),
    "rp": (real_projective_space, 1),
    "klein": (lambda: klein_bottle(), 0),
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


def _block_offsets(a: ChainComplex, b: ChainComplex, k: int) -> list[int]:
    """Start of each deg-x block among the degree-k cells of a x b; the last
    entry is the number of degree-k cells."""
    out = [0]
    for i in range(k + 1):
        out.append(out[-1] + a.n_cells(i) * b.n_cells(k - i))
    return out


def product(a: ChainComplex, b: ChainComplex) -> ChainComplex:
    """Tensor-product complex with Koszul signs.

    Degree-k cells are pairs (x, y) with deg x + deg y = k, grouped in
    blocks of increasing deg x, each block ordered by (x index, y index).
    d(x, y) = (dx, y) + (-1)^{deg x} (x, dy), one sparse column per pair.
    """
    top = a.top_dim + b.top_dim
    offsets = [_block_offsets(a, b, k) for k in range(top + 1)]
    bnds = []
    for k in range(1, top + 1):
        cols = []
        for i in range(max(0, k - b.top_dim), min(k, a.top_dim) + 1):
            j = k - i
            nb, nb_row = b.n_cells(j), b.n_cells(j - 1)
            # (dx, y) rows sit in block i - 1, (x, dy) rows in block i; a
            # degree-0 x has an empty boundary, so block -1 is never read
            row_a, row_b = offsets[k - 1][i - 1], offsets[k - 1][i]
            sign = -1 if i % 2 else 1
            for ai, a_col in enumerate(a.columns(i)):
                for bi, b_col in enumerate(b.columns(j)):
                    cols.append([(row_a + ar * nb + bi, v) for ar, v in a_col]
                                + [(row_b + ai * nb_row + br, sign * v) for br, v in b_col])
        bnds.append(cols)
    return ChainComplex([off[-1] for off in offsets], bnds)


def product_cell_index(a: ChainComplex, b: ChainComplex, k: int, i: int,
                       a_idx: int, b_idx: int) -> int:
    """Index of the cell (a_idx in degree i) x (b_idx in degree k-i)."""
    return _block_offsets(a, b, k)[i] + a_idx * b.n_cells(k - i) + b_idx


def disjoint_union(a: ChainComplex, b: ChainComplex) -> ChainComplex:
    """a then b, cell by cell: the glue of a and b along nothing."""
    return glue_complexes(a, b, {})[0]


def glue_complexes(a: ChainComplex, b: ChainComplex, identifications):
    """Pushout identifying cells of ``b`` with cells of ``a``.

    ``identifications[k]`` maps b-cell indices to a-cell indices in degree k.
    Identified cells must form a subcomplex of ``b`` whose boundary data
    matches that of the target a-cells.  Returns (glued complex, b_index_map)
    where b_index_map[k][old_b_index] = index in the glued complex.
    """
    top = max(a.top_dim, b.top_dim)
    if any(not (0 <= j < b.n_cells(k) and 0 <= i < a.n_cells(k))
           for k, pairs in identifications.items() for j, i in pairs.items()):
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
            mapped = _column(((ident[k - 1][i], v) for i, v in b_cols[j]), cells[k - 1])
            if mapped != a_cols[target]:
                raise ValueError("identification breaks boundary matching")
        bnds.append(list(a_cols) + [[(b_map[k - 1][i], v) for i, v in col]
                                    for j, col in enumerate(b_cols) if j not in ident[k]])
    return ChainComplex(cells, bnds), tuple(b_map)


# ---------------------------------------------------------------------------
# Cohomology.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _CyclicFactor:
    """H^q(C; Z_n) with generator representatives and class coordinates.

    ``_coords`` is diag(I_r, U_W) V^-1, shared by every n: V is the column
    transform of delta^q's Smith form (rank r), U_W the row transform of the
    Smith form of W (see ``_cohomology_group``).
    Coordinate i of a cocycle is divisible by ``_steps[i]`` (n / gcd(d_i, n)
    on the r pivot rows, 1 elsewhere); its class coordinate is the quotient
    modulo the order, so ``coordinates`` is a group homomorphism from
    cocycles (mod n) onto prod Z_{orders}.
    """

    n: int
    ncells: int
    orders: tuple[int, ...]
    reps: tuple[tuple[int, ...], ...]
    _coords: IntMatrix
    _steps: tuple[int, ...]
    _kept: tuple[int, ...]

    @property
    def order(self) -> int:
        return prod(self.orders)

    def coordinates(self, cochain) -> tuple[int, ...]:
        x = tuple(int(v) % self.n for v in cochain)
        if len(x) != self.ncells:
            raise ValueError("cochain length mismatch")
        y = self._coords.apply_vector(x)
        if any(yi % s for yi, s in zip(y, self._steps)):
            raise ValueError("not a cocycle mod n")
        return tuple(y[i] // self._steps[i] % f for i, f in zip(self._kept, self.orders))

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

    def zero_class(self):
        return tuple((0,) * len(f.orders) for f in self.factors)

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

    def generator_cochains(self):
        """(order, representative cochain) for each cyclic generator."""
        out = []
        for k, f in enumerate(self.factors):
            for order, rep in zip(f.orders, f.reps):
                cochain = tuple(
                    tuple(rep[i] if kk == k else 0 for kk in range(len(self.factors)))
                    for i in range(self.ncells)
                )
                out.append((order, cochain))
        return out


def _cyclic_orders(c: int, out_factors, in_factors, n: int) -> list[int]:
    """Orders of the c coordinates of H^q(C; Z_n) (universal coefficients).

    gcd(d_i, n) over the r invariant factors d_i of delta^q, then gcd(e_j, n)
    over the s factors e_j of delta^{q-1}, then n on the c - r - s free ones.
    """
    free = c - len(out_factors) - len(in_factors)
    return [gcd(d, n) for d in out_factors] + [gcd(e, n) for e in in_factors] + [n] * free


def _cohomology_group(q, coeffs, delta_out, delta_in) -> CohomologyGroup:
    """Two full Smith forms, shared by every cyclic factor of A.

    The first is U delta^q V = D, of rank r.  d o d = 0 puts the columns of
    delta^{q-1} in V-coordinates on the c - r nonpivot rows; the second
    Smith form is of that block W, which has delta^{q-1}'s invariant
    factors.  Each factor Z_n then needs only gcds (``_cyclic_orders``).
    """
    if delta_in.rows != delta_out.cols:
        raise ValueError("cochain rank mismatch between coboundaries")
    c = delta_out.cols
    snf = smith_normal_form_full(delta_out)
    r = snf.rank
    images = snf.v_inv * delta_in
    if any(any(row) for row in images.data[:r]):
        raise ValueError("coboundary is not a cocycle; broken complex")
    w = smith_normal_form_full(IntMatrix(images.data[r:], rows=c - r, cols=images.cols))
    # diag(I_r, U_W) V^-1 and V diag(I_r, U_W^-1): only the c - r nonpivot
    # rows of V^-1 and columns of V change
    v_inv, v = snf.v_inv.data, snf.v.data
    to_coords = IntMatrix(v_inv[:r] + (w.u * IntMatrix(v_inv[r:], rows=c - r, cols=c)).data,
                          rows=c, cols=c)
    tails = IntMatrix([row[r:] for row in v], rows=c, cols=c - r) * w.u_inv
    lifts = IntMatrix([row[:r] + t for row, t in zip(v, tails.data)], rows=c, cols=c)
    factors = []
    for n in coeffs.invariant_factors:
        orders = _cyclic_orders(c, snf.diagonal, w.diagonal, n)
        steps = tuple(n // o if i < r else 1 for i, o in enumerate(orders))
        kept = tuple(i for i, o in enumerate(orders) if o > 1)
        reps = tuple(tuple(steps[i] * v % n for v in lifts.column(i)) for i in kept)
        kept_orders = tuple(orders[i] for i in kept)
        factors.append(_CyclicFactor(n, c, kept_orders, reps, to_coords, steps, kept))
    return CohomologyGroup(
        degree=q,
        coefficients=coeffs,
        group=FiniteAbelianGroup.from_cyclic_orders(o for f in factors for o in f.orders),
        factors=tuple(factors),
        ncells=c,
    )


def _check_degree(cx: ChainComplex, q: int) -> None:
    if not 0 <= q <= cx.top_dim:
        raise ValueError(f"degree {q} out of range 0..{cx.top_dim}")


def cohomology(cx: ChainComplex, coeffs: FiniteAbelianGroup, q: int) -> CohomologyGroup:
    """H^q(cx; coeffs), exactly, from two Smith forms shared by every cyclic
    factor of the coefficients."""
    _check_degree(cx, q)
    return _cohomology_group(q, coeffs, cx.coboundary(q), cx.coboundary(q - 1))


def _order(ncells: int, out_factors, in_factors, coeffs: FiniteAbelianGroup) -> int:
    """|H^q(C; A)| from the invariant factors of delta^q and delta^{q-1}:
    the product of ``_cyclic_orders`` over the cyclic factors Z_n of A."""
    return prod(
        prod(_cyclic_orders(ncells, out_factors, in_factors, n))
        for n in coeffs.invariant_factors
    )


def _boundary_factors(cx: ChainComplex, k: int, table: dict) -> tuple[int, ...]:
    """Invariant factors of d_k, read off delta^{k-1}, reduced once per table."""
    if k not in table:
        table[k] = invariant_factors(cx.coboundary(k - 1))
    return table[k]


def cohomology_order(
    cx: ChainComplex, coeffs: FiniteAbelianGroup, q: int, boundary_factors=None
) -> int:
    """|H^q(cx; coeffs)| from integer invariant factors alone.

    No transforms and no representatives: equal to ``cohomology(...).order``
    at a fraction of the cost.  A caller that needs several orders of one
    complex passes one dict as ``boundary_factors`` to every call, so each
    boundary matrix is reduced once for all degrees and coefficients.
    """
    _check_degree(cx, q)
    table = {} if boundary_factors is None else boundary_factors
    return _order(
        cx.n_cells(q),
        _boundary_factors(cx, q + 1, table),
        _boundary_factors(cx, q, table),
        coeffs,
    )


def _relative_coboundaries(w: ChainComplex, sub: SubcomplexMap, q: int):
    """delta^q and delta^{q-1} of the subcomplex-vanishing cochain complex."""
    if sub.target != w:
        raise ValueError("subcomplex map does not land in the given complex")
    _check_degree(w, q)

    def kept(k):
        excluded = set(sub.image_cells(k))
        return [i for i in range(w.n_cells(k)) if i not in excluded]

    def coboundary(k):
        columns = w.columns(k + 1)
        return _coboundary_matrix([columns[j] for j in kept(k + 1)], kept(k))

    return coboundary(q), coboundary(q - 1)


def relative_cohomology(
    w: ChainComplex, sub: SubcomplexMap, coeffs: FiniteAbelianGroup, q: int
) -> CohomologyGroup:
    """H^q(w, sub; coeffs): cohomology of cochains vanishing on the subcomplex."""
    delta_out, delta_in = _relative_coboundaries(w, sub, q)
    return _cohomology_group(q, coeffs, delta_out, delta_in)


def relative_cohomology_order(
    w: ChainComplex, sub: SubcomplexMap, coeffs: FiniteAbelianGroup, q: int
) -> int:
    """|H^q(w, sub; coeffs)| from the invariant factors of the restricted
    coboundaries; equal to ``relative_cohomology(...).order``."""
    delta_out, delta_in = _relative_coboundaries(w, sub, q)
    return _order(
        delta_out.cols, invariant_factors(delta_out), invariant_factors(delta_in), coeffs
    )


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

    def is_isomorphism(self) -> bool:
        if self.source.order != self.target.order:
            return False
        seen = {self.apply(lbl) for lbl in self.source.classes()}
        return len(seen) == self.source.order


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
        mats.append(
            IntMatrix(
                [[col[i] for col in cols] for i in range(len(f_small.orders))],
                rows=len(f_small.orders),
                cols=len(f_big.reps),
            )
        )
    return CohomologyMap(source=big, target=small, matrices=tuple(mats))


# ---------------------------------------------------------------------------
# Brute-force oracle.
# ---------------------------------------------------------------------------


def _cyclic_cocycles(cx: ChainComplex, n: int, q: int, limit=None):
    """All degree-q cocycles mod n, by exhaustive cochain enumeration."""
    c = cx.n_cells(q)
    check_enum(n**c, limit, what=f"cochain enumeration ({n}^{c})")
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
    gens = [tuple(v % n for v in delta_in.column(j)) for j in range(delta_in.cols)]
    return FiniteAbelianGroup([n] * cx.n_cells(q)).subgroup(gens)


def count_cocycles(cx: ChainComplex, coeffs: FiniteAbelianGroup, q: int, limit=None) -> int:
    """#Z^q(cx; A) by brute force; independent of the SNF route."""
    total = 1
    for n in coeffs.invariant_factors:
        total *= len(_cyclic_cocycles(cx, n, q, limit))
    return total


def count_coboundaries(cx: ChainComplex, coeffs: FiniteAbelianGroup, q: int) -> int:
    """#B^q(cx; A) by additive closure of the coboundary generators."""
    total = 1
    for n in coeffs.invariant_factors:
        total *= len(_cyclic_coboundary_group(cx, n, q))
    return total


def enumerate_cocycles(cx: ChainComplex, coeffs: FiniteAbelianGroup, q: int, limit=None):
    """One representative cocycle per cohomology class, exhaustively.

    This is the oracle: it never touches the Smith-normal-form route.
    Representatives are tuples of A-elements, ordered lexicographically.
    """
    per_factor = []
    for n in coeffs.invariant_factors:
        cocycles = _cyclic_cocycles(cx, n, q, limit)
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


def is_closed(cx: ChainComplex, boundary_factors=None) -> bool:
    """Mod-2 closedness test: every component carries a top class.

    For the compact manifold complexes used here, |H^top(M; Z_2)| equals
    |H^0(M; Z_2)| exactly when M has no boundary.  ``boundary_factors`` is
    shared with ``cohomology_order``.
    """
    z2 = FiniteAbelianGroup([2])
    table = {} if boundary_factors is None else boundary_factors
    return cohomology_order(cx, z2, cx.top_dim, table) == cohomology_order(cx, z2, 0, table)
