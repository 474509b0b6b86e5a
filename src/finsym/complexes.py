"""Finite cell complexes and exact cohomology with finite abelian coefficients.

A ChainComplex stores integer boundary matrices of a finite CW complex.
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
(one-vertex surfaces, standard RP^n); their boundary matrices are spelled
out below so golden tests are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from math import gcd, prod

from .groups import FiniteAbelianGroup
from .intmatrix import IntMatrix, invariant_factors, smith_normal_form_full
from .limits import check_enum


class ChainComplex:
    """Cellular chain complex: cells_per_dim and boundaries d_k: C_k -> C_{k-1}.

    ``boundaries[k-1]`` is the matrix of d_k (rows indexed by (k-1)-cells,
    columns by k-cells), for k = 1..top_dim.  d o d = 0 is checked exactly.
    """

    __slots__ = ("cells", "boundaries", "labels")

    def __init__(self, cells, boundaries, labels=None):
        cells = tuple(int(c) for c in cells)
        if not cells or any(c < 0 for c in cells):
            raise ValueError("cells_per_dim must be nonempty and nonnegative")
        bnds = tuple(boundaries)
        if len(bnds) != len(cells) - 1:
            raise ValueError("need one boundary matrix per dimension 1..top_dim")
        for k, b in enumerate(bnds, start=1):
            if (b.rows, b.cols) != (cells[k - 1], cells[k]):
                raise ValueError(f"boundary {k} has shape {(b.rows, b.cols)}, "
                                 f"expected {(cells[k - 1], cells[k])}")
        for k in range(2, len(cells)):
            if not (bnds[k - 2] * bnds[k - 1]).is_zero():
                raise ValueError(f"d_{k-1} o d_{k} != 0")
        if labels is not None:
            labels = tuple(tuple(l) for l in labels)
            if tuple(len(l) for l in labels) != cells:
                raise ValueError("labels do not match cell counts")
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "boundaries", bnds)
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, name, value):
        raise AttributeError("ChainComplex is immutable")

    @property
    def top_dim(self) -> int:
        return len(self.cells) - 1

    def n_cells(self, k: int) -> int:
        if 0 <= k <= self.top_dim:
            return self.cells[k]
        return 0

    def boundary(self, k: int) -> IntMatrix:
        """d_k: C_k -> C_{k-1} (zero-shaped outside 1..top_dim)."""
        if 1 <= k <= self.top_dim:
            return self.boundaries[k - 1]
        return IntMatrix.zeros(self.n_cells(k - 1), self.n_cells(k))

    def coboundary(self, q: int) -> IntMatrix:
        """delta^q: C^q -> C^{q+1}, the transpose of d_{q+1}."""
        return self.boundary(q + 1).transpose()

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

        return json.dumps(
            {
                "cells": list(self.cells),
                "boundaries": [[list(r) for r in b.data] for b in self.boundaries],
            }
        )

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
    inclusion must literally commute with the boundary matrices, which in
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
            src_b = source.boundary(k)
            tgt_b = target.boundary(k)
            for j in range(source.n_cells(k)):
                image_col = [0] * target.n_cells(k - 1)
                for i in range(source.n_cells(k - 1)):
                    image_col[maps[k - 1][i]] += src_b[i, j]
                for i in range(target.n_cells(k - 1)):
                    if image_col[i] != tgt_b[i, maps[k][j]]:
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
    point_free = ChainComplex((0,), ())
    return SubcomplexMap(point_free, target, ((),))


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
    return ChainComplex((1, 1), (IntMatrix.zeros(1, 1),), labels=(("v",), ("e",)))


def interval() -> ChainComplex:
    return ChainComplex(
        (2, 1), (IntMatrix([[-1], [1]]),), labels=(("v0", "v1"), ("u",))
    )


def sphere(n: int) -> ChainComplex:
    if not 1 <= n <= 5:
        raise ValueError("sphere(n) supports 1 <= n <= 5")
    if n == 1:
        return circle()
    cells = [1] + [0] * (n - 1) + [1]
    bnds = [IntMatrix.zeros(cells[k], cells[k + 1]) for k in range(n)]
    return ChainComplex(cells, bnds)


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
    return ChainComplex(
        (1, 2 * g, 1),
        (IntMatrix.zeros(1, 2 * g), IntMatrix.zeros(2 * g, 1)),
    )


def real_projective_space(n: int) -> ChainComplex:
    if not 1 <= n <= 4:
        raise ValueError("rp(n) supports 1 <= n <= 4")
    cells = [1] * (n + 1)
    bnds = [IntMatrix([[1 + (-1) ** k]]) for k in range(1, n + 1)]
    return ChainComplex(cells, bnds)


def klein_bottle() -> ChainComplex:
    return ChainComplex(
        (1, 2, 1),
        (IntMatrix.zeros(1, 2), IntMatrix([[2], [0]])),
        labels=(("v",), ("a", "b"), ("f",)),
    )


def disk() -> tuple[ChainComplex, SubcomplexMap]:
    """The 2-disk and the inclusion of its boundary circle."""
    cx = ChainComplex(
        (1, 1, 1),
        (IntMatrix.zeros(1, 1), IntMatrix([[1]])),
        labels=(("v",), ("e",), ("f",)),
    )
    return cx, SubcomplexMap(circle(), cx, ((0,), (0,)))


def pants() -> tuple[ChainComplex, tuple[SubcomplexMap, SubcomplexMap, SubcomplexMap]]:
    """The three-holed sphere with its boundary circles exposed.

    Returns (complex, (cuff1, cuff2, waist)).  H^1 is A x A, restricting to
    (x, y) on the cuffs and x + y on the waist.
    """
    cx = ChainComplex(
        (3, 5, 1),
        (
            IntMatrix(
                [
                    [0, 0, 0, -1, 0],
                    [0, 0, 0, 0, -1],
                    [0, 0, 0, 1, 1],
                ]
            ),
            IntMatrix([[1], [1], [-1], [0], [0]]),
        ),
        labels=(("v1", "v2", "v3"), ("e1", "e2", "e3", "a", "b"), ("f",)),
    )
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


def _nonzero_entries(m: IntMatrix) -> list[tuple[int, int, int]]:
    return [(i, j, v) for i, row in enumerate(m.data) for j, v in enumerate(row) if v]


def product(a: ChainComplex, b: ChainComplex) -> ChainComplex:
    """Tensor-product complex with Koszul signs.

    Degree-k cells are pairs (x, y) with deg x + deg y = k, grouped in
    blocks of increasing deg x, each block ordered by (x index, y index).
    d(x, y) = (dx, y) + (-1)^{deg x} (x, dy), built from the nonzero entries
    of the factors' boundaries.
    """
    top = a.top_dim + b.top_dim
    offsets = [_block_offsets(a, b, k) for k in range(top + 1)]
    cells = [off[-1] for off in offsets]
    da = [()] + [_nonzero_entries(m) for m in a.boundaries]
    db = [()] + [_nonzero_entries(m) for m in b.boundaries]
    bnds = []
    for k in range(1, top + 1):
        rows = [[0] * cells[k] for _ in range(cells[k - 1])]
        for i in range(max(0, k - b.top_dim), min(k, a.top_dim) + 1):
            j = k - i
            nb = b.n_cells(j)
            col0 = offsets[k][i]
            if i >= 1:
                row0 = offsets[k - 1][i - 1]
                for ar, ai, coeff in da[i]:
                    for bi in range(nb):
                        rows[row0 + ar * nb + bi][col0 + ai * nb + bi] += coeff
            if j >= 1:
                sign = -1 if i % 2 else 1
                row0 = offsets[k - 1][i]
                nb_row = b.n_cells(j - 1)
                for br, bi, coeff in db[j]:
                    for ai in range(a.n_cells(i)):
                        rows[row0 + ai * nb_row + br][col0 + ai * nb + bi] += sign * coeff
        bnds.append(IntMatrix(rows, rows=cells[k - 1], cols=cells[k]))
    return ChainComplex(cells, bnds)


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
    ident = {k: dict(identifications.get(k, {})) for k in range(top + 1)}
    b_map = []
    cells = []
    for k in range(top + 1):
        new_idx = {}
        pos = a.n_cells(k)
        for j in range(b.n_cells(k)):
            if j in ident[k]:
                new_idx[j] = ident[k][j]
            else:
                new_idx[j] = pos
                pos += 1
        b_map.append(tuple(new_idx[j] for j in range(b.n_cells(k))))
        cells.append(pos)
    for k in range(1, top + 1):
        db = b.boundary(k)
        da = a.boundary(k)
        for j in ident[k]:
            mapped = [0] * a.n_cells(k - 1)
            for i in range(b.n_cells(k - 1)):
                if db[i, j]:
                    if i not in ident[k - 1]:
                        raise ValueError("identified cells are not a subcomplex")
                    mapped[ident[k - 1][i]] += db[i, j]
            for i in range(a.n_cells(k - 1)):
                if mapped[i] != da[i, ident[k][j]]:
                    raise ValueError("identification breaks boundary matching")
    bnds = []
    for k in range(1, top + 1):
        rows = [[0] * cells[k] for _ in range(cells[k - 1])]
        for i, j, v in _nonzero_entries(a.boundary(k)):
            rows[i][j] += v
        for i, j, v in _nonzero_entries(b.boundary(k)):
            if j not in ident[k]:
                rows[b_map[k - 1][i]][b_map[k][j]] += v
        bnds.append(IntMatrix(rows, rows=cells[k - 1], cols=cells[k]))
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


def _block_diag(r: int, u: IntMatrix) -> IntMatrix:
    """diag(I_r, u)."""
    c = r + u.rows
    top = IntMatrix.identity(c).data[:r]
    return IntMatrix(top + tuple((0,) * r + row for row in u.data), rows=c, cols=c)


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
    to_coords = _block_diag(r, w.u) * snf.v_inv
    lifts = snf.v * _block_diag(r, w.u_inv)
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
    """Invariant factors of d_k (equally of delta^{k-1}), reduced once per table."""
    if k not in table:
        table[k] = invariant_factors(cx.boundary(k))
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

    def restrict(matrix, rows_keep, cols_keep):
        return IntMatrix(
            [[matrix[i, j] for j in cols_keep] for i in rows_keep],
            rows=len(rows_keep),
            cols=len(cols_keep),
        )

    kq = kept(q)
    delta_out = restrict(w.coboundary(q), kept(q + 1), kq)
    delta_in = restrict(w.coboundary(q - 1), kq, kept(q - 1))
    return delta_out, delta_in


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
