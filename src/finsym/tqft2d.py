"""Functorial 2d finite gauge theory for a finite abelian group (d=2, p=0).

State spaces are spanned by H^1 of the boundary circles; a bordism W acts
with matrix entries

    c(W) * #{ a in H^1(W; A) : a restricts to the given classes }

with the normalization c(W) = 1 / |H^0(W, in-boundary; A)|.  Restriction to
the boundary circles, r: H^1(W; A) -> A^{out} x A^{in}, is a homomorphism,
so that count is |ker r| * [label in im r], read off im r.  The naive
alternating-product constant applied to closed W breaks the trace identity
Z(M x S^1) = Tr Z(M x I) (it would give 8 instead of 2 for the torus with
A = Z_2); the relative-H^0 normalization is the one validated by the
cylinder-identity and trace oracles below.

Bordisms are (complex, in-circles, out-circles) triples.  Composites exist
in two flavors: ``compose`` multiplies matrices (the formal composite),
``glue`` actually glues the cell complexes.  Closed-surface scalars come
from glued or preset closed complexes and match the surface bundle counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import complexes
from .complexes import (
    ChainComplex,
    SubcomplexMap,
    cohomology,
    disjoint_union,
    glue_complexes,
    product,
    product_cell_index,
    relative_cohomology_order,
)
from .groups import FiniteAbelianGroup
from .limits import check_enum


@dataclass(frozen=True)
class Bordism:
    """A 2d bordism with ordered in/out boundary circles.

    Every boundary circle is a standard one-vertex circle included as a
    subcomplex; that pins H^1(S^1; Z_n) = Z_n with the edge value as the
    canonical coordinate.
    """

    w: ChainComplex
    in_circles: tuple[SubcomplexMap, ...]
    out_circles: tuple[SubcomplexMap, ...]

    def __post_init__(self):
        for m in self.in_circles + self.out_circles:
            if m.target != self.w:
                raise ValueError("boundary map does not land in the bordism")
            if m.source != complexes.circle():
                raise ValueError("boundary components must be standard circles")


class StateSpace:
    """C-span of H^1 of a disjoint union of circles: basis = A^r, ordered
    lexicographically by the tuple of A-values."""

    __slots__ = ("group", "circles", "basis", "_index")

    def __init__(self, group: FiniteAbelianGroup, circles: int):
        if circles < 0:
            raise ValueError("circle count must be >= 0")
        check_enum(group.order**circles, what="state space basis")
        basis = [()]
        for _ in range(circles):
            basis = [b + (a,) for b in basis for a in group.elements()]
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "circles", circles)
        object.__setattr__(self, "basis", tuple(basis))
        object.__setattr__(self, "_index", {b: i for i, b in enumerate(basis)})

    def __setattr__(self, name, value):
        raise AttributeError("StateSpace is immutable")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def boundary_complex(self) -> ChainComplex:
        """The disjoint union of standard circles this space lives on."""
        return _circles(self.circles)

    def index(self, label) -> int:
        return self._index[tuple(tuple(a) for a in label)]

    def __eq__(self, other):
        if not isinstance(other, StateSpace):
            return NotImplemented
        return (self.group, self.circles) == (other.group, other.circles)

    def __repr__(self):
        return f"StateSpace({self.group}, circles={self.circles})"


@dataclass(frozen=True)
class BordismMatrix:
    source: StateSpace
    target: StateSpace
    entries: tuple[tuple[Fraction, ...], ...]  # rows: out labels, cols: in labels

    def __post_init__(self):
        if len(self.entries) != self.target.dim:
            raise ValueError("row count mismatch")
        if any(len(r) != self.source.dim for r in self.entries):
            raise ValueError("column count mismatch")
        if any(x.numerator < 0 for row in self.entries for x in row):
            raise ValueError("bordism matrices have nonnegative entries")

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def scalar(self) -> Fraction:
        if self.source.dim != 1 or self.target.dim != 1:
            raise ValueError("not a closed bordism")
        return self.entries[0][0]

    def trace(self) -> Fraction:
        if self.source != self.target:
            raise ValueError("trace needs equal source and target")
        return sum((self.entries[i][i] for i in range(self.source.dim)), Fraction(0))

    def is_identity(self) -> bool:
        return self.source == self.target and all(
            self.entries[i][j] == (1 if i == j else 0)
            for i in range(self.target.dim)
            for j in range(self.source.dim)
        )


def compose(outer: BordismMatrix, inner: BordismMatrix) -> BordismMatrix:
    """Formal composite: the matrix product outer o inner."""
    if inner.target != outer.source:
        raise ValueError("bordism matrices do not compose")
    rows = []
    for i in range(outer.target.dim):
        row = []
        for j in range(inner.source.dim):
            row.append(
                sum(
                    (outer.entries[i][k] * inner.entries[k][j]
                     for k in range(outer.source.dim)),
                    Fraction(0),
                )
            )
        rows.append(tuple(row))
    return BordismMatrix(inner.source, outer.target, tuple(rows))


def tensor(a: BordismMatrix, b: BordismMatrix) -> BordismMatrix:
    """Disjoint union of bordisms: Kronecker product in the lexicographic
    basis of concatenated circle labels."""
    if a.source.group != b.source.group:
        raise ValueError("coefficient groups differ")
    src = StateSpace(a.source.group, a.source.circles + b.source.circles)
    tgt = StateSpace(a.target.group, a.target.circles + b.target.circles)
    rows = []
    for i1 in range(a.target.dim):
        for i2 in range(b.target.dim):
            row = []
            for j1 in range(a.source.dim):
                for j2 in range(b.source.dim):
                    row.append(a.entries[i1][j1] * b.entries[i2][j2])
            rows.append(tuple(row))
    return BordismMatrix(src, tgt, tuple(rows))


def identity_matrix(group: FiniteAbelianGroup, circles: int) -> BordismMatrix:
    space = StateSpace(group, circles)
    rows = tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(space.dim))
        for i in range(space.dim)
    )
    return BordismMatrix(space, space, rows)


# ---------------------------------------------------------------------------
# Bordism presets.
# ---------------------------------------------------------------------------


def cylinder() -> Bordism:
    cx = product(complexes.circle(), complexes.interval())
    c = complexes.circle()
    # End circles are (v, interval vertex i) and (e, interval vertex i).
    ends = []
    for i in (0, 1):
        v = product_cell_index(c, complexes.interval(), 0, 0, 0, i)
        e = product_cell_index(c, complexes.interval(), 1, 1, 0, i)
        ends.append(SubcomplexMap(c, cx, ((v,), (e,))))
    return Bordism(cx, (ends[0],), (ends[1],))


def pants_bordism() -> Bordism:
    """Two in-circles (the cuffs) merging into one out-circle (the waist)."""
    cx, (cuff1, cuff2, waist) = complexes.pants()
    return Bordism(cx, (cuff1, cuff2), (waist,))


def copants_bordism() -> Bordism:
    """One in-circle splitting into two out-circles."""
    cx, (cuff1, cuff2, waist) = complexes.pants()
    return Bordism(cx, (waist,), (cuff1, cuff2))


def cap() -> Bordism:
    """The disk as a bordism from nothing to its boundary circle."""
    cx, boundary = complexes.disk()
    return Bordism(cx, (), (boundary,))


def cup() -> Bordism:
    """The disk as a bordism from its boundary circle to nothing."""
    cx, boundary = complexes.disk()
    return Bordism(cx, (boundary,), ())


def closed_surface(genus: int) -> Bordism:
    return Bordism(complexes.surface(genus), (), ())


def closed_torus() -> Bordism:
    return Bordism(complexes.torus(2), (), ())


_SHAPES = {
    "cylinder": cylinder,
    "pants": pants_bordism,
    "copants": copants_bordism,
    "cap": cap,
    "cup": cup,
    "torus": closed_torus,
    "sphere": lambda: closed_surface(0),
}


def bordism_preset(shape: str) -> Bordism:
    if shape not in _SHAPES:
        raise ValueError(f"unsupported bordism shape {shape!r}")
    return _SHAPES[shape]()


def _circle_at(cx: ChainComplex, m: SubcomplexMap, cell_map=None) -> SubcomplexMap:
    """Boundary circle ``m`` carried into ``cx`` by ``cell_map`` (None keeps
    its cell indices)."""
    v, e = m.cell_maps[0][0], m.cell_maps[1][0]
    if cell_map is not None:
        v, e = cell_map[0][v], cell_map[1][e]
    return SubcomplexMap(complexes.circle(), cx, ((v,), (e,)))


def bordism_union(a: Bordism, b: Bordism) -> Bordism:
    """Disjoint union of two bordisms; circle lists concatenate in order."""
    cx, b_map = glue_complexes(a.w, b.w, {})
    ins = [_circle_at(cx, m) for m in a.in_circles]
    ins += [_circle_at(cx, m, b_map) for m in b.in_circles]
    outs = [_circle_at(cx, m) for m in a.out_circles]
    outs += [_circle_at(cx, m, b_map) for m in b.out_circles]
    return Bordism(cx, tuple(ins), tuple(outs))


def glue(first: Bordism, second: Bordism) -> Bordism:
    """Geometric composite: glue out-circles of ``first`` to in-circles of
    ``second``, in order.  The result is again a bordism."""
    if len(first.out_circles) != len(second.in_circles):
        raise ValueError("boundary circle counts do not match")
    ident = {0: {}, 1: {}}
    for out_map, in_map in zip(first.out_circles, second.in_circles):
        ident[0][in_map.cell_maps[0][0]] = out_map.cell_maps[0][0]
        ident[1][in_map.cell_maps[1][0]] = out_map.cell_maps[1][0]
    glued, b_map = glue_complexes(first.w, second.w, ident)
    ins = tuple(_circle_at(glued, m) for m in first.in_circles)
    outs = tuple(_circle_at(glued, m, b_map) for m in second.out_circles)
    return Bordism(glued, ins, outs)


# ---------------------------------------------------------------------------
# Evaluation.
# ---------------------------------------------------------------------------


def _circles(r: int) -> ChainComplex:
    """The disjoint union of r standard circles (the empty complex if r = 0)."""
    return ChainComplex((r, r), ([()] * r,)) if r else ChainComplex((0,), ())


def _in_boundary_subcomplex(b: Bordism) -> SubcomplexMap:
    """All in-circles merged into one SubcomplexMap."""
    deg0 = tuple(m.cell_maps[0][0] for m in b.in_circles)
    deg1 = tuple(m.cell_maps[1][0] for m in b.in_circles)
    return SubcomplexMap(_circles(len(b.in_circles)), b.w, (deg0, deg1))


def normalization_constant(b: Bordism, group: FiniteAbelianGroup) -> Fraction:
    """c(W) = 1 / |H^0(W, in-boundary; A)|."""
    return Fraction(
        1, relative_cohomology_order(b.w, _in_boundary_subcomplex(b), group, 0)
    )


def bordism_matrix(b: Bordism, group: FiniteAbelianGroup) -> BordismMatrix:
    """Entry (A_out, A_in) = c(W) * #{classes restricting as prescribed}.

    Restriction r to the boundary edges (out circles, then in circles) is a
    homomorphism, so the count is |ker r| * [label in im r] with |ker r| =
    |H^1| / |im r|, taken per cyclic factor of A.  Restricting generator
    representatives is well defined because a coboundary vanishes on the
    one-vertex boundary loops.
    """
    source = StateSpace(group, len(b.in_circles))
    target = StateSpace(group, len(b.out_circles))
    check_enum(source.dim * target.dim, what="bordism matrix entries")
    edges = [m.cell_maps[1][0] for m in b.out_circles + b.in_circles]

    images = []
    kernel = 1
    for factor in cohomology(b.w, group, 1).factors:
        gens = [tuple(rep[e] for e in edges) for rep in factor.reps]
        image = set(FiniteAbelianGroup([factor.n] * len(edges)).subgroup(gens))
        images.append(image)
        kernel *= factor.order // len(image)

    def per_factor(label):
        return [tuple(a[k] for a in label) for k in range(len(images))]

    value = normalization_constant(b, group) * kernel
    zero = Fraction(0)
    in_labels = [per_factor(label) for label in source.basis]
    rows = []
    for out_label in target.basis:
        out = per_factor(out_label)
        rows.append(tuple(
            value if all(o + i in image for o, i, image in zip(out, ins, images))
            else zero
            for ins in in_labels
        ))
    return BordismMatrix(source, target, tuple(rows))


@dataclass(frozen=True)
class TraceReport:
    passed: bool
    cylinder_trace: Fraction
    closed_torus_value: Fraction
    state_space_dim: int


def trace_check(circles: int, group: FiniteAbelianGroup) -> TraceReport:
    """Tr of the cylinder bordism over ``circles`` circles must equal the
    value of the corresponding closed mapping torus (disjoint tori)."""
    mat = identity_matrix(group, 0)
    for _ in range(circles):
        mat = tensor(mat, bordism_matrix(cylinder(), group))
    tr = mat.trace()
    torus_cx = complexes.torus(2)
    cx = torus_cx
    for _ in range(circles - 1):
        cx = disjoint_union(cx, torus_cx)
    closed = bordism_matrix(Bordism(cx, (), ()), group).scalar() if circles else (
        Fraction(1)
    )
    dim = StateSpace(group, circles).dim
    return TraceReport(
        passed=(tr == closed == dim),
        cylinder_trace=tr,
        closed_torus_value=closed,
        state_space_dim=dim,
    )


def solve_problem_one(group: FiniteAbelianGroup | None = None) -> dict:
    """The d=2, p=0 pair-of-pants exercise for Z_2 (or any preset group).

    Returns the circle state-space dimension, the pants and co-pants
    matrices, and the oracle checks that pin the normalization.
    """
    if group is None:
        group = FiniteAbelianGroup([2])
    pants_m = bordism_matrix(pants_bordism(), group)
    copants_m = bordism_matrix(copants_bordism(), group)
    cyl = bordism_matrix(cylinder(), group)
    report = trace_check(1, group)
    return {
        "group": str(group),
        "state_space_dim": StateSpace(group, 1).dim,
        "state_space_basis": StateSpace(group, 1).basis,
        "pants": pants_m,
        "pants_provenance": "entry ((c), (a,b)) = #{a in H^1(pants): cuffs (a,b), "
        "waist c} = [c = a+b]; relative-H^0 constant 1",
        "copants": copants_m,
        "copants_provenance": "entry ((a,b), (c)) = [a+b = c]; relative-H^0 "
        "constant 1; validated by the trace identity",
        "cylinder_is_identity": cyl.is_identity(),
        "trace_check": report,
    }
