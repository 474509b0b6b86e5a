"""Functorial 2d finite gauge theory for a finite abelian group (d=2, p=0).

State spaces are spanned by H^1 of the boundary circles; a bordism W acts
with matrix entries

    c(W) * #{ a in H^1(W; A) : a restricts to the given classes }

with the normalization c(W) = 1 / |H^0(W, in-boundary; A)|, read from the
one reduction of W that H^1 is read from: the in-circle vertices lifted
onto the vertices that reduction keeps.  Restriction to
the boundary circles, r: H^1(W; A) -> A^{out} x A^{in}, is a homomorphism,
so that count is |ker r| * [label in im r], read off im r.  The naive
alternating-product constant applied to closed W breaks the trace identity
Z(M x S^1) = Tr Z(M x I) (it would give 8 instead of 2 for the torus with
A = Z_2); the relative-H^0 normalization is the one validated by the
cylinder-identity and trace oracles below.

A bordism matrix is therefore value * 1_R with R = im r, a subgroup of
A^{out} x A^{in}, and it is stored as that pair.  R is listed as the
product of its images in (Z_n)^{edges}, one coset walk per cyclic factor
Z_n of A, zipped into one A-value per boundary edge.  The form is closed
under composition (relation composite; the middle-label count is constant
on the support), disjoint union (R x R') and trace, so those are subgroup
arithmetic, never a dense loop.

Bordisms are (complex, in-circles, out-circles) triples.  Composites exist
in two flavors: ``compose`` composes relations (the formal composite, equal
to the matrix product), ``glue`` actually glues the cell complexes.
Closed-surface scalars come from glued or preset closed complexes and match
the surface bundle counts.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product as iproduct

from . import complexes
from .complexes import (
    ChainComplex,
    SubcomplexMap,
    cohomology,
    disjoint_union,
    glue_complexes,
    relative_h0_order,
)
from .groups import FiniteAbelianGroup
from .limits import as_int, check_enum


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


@dataclass(frozen=True, repr=False)
class StateSpace:
    """C-span of H^1 of a disjoint union of circles: basis = A^r, ordered
    lexicographically by the tuple of A-values and listed on first use."""

    group: FiniteAbelianGroup
    circles: int

    def __post_init__(self):
        object.__setattr__(self, "circles", as_int(self.circles, "circle count"))
        if self.circles < 0:
            raise ValueError("circle count must be >= 0")
        check_enum(self.dim, what="state space basis")

    @property
    def dim(self) -> int:
        return self.group.order**self.circles

    @cached_property
    def basis(self) -> tuple:
        return tuple(iproduct(self.group.elements(), repeat=self.circles))

    @cached_property
    def _index(self) -> dict:
        return {b: i for i, b in enumerate(self.basis)}

    def index(self, label) -> int:
        return self._index[tuple(tuple(a) for a in label)]

    def __repr__(self):
        return f"StateSpace({self.group}, circles={self.circles})"


@dataclass(frozen=True)
class BordismMatrix:
    """The matrix value * 1_R: entry (out, in) is ``value`` where the label
    pair lies in ``support``, a subgroup R of A^{out} x A^{in}, else 0."""

    source: StateSpace
    target: StateSpace
    value: Fraction
    support: frozenset  # (out label, in label) pairs

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("bordism matrices have nonnegative entries")

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """Dense rows: out labels, columns: in labels."""
        zero = Fraction(0)
        rows = [[zero] * self.source.dim for _ in range(self.target.dim)]
        row_of, col_of = self.target._index, self.source._index
        for out, inn in self.support:
            rows[row_of[out]][col_of[inn]] = self.value
        return tuple(map(tuple, rows))

    def __getitem__(self, key):
        i, j = key
        pair = (self.target.basis[i], self.source.basis[j])
        return self.value if pair in self.support else Fraction(0)

    def scalar(self) -> Fraction:
        if self.source.dim != 1 or self.target.dim != 1:
            raise ValueError("not a closed bordism")
        return self[0, 0]

    def trace(self) -> Fraction:
        if self.source != self.target:
            raise ValueError("trace needs equal source and target")
        return self.value * sum(out == inn for out, inn in self.support)

    def is_identity(self) -> bool:
        return (self.source == self.target and self.value == 1
                and len(self.support) == self.source.dim
                and all(out == inn for out, inn in self.support))


def compose(outer: BordismMatrix, inner: BordismMatrix) -> BordismMatrix:
    """Formal composite outer o inner, as a relation composite: entry (t, s)
    counts the middle labels m with (t, m) in outer's and (m, s) in inner's
    support.  For subgroups that count is one constant on the support."""
    if inner.target != outer.source:
        raise ValueError("bordism matrices do not compose")
    by_middle = defaultdict(list)
    for mid, inn in inner.support:
        by_middle[mid].append(inn)
    counts = Counter((out, inn) for out, mid in outer.support for inn in by_middle[mid])
    sizes = set(counts.values())
    if len(sizes) > 1:
        raise ValueError("supports are not subgroups: middle label counts differ")
    return BordismMatrix(inner.source, outer.target,
                         outer.value * inner.value * max(sizes, default=0), frozenset(counts))


def tensor(a: BordismMatrix, b: BordismMatrix) -> BordismMatrix:
    """Disjoint union of bordisms: R x R', labels concatenated, which is the
    Kronecker product in the lexicographic basis."""
    if a.source.group != b.source.group:
        raise ValueError("coefficient groups differ")
    src = StateSpace(a.source.group, a.source.circles + b.source.circles)
    tgt = StateSpace(a.target.group, a.target.circles + b.target.circles)
    support = frozenset((ao + bo, ai + bi) for ao, ai in a.support for bo, bi in b.support)
    return BordismMatrix(src, tgt, a.value * b.value, support)


def identity_matrix(group: FiniteAbelianGroup, circles: int) -> BordismMatrix:
    space = StateSpace(group, circles)
    return BordismMatrix(space, space, Fraction(1), frozenset((x, x) for x in space.basis))


# ---------------------------------------------------------------------------
# Bordism presets.
# ---------------------------------------------------------------------------


def cylinder() -> Bordism:
    """circle x interval: vertices (v, 0), (v, 1); edges (v, I), (e, 0),
    (e, 1); face (e, I).  The end circles are (v, i) with (e, i)."""
    d1 = (((0, -1), (1, 1)), (), ())
    cx = ChainComplex._trusted((2, 3, 1), (d1, (((1, 1), (2, -1)),)))
    c = complexes.circle()
    return Bordism(cx, (SubcomplexMap._trusted(c, cx, ((0,), (1,))),),
                   (SubcomplexMap._trusted(c, cx, ((1,), (2,))),))


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
    its cell indices): one checked vertex and one checked edge, so the
    inclusion is stored as built."""
    v, e = m.cell_maps[0][0], m.cell_maps[1][0]
    if cell_map is not None:
        v, e = cell_map[0][v], cell_map[1][e]
    return SubcomplexMap._trusted(complexes.circle(), cx, ((v,), (e,)))


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


def normalization_constant(b: Bordism, group: FiniteAbelianGroup) -> Fraction:
    """c(W) = 1 / |H^0(W, in-boundary; A)|, read from W's own reduction, the
    one ``bordism_matrix`` reads H^1 from: each in-circle vertex is lifted
    onto the vertices it keeps and stacked beside the residual d_1
    (``relative_h0_order``).  Each in-circle is a checked inclusion; only
    overlap between them is left to reject."""
    vertices = {m.cell_maps[0][0] for m in b.in_circles}
    if len(vertices) != len(b.in_circles):
        raise ValueError("degree 0 map is not injective")
    if len({m.cell_maps[1][0] for m in b.in_circles}) != len(b.in_circles):
        raise ValueError("degree 1 map is not injective")
    return Fraction(1, relative_h0_order(b.w, vertices, group))


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
        image = FiniteAbelianGroup([factor.n] * len(edges)).subgroup(gens)
        images.append(image)
        kernel *= factor.order // len(image)

    # R = im r: one image element per cyclic factor of A, zipped into one
    # A-value per edge; a trivial A has no factors, and its one label is
    # an empty tuple per edge
    n_out, blank = len(b.out_circles), ((),) * len(edges)
    labels = (tuple(zip(*per_factor)) or blank for per_factor in iproduct(*images))
    support = frozenset((label[:n_out], label[n_out:]) for label in labels)
    value = normalization_constant(b, group) * kernel
    return BordismMatrix(source, target, value, support)


@dataclass(frozen=True)
class TraceReport:
    passed: bool
    cylinder_trace: Fraction
    closed_torus_value: Fraction
    state_space_dim: int


def trace_check(circles: int, group: FiniteAbelianGroup) -> TraceReport:
    """Tr of the cylinder bordism over ``circles`` circles must equal the
    value of the corresponding closed mapping torus (disjoint tori).  The
    circle count is checked as a state space's, before any evaluation."""
    space = StateSpace(group, circles)
    return _trace_check(space, bordism_matrix(cylinder(), group))


def _trace_check(space: StateSpace, cyl: BordismMatrix) -> TraceReport:
    """``trace_check`` on ``space`` with the cylinder already evaluated."""
    mat = identity_matrix(space.group, 0)
    for _ in range(space.circles):
        mat = tensor(mat, cyl)
    tr = mat.trace()
    closed = Fraction(1)
    if space.circles:
        torus_cx = complexes.torus(2)
        cx = torus_cx
        for _ in range(space.circles - 1):
            cx = disjoint_union(cx, torus_cx)
        closed = bordism_matrix(Bordism(cx, (), ()), space.group).scalar()
    return TraceReport(
        passed=(tr == closed == space.dim),
        cylinder_trace=tr,
        closed_torus_value=closed,
        state_space_dim=space.dim,
    )


def solve_problem_one(group: FiniteAbelianGroup | None = None) -> dict:
    """The d=2, p=0 pair-of-pants exercise for Z_2 (or any preset group).

    Returns the circle state-space dimension, the pants and co-pants
    matrices, and the oracle checks that pin the normalization.  The
    co-pants is the pants read backwards, so the two share one reduction,
    and the trace check reuses the cylinder evaluated here.
    """
    if group is None:
        group = FiniteAbelianGroup([2])
    pants = pants_bordism()
    pants_m = bordism_matrix(pants, group)
    copants_m = bordism_matrix(Bordism(pants.w, pants.out_circles, pants.in_circles), group)
    cyl = bordism_matrix(cylinder(), group)
    one = StateSpace(group, 1)
    return {
        "group": str(group),
        "state_space_dim": one.dim,
        "state_space_basis": one.basis,
        "pants": pants_m,
        "pants_provenance": "entry ((c), (a,b)) = #{a in H^1(pants): cuffs (a,b), "
        "waist c} = [c = a+b]; relative-H^0 constant 1",
        "copants": copants_m,
        "copants_provenance": "entry ((a,b), (c)) = [a+b = c]; relative-H^0 "
        "constant 1; validated by the trace identity",
        "cylinder_is_identity": cyl.is_identity(),
        "trace_check": _trace_check(one, cyl),
    }
