"""Cohomology orders from integer invariant factors, against their oracles.

``cohomology_order`` must equal the full Smith-form route's order and the
brute-force count #Z^q / #B^q, and the group type must match brute-force
k-torsion counts; the order of the quotient complex C(W)/C(S) must equal
``relative_cohomology``'s order on every bordism.  Call counters pin the
shared work: each complex is reduced by unit pivots once, the order path
makes no full Smith form at all, ``cohomology`` makes two (of the residual
delta^q and delta^{q-1} in its coordinates) for every coefficient factor
together, and none where the residual block is empty, and a bordism matrix
asks for H^1 once.
"""

from math import gcd, prod

import pytest

from finsym import complexes, tqft2d
from finsym.complexes import (
    circle,
    cohomology,
    cohomology_order,
    count_coboundaries,
    count_cocycles,
    disk,
    empty_subcomplex,
    interval,
    klein_bottle,
    pants,
    product,
    quotient,
    real_projective_space,
    relative_cohomology,
    sphere,
    surface,
    torus,
)
from finsym.groups import parse_abelian
from finsym.pathintegral import em_partition, em_partition_bruteforce

COEFFS = [parse_abelian(a) for a in ("Z2", "Z6", "Z2xZ4", "Z2xZ4xZ8")]
PRESETS = (
    [circle(), interval(), klein_bottle(), disk()[0], pants()[0]]
    + [sphere(n) for n in range(1, 6)]
    + [torus(n) for n in range(1, 6)]
    + [surface(g) for g in range(5)]
    + [real_projective_space(n) for n in range(1, 5)]
)
PRODUCTS = [
    product(circle(), interval()),
    product(real_projective_space(2), circle()),
    product(klein_bottle(), circle()),
    product(real_projective_space(2), real_projective_space(2)),
    product(surface(2), interval()),
    product(real_projective_space(3), klein_bottle()),
]
# Brute-force counts only where the cochain enumeration stays this small.
BRUTE_STATES = 4096


@pytest.mark.parametrize("coeffs", COEFFS, ids=str)
@pytest.mark.parametrize("cx", PRESETS + PRODUCTS, ids=repr)
def test_order_matches_full_route_and_counts(cx, coeffs, monkeypatch):
    reduced = _count_calls(monkeypatch, complexes, "invariant_factors")
    for q in range(cx.top_dim + 1):
        order = cohomology_order(cx, coeffs, q)
        assert order == cohomology(cx, coeffs, q).order
        reduced.clear()
        assert cohomology_order(cx, coeffs, q) == order
        assert reduced == []  # the complex kept the invariant factors of d_q, d_{q+1}
        if sum(n ** cx.n_cells(q) for n in coeffs.invariant_factors) <= BRUTE_STATES:
            assert order * count_coboundaries(cx, coeffs, q) == count_cocycles(cx, coeffs, q)


def _torsion_counts(cx, n, q, ks):
    """|H^q(cx; Z_n)[k]| = #{z in Z^q : k z in B^q} / #B^q for each k, by
    brute force."""
    coboundaries = set(complexes._cyclic_coboundary_group(cx, n, q))
    cocycles = complexes._cyclic_cocycles(cx, n, q)
    hits = [sum(tuple(k * v % n for v in z) in coboundaries for z in cocycles) for k in ks]
    assert all(h % len(coboundaries) == 0 for h in hits)
    return [h // len(coboundaries) for h in hits]


@pytest.mark.parametrize("coeffs", [parse_abelian(a) for a in
                                    ("Z2", "Z4", "Z6", "Z2xZ4", "Z2xZ4xZ8")], ids=str)
@pytest.mark.parametrize("cx", PRESETS + PRODUCTS, ids=repr)
def test_group_type_matches_torsion_counts(cx, coeffs):
    """The k-torsion orders for every k dividing the exponent fix the group
    type; the brute-force ones must match those of ``cohomology(...).group``."""
    exponent = max(coeffs.invariant_factors)
    ks = [k for k in range(1, exponent + 1) if exponent % k == 0]
    for q in range(cx.top_dim + 1):
        if sum(n ** cx.n_cells(q) for n in coeffs.invariant_factors) > BRUTE_STATES:
            continue
        group = cohomology(cx, coeffs, q).group
        brute = [1] * len(ks)
        for n in coeffs.invariant_factors:
            brute = [b * t for b, t in zip(brute, _torsion_counts(cx, n, q, ks))]
        assert brute == [prod(gcd(k, o) for o in group.invariant_factors) for k in ks], q


def test_order_rejects_degree_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        cohomology_order(torus(2), COEFFS[0], 3)


SHAPES = ["cylinder", "pants", "copants", "cap", "cup", "torus", "sphere"]
BORDISMS = [tqft2d.bordism_preset(shape) for shape in SHAPES] + [
    tqft2d.glue(tqft2d.bordism_preset(a), tqft2d.bordism_preset(b))
    for a, b in [("pants", "copants"), ("cylinder", "cylinder"), ("cap", "cup"),
                 ("cap", "copants"), ("pants", "cup"), ("copants", "pants")]
]


@pytest.mark.parametrize("coeffs", COEFFS, ids=str)
@pytest.mark.parametrize("b", BORDISMS, ids=lambda b: repr(b.w))
def test_relative_order_matches_relative_cohomology(b, coeffs):
    subs = [empty_subcomplex(b.w), tqft2d._in_boundary_subcomplex(b)]
    subs += list(b.in_circles + b.out_circles)
    for sub in subs:
        for q in range(b.w.top_dim + 1):
            assert cohomology_order(quotient(b.w, sub), coeffs, q) == (
                relative_cohomology(b.w, sub, coeffs, q).order
            )


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_em_partition_reduces_each_complex_once(monkeypatch):
    full = _count_calls(monkeypatch, complexes, "smith_normal_form_full")
    reduced = _count_calls(monkeypatch, complexes, "invariant_factors")
    made = _count_calls(monkeypatch, complexes, "_Reduction")
    sphere_of_disks = tqft2d.glue(tqft2d.cap(), tqft2d.cup()).w
    group = parse_abelian("Z2xZ4xZ8")
    # (closed complex, n, how many of its d_k keep a nonzero residual)
    for cx, n, residuals in ((torus(3), 2, 0), (sphere_of_disks, 2, 0),
                             (product(real_projective_space(2), sphere_of_disks), 3, 2)):
        full.clear(), reduced.clear(), made.clear()
        assert em_partition(cx, group, n) == em_partition_bruteforce(cx, group, n)
        assert full == []
        # one reduction for the closedness check and all degrees, then the
        # Smith diagonal of each nonzero residual once
        assert len(made) == 1
        assert len(reduced) == residuals


def test_cohomology_reduces_the_coboundary_once(monkeypatch):
    full = _count_calls(monkeypatch, complexes, "smith_normal_form_full")

    def assert_unread_transforms_start_empty():
        # delta^q and the block W, whatever the factor count
        ((delta,), first), ((w,), second) = full
        # U and U^-1 of delta^q and V_W^-1 of W are never read: empty starts
        assert (first["u"].rows, first["u"].cols) == (delta.rows, 0)
        assert (first["u_inv"].rows, first["u_inv"].cols) == (0, delta.rows)
        assert (second["v_inv"].rows, second["v_inv"].cols) == (w.cols, 0)
        assert "v_inv" in first and {"u", "u_inv"} <= second.keys()

    # non-empty residual blocks, each with orders for Z2 and Z2xZ4xZ8: the
    # residual delta^1 is (2) on RP^4 and the Klein bottle (H^1(K; A) =
    # A + A[2]), and on RP^4 at q = 2 the block W has delta^1's column
    for cx, q, orders in [(real_projective_space(4), 1, (2, 8)),
                          (real_projective_space(4), 2, (2, 8)),
                          (klein_bottle(), 1, (4, 64 * 8))]:
        for coeffs, order in zip(("Z2", "Z2xZ4xZ8"), orders):
            full.clear()
            assert cohomology(cx, parse_abelian(coeffs), q).order == order
            assert_unread_transforms_start_empty()
    # every boundary of T^3 is zero and the pants' residual at q = 1 is
    # empty: every q-cell is free and no Smith form runs
    for coeffs, order in [("Z2", 2**3), ("Z2xZ4xZ8", 64**3)]:
        full.clear()
        assert cohomology(torus(3), parse_abelian(coeffs), 1).order == order
        assert full == []
    b = tqft2d.pants_bordism()
    full.clear()
    relative_cohomology(b.w, b.in_circles[0], parse_abelian("Z2xZ4xZ8"), 1)
    assert full == []


def test_bordism_matrix_asks_for_h1_once(monkeypatch):
    calls = _count_calls(monkeypatch, tqft2d, "cohomology")
    group = parse_abelian("Z2xZ4")
    mat = tqft2d.bordism_matrix(tqft2d.pants_bordism(), group)
    assert len(calls) == 1
    assert mat.target.dim == 8 and mat.source.dim == 64
