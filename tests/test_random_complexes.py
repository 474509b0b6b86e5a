"""Randomized cross-validation of the cohomology engine.

Random three-term complexes d2, d1 with d1 d2 = 0 are built by sampling d1
and then combining an integer kernel basis of d1 into d2.  On every sample
the Smith-normal-form route must agree with exhaustive cochain enumeration,
class coordinates must invert representatives, and coboundary counts must
telescope.  Seeds are fixed; sizes keep the enumeration guard comfortable.
"""

import random
from math import prod

import pytest

from finsym.complexes import (
    ChainComplex,
    cohomology,
    cohomology_order,
    count_coboundaries,
    count_cocycles,
    enumerate_cocycles,
)
from finsym.groups import FiniteAbelianGroup
from finsym.intmatrix import IntMatrix, smith_normal_form_full


def random_two_stage_complex(rng: random.Random) -> ChainComplex:
    """cells (d0, d1, d2) with random d_1 and d_2 built inside ker d_1."""
    d0 = rng.randint(1, 3)
    d1 = rng.randint(1, 4)
    d2 = rng.randint(1, 3)
    boundary1 = IntMatrix(
        [[rng.randint(-2, 2) for _ in range(d1)] for _ in range(d0)],
        rows=d0,
        cols=d1,
    )
    # integer kernel basis of boundary1: columns of V past the rank
    snf = smith_normal_form_full(boundary1)
    kernel = list(zip(*snf.v.data))[snf.rank:]
    cols = []
    for _ in range(d2):
        col = [0] * d1
        for vec in kernel:
            coeff = rng.randint(-2, 2)
            for i in range(d1):
                col[i] += coeff * vec[i]
        cols.append(col)
    boundary2 = IntMatrix(
        [[cols[j][i] for j in range(d2)] for i in range(d1)], rows=d1, cols=d2
    )
    return ChainComplex((d0, d1, d2), (boundary1, boundary2))


COEFFS = [
    FiniteAbelianGroup([2]),
    FiniteAbelianGroup([3]),
    FiniteAbelianGroup([4]),
    FiniteAbelianGroup([6]),
    FiniteAbelianGroup([2, 2]),
    FiniteAbelianGroup([2, 4]),
]


@pytest.mark.parametrize("seed", range(25))
def test_snf_matches_enumeration_on_random_complexes(seed):
    rng = random.Random(31_000 + seed)
    cx = random_two_stage_complex(rng)
    for coeffs in COEFFS:
        if coeffs.order ** max(cx.cells) > 5000:
            continue
        for q in range(cx.top_dim + 1):
            h = cohomology(cx, coeffs, q)
            reps = enumerate_cocycles(cx, coeffs, q)
            assert h.order == len(reps), (cx.cells, str(coeffs), q)
            z = count_cocycles(cx, coeffs, q)
            b = count_coboundaries(cx, coeffs, q)
            assert h.order * b == z


ORDER_COEFFS = [
    FiniteAbelianGroup([2]),
    FiniteAbelianGroup([6]),
    FiniteAbelianGroup([2, 4]),
    FiniteAbelianGroup([2, 4, 8]),
]


@pytest.mark.parametrize("seed", range(25))
def test_invariant_factor_orders_on_random_complexes(seed):
    rng = random.Random(31_000 + seed)
    cx = random_two_stage_complex(rng)
    for coeffs in ORDER_COEFFS:
        for q in range(cx.top_dim + 1):
            order = cohomology_order(cx, coeffs, q)
            assert order == cohomology(cx, coeffs, q).order, (cx.cells, str(coeffs), q)
            if sum(n ** cx.n_cells(q) for n in coeffs.invariant_factors) <= 5000:
                z = count_cocycles(cx, coeffs, q)
                assert order * count_coboundaries(cx, coeffs, q) == z


@pytest.mark.parametrize("seed", range(10))
def test_class_coordinates_invert_representatives(seed):
    rng = random.Random(77_000 + seed)
    cx = random_two_stage_complex(rng)
    coeffs = FiniteAbelianGroup([4])
    for q in range(cx.top_dim + 1):
        h = cohomology(cx, coeffs, q)
        for label in h.classes():
            assert h.coordinates(h.representative(label)) == label


@pytest.mark.parametrize("seed", range(10))
def test_coordinates_kill_coboundaries(seed):
    rng = random.Random(55_000 + seed)
    cx = random_two_stage_complex(rng)
    n = 6
    coeffs = FiniteAbelianGroup([n])
    for q in range(1, cx.top_dim + 1):
        h = cohomology(cx, coeffs, q)
        delta = cx.coboundary(q - 1)
        for trial in range(5):
            prior = tuple(rng.randrange(n) for _ in range(cx.n_cells(q - 1)))
            image = tuple((v % n,) for v in delta.apply_vector(prior))
            assert h.coordinates(image) == tuple((0,) * len(f.orders) for f in h.factors)


def test_orders_multiply_to_known_totals():
    # alternating product of |H^q| equals alternating product of |C^q|
    # (Euler-characteristic identity for finite coefficient groups)
    rng = random.Random(4242)
    for _ in range(8):
        cx = random_two_stage_complex(rng)
        for coeffs in (FiniteAbelianGroup([2]), FiniteAbelianGroup([3])):
            h_alt = 1.0
            c_alt = 1.0
            for q in range(cx.top_dim + 1):
                order = cohomology(cx, coeffs, q).order
                h_alt *= order if q % 2 == 0 else 1.0 / order
                size = coeffs.order ** cx.n_cells(q)
                c_alt *= size if q % 2 == 0 else 1.0 / size
            assert abs(h_alt - c_alt) < 1e-9
