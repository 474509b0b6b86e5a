import random
from math import prod
from operator import mul

import pytest

from finsym.intmatrix import (
    IntMatrix,
    invariant_factors,
    minor_gcd,
    smith_normal_form,
    smith_normal_form_full,
)


def matmul(a, b):
    """The exact product a b of two IntMatrix: the oracle for Smith transforms
    and carried products (the package itself never multiplies matrices)."""
    assert a.cols == b.rows, "shape mismatch in matrix product"
    cols = [tuple(row[j] for row in b.data) for j in range(b.cols)]
    return IntMatrix([[sum(map(mul, row, col)) for col in cols] for row in a.data],
                     rows=a.rows, cols=b.cols)


def diag_entries(d):
    return [d[i, i] for i in range(min(d.rows, d.cols))]


def test_identity_snf():
    m = IntMatrix.identity(2)
    u, d, v = smith_normal_form(m)
    assert d == IntMatrix.identity(2)
    assert matmul(matmul(u, m), v) == d


def test_elementary_example():
    # d1 = gcd of entries = 2, d1*d2 = |det| = 8
    m = IntMatrix([[2, 4], [6, 8]])
    _, d, _ = smith_normal_form(m)
    assert diag_entries(d) == [2, 4]


def test_zero_matrix():
    m = IntMatrix.zeros(3, 2)
    u, d, v = smith_normal_form(m)
    assert not any(map(any, d.data))
    assert matmul(matmul(u, m), v) == d


def test_empty_shapes():
    m = IntMatrix.zeros(0, 3)
    full = smith_normal_form_full(m)
    assert full.diagonal == ()
    assert matmul(full.v, full.v_inv) == IntMatrix.identity(3)


@pytest.mark.parametrize("seed", range(12))
def test_round_trip_random(seed):
    rng = random.Random(seed)
    rows = rng.randint(1, 6)
    cols = rng.randint(1, 6)
    m = IntMatrix([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
    full = smith_normal_form_full(m)
    assert matmul(matmul(full.u, m), full.v) == full.d
    assert matmul(full.u, full.u_inv) == IntMatrix.identity(rows)
    assert matmul(full.v, full.v_inv) == IntMatrix.identity(cols)
    # off-diagonal zero, divisibility chain
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert full.d[i, j] == 0
    diag = full.diagonal
    assert all(d > 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0


@pytest.mark.parametrize("seed", range(6))
def test_dense_matrices_stay_tame(seed):
    # regression: negative pivots once produced a zero rounded quotient and
    # the reduction spun; dense 12x12 inputs now reduce in milliseconds
    rng = random.Random(7000 + seed)
    n = 12
    m = IntMatrix([[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)])
    full = smith_normal_form_full(m)
    assert matmul(matmul(full.u, m), full.v) == full.d
    assert matmul(full.u, full.u_inv) == IntMatrix.identity(n)
    diag = full.diagonal
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0


def test_negative_pivot_column():
    # the 3x1 shape that exposed the rounding bug: all-negative entries
    m = IntMatrix([[-487480418735], [-86798507437], [-149080683575]])
    full = smith_normal_form_full(m)
    assert matmul(matmul(full.u, m), full.v) == full.d
    from math import gcd

    assert full.diagonal == (gcd(gcd(487480418735, 86798507437), 149080683575),)


@pytest.mark.parametrize("seed", range(8))
def test_invariant_factors_match_minor_gcds(seed):
    rng = random.Random(100 + seed)
    n = rng.choice((2, 3))
    m = IntMatrix([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
    diag = smith_normal_form_full(m).diagonal
    assert invariant_factors(m) == diag
    for k in range(1, len(diag) + 1):
        assert prod(diag[:k]) == minor_gcd(m, k)
    assert minor_gcd(m, len(diag) + 1) == 0  # past the rank every minor vanishes


@pytest.mark.parametrize("seed", range(40))
def test_invariant_factors_equal_full_diagonal(seed):
    # every shape up to 12x12 (empty ones too), sparse to dense, small to large entries
    rng = random.Random(9000 + seed)
    rows, cols = rng.randint(0, 12), rng.randint(0, 12)
    span = rng.choice((1, 3, 50))
    density = rng.random()
    data = [
        [rng.randint(-span, span) if rng.random() < density else 0 for _ in range(cols)]
        for _ in range(rows)
    ]
    m = IntMatrix(data, rows=rows, cols=cols)
    assert invariant_factors(m) == smith_normal_form_full(m).diagonal


@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0), (3, 5), (5, 3), (12, 12)])
def test_invariant_factors_of_empty_and_zero_shapes(shape):
    assert invariant_factors(IntMatrix.zeros(*shape)) == ()
    assert smith_normal_form_full(IntMatrix.zeros(*shape)).diagonal == ()


def test_invariant_factors_of_negative_entries():
    m = IntMatrix([[-2, 0, 0], [0, -3, 0], [0, 0, -12]])
    assert invariant_factors(m) == smith_normal_form_full(m).diagonal == (1, 6, 12)
    minus_identity = IntMatrix([[-1 if i == j else 0 for j in range(4)] for i in range(4)])
    assert invariant_factors(minus_identity) == (1, 1, 1, 1)


def test_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix([[1, 2]], cols=3)


def test_immutability():
    m = IntMatrix.identity(2)
    with pytest.raises(AttributeError):
        m.rows = 3
