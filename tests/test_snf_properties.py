"""Property tests for the Smith normal form.

Hypothesis draws integer matrices of every small shape, including empty
and zero ones; runs are derandomized and keep no example database, so the
suite stays deterministic.  sympy's Smith form is an optional independent
cross-check of the invariant factors.
"""

import random
import tempfile
from unittest import mock
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from finsym import complexes
from finsym.complexes import cohomology
from finsym.groups import FiniteAbelianGroup
from finsym.intmatrix import IntMatrix, invariant_factors, minor_gcd, smith_normal_form_full
from test_intmatrix import matmul
from test_random_complexes import random_two_stage_complex

# Hypothesis's pytest plugin caches the literals of local modules under its
# home directory while collecting, database or not; keep that out of the
# checkout.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "finsym-hypothesis")

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=100)


@st.composite
def matrices(draw, max_side=6, span=30):
    rows = draw(st.integers(0, max_side))
    cols = draw(st.integers(0, max_side))
    entry = st.integers(-span, span)
    data = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return IntMatrix(data, rows=rows, cols=cols)


@DETERMINISTIC
@given(matrices())
def test_transforms_diagonalize_and_invert(m):
    full = smith_normal_form_full(m)
    assert matmul(matmul(full.u, m), full.v) == full.d
    assert matmul(full.u, full.u_inv) == IntMatrix.identity(m.rows)
    assert matmul(full.v, full.v_inv) == IntMatrix.identity(m.cols)
    r = len(full.diagonal)
    for i in range(m.rows):
        for j in range(m.cols):
            expected = full.diagonal[i] if i == j and i < r else 0
            assert full.d[i, j] == expected


@DETERMINISTIC
@given(matrices())
def test_divisibility_chain_and_untracked_agreement(m):
    diag = smith_normal_form_full(m).diagonal
    assert all(d > 0 for d in diag)
    assert all(b % a == 0 for a, b in zip(diag, diag[1:]))
    assert invariant_factors(m) == diag


@DETERMINISTIC
@given(matrices(max_side=3, span=9))
def test_invariant_factors_are_minor_gcd_ratios(m):
    diag = invariant_factors(m)
    running = 1
    for k, d in enumerate(diag, start=1):
        running *= d
        assert minor_gcd(m, k) == running
    assert minor_gcd(m, len(diag) + 1) == 0


@pytest.mark.parametrize("seed", range(30))
def test_invariant_factors_match_sympy(seed):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(4400 + seed)
    rows, cols = rng.randint(1, 7), rng.randint(1, 7)
    data = [[rng.randint(-12, 12) if rng.random() < 0.7 else 0 for _ in range(cols)]
            for _ in range(rows)]
    snf = smith_normal_form(sympy.Matrix(data), domain=sympy.ZZ)
    theirs = tuple(abs(int(snf[i, i])) for i in range(min(rows, cols)) if snf[i, i] != 0)
    assert invariant_factors(IntMatrix(data)) == theirs


@st.composite
def matrices_with_starts(draw):
    """m with starts X for u (rows of m), u_inv (cols = rows of m) and v_inv
    (rows = cols of m), each of a free other side."""
    m = draw(matrices())
    r, c = m.rows, m.cols

    def block(rows, cols):
        data = draw(st.lists(st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))
        return IntMatrix(data, rows=rows, cols=cols)

    k = draw(st.integers(0, 5))
    return m, block(r, k), block(k, r), block(c, k)


@DETERMINISTIC
@given(matrices_with_starts())
def test_started_transforms_are_the_products(case):
    m, x_u, x_u_inv, x_v_inv = case
    full = smith_normal_form_full(m)
    products = {"u": (x_u, matmul(full.u, x_u)), "u_inv": (x_u_inv, matmul(x_u_inv, full.u_inv)),
                "v_inv": (x_v_inv, matmul(full.v_inv, x_v_inv))}
    for name, (start, expected) in products.items():
        started = smith_normal_form_full(m, **{name: start})
        assert getattr(started, name) == expected
        # the other transforms, D and the diagonal do not depend on the start
        assert replace(started, **{name: getattr(full, name)}) == full


@DETERMINISTIC
@given(matrices_with_starts())
def test_empty_starts_carry_nothing(case):
    m, *starts = case
    empty = {"u": IntMatrix.zeros(m.rows, 0), "u_inv": IntMatrix.zeros(0, m.rows),
             "v_inv": IntMatrix.zeros(m.cols, 0)}
    for base in ({}, dict(zip(empty, starts))):
        full = smith_normal_form_full(m, **base)
        for k in range(1, len(empty) + 1):
            for names in combinations(empty, k):
                skipped = {name: empty[name] for name in names}
                # the diagonal, D and every transform still carried are unchanged
                assert smith_normal_form_full(m, **{**base, **skipped}) == replace(full, **skipped)


def test_start_of_the_wrong_shape_is_rejected():
    m = IntMatrix([[2, 4, 4], [-6, 6, 12]])
    for name, start in (("u", IntMatrix.identity(3)), ("u_inv", IntMatrix.identity(3)),
                        ("v_inv", IntMatrix.identity(2))):
        with pytest.raises(ValueError, match="transform start"):
            smith_normal_form_full(m, **{name: start})


def assert_as_validated(m):
    """m is what the validating constructor makes of its own data: tuple rows
    of exact ints, of the stated shape."""
    assert m == IntMatrix(m.data, rows=m.rows, cols=m.cols)
    assert type(m.rows) is int and type(m.cols) is int
    assert type(m.data) is tuple and len(m.data) == m.rows
    for row in m.data:
        assert type(row) is tuple and len(row) == m.cols
        assert all(type(x) is int for x in row)


@DETERMINISTIC
@given(matrices_with_starts())
def test_package_built_matrices_match_the_validating_constructor(case):
    m, x_u, x_u_inv, x_v_inv = case
    for starts in ({}, {"u": x_u}, {"u_inv": x_u_inv}, {"v_inv": x_v_inv}):
        full = smith_normal_form_full(m, **starts)
        for field in (full.u, full.d, full.v, full.u_inv, full.v_inv):
            assert_as_validated(field)


@DETERMINISTIC
@given(st.integers(0, 10**6))
def test_complex_matrices_match_the_validating_constructor(seed):
    cx = random_two_stage_complex(random.Random(seed))
    for k in range(-1, cx.top_dim + 2):
        assert_as_validated(cx.coboundary(k))
        assert_as_validated(cx.boundary(k + 1))
    handed = []

    def recording(m, **starts):
        handed.extend((m, *starts.values()))
        return smith_normal_form_full(m, **starts)

    # the residual blocks and transform starts cohomology builds: two Smith
    # forms of four matrices each at every degree with a non-empty block
    with mock.patch.object(complexes, "smith_normal_form_full", recording):
        for q in range(cx.top_dim + 1):
            cohomology(cx, FiniteAbelianGroup([2, 4]), q)
    columns = cx._reduced().columns
    blocks = sum(bool(columns[q] or columns[q + 1]) for q in range(cx.top_dim + 1))
    assert len(handed) == 8 * blocks
    for m in handed:
        assert_as_validated(m)
