"""Exact integer matrices and the Smith normal form.

Entries are Python ints, so all pivoting is overflow-free.  Matrices are
immutable after construction; every operation returns a new matrix.  Data
from outside the package is validated once, entry by entry, by the public
constructor: every entry and the shape must be integers (``operator.index``,
so floats and strings are refused, not truncated) and the shape must not
be negative.  Matrices the package builds from ints it already holds (Smith
forms, coboundaries) are not re-checked.  The
Smith normal form is the computational backbone for all cohomology in this
package.  It has one reduction, which applies each row and column operation
to four carried matrices: the transforms U, V and their exact inverses from
identity starts, products such as U X or V^-1 X from a given start, and
nothing from an empty start or when only the invariant factors are needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import mul

from .limits import as_int


@dataclass(frozen=True, repr=False)
class IntMatrix:
    """Immutable matrix over Z.

    ``data`` is a sequence of row sequences.  Zero-width shapes are legal
    (boundary maps of empty cell ranks); pass ``rows``/``cols`` explicitly
    when ``data`` cannot determine them.  The constructor validates every
    entry and the shape once: each must be an integer, stored as an exact
    int, and a non-integer such as 1.7 or "3" raises ValueError.  Matrices
    built inside the package from exact ints skip that check (``_trusted``).
    """

    data: tuple[tuple[int, ...], ...]
    rows: int | None = None
    cols: int | None = None

    def __post_init__(self):
        tup = tuple(tuple(as_int(x, "matrix entry") for x in row) for row in self.data)
        r = len(tup) if self.rows is None else as_int(self.rows, "row count")
        cols = None if self.cols is None else as_int(self.cols, "column count")
        if r < 0 or (cols is not None and cols < 0):
            raise ValueError(f"negative shape {(r, cols)}")
        if len(tup) not in (0, r):
            raise ValueError("row count does not match data")
        if tup:
            widths = {len(row) for row in tup}
            if len(widths) != 1:
                raise ValueError("ragged rows")
            c = widths.pop()
            if cols is not None and c != cols:
                raise ValueError("column count does not match data")
        else:
            c = 0 if cols is None else cols
        if len(tup) < r:
            tup = tup + tuple(tuple(0 for _ in range(c)) for _ in range(r - len(tup)))
        object.__setattr__(self, "data", tup)
        object.__setattr__(self, "rows", r)
        object.__setattr__(self, "cols", c)

    @classmethod
    def _trusted(cls, data: tuple[tuple[int, ...], ...], rows: int, cols: int) -> "IntMatrix":
        """A matrix of ``rows`` tuples of ``cols`` exact ints, as given: for
        data the package built itself, which needs no per-entry check."""
        m = object.__new__(cls)
        object.__setattr__(m, "data", data)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)], rows=rows, cols=cols)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def apply_vector(self, vec):
        """Matrix times column vector, as a tuple."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(map(mul, row, vec)) for row in self.data)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.data]!r})"


@dataclass(frozen=True)
class SmithForm:
    """U * m * V = D with U, V unimodular and D diagonal, d1 | d2 | ...

    From identity starts ``u_inv`` and ``v_inv`` are the exact inverses of
    ``u`` and ``v``, so no rational inversion is ever needed; from a start
    X (see ``smith_normal_form_full``) the fields hold U X, X U^-1 and
    V^-1 X instead.  ``diagonal`` lists the nonzero invariant factors.
    """

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix
    u_inv: IntMatrix
    v_inv: IntMatrix
    diagonal: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.diagonal)


def smith_normal_form(m: IntMatrix):
    """Return (U, D, V) with U*m*V = D in Smith normal form."""
    full = smith_normal_form_full(m)
    return full.u, full.d, full.v


def smith_normal_form_full(m: IntMatrix, *, u: IntMatrix | None = None,
                           u_inv: IntMatrix | None = None,
                           v_inv: IntMatrix | None = None) -> SmithForm:
    """The Smith form of m with its transforms, each started from the
    identity or from the given X: ``u=X`` gives U X, ``u_inv=X`` gives
    X U^-1 and ``v_inv=X`` gives V^-1 X, with no product ever formed.  An
    empty X (no columns for ``u`` and ``v_inv``, no rows for ``u_inv``)
    carries nothing."""
    r, c = m.rows, m.cols
    starts = [_start(u, r), _start(u_inv, r), _start(None, c), _start(v_inv, c)]
    if (starts[0][1], starts[1][2], starts[3][1]) != (r, r, c):
        raise ValueError("transform start does not fit the matrix shape")
    diag, a = _smith(m, *(rows for rows, _, _ in starts))
    u, u_inv, v, v_inv = (IntMatrix._trusted(tuple(map(tuple, rows)), nr, nc)
                          for rows, nr, nc in starts)
    return SmithForm(u, IntMatrix._trusted(tuple(map(tuple, a)), r, c), v, u_inv, v_inv, diag)


def _start(x: IntMatrix | None, n: int):
    """(row lists, rows, cols) of a transform start: x, or the n x n identity."""
    if x is None:
        return [[1 if i == j else 0 for j in range(n)] for i in range(n)], n, n
    return [list(row) for row in x.data], x.rows, x.cols


def invariant_factors(m: IntMatrix) -> tuple[int, ...]:
    """The nonzero Smith diagonal d1 | d2 | ... of m, without transforms.

    Same reduction as ``smith_normal_form_full`` with empty carries; enough
    wherever only orders are needed.
    """
    return _smith(m, [()] * m.rows, (), (), [()] * m.cols)[0]


def _smith(m: IntMatrix, u, u_inv, v, v_inv):
    """Reduce a copy of m to Smith form: (diagonal, D rows).

    Each row operation E is also applied as u := E u and u_inv := u_inv E^-1,
    each column operation as v := v E and v_inv := E^-1 v_inv, in place on
    the four given lists of rows (rows that change must be lists).  The
    pivot choices depend on D alone, so any carries reach the same diagonal.
    """
    r, c = m.rows, m.cols
    a = [list(row) for row in m.data]

    def row_add(i, k, q):
        for rows in (a, u):
            ri, rk = rows[i], rows[k]
            for j in range(len(ri)):
                ri[j] += q * rk[j]
        for row in u_inv:
            row[k] -= q * row[i]

    def row_swap(i, k):
        for rows in (a, u):
            rows[i], rows[k] = rows[k], rows[i]
        for row in u_inv:
            row[i], row[k] = row[k], row[i]

    def row_negate(i):
        for rows in (a, u):
            rows[i] = [-x for x in rows[i]]
        for row in u_inv:
            row[i] = -row[i]

    def col_add(j, l, q):
        for rows in (a, v):
            for row in rows:
                row[j] += q * row[l]
        vl, vj = v_inv[l], v_inv[j]
        for t in range(len(vl)):
            vl[t] -= q * vj[t]

    def col_swap(j, l):
        for rows in (a, v):
            for row in rows:
                row[j], row[l] = row[l], row[j]
        v_inv[j], v_inv[l] = v_inv[l], v_inv[j]

    def rounded_quotient(x, p):
        # Quotient with minimal-magnitude remainder: |x - q*p| <= |p|/2.
        # divmod's remainder has the sign of p, so bumping q by one always
        # flips a too-large remainder to the complementary (smaller) piece.
        q, rem = divmod(x, p)
        if 2 * abs(rem) > abs(p):
            q += 1
        return q

    t = 0
    while t < min(r, c):
        while True:
            # Move the submatrix entry of least magnitude to the pivot; one
            # rounded reduction pass then either clears the pivot's row and
            # column or produces remainders at most half the pivot, so each
            # sweep at least halves the working minimum (no blow-up).  The
            # first least entry in row-major order wins; a unit cannot be
            # beaten, so the scan stops at the first one.
            best = None
            least = 0
            for i in range(t, r):
                row = a[i]
                for j in range(t, c):
                    x = row[j]
                    if x and (best is None or abs(x) < least):
                        best, least = (i, j), abs(x)
                        if least == 1:
                            break
                if least == 1:
                    break
            if best is None:
                break
            if best[0] != t:
                row_swap(t, best[0])
            if best[1] != t:
                col_swap(t, best[1])
            pivot = a[t][t]
            for i in range(t + 1, r):
                if a[i][t]:
                    row_add(i, t, -rounded_quotient(a[i][t], pivot))
            for j in range(t + 1, c):
                if a[t][j]:
                    col_add(j, t, -rounded_quotient(a[t][j], pivot))
            if any(a[i][t] for i in range(t + 1, r)) or any(
                a[t][j] for j in range(t + 1, c)
            ):
                continue
            # Divisibility chain: fold one bad row in and keep reducing.
            bad = None
            for i in range(t + 1, r):
                for j in range(t + 1, c):
                    if a[i][j] % pivot != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_add(t, bad, 1)
        if best is None:
            break
        if a[t][t] < 0:
            row_negate(t)
        t += 1

    diag = tuple(a[i][i] for i in range(min(r, c)) if a[i][i] != 0)
    return diag, a


def minor_gcd(m: IntMatrix, k: int) -> int:
    """gcd of all k x k minors (0 when all vanish); oracle for SNF checks."""
    from itertools import combinations

    if k == 0:
        return 1
    g = 0
    for rows in combinations(range(m.rows), k):
        for cols in combinations(range(m.cols), k):
            g = gcd(g, _det([[m.data[i][j] for j in cols] for i in rows]))
    return g


def _det(a) -> int:
    """Determinant by fraction-free Gaussian elimination (Bareiss)."""
    n = len(a)
    if n == 0:
        return 1
    a = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]
