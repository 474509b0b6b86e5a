"""Exact integer matrices and the Smith normal form.

Entries are Python ints, so all pivoting is overflow-free.  Matrices are
immutable after construction; every operation returns a new matrix.  The
Smith normal form is the computational backbone for all cohomology in this
package, so it is available both in the bare (U, D, V) form and in a rich
form that carries the inverse transforms needed to solve linear systems
over Z and Z/n.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import mul


@dataclass(frozen=True, repr=False)
class IntMatrix:
    """Immutable matrix over Z.

    ``data`` is a sequence of row sequences.  Zero-width shapes are legal
    (boundary maps of empty cell ranks); pass ``rows``/``cols`` explicitly
    when ``data`` cannot determine them.
    """

    data: tuple[tuple[int, ...], ...]
    rows: int | None = None
    cols: int | None = None

    def __post_init__(self):
        tup = tuple(tuple(map(int, row)) for row in self.data)
        r = len(tup) if self.rows is None else int(self.rows)
        if len(tup) not in (0, r):
            raise ValueError("row count does not match data")
        if tup:
            widths = {len(row) for row in tup}
            if len(widths) != 1:
                raise ValueError("ragged rows")
            c = widths.pop()
            if self.cols is not None and c != int(self.cols):
                raise ValueError("column count does not match data")
        else:
            c = 0 if self.cols is None else int(self.cols)
        if len(tup) < r:
            tup = tup + tuple(tuple(0 for _ in range(c)) for _ in range(r - len(tup)))
        object.__setattr__(self, "data", tup)
        object.__setattr__(self, "rows", r)
        object.__setattr__(self, "cols", c)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)], rows=rows, cols=cols)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def column(self, j: int):
        return tuple(self.data[i][j] for i in range(self.rows))

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        out = [[0] * other.cols for _ in range(self.rows)]
        for i in range(self.rows):
            row = self.data[i]
            for k in range(self.cols):
                a = row[k]
                if a:
                    orow = other.data[k]
                    for j in range(other.cols):
                        out[i][j] += a * orow[j]
        return IntMatrix(out, rows=self.rows, cols=other.cols)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix([[-x for x in row] for row in self.data], rows=self.rows, cols=self.cols)

    def apply_vector(self, vec):
        """Matrix times column vector, as a tuple."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(map(mul, row, vec)) for row in self.data)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.data]!r})"


@dataclass(frozen=True)
class SmithForm:
    """U * m * V = D with U, V unimodular and D diagonal, d1 | d2 | ...

    ``u_inv`` and ``v_inv`` are the exact inverses of ``u`` and ``v``; they
    are tracked during the reduction so no rational inversion is ever
    needed.  ``diagonal`` lists the nonzero invariant factors.
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


def smith_normal_form_full(m: IntMatrix) -> SmithForm:
    r, c = m.rows, m.cols
    diag, a, (u, v, u_inv, v_inv) = _smith(m, track=True)
    return SmithForm(
        u=IntMatrix(u, rows=r, cols=r),
        d=IntMatrix(a, rows=r, cols=c),
        v=IntMatrix(v, rows=c, cols=c),
        u_inv=IntMatrix(u_inv, rows=r, cols=r),
        v_inv=IntMatrix(v_inv, rows=c, cols=c),
        diagonal=diag,
    )


def invariant_factors(m: IntMatrix) -> tuple[int, ...]:
    """The nonzero Smith diagonal d1 | d2 | ... of m, without transforms.

    Same reduction as ``smith_normal_form_full``, with no U, V or inverses
    carried along; enough wherever only orders are needed.
    """
    return _smith(m, track=False)[0]


def _smith(m: IntMatrix, track: bool):
    """Reduce a copy of m to Smith form: (diagonal, D rows, transforms).

    ``transforms`` is (U, V, U^-1, V^-1) as row lists when ``track`` is set
    and None otherwise; the pivot choices depend on D alone, so both modes
    reach the same diagonal.
    """
    r, c = m.rows, m.cols
    a = [list(row) for row in m.data]
    if track:
        u = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
        u_inv = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
        v = [[1 if i == j else 0 for j in range(c)] for i in range(c)]
        v_inv = [[1 if i == j else 0 for j in range(c)] for i in range(c)]

    # Row op a[i] += q*a[k] corresponds to U := E U, Uinv := Uinv E^-1.
    def row_add(i, k, q):
        ai, ak = a[i], a[k]
        for j in range(c):
            ai[j] += q * ak[j]
        if track:
            for j in range(r):
                u[i][j] += q * u[k][j]
            for s in range(r):
                u_inv[s][k] -= q * u_inv[s][i]

    def row_swap(i, k):
        a[i], a[k] = a[k], a[i]
        if track:
            u[i], u[k] = u[k], u[i]
            for s in range(r):
                u_inv[s][i], u_inv[s][k] = u_inv[s][k], u_inv[s][i]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        if track:
            u[i] = [-x for x in u[i]]
            for s in range(r):
                u_inv[s][i] = -u_inv[s][i]

    # Column op col_j += q*col_l corresponds to V := V E, Vinv := E^-1 Vinv.
    def col_add(j, l, q):
        for row in a:
            row[j] += q * row[l]
        if track:
            for row in v:
                row[j] += q * row[l]
            for t in range(c):
                v_inv[l][t] -= q * v_inv[j][t]

    def col_swap(j, l):
        for row in a:
            row[j], row[l] = row[l], row[j]
        if track:
            for row in v:
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
    return diag, a, ((u, v, u_inv, v_inv) if track else None)


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
