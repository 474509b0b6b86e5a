"""Fusion rings and obstruction tests for trivially gapped phases.

Only the Grothendieck ring is modeled: labels, the fusion tensor N_ij^k,
and the duality involution.  That is exactly the data used by the
impossibility arguments implemented here: non-integral Perron-Frobenius
dimensions obstruct fiber functors, and a non-square count of simples
obstructs writing a theory as T* x T.  Both verdicts are one-sided
(necessary conditions); the API never claims existence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Context, Decimal
from fractions import Fraction
from math import ceil, floor, isqrt
from operator import truediv

from .groups import FiniteGroup
from .intmatrix import _det
from .limits import as_int, check_enum

PF_MAX_ITER = 10**5
_PF_BITS = 128  # bits of the smallest entry that a rescaled iterate keeps


def _charged_rank(rank: int) -> int:
    check_enum(rank**3, what=f"fusion associativity check ({rank}^3 triples)")
    return rank


@dataclass(frozen=True, repr=False)
class FusionRing:
    """Unital based ring with nonnegative structure constants.

    ``n_tensor[i][j][k]`` is the multiplicity of simple k inside i x j.
    Validated on construction: unit laws, associativity, and the duality
    pairing N_ij^1 = delta_{j, i*}.  Associativity is checked as
    (i x j) x k = i x (j x k) with sparse products over the nonzero N_ij^k,
    on simples i, k and on the middles j: the simples other than the unit
    that are not one simple x x y of earlier simples (Light's test, as in
    ``FiniteGroup``).  By bilinearity the b with (ab)c = a(bc) for all a, c
    are closed under products, (a(xy))c = ((ax)y)c = (ax)(yc) = a(x(yc)) =
    a((xy)c), so by induction on the index every simple has it, and then
    the whole ring.  The rank^3 triples are charged to the enumeration guard.
    The PF enclosure of each simple is kept once computed; it is not part
    of equality.
    """

    labels: tuple[str, ...]
    unit: int
    n_tensor: tuple[tuple[tuple[int, ...], ...], ...]
    dual: tuple[int, ...]
    _enclosures: dict = field(default_factory=dict, init=False, compare=False)

    def __post_init__(self):
        labels, unit = tuple(str(l) for l in self.labels), as_int(self.unit, "unit index")
        rank = len(labels)
        n = tuple(tuple(tuple(as_int(x, "fusion multiplicity") for x in row) for row in plane)
                  for plane in self.n_tensor)
        if len(n) != rank or any(
            len(plane) != rank or any(len(row) != rank for row in plane)
            for plane in n
        ):
            raise ValueError("fusion tensor must be rank^3")
        if any(x < 0 for plane in n for row in plane for x in row):
            raise ValueError("fusion multiplicities must be nonnegative")
        dual = tuple(as_int(d, "dual index") for d in self.dual)
        if sorted(dual) != list(range(rank)) or any(dual[dual[i]] != i for i in range(rank)):
            raise ValueError("dual must be an involution on labels")
        if not 0 <= unit < rank:
            raise ValueError(f"unit index {unit} is out of range for {rank} simples")
        basis = [tuple(int(a == b) for b in range(rank)) for a in range(rank)]
        for j in range(rank):
            if n[unit][j] != basis[j]:
                raise ValueError("left unit law fails")
            if n[j][unit] != basis[j]:
                raise ValueError("right unit law fails")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "n_tensor", n)
        object.__setattr__(self, "dual", dual)
        _charged_rank(rank)
        # terms[i][j]: the nonzero (k, N_ij^k) of i x j.  Products of positive
        # multiplicities never cancel, so sparse sums compare like dense ones.
        terms = [
            [tuple((k, x) for k, x in enumerate(row) if x) for row in plane]
            for plane in n
        ]
        products = {xy[0][0] for x, row in enumerate(terms) for y, xy in enumerate(row)
                    if len(xy) == 1 and xy[0][1] == 1 and xy[0][0] > max(x, y)}
        middles = [j for j in range(rank) if j != unit and j not in products]
        for i in range(rank):
            for j in middles:
                ij = terms[i][j]
                for k in range(rank):
                    left = {}
                    for m, c in ij:
                        for l, x in terms[m][k]:
                            left[l] = left.get(l, 0) + c * x
                    right = {}
                    for m, c in terms[j][k]:
                        for l, x in terms[i][m]:
                            right[l] = right.get(l, 0) + c * x
                    if left != right:
                        raise ValueError(
                            f"associativity fails at {labels[i]},{labels[j]},{labels[k]}"
                        )
        for i in range(rank):
            if tuple(n[i][j][unit] for j in range(rank)) != basis[dual[i]]:
                raise ValueError("duality pairing N_ij^1 = delta_(j,i*) fails")

    @property
    def rank(self) -> int:
        return len(self.labels)

    def multiply(self, coeffs_a, coeffs_b):
        out = [0] * self.rank
        for a, plane in zip(coeffs_a, self.n_tensor):
            if a:
                for b, row in zip(coeffs_b, plane):
                    if b:
                        for k, n in enumerate(row):
                            out[k] += a * b * n
        return tuple(out)

    def __repr__(self):
        return f"FusionRing({list(self.labels)!r})"

    def to_json(self) -> str:
        import json

        return json.dumps(
            {
                "labels": list(self.labels),
                "unit": self.unit,
                "N": [[list(r) for r in p] for p in self.n_tensor],
                "dual": list(self.dual),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "FusionRing":
        import json

        doc = json.loads(text)
        return cls(doc["labels"], doc["unit"], doc["N"], doc["dual"])


@dataclass(frozen=True)
class RingElement:
    ring: FusionRing
    coefficients: tuple[int, ...]

    def __post_init__(self):
        if len(self.coefficients) != self.ring.rank:
            raise ValueError("coefficient vector length mismatch")
        if any(c < 0 for c in self.coefficients):
            raise ValueError("coefficients must be nonnegative")

    def __add__(self, other: "RingElement") -> "RingElement":
        if self.ring != other.ring:
            raise ValueError("elements of different rings")
        return RingElement(
            self.ring,
            tuple(a + b for a, b in zip(self.coefficients, other.coefficients)),
        )

    def __mul__(self, other):
        if isinstance(other, int):
            return RingElement(self.ring, tuple(other * c for c in self.coefficients))
        if self.ring != other.ring:
            raise ValueError("elements of different rings")
        return RingElement(
            self.ring, self.ring.multiply(self.coefficients, other.coefficients)
        )

    __rmul__ = __mul__

    def __str__(self):
        terms = []
        for c, lbl in zip(self.coefficients, self.ring.labels):
            if c == 1:
                terms.append(lbl)
            elif c:
                terms.append(f"{c}*{lbl}")
        return " + ".join(terms) if terms else "0"


def _element_label(group: FiniteGroup, i: int) -> str:
    return "1" if i == group.identity else f"g{i}"


def group_ring(group: FiniteGroup) -> FusionRing:
    """One simple per group element; fusion is the Cayley table, duals are
    inverses."""
    rank = _charged_rank(group.order)
    n = [
        [
            [1 if group.mul(i, j) == k else 0 for k in range(rank)]
            for j in range(rank)
        ]
        for i in range(rank)
    ]
    labels = [_element_label(group, i) for i in range(rank)]
    return FusionRing(labels, group.identity, n, group.inverses)


def tambara_yamagami(group: FiniteGroup) -> FusionRing:
    """TY(G): invertible lines L_g plus one duality line N with
    N x L_g = L_g x N = N and N x N = sum_g L_g.  Needs abelian G."""
    if not group.is_abelian():
        raise ValueError("Tambara-Yamagami requires an abelian group")
    rank = _charged_rank(group.order + 1)
    dual_idx = group.order
    n = [[[0] * rank for _ in range(rank)] for _ in range(rank)]
    for i in range(group.order):
        for j in range(group.order):
            n[i][j][group.mul(i, j)] = 1
        n[i][dual_idx][dual_idx] = 1
        n[dual_idx][i][dual_idx] = 1
    for g in range(group.order):
        n[dual_idx][dual_idx][g] = 1
    labels = [_element_label(group, i) for i in range(group.order)] + ["N"]
    dual = list(group.inverses) + [dual_idx]
    return FusionRing(labels, group.identity, n, dual)


def _is_invertible(ring: FusionRing, i: int) -> bool:
    """Exact test: left multiplication by simple i permutes the simples,
    i.e. each i x j is a single simple and no two j give the same one."""
    rows = ring.n_tensor[i]
    if any(sum(row) != 1 for row in rows):
        return False
    return len({row.index(1) for row in rows}) == len(rows)


def _rounded(x: Fraction) -> tuple[Decimal, str]:
    """x > 0 correctly rounded to the 15 significant digits that the CLI's
    dims print, and to the 12 decimals of the fiber-functor detail."""
    q = round(x * 10**12)
    return Context(prec=15).divide(x.numerator, x.denominator), f"{q // 10**12}.{q % 10**12:012d}"


def _pf_enclosure(ring: FusionRing, i: int) -> tuple[Fraction, Fraction]:
    """Rationals lo <= d_i <= hi that round to the same float, and alike
    under ``_rounded`` (an irrational d_i is never on a decimal boundary);
    computed once per ring and simple."""
    if i not in ring._enclosures:
        ring._enclosures[i] = _pf_iterate(ring, i)
    return ring._enclosures[i]


def _pf_iterate(ring: FusionRing, i: int) -> tuple[Fraction, Fraction]:
    """The enclosure of ``_pf_enclosure``, computed.

    Invertible simples give exactly (1, 1).  Otherwise the exact positive
    integer vector v, from (1, ..., 1), is iterated as v <- (N_i + c I) v.
    The integer c >= 1 is about half the current estimate of d_i: any c > 0
    makes the iteration converge when N_i has the eigenvalues d_i and -d_i
    (TY rings), and c = d_i / 2 damps TY's spectrum {d_i, -d_i, 0} fastest.
    For every positive v the Collatz-Wielandt bound
    min_k (N_i v)_k / v_k <= rho(N_i) <= max_k (N_i v)_k / v_k holds
    (Collatz, Math. Z. 48, 221 (1942); Wielandt, Math. Z. 52, 642 (1950)),
    and it closes on d_i because the dimension vector d is a common positive
    eigenvector (N_i d = d_i d).  The iterate is shifted right once its
    smallest entry passes 2 * _PF_BITS bits, which keeps it positive and
    the bound valid.
    """
    if _is_invertible(ring, i):
        return Fraction(1), Fraction(1)
    rank, plane = ring.rank, ring.n_tensor[i]
    # row k of N_i: the nonzero (j, N_ij^k)
    rows = [tuple((j, plane[j][k]) for j in range(rank) if plane[j][k]) for k in range(rank)]
    v = [1] * rank
    for _ in range(PF_MAX_ITER):
        w = [sum(x * v[j] for j, x in row) for row in rows]
        # int / int rounds correctly, and rounding is monotone: the exact
        # ratios round to one float exactly when these floats are all equal
        ratios = list(map(truediv, w, v))
        lo, hi = min(ratios), max(ratios)
        if lo == hi:
            exact = [Fraction(a, b) for a, b in zip(w, v)]
            if _rounded(min(exact)) == _rounded(max(exact)):
                return min(exact), max(exact)
        c = max(1, round((lo + hi) / 4))
        v = [a + c * b for a, b in zip(w, v)]
        shift = min(v).bit_length() - _PF_BITS
        if shift > _PF_BITS:
            v = [x >> shift for x in v]
    raise RuntimeError(f"PF enclosure did not close for {ring.labels[i]}")


def pf_dimensions(ring: FusionRing):
    """Perron-Frobenius dimension of each simple object, as the float
    nearest the exact value (see ``_pf_enclosure``)."""
    return [float(_pf_enclosure(ring, i)[0]) for i in range(ring.rank)]


@dataclass(frozen=True)
class Obstruction:
    verdict: str
    witness: str | None = None
    detail: str | None = None


def fiber_functor_obstruction(ring: FusionRing) -> Obstruction:
    """'impossible' when some PF dimension is non-integral (necessary
    condition only; 'possible' is inconclusive).

    The enclosure lo <= d_i <= hi of ``_pf_enclosure`` is exact when
    lo = hi (its iterate is then a positive eigenvector).  Otherwise it is
    narrower than one float step, so d_i can only be the one integer k in
    it: det(N_i - k I) != 0 (Bareiss) proves d_i != k, and d_i counts as
    integral when k is an eigenvalue of N_i inside the enclosure.  When the
    witness object squares into invertibles (as in TY rings), d^2 is the
    exact integer sum of those multiplicities, and the detail says it is
    not a perfect square.
    """
    rank = ring.rank
    for i in range(rank):
        lo, hi = _pf_enclosure(ring, i)
        plane = ring.n_tensor[i]
        if lo == hi:
            if lo.denominator == 1:
                continue
        elif any(
            _det([[plane[j][k] - c * (j == k) for j in range(rank)] for k in range(rank)]) == 0
            for c in range(ceil(lo), floor(hi) + 1)
        ):
            continue
        detail = f"d({ring.labels[i]}) = {_rounded(lo)[1]} is not an integer"
        square_row = plane[ring.dual[i]]
        if all(square_row[k] == 0 or _is_invertible(ring, k) for k in range(rank)):
            detail += f"; exactly, d^2 = {sum(square_row)} is not a perfect square"
        return Obstruction("impossible", witness=ring.labels[i], detail=detail)
    return Obstruction("possible", detail="all PF dimensions integral (inconclusive)")


def _is_perfect_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def square_root_obstruction(ring: FusionRing) -> Obstruction:
    """'no_sqrt' when the rank is not a perfect square: the simples of
    T* x T number rank(T)^2, so a non-square rank has no such factorization."""
    if _is_perfect_square(ring.rank):
        return Obstruction("inconclusive", detail=f"rank {ring.rank} is a perfect square")
    return Obstruction(
        "no_sqrt", detail=f"rank {ring.rank} is not a perfect square"
    )


def quotient_defect_composition(group: FiniteGroup) -> RingElement:
    """The 't Hooft-type sum over group defects, sum_g L_g, in the group
    ring; composing the quotient wall with its adjoint lands on it.  Its
    square is |G| times itself."""
    ring = group_ring(group)
    return RingElement(ring, (1,) * ring.rank)
