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


@dataclass(frozen=True, init=False, repr=False)
class FusionRing:
    """Unital based ring with nonnegative structure constants, stored as
    its nonzero terms: ``terms[i][j] = ((k, N_ij^k), ...)``, sorted by k.

    The constructor takes the dense ``n_tensor[i][j][k]`` (a view built on
    each read) and checks each entry once; package rings pass their terms to
    ``_trusted``.  Both are validated: unit laws, associativity, and the
    duality pairing N_ij^1 = delta_{j, i*}.  Associativity is checked as
    (i x j) x k = i x (j x k) with sparse products, on simples i, k and on
    the middles j: the simples other than the unit that are not one simple
    x x y of earlier simples (Light's test, as in ``FiniteGroup``).  By
    bilinearity the b with (ab)c = a(bc) for all a, c are closed under
    products, (a(xy))c = ((ax)y)c = (ax)(yc) = a(x(yc)) = a((xy)c), so by
    induction on the index every simple has it, and then the whole ring.
    The rank^3 triples are charged to the enumeration guard.  The PF
    enclosure of each simple is kept once computed, outside equality.
    """

    labels: tuple[str, ...]
    unit: int
    terms: tuple[tuple[tuple[tuple[int, int], ...], ...], ...]
    dual: tuple[int, ...]
    _enclosures: dict = field(compare=False)

    def __init__(self, labels, unit, n_tensor, dual):
        labels, unit = tuple(str(l) for l in labels), as_int(unit, "unit index")
        rank = len(labels)
        n = tuple(tuple(tuple(as_int(x, "fusion multiplicity") for x in row) for row in plane)
                  for plane in n_tensor)
        if len(n) != rank or any(len(plane) != rank or any(len(row) != rank for row in plane)
                                 for plane in n):
            raise ValueError("fusion tensor must be rank^3")
        if any(x < 0 for plane in n for row in plane for x in row):
            raise ValueError("fusion multiplicities must be nonnegative")
        dual = tuple(as_int(d, "dual index") for d in dual)
        terms = tuple(tuple(tuple((k, x) for k, x in enumerate(row) if x) for row in plane)
                      for plane in n)
        self._validate(labels, unit, terms, dual)

    @classmethod
    def _trusted(cls, labels, unit, terms, dual) -> "FusionRing":
        """The ring of terms the package built itself from exact ints, as
        tuples: no per-entry check, the same validator."""
        ring = object.__new__(cls)
        ring._validate(labels, unit, terms, dual)
        return ring

    def _validate(self, labels, unit, terms, dual):
        """The one validator of both constructors; sets the fields once it passes."""
        rank = len(labels)
        if sorted(dual) != list(range(rank)) or any(dual[dual[i]] != i for i in range(rank)):
            raise ValueError("dual must be an involution on labels")
        if not 0 <= unit < rank:
            raise ValueError(f"unit index {unit} is out of range for {rank} simples")
        for j in range(rank):
            if terms[unit][j] != ((j, 1),):
                raise ValueError("left unit law fails")
            if terms[j][unit] != ((j, 1),):
                raise ValueError("right unit law fails")
        _charged_rank(rank)
        # Products of positive multiplicities never cancel, so sparse sums
        # compare like dense ones.
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
        for i, plane in enumerate(terms):
            units = [(j, x) for j, ij in enumerate(plane) for k, x in ij if k == unit]
            if units != [(dual[i], 1)]:
                raise ValueError("duality pairing N_ij^1 = delta_(j,i*) fails")
        for name, value in zip(("labels", "unit", "terms", "dual", "_enclosures"),
                               (labels, unit, terms, dual, {})):
            object.__setattr__(self, name, value)

    @property
    def rank(self) -> int:
        return len(self.labels)

    @property
    def n_tensor(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        return tuple(tuple(tuple(_dense(ij, self.rank)) for ij in plane) for plane in self.terms)

    def multiply(self, coeffs_a, coeffs_b):
        out = [0] * self.rank
        for a, plane in zip(coeffs_a, self.terms):
            if a:
                for b, ij in zip(coeffs_b, plane):
                    if b:
                        for k, n in ij:
                            out[k] += a * b * n
        return tuple(out)

    def __repr__(self):
        return f"FusionRing({list(self.labels)!r})"

    def to_json(self) -> str:
        import json

        return json.dumps({"labels": list(self.labels), "unit": self.unit,
                           "N": [[list(r) for r in p] for p in self.n_tensor],
                           "dual": list(self.dual)})

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


def _dense(ij, rank: int) -> list[int]:
    """N_ij^0, ..., N_ij^(rank - 1) from the terms ij of i x j."""
    row = [0] * rank
    for k, x in ij:
        row[k] = x
    return row


def _element_label(group: FiniteGroup, i: int) -> str:
    return "1" if i == group.identity else f"g{i}"


def group_ring(group: FiniteGroup) -> FusionRing:
    """One simple per group element; fusion is the Cayley table, duals are
    inverses."""
    rank = _charged_rank(group.order)
    terms = tuple(tuple(((k, 1),) for k in row) for row in group.cayley)
    labels = tuple(_element_label(group, i) for i in range(rank))
    return FusionRing._trusted(labels, group.identity, terms, group.inverses)


def tambara_yamagami(group: FiniteGroup) -> FusionRing:
    """TY(G): invertible lines L_g plus one duality line N with
    N x L_g = L_g x N = N and N x N = sum_g L_g.  Needs abelian G."""
    if not group.is_abelian():
        raise ValueError("Tambara-Yamagami requires an abelian group")
    order = _charged_rank(group.order + 1) - 1
    n = ((order, 1),)  # the duality line
    terms = tuple(tuple(((k, 1),) for k in row) + (n,) for row in group.cayley) + (
        (n,) * order + (tuple((g, 1) for g in range(order)),),)
    labels = tuple(_element_label(group, i) for i in range(order)) + ("N",)
    return FusionRing._trusted(labels, group.identity, terms, group.inverses + (order,))


def _is_invertible(ring: FusionRing, i: int) -> bool:
    """Exact test: left multiplication by simple i permutes the simples,
    i.e. each i x j is a single simple and no two j give the same one."""
    row = ring.terms[i]
    return all(len(ij) == 1 and ij[0][1] == 1 for ij in row) and len(set(row)) == len(row)


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
    integer vector v, from (1, ..., 1), is iterated as v <- (M_i + c I) v,
    where row j of M_i is i x j: M_i[j][k] = N_ij^k.  The integer c >= 1 is
    about half the current estimate of d_i: any c > 0 makes the iteration
    converge when M_i has the eigenvalues d_i and -d_i (TY rings), and
    c = d_i / 2 damps TY's spectrum {d_i, -d_i, 0} fastest.  For every
    positive v the Collatz-Wielandt bound
    min_j (M_i v)_j / v_j <= rho(M_i) <= max_j (M_i v)_j / v_j holds
    (Collatz, Math. Z. 48, 221 (1942); Wielandt, Math. Z. 52, 642 (1950)),
    and it closes on d_i because the dimension vector d is a common positive
    eigenvector: (M_i d)_j = sum_k N_ij^k d_k = d_i d_j.  The iterate is
    shifted right once its smallest entry passes 2 * _PF_BITS bits, which
    keeps it positive and the bound valid.
    """
    if _is_invertible(ring, i):
        return Fraction(1), Fraction(1)
    v = [1] * ring.rank
    for _ in range(PF_MAX_ITER):
        w = [sum(x * v[k] for k, x in ij) for ij in ring.terms[i]]
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

    When i x i* is a sum of invertibles with multiplicities m_g (as in TY
    rings), d_i^2 = d_i d_i* = sum m_g exactly, so d_i is an integer exactly
    when that sum is a perfect square, and the detail says so.  Otherwise the
    enclosure lo <= d_i <= hi of ``_pf_enclosure`` is exact when lo = hi
    (its iterate is then a positive eigenvector), or else narrower than one
    float step, so d_i can only be the one integer k in it: det(M_i - k I)
    != 0 (Bareiss, M_i as in ``_pf_iterate``) proves d_i != k, and d_i
    counts as integral when k is an eigenvalue of M_i inside the enclosure.
    """
    for i, plane in enumerate(ring.terms):
        lo, hi = _pf_enclosure(ring, i)
        square = plane[ring.dual[i]]
        exact, d2 = all(_is_invertible(ring, k) for k, _ in square), sum(m for _, m in square)
        if exact:
            if _is_perfect_square(d2):
                continue
        elif lo == hi:
            if lo.denominator == 1:
                continue
        elif any(
            _det([[x - c * (j == k) for k, x in enumerate(_dense(ij, len(plane)))]
                  for j, ij in enumerate(plane)]) == 0
            for c in range(ceil(lo), floor(hi) + 1)
        ):
            continue
        detail = f"d({ring.labels[i]}) = {_rounded(lo)[1]} is not an integer"
        if exact:
            detail += f"; exactly, d^2 = {d2} is not a perfect square"
        return Obstruction("impossible", witness=ring.labels[i], detail=detail)
    return Obstruction("possible", detail="all PF dimensions integral (inconclusive)")


def _is_perfect_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def square_root_obstruction(ring: FusionRing) -> Obstruction:
    """'no_sqrt' when the rank is not a perfect square: the simples of
    T* x T number rank(T)^2, so a non-square rank has no such factorization."""
    if _is_perfect_square(ring.rank):
        return Obstruction("inconclusive", detail=f"rank {ring.rank} is a perfect square")
    return Obstruction("no_sqrt", detail=f"rank {ring.rank} is not a perfect square")


def quotient_defect_composition(group: FiniteGroup) -> RingElement:
    """The 't Hooft-type sum over group defects, sum_g L_g, in the group
    ring; composing the quotient wall with its adjoint lands on it.  Its
    square is |G| times itself."""
    ring = group_ring(group)
    return RingElement(ring, (1,) * ring.rank)
