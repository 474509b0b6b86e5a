"""Arithmetic consequences of anomalies and higher-form symmetry.

Everything here is finite arithmetic in Q/Z: the line lattices selected by
a quadratic refinement on a subgroup, the abelian anyon data of the minimal
Z_N theories, the non-invertible chiral-defect fusion with its condensed
subgroup, the theta = pi parity obstruction, fractional instanton numbers,
and the Gauss-sum self-duality scalar.
"""

from __future__ import annotations

import cmath
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, sqrt

from .groups import FiniteAbelianGroup, characters, dual_group
from .limits import as_int, check_enum
from .quadratic import QuadraticForm, _validate, mod1, polarization, subgroup_quadratic_table


@dataclass(frozen=True)
class LineLattice:
    """The genuine line defects: pairs (m, e) in A x A^dual.

    ``pairs`` is sorted; when produced by ``allowed_lines`` it is a subgroup
    of order |A|.
    """

    ambient: FiniteAbelianGroup
    pairs: tuple[tuple[tuple, tuple], ...]

    def is_closed_under_addition(self) -> bool:
        """Empty, or holding 0 and each coset by which their span grows."""
        a, dual, members = self.ambient, dual_group(self.ambient), set(self.pairs)
        grown = {(a.zero(), dual.zero())}
        for m, e in self.pairs:
            cosets, shift = [], (m, e)
            while shift not in grown:
                cosets.append({(a.add(x, shift[0]), dual.add(y, shift[1])) for x, y in grown})
                if not cosets[-1] <= members:
                    return False
                shift = (a.add(shift[0], m), dual.add(shift[1], e))
            grown.update(*cosets)
        return not members or grown <= members


def allowed_lines(
    ambient: FiniteAbelianGroup,
    subgroup_generators,
    q,
) -> LineLattice:
    """Line selection rule for the (A', q) boundary data.

    For each m in the subgroup A', the electric label is forced on A' to be
    the inverse of e'(m) = b(m, -), where b is the polarization of q; the
    Wilson directions transverse to A' remain free.  In additive notation
    the constraint is e|_{A'} = -b(m, -), homomorphisms matched on the
    generators of A'; each m carries |A|/|A'| characters, |A| in all.

    ``q`` is either a QuadraticForm on the whole group (only when A' = A)
    or a value table on the subgroup elements as produced by
    ``subgroup_quadratic_table``; a table is validated as a quadratic
    refinement on the subgroup, and a bad one raises ValueError.
    """
    order = _charge_selection(ambient, subgroup_generators)
    if isinstance(q, QuadraticForm):
        if q.domain != ambient or order != ambient.order:
            raise ValueError("a QuadraticForm on A works only when A' = A")
        table = q.table
    else:
        table = {tuple(k): mod1(v) for k, v in dict(q).items()}
        if set(table) != set(ambient.subgroup(subgroup_generators)):
            raise ValueError("q must be defined exactly on the subgroup")
        _validate(ambient, [tuple(g) for g in subgroup_generators], table)
    return _select_lines(ambient, subgroup_generators, table)


def allowed_lines_from_generator_values(
    ambient: FiniteAbelianGroup,
    subgroup_generators,
    gen_values,
    cross_terms=None,
) -> LineLattice:
    """Build q over the subgroup, then select lines; the walk that built
    the table has checked it, so it is not checked again."""
    _charge_selection(ambient, subgroup_generators)
    table = subgroup_quadratic_table(ambient, subgroup_generators, gen_values, cross_terms)
    return _select_lines(ambient, subgroup_generators, table)


def _charge_selection(ambient: FiniteAbelianGroup, subgroup_generators) -> int:
    """|A'|, once the |A'|^2 |A| selection loop is charged; A' is not built."""
    order = ambient.subgroup_order(subgroup_generators)
    check_enum(order**2 * ambient.order, what="line selection (|A'|^2 |A|)")
    return order


def _select_lines(ambient: FiniteAbelianGroup, generators, table) -> LineLattice:
    """The rule of ``allowed_lines`` for each m in A', the keys of ``table``:
    characters bucketed by values on gens."""
    buckets = {}
    for chi in characters(ambient):
        buckets.setdefault(tuple(chi.value(g) for g in generators), []).append(chi.exponents)
    pairs = []
    for m in table:
        key = tuple(-polarization(ambient, table, m, tuple(g)) % 1 for g in generators)
        pairs.extend((m, e) for e in buckets.get(key, ()))
    lattice = LineLattice(ambient, tuple(sorted(pairs)))
    if len(lattice.pairs) != ambient.order:
        raise AssertionError("selection rule must produce exactly |A| lines")
    if not lattice.is_closed_under_addition():
        raise AssertionError("line lattice must be closed under addition")
    return lattice


@dataclass(frozen=True)
class MinimalTFT:
    """The minimal abelian theory with Z_N one-form symmetry at level p."""

    n: int
    p: int

    def __post_init__(self):
        object.__setattr__(self, "n", as_int(self.n, "N"))
        object.__setattr__(self, "p", as_int(self.p, "p"))
        if self.n < 1:
            raise ValueError("N must be >= 1")
        if gcd(self.p, self.n) != 1:
            raise ValueError(f"p = {self.p} must be invertible mod N = {self.n}")


@dataclass(frozen=True)
class AnyonTable:
    """Spins and charges of the anyons L^k, k = 0..N-1, all exact.

    theta_k = p k^2 / 2N mod 1 (the spin of L^k), charge_k = p k mod N, and
    the mutual braiding B(j, k) = p j k / N mod 1 is bilinear and
    nondegenerate for gcd(p, N) = 1.  The k -> k + N ambiguity of the spin
    for even N is resolved by indexing strictly with k in [0, N).
    """

    n: int
    p: int
    spins: tuple[Fraction, ...]
    charges: tuple[int, ...]

    def braiding(self, j: int, k: int) -> Fraction:
        j, k = as_int(j, "anyon label"), as_int(k, "anyon label")
        return Fraction(self.p * j * k % self.n, self.n)


def minimal_tft_data(t: MinimalTFT) -> AnyonTable:
    check_enum(t.n, what="anyon enumeration")
    two_n = 2 * t.n
    spins = tuple(Fraction(t.p * k * k % two_n, two_n) for k in range(t.n))
    charges = tuple((t.p * k) % t.n for k in range(t.n))
    return AnyonTable(n=t.n, p=t.p, spins=spins, charges=charges)


def defect_quantum_dim(n: int) -> float:
    """Value of the minimal theory on S^3: 1/sqrt(N)."""
    n = as_int(n, "N")
    if n < 1:
        raise ValueError("N must be >= 1")
    return 1.0 / sqrt(n)


def flux_projector_action(n: int, m: int) -> int:
    """The defect on S^1 x S^2 projects flux sectors: 1 iff m = 0 mod N."""
    n, m = as_int(n, "N"), as_int(m, "flux")
    if n < 1:
        raise ValueError("N must be >= 1")
    return 1 if m % n == 0 else 0


@dataclass(frozen=True)
class ChiralAngle:
    """A rational chiral angle p/N in Q/Z, stored reduced."""

    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", mod1(self.value))

    @classmethod
    def of(cls, p: int, n: int) -> "ChiralAngle":
        p, n = as_int(p, "p"), as_int(n, "N")
        if n < 1:
            raise ValueError("N must be >= 1")
        return cls(Fraction(p, n))

    @property
    def n(self) -> int:
        return self.value.denominator

    @property
    def p(self) -> int:
        return self.value.numerator


def chiral_fuse(a: ChiralAngle, b: ChiralAngle) -> tuple[ChiralAngle, int]:
    """Fuse two chiral defects: angles add in Q/Z; the gauged subgroup is
    Z_g with g = lcm(N1, N2) / denominator(result).

    Over the common denominator L = lcm(N1, N2) the sum is s/L, and the
    transparent lines gauged at the junction form Z_{gcd(s, L)}; for equal
    denominators this is the gcd(p + q, N) rule.  The decoupled TFT
    multiplicity is not counted here, only the gauged subgroup order.
    """
    result = ChiralAngle(a.value + b.value)
    lcm = a.n * b.n // gcd(a.n, b.n)
    condensed = lcm // result.n
    return result, condensed


@dataclass(frozen=True)
class ThetaPiVerdict:
    anomalous: bool
    counterterm: int | None = None


def ym_theta_pi_anomaly(n: int) -> ThetaPiVerdict:
    """Time reversal at theta = pi needs a counterterm level k with
    2k = N - 1 mod the identification; for even N no integer k exists."""
    n = as_int(n, "N")
    if n < 2:
        raise ValueError("N must be >= 2")
    if n % 2 == 0:
        return ThetaPiVerdict(anomalous=True)
    return ThetaPiVerdict(anomalous=False, counterterm=(n - 1) // 2)


def fractional_instanton(n: int, pontryagin: int, spin: bool = False) -> Fraction:
    """Fractional part of the instanton number: -(N-1) P / 2N mod 1.

    ``pontryagin`` is the integral of the Pontryagin square of the discrete
    flux, an input reduced mod gcd(2, N) * N.  On spin manifolds with even
    N it is divisible by two, which the ``spin`` flag enforces.
    """
    n, pontryagin = as_int(n, "N"), as_int(pontryagin, "Pontryagin square")
    if n < 1:
        raise ValueError("N must be >= 1")
    modulus = gcd(2, n) * n
    p = pontryagin % modulus
    if spin and n % 2 == 0 and p % 2 != 0:
        raise ValueError("on spin manifolds with even N the input must be even")
    return Fraction(-(n - 1) * p, 2 * n) % 1


def gauss_sum(n: int, p: int) -> int:
    """sum_{b,c in Z_N} exp(2 pi i p^{-1} b c / N), which is exactly N.

    The inner sum over c is a full character sum, vanishing unless
    p^{-1} b = 0 mod N; only b = 0 survives and contributes N.
    """
    MinimalTFT(n, p)  # validates the level
    return n


def gauss_sum_direct(n: int, p: int) -> complex:
    """The same double sum accumulated numerically; oracle for gauss_sum.

    Row b of the sum is sum_c zeta^{k c} with k = p^{-1} b mod N.  The
    products k c run over the multiples of g = gcd(k, N), each one g times,
    so every row with the same g holds the same terms.  The rows are counted
    by g (N gcds) and one row of each class is added up once (sigma(N) adds
    over all g): the result is still the numeric sum of all N^2 terms,
    grouped by value.  It never uses gauss_sum's argument that a full
    character sum vanishes, so it stays an independent check.  The adds are
    sequential, so the bits do not depend on the Python version.
    """
    MinimalTFT(n, p)
    check_enum(n * n, what="Gauss-sum term enumeration")
    p_inv = pow(p, -1, n)
    roots = [cmath.exp(2j * cmath.pi * m / n) for m in range(n)]
    rows = Counter(gcd(p_inv * b, n) for b in range(n))
    total = 0j
    for g, count in rows.items():
        row = 0j
        for m in range(0, n, g):
            row += roots[m]
        total += count * g * row
    return total
