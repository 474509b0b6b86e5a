"""Groupoid-cardinality path integrals for finite homotopy targets.

For the target B^nA on a closed M the mapping space has homotopy groups
pi_q = H^{n-q}(M; A), so its homotopy cardinality is the alternating
product prod_q |H^{n-q}(M; A)|^{(-1)^q}.  That product is adopted as the
partition function for every n.  Only orders enter, so they come from the
integer invariant factors of the boundary matrices (universal coefficients),
each matrix reduced once per complex; no cohomology representatives or Smith
transforms are built.  An independent cochain-groupoid oracle
(#Z^n weighted by the gauge tower |C^{n-1}|, |C^{n-2}|, ...) validates it
at desk scale.  Nonabelian gauge groups are supported on surfaces only,
where the partition function is the normalized count of tuples with
prod [a_i, b_i] = e: the identity coefficient of the g-th convolution
power of the commutator histogram in Z[G], in g |G|^2 exact integer steps.
The tests check it against the |G|^{2g} tuple enumeration and against
Frobenius-Mednykh, sum over irreducible characters of (|G|/chi(1))^{2g-2}.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import complexes
from .complexes import ChainComplex, cohomology_order, count_cocycles, is_closed
from .groups import FiniteAbelianGroup, FiniteGroup
from .limits import as_int, check_enum


@dataclass(frozen=True)
class PiFiniteTarget:
    """Either BG for a finite group G (degree 1) or B^nA for abelian A."""

    group: FiniteGroup | FiniteAbelianGroup
    degree: int

    def __post_init__(self):
        object.__setattr__(self, "degree", as_int(self.degree, "target degree"))
        if self.degree < 1:
            raise ValueError("target degree must be >= 1")
        if isinstance(self.group, FiniteGroup) and self.degree != 1:
            raise ValueError("nonabelian targets only exist in degree 1")


def em_partition(m: ChainComplex, coeffs: FiniteAbelianGroup, n: int) -> Fraction:
    """Partition function of the B^nA theory on a closed complex.

    Returns prod_{q=0}^{n} |H^{n-q}(m; A)|^{(-1)^q} as an exact rational;
    for n = 2 this is #H^2 * #H^0 / #H^1.  The complex keeps each boundary
    matrix's reduction, so the closedness check and every degree share it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not is_closed(m):
        raise ValueError("em_partition requires a closed complex")
    value = Fraction(1)
    # degrees above the top cell contribute |H^deg| = 1
    for q in range(max(0, n - m.top_dim), n + 1):
        order = cohomology_order(m, coeffs, n - q)
        value *= Fraction(order) if q % 2 == 0 else Fraction(1, order)
    return value


def em_partition_bruteforce(m: ChainComplex, coeffs: FiniteAbelianGroup, n: int) -> Fraction:
    """Independent oracle: cochain-level groupoid cardinality.

    Counts degree-n cocycles exhaustively and weights by the full gauge
    tower: #Z^n * prod_{k<n} |C^k|^{(-1)^{n-k}}.  Agrees with em_partition
    because #H^q telescopes against coboundary counts.
    """
    if not is_closed(m):
        raise ValueError("oracle requires a closed complex")
    value = Fraction(count_cocycles(m, coeffs, n)) if n <= m.top_dim else (
        Fraction(1)
    )
    for k in range(n):
        c_k = coeffs.order ** m.n_cells(k)
        value *= Fraction(c_k) if (n - k) % 2 == 0 else Fraction(1, c_k)
    return value


def em_state_space_dim(m: ChainComplex, coeffs: FiniteAbelianGroup, n: int) -> int:
    """dim of the state space on m: the number of components of the mapping
    space, |H^n(m; A)|."""
    if n > m.top_dim:
        return 1
    return cohomology_order(m, coeffs, n)


def em_category_simple_count(m: ChainComplex, coeffs: FiniteAbelianGroup) -> int:
    """Simple objects of the category assigned to a closed 3-manifold by the
    B^2A theory: |H^2(m; A)| * |H^1(m; A)|."""
    if m.top_dim != 3:
        raise ValueError("category-level counting needs a 3-complex")
    return cohomology_order(m, coeffs, 2) * cohomology_order(m, coeffs, 1)


def surface_gauge_count(group: FiniteGroup, genus: int) -> Fraction:
    """Z_G(Sigma_g) = #{(a_1,b_1,..,a_g,b_g) : prod [a_i,b_i] = e} / |G|.

    The count is the identity coefficient of c^{*g} in Z[G], where
    c[x] = #{(a, b) : [a, b] = x} is the commutator histogram: |G|^2
    commutators build c, and each of the g - 1 convolutions through the
    Cayley rows takes at most |G|^2 exact integer steps.  The g = 0 value
    is the groupoid cardinality of pt//G, i.e. 1/|G|.  The guard is
    charged max(|G|^{2g}, g |G|^2): the tuple count, which keeps every
    existing limit and message, or the convolution steps where those are
    larger (the trivial group).
    """
    if genus < 0:
        raise ValueError("genus must be >= 0")
    if genus == 0:
        return Fraction(1, group.order)
    n = group.order
    check_enum(max(n ** (2 * genus), genus * n * n), what="gauge tuple enumeration")
    hist = Counter(group.commutator(a, b) for a in range(n) for b in range(n))
    acc = hist
    for _ in range(genus - 1):
        nxt = Counter()
        for x, ax in acc.items():
            row = group.cayley[x]
            for y, cy in hist.items():
                nxt[row[y]] += ax * cy
        acc = nxt
    return Fraction(acc[group.identity], n)


def partition(target: PiFiniteTarget, m: ChainComplex) -> Fraction:
    """Dispatch on the target kind.

    Abelian targets work on any closed preset; a nonabelian BG is only
    supported on the standard closed surface complexes, where the bundle
    count has the one-relator form used by surface_gauge_count.
    """
    if isinstance(target.group, FiniteAbelianGroup):
        return em_partition(m, target.group, target.degree)
    genus = _genus_of_surface_complex(m)
    if genus is None:
        raise ValueError(
            "nonabelian gauge groups are supported on closed surfaces only"
        )
    return surface_gauge_count(target.group, genus)


def _genus_of_surface_complex(m: ChainComplex):
    """Recognize the standard closed orientable surface complexes, cell for
    cell (``torus(2)`` equals ``surface(1)``); returns the genus or None."""
    for g in range(0, 5):
        if m == complexes.surface(g):
            return g
    return None
