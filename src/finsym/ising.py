"""Exact 2d Ising stat mech on square tori: brute force, transfer matrices,
Z_2 backgrounds, gauging, and Kramers-Wannier duality.

Conventions, fixed for golden values:
  * spins live on the L x T sites of a square torus, site (x, t) has index
    t*L + x; every site has one spatial edge to (x+1 mod L, t) and one
    temporal edge to (x, t+1 mod T), so there are always 2*L*T edges
    (self-edges when L or T is 1);
  * the edge weight is 1 on agreeing spins and exp(-2*beta) on frustrated
    ones, so all weights are <= 1 and partition sums never overflow; the
    per-configuration data is the integer frustration count, and a sum over
    its histogram rounds once (``math.fsum`` of the weighted counts);
  * a background is a Z_2 twist per edge; the holonomy sector (h_x, h_t)
    twists the wrap-around edges.

Every brute-force histogram, of one background or of all four holonomy
sectors, comes from an exact site-by-site transfer over Python ints that
counts the 2^(L*T) spin configurations without listing them (a twisted edge
is frustrated exactly when the untwisted one is not).  Only the dense
``transfer_matrix`` oracle imports numpy, when it runs.

The transfer route evaluates the exact spectrum of the row-to-row transfer
matrix (Kaufman, Phys. Rev. 76, 1232 (1949); twisted boundaries from
Ferdinand and Fisher, Phys. Rev. 185, 832 (1969)).  With L the row length
(the h_x direction) and T the number of rows (the h_t direction):

    P = (1/2) (2 sinh 2b)^(LT/2) e^(-2bLT),
    cosh gamma_q = cosh 2b coth 2b - cos(pi q / L)     (q >= 1, gamma_q > 0),
    gamma_0 = 2 (b - b*), signed, with tanh b* = e^(-2b),
    Z1, Z2 = prod_{k<L} 2 cosh, 2 sinh (T gamma_{2k+1} / 2),
    Z3, Z4 = prod_{k<L} 2 cosh, 2 sinh (T gamma_{2k} / 2),

    Z[0,0] = P (Z1 + Z2 + Z3 + Z4)    Z[0,1] = P (Z1 + Z2 - Z3 - Z4)
    Z[1,0] = P (Z1 - Z2 + Z3 - Z4)    Z[1,1] = P (-Z1 + Z2 + Z3 - Z4).

At low temperature the twisted sectors cancel catastrophically, so the
products are evaluated in stdlib ``decimal``, in x = e^(2b): first at 40
digits plus log10(1/b) (lost to x - 1 at small b) and log10(T) (lost to
the T-th powers).  When max_i P|Z_i| / max(|Z[h]|, 2^-1075) shows that a
sector kept fewer than 20 of them, the products are evaluated once more
with the lost digits added.  The precision stays
bounded because max_i P|Z_i| <= Z[0,0], and a Z[0,0] that overflows a
float is a ValueError.  When exp(-2b) underflows, every excited weight is
0 and the sectors are the ground-state count (2, 0, 0, 0).  The dense
matrix ``transfer_matrix`` is kept as the oracle of this route.

Neither route has a size limit of its own: each four-sector evaluation
charges the guard ``evaluation_cost`` (the transfer route once per precision
it runs at), and the dense oracle its 4^L entries.

Kramers-Wannier: sinh(2*beta) * sinh(2*beta_dual) = 1.  In the weight
convention above the finite-torus duality reads

    (1/2) sum_sectors Z[h](beta) = f(beta)^E * Z(beta_dual),

with the per-edge factor f(beta) = (1 + exp(-2*beta)) / sqrt(2) (the
Fourier dual of the weight pair).  The ratio is pinned empirically by the
test suite rather than asserted a priori.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, Overflow, localcontext
from functools import lru_cache
from math import asinh, ceil, exp, expm1, fsum, isfinite, log, log10, sqrt

from .limits import as_int, check_enum

BETA_C = 0.5 * log(1.0 + sqrt(2.0))

SECTORS = ((0, 0), (0, 1), (1, 0), (1, 1))

_KAUFMAN_DIGITS = 40  # first working precision of the closed form
# Z[h] / P as the signed sum of Z1..Z4, per holonomy sector
_KAUFMAN_SIGNS = {(0, 0): (1, 1, 1, 1), (0, 1): (1, 1, -1, -1),
                  (1, 0): (1, -1, 1, -1), (1, 1): (-1, 1, 1, -1)}
_FLOAT_TINY_EXP = -324  # decimal exponent of 2^-1075, below which a float is 0
_OVERFLOW = "Z overflows a float; use brute force or a shorter torus"


@dataclass(frozen=True)
class IsingLattice:
    """An L x T site torus at inverse temperature beta."""

    length: int
    time_steps: int
    beta: float

    def __post_init__(self):
        for side in ("length", "time_steps"):
            object.__setattr__(self, side, as_int(getattr(self, side), "lattice side"))
        if self.length < 1 or self.time_steps < 1:
            raise ValueError("lattice sides must be >= 1")
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if not isfinite(self.beta):
            raise ValueError("beta must be positive and finite")

    @property
    def sites(self) -> int:
        return self.length * self.time_steps


def site_index(lat: IsingLattice, x: int, t: int) -> int:
    return (t % lat.time_steps) * lat.length + (x % lat.length)


def edges(lat: IsingLattice):
    """All edges as (site, site) pairs: spatial ones first, then temporal,
    each block in site order."""
    out = []
    for t in range(lat.time_steps):
        for x in range(lat.length):
            out.append((site_index(lat, x, t), site_index(lat, x + 1, t)))
    for t in range(lat.time_steps):
        for x in range(lat.length):
            out.append((site_index(lat, x, t), site_index(lat, x, t + 1)))
    return tuple(out)


@dataclass(frozen=True)
class Background:
    """A Z_2 twist (+1 or -1) per edge, in the order of ``edges``."""

    lattice: IsingLattice
    twists: tuple[int, ...]

    def __post_init__(self):
        if len(self.twists) != 2 * self.lattice.sites:
            raise ValueError("one twist per edge required")
        if any(t not in (-1, 1) for t in self.twists):
            raise ValueError("twists are +1 or -1")

    @classmethod
    def trivial(cls, lat: IsingLattice) -> "Background":
        return cls(lat, (1,) * (2 * lat.sites))

    @classmethod
    def from_holonomies(cls, lat: IsingLattice, h_x: int, h_t: int) -> "Background":
        """Twist the spatial wrap edges by h_x and the temporal wrap edges
        by h_t (holonomies in {0, 1})."""
        row = [1] * (lat.length - 1) + [-1 if h_x % 2 else 1]
        last = [-1 if h_t % 2 else 1] * lat.length
        return cls(lat, tuple(row * lat.time_steps + [1] * (lat.sites - lat.length) + last))

    def flip_site(self, x: int, t: int) -> "Background":
        """Gauge transformation: multiply every edge at one site by -1.

        Gauge-equivalent backgrounds give equal partition functions."""
        v = site_index(self.lattice, x, t)
        new = list(self.twists)
        for idx, (i, j) in enumerate(edges(self.lattice)):
            for end in (i, j):
                if end == v:
                    new[idx] = -new[idx]
        return Background(self.lattice, tuple(new))


def weight(beta: float, s: int) -> float:
    """Edge weight: 1 for agreeing spins (+1), exp(-2*beta) for -1."""
    if not beta > 0:
        raise ValueError("beta must be positive")
    if s == 1:
        return 1.0
    if s == -1:
        return exp(-2.0 * beta)
    raise ValueError("spin product must be +1 or -1")


@lru_cache(maxsize=None)  # width <= 4 and slot <= 25 under the 2^24 ceiling
def _site_step(width: int, x: int, across: int, up: int, slot: int) -> tuple:
    """(p0, p1, shift0, shift1) per window w with a new spin in bit x: w with
    the replaced spin above it 0 or 1, and ``slot`` times the frustrated
    edges the spin closes, above it (twist ``up``) and in its row, where bit
    i of w ^ (w turned by one) ^ ``across`` marks edge i, i + 1 mod width."""
    closes = 1 << x >> 1 | (x == width - 1) << (width - 1)  # edges x - 1 and width - 1
    out = []
    for w in range(1 << width):
        s, row = w >> x & 1, ((w ^ (w >> 1 | w << (width - 1)) ^ across) & closes).bit_count()
        out.append((w & ~(1 << x), w | 1 << x,
                    slot * (row + (s ^ up)), slot * (row + (s ^ up ^ 1))))
    return tuple(out)


def _histograms(lat: IsingLattice, backgrounds) -> list:
    """The frustration histogram of every background, as a tuple of ints, by
    an exact site-by-site transfer along the longer side (Bhanot, J. Stat.
    Phys. 60, 55 (1990)): each window of the last min(L, T) spins carries,
    per first row with bit 0 clear, the histogram so far packed into one int,
    so placing a spin is a shift and an add.  The closing edges back to the
    first row come last, so backgrounds that differ only there share a
    sweep; a global spin flip keeps every count and doubles the result.
    The guard is charged before the backgrounds (None: trivial) are built."""
    check_enum(evaluation_cost(lat, "bruteforce"), what="spin configuration enumeration")
    backgrounds = [Background.trivial(lat) if bg is None else bg for bg in backgrounds]
    if any(bg.lattice != lat for bg in backgrounds):
        raise ValueError("background belongs to a different lattice")
    length, sites = lat.length, lat.sites
    transpose = lat.time_steps < length  # sweep along x: rows are columns of the torus
    width, rows = (lat.time_steps, length) if transpose else (length, lat.time_steps)
    slot, firsts = sites + 1, range(0, 1 << width, 2)
    field = slot * (2 * sites + 1)  # one histogram

    def masks(twists, first):  # per sweep row, bit x for a twisted edge
        return tuple(sum(1 << x for x in range(width) if twists[
            first + (x * length + r if transpose else r * length + x)] < 0) for r in range(rows))

    sweeps, hists = {}, {}
    for b, bg in enumerate(backgrounds):
        across = masks(bg.twists, sites * transpose)
        down = masks(bg.twists, sites * (not transpose))
        sweeps.setdefault((across, down[:-1]), []).append((b, down[-1]))
    for (across, down), closings in sweeps.items():
        state = [0] * (1 << width)
        for f in firsts:  # f >> 1 is the first row f turned by one column
            state[f] = 1 << (field * (f >> 1) + slot * (f ^ f >> 1 ^ across[0]).bit_count())
        for r in range(1, rows):
            for x in range(width):
                step = _site_step(width, x, across[r], down[r - 1] >> x & 1, slot)
                state = [(state[p0] << s0) + (state[p1] << s1) for p0, p1, s0, s1 in step]
        parts = [(w ^ f, packed >> field * (f >> 1) & (1 << field) - 1)
                 for w, packed in enumerate(state) for f in firsts]
        for b, closing in closings:
            total = sum(part << slot * (diff ^ closing).bit_count() for diff, part in parts)
            hists[b] = tuple(2 * (total >> slot * k & (1 << slot) - 1)
                             for k in range(2 * sites + 1))
    return [hists[b] for b in range(len(backgrounds))]


def frustration_histogram(lat: IsingLattice, bg: Background | None = None) -> tuple:
    """counts[k] = number of spin configurations with k frustrated edges, as
    a tuple of exact ints over k = 0 .. 2*L*T (guarded at 2^(L*T) states)."""
    return _histograms(lat, [bg])[0]


def sector_histograms(lat: IsingLattice) -> dict:
    """The frustration histogram of every holonomy sector, from two sweeps."""
    backgrounds = (Background.from_holonomies(lat, *sector) for sector in SECTORS)
    return dict(zip(SECTORS, _histograms(lat, backgrounds)))


def _partition_from_histogram(hist, beta: float) -> float:
    """sum_k hist[k] exp(-2 beta k), the terms summed by ``fsum`` with one rounding;
    beta*k is formed first, so k = 0 gives 1 at any finite beta (not exp(-inf * 0))."""
    return fsum(c * exp(-2.0 * (beta * k)) for k, c in enumerate(hist))


def partition_bruteforce(lat: IsingLattice, bg: Background | None = None) -> float:
    """Z = sum over spins of prod over edges weight(beta, s_i s_j eps_e)."""
    return _partition_from_histogram(frustration_histogram(lat, bg), lat.beta)


def transfer_matrix(length: int, beta: float, spatial_twist: int = 0):
    """Row-to-row transfer matrix on 2^L row configurations, as a numpy
    array: the dense oracle of the closed-form transfer route, which never
    builds it.

    M[next, cur] = H(cur) * V(cur, next), where H carries the row's spatial
    edges (with the optional wrap twist) and V the vertical edges to the
    next row.  Contract: Z(L x T torus, holonomies (h_x, h_t)) equals
    trace(matrix_power(M_{h_x}, T) @ F^{h_t}) with F the global spin flip.
    All entries are positive, so Perron-Frobenius applies.

    Built by table lookup: the entry is w[k] = exp(-2*beta*k) with k the
    frustrated count popcount(next ^ cur) + horiz(cur), k <= 2L.
    """
    if length < 1:
        raise ValueError("transfer width must be >= 1")
    if not beta > 0:
        raise ValueError("beta must be positive")
    check_enum(4 ** min(length, 1 << 15), what="transfer matrix entries")  # as evaluation_cost
    import numpy as np

    rows = np.arange(2**length)
    bits = [(rows >> x) & 1 for x in range(length)]
    ones = sum(bits)
    horiz = sum(bits[x] ^ bits[x + 1] for x in range(length - 1)) + (
        bits[-1] ^ bits[0] ^ spatial_twist % 2
    )
    w = np.exp(-2.0 * (beta * np.arange(2 * length + 1, dtype=np.float64)))
    return w[ones[rows[:, np.newaxis] ^ rows] + horiz]


@lru_cache(maxsize=16)
def _pi(digits: int) -> Decimal:
    """pi to ``digits`` digits: Gauss-Legendre, which doubles the correct
    digits per step."""
    with localcontext(Context(prec=digits + 5)):
        a, b, t = Decimal(1), Decimal("0.5").sqrt(), Decimal("0.25")
        for k in range(digits.bit_length()):
            a, b, t = (a + b) / 2, (a * b).sqrt(), t - 2**k * ((a - b) / 2) ** 2
        return (a + b) ** 2 / (4 * t)


def _cosines(length: int, digits: int) -> list[Decimal]:
    """cos(pi q / L) for q < 2L, in the current context: one Taylor series
    for q = 1, then cos((q + 1) t) = 2 cos t cos(q t) - cos((q - 1) t)."""
    square, negligible = (_pi(digits) / length) ** 2, Decimal(10) ** -(digits + 2)
    term, cos, k = Decimal(1), Decimal(1), 0
    while abs(term) > negligible:
        k += 2
        term = -term * square / (k * (k - 1))
        cos += term
    out = [Decimal(1), cos]
    while len(out) < 2 * length:
        out.append(2 * cos * out[-1] - out[-2])
    return out


def _kaufman(lat: IsingLattice, digits: int):
    """The four sectors at ``digits`` digits, and max_i P|Z_i|.

    P Z_i is (1/2) Lambda^T prod_q (1 +- r_q^T) over the odd (Z1, Z2) or
    even (Z3, Z4) q, with r_q = e^{-|gamma_q|} and Lambda^2 the product of
    (2 sinh 2b) e^{-4b} e^{|gamma_q|} over those q (Lambda is the top
    transfer eigenvalue of that fermion parity); Z4 takes the sign of
    gamma_0.  Written through Lambda^T, no intermediate leaves the range
    that Z itself needs.
    """
    length, steps = lat.length, lat.time_steps
    with localcontext(Context(prec=digits, Emax=MAX_EMAX, Emin=MIN_EMIN)):
        x = (2 * Decimal(lat.beta)).exp()
        bulk = (x * x + 1) ** 2 / (2 * x * (x * x - 1))  # cosh 2b coth 2b
        site = (x * x - 1) / x**3  # (2 sinh 2b) e^{-4b}
        cos = _cosines(length, digits)
        w0 = x * (x - 1) / (x + 1)  # e^{gamma_0}: gamma_0 = 2(b - b*) is signed
        terms = []
        for parity in (1, 0):
            square, plus, minus = site**length, Decimal(1), Decimal(1)  # Lambda^2
            for q in range(parity, 2 * length, 2):
                if q:
                    c = bulk - cos[q]
                    w = c + (c * c - 1).sqrt()  # e^{gamma_q}
                else:
                    w = max(w0, 1 / w0)
                square *= w
                r = (1 / w) ** steps
                plus *= 1 + r
                minus *= 1 - r
            try:
                half = square.sqrt() ** steps / 2
            except Overflow:
                raise ValueError(_OVERFLOW) from None
            sign = -1 if parity == 0 and w0 < 1 else 1
            terms += [half * plus, sign * half * minus]
        zs = {sector: sum(s * t for s, t in zip(signs, terms))
              for sector, signs in _KAUFMAN_SIGNS.items()}
    return zs, max(t.copy_abs() for t in terms)


def transfer_digits(lat: IsingLattice) -> int:
    """The first working precision of the closed form: 40 digits plus those
    lost to the T-th powers (log10 T) and to x - 1 at small beta (log10 1/beta)."""
    return _KAUFMAN_DIGITS + int(log10(lat.time_steps)) + 1 + max(0, ceil(-log10(lat.beta)))


def evaluation_cost(lat: IsingLattice, method: str, digits: int | None = None) -> int:
    """Guard units of one four-sector evaluation: 2^(L*T) spin configurations
    (brute force; not built past 2^65536, which no guard allows), or L x the
    working precision in digits (``transfer_digits`` unless given) x the bits
    of T, for the T-th powers (transfer)."""
    if method == "bruteforce":
        return 2 ** min(lat.sites, 1 << 16)
    return lat.length * (digits or transfer_digits(lat)) * lat.time_steps.bit_length()


def _transfer_sectors(lat: IsingLattice) -> dict:
    """Z in the four holonomy sectors from Kaufman's products, as floats.
    A first pass that kept fewer than 5 digits of a sector shows only noise,
    so the second pass then adds the bound log10(max_i P|Z_i| / 2^-1075)."""
    digits = transfer_digits(lat)
    check_enum(evaluation_cost(lat, "transfer", digits), what="transfer evaluation")
    if exp(-2.0 * lat.beta) == 0.0:  # every excited weight underflows
        return {(0, 0): 2.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 0.0}
    extra = digits - _KAUFMAN_DIGITS
    zs, top = _kaufman(lat, digits)
    if not isfinite(float(zs[(0, 0)])):
        raise ValueError(_OVERFLOW)
    # decimal exponents only, so that no rounding context is involved; a
    # sector that cancelled to exactly 0 has lost everything down to the floor
    smallest = min(z.adjusted() if z else _FLOAT_TINY_EXP for z in zs.values())
    lost = top.adjusted() - max(smallest, _FLOAT_TINY_EXP)
    if lost > digits - extra - 20:
        if lost > digits - extra - 5:
            lost = top.adjusted() - _FLOAT_TINY_EXP
        digits = extra + lost + 25
        check_enum(evaluation_cost(lat, "transfer", digits), what="transfer evaluation")
        zs, _ = _kaufman(lat, digits)
    # a value below the float range may come out as noise of either sign
    return {sector: float(z.copy_abs()) for sector, z in zs.items()}


def partition_transfer(lat: IsingLattice, sector=(0, 0)) -> float:
    """Z in the holonomy sector (h_x, h_t) from the exact transfer spectrum.

    Kaufman's four products (Kaufman 1949; Ferdinand-Fisher 1969 for the
    twisted sectors; the formula and its sector signs are in the module
    docstring), evaluated in ``decimal`` at 40 digits plus log10(1/beta)
    and log10(T), and once more with the cancelled digits added when a
    sector kept fewer than 20.  The value is the sector's entry of
    ``sector_partitions(lat, "transfer")``, at any width.  A Z[0,0] that
    overflows a float is a ValueError.
    """
    h_x, h_t = sector
    return _transfer_sectors(lat)[(h_x % 2, h_t % 2)]


def sector_partitions(lat: IsingLattice, method: str = "bruteforce") -> dict:
    """Z in all four holonomy sectors: two exact sweeps (brute force), or
    Kaufman's closed-form transfer spectrum at the precision that the
    sectors' cancellation needs (transfer; see ``partition_transfer``)."""
    if method == "bruteforce":
        return {
            sector: _partition_from_histogram(hist, lat.beta)
            for sector, hist in sector_histograms(lat).items()
        }
    if method == "transfer":
        return _transfer_sectors(lat)
    raise ValueError(f"unknown method {method!r}")


def gauge_sum(zs: dict, dual_sector=(0, 0)) -> float:
    """(1/2) * sum over the sectors of ``zs`` of (-1)^(h_x k_t + h_t k_x) Z[h]."""
    k_x, k_t = dual_sector
    total = 0.0
    for (h_x, h_t), z in zs.items():
        sign = -1.0 if (h_x * k_t + h_t * k_x) % 2 else 1.0
        total += sign * z
    return 0.5 * total


def gauged_partition(
    lat: IsingLattice, dual_sector=(0, 0), method: str = "bruteforce"
) -> float:
    """Partition function of the Z_2-gauged model.

    (1/2) * sum over holonomy sectors, the 1/2 being the 1/|H^0| groupoid
    normalization; a nontrivial ``dual_sector`` (k_x, k_t) inserts the
    symplectic pairing sign (-1)^(h_x k_t + h_t k_x), i.e. a background for
    the dual symmetry.  Re-gauging over dual sectors returns the original Z.
    """
    return gauge_sum(sector_partitions(lat, method=method), dual_sector)


def kw_dual_beta(beta: float) -> float:
    """The dual inverse temperature: sinh(2*beta) * sinh(2*dual) = 1, with
    t = 1/sinh(2*beta) as 2*exp(-2*beta) / (1 - exp(-4*beta)), and asinh t
    as log 2t where t overflows a float (beta below about 2.8e-309)."""
    if not beta > 0:
        raise ValueError("beta must be positive")
    t = 2.0 * exp(-2.0 * beta) / -expm1(-4.0 * beta)
    dual = 0.5 * (asinh(t) if isfinite(t) else log(4.0) - 2.0 * beta - log(-expm1(-4.0 * beta)))
    if dual == 0.0:
        raise ValueError(f"the dual of beta = {beta} underflows to 0")
    return dual


def kw_ratio(lat: IsingLattice, method: str = "bruteforce") -> float:
    """gauged Z(beta) / [ f(beta)^E * Z(beta_dual) ] with the per-edge dual
    weight factor f(beta) = (1 + exp(-2*beta)) / sqrt(2).

    Kramers-Wannier makes this beta-independent on a fixed torus; the test
    suite pins the constant empirically by brute force.
    """
    n_edges = 2 * lat.sites
    gauged = gauged_partition(lat, method=method)
    dual = IsingLattice(lat.length, lat.time_steps, kw_dual_beta(lat.beta))
    z_dual = sector_partitions(dual, method)[(0, 0)]
    factor = ((1.0 + exp(-2.0 * lat.beta)) / sqrt(2.0)) ** n_edges
    return gauged / (factor * z_dual)
