"""Exact 2d Ising stat mech on square tori: brute force, transfer matrices,
Z_2 backgrounds, gauging, and Kramers-Wannier duality.

Conventions, fixed for golden values:
  * spins live on the L x T sites of a square torus, site (x, t) has index
    t*L + x; every site has one spatial edge to (x+1 mod L, t) and one
    temporal edge to (x, t+1 mod T), so there are always 2*L*T edges
    (self-edges when L or T is 1);
  * the edge weight is 1 on agreeing spins and exp(-2*beta) on frustrated
    ones, so all weights are <= 1 and partition sums never overflow; the
    per-configuration data is the integer frustration count, and sums run
    over its histogram in fixed ascending order (deterministic, and stable
    for large beta);
  * a background is a Z_2 twist per edge; the holonomy sector (h_x, h_t)
    twists the wrap-around edges.

Every brute-force histogram, of one background or of all four holonomy
sectors, comes from one grouped-edge kernel that enumerates the spin
configurations once (a twisted edge is frustrated exactly when the
untwisted one is not), and the transfer route takes one matrix power per
spatial twist h_x, whose trace and anti-diagonal trace are the h_t = 0 and
h_t = 1 sectors.  A transfer Z that overflows a float is a ValueError.

Kramers-Wannier: sinh(2*beta) * sinh(2*beta_dual) = 1.  In the weight
convention above the finite-torus duality reads

    (1/2) sum_sectors Z[h](beta) = f(beta)^E * Z(beta_dual),

with the per-edge factor f(beta) = (1 + exp(-2*beta)) / sqrt(2) (the
Fourier dual of the weight pair).  The ratio is pinned empirically by the
test suite rather than asserted a priori.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import asinh, exp, expm1, isfinite, log, sinh, sqrt

import numpy as np

from .limits import check_enum

BETA_C = 0.5 * log(1.0 + sqrt(2.0))

BRUTE_FORCE_MAX_SITES = 20
TRANSFER_MAX_WIDTH = 12

SECTORS = ((0, 0), (0, 1), (1, 0), (1, 1))


@dataclass(frozen=True)
class IsingLattice:
    """An L x T site torus at inverse temperature beta."""

    length: int
    time_steps: int
    beta: float

    def __post_init__(self):
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


def enumeration_size(lat: IsingLattice) -> int:
    """2^(L*T) spin configurations; ValueError past BRUTE_FORCE_MAX_SITES."""
    if lat.sites > BRUTE_FORCE_MAX_SITES:
        raise ValueError(f"brute force is limited to {BRUTE_FORCE_MAX_SITES} sites")
    return 2**lat.sites


def _spin_bits(lat: IsingLattice) -> list[np.ndarray]:
    """Bit s of every configuration index, one uint8 array per site: one
    enumeration of all 2^(L*T) spin configurations (guarded)."""
    size = enumeration_size(lat)
    check_enum(size, what="spin configuration enumeration")
    bits = []
    for s in range(lat.sites):
        bit = np.zeros((size >> (s + 1), 2, 1 << s), dtype=np.uint8)
        bit[:, 1] = 1  # index a * 2^(s+1) + b * 2^s + r has bit s = b
        bits.append(bit.reshape(-1))
    return bits


def _histograms(lat: IsingLattice, backgrounds) -> list[np.ndarray]:
    """The frustration histogram of every background from one enumeration.

    Edges are grouped by their twist in every background, and each group's
    untwisted frustration count c is taken once: a twisted edge is
    frustrated exactly when the untwisted one is not, so a background counts
    k - c over each group of k edges it twists and c over the others.
    """
    if any(bg.lattice != lat for bg in backgrounds):
        raise ValueError("background belongs to a different lattice")
    bits = _spin_bits(lat)
    size = len(bits[0])
    groups = {}
    for edge, twists in zip(edges(lat), zip(*(bg.twists for bg in backgrounds))):
        groups.setdefault(twists, []).append(edge)
    partial = []
    for twists, group in groups.items():
        count = np.zeros(size, dtype=np.uint8)
        for i, j in group:
            count += bits[i] ^ bits[j]
        partial.append((twists, len(group), count))
    del bits  # the sums below and bincount's int64 copy reuse its memory
    hists = []
    for b in range(len(backgrounds)):
        total = np.zeros(size, dtype=np.uint8)
        for twists, k, count in partial:
            if twists[b] < 0:  # k - c, in place; uint8 wraps back into range
                total -= count
                total += k
            else:
                total += count
        hists.append(np.bincount(total, minlength=2 * lat.sites + 1))
    return hists


def frustration_histogram(lat: IsingLattice, bg: Background | None = None) -> np.ndarray:
    """counts[k] = number of spin configurations with k frustrated edges.

    Exhaustive over all 2^(L*T) configurations (guarded); exact integers.
    """
    return _histograms(lat, [Background.trivial(lat) if bg is None else bg])[0]


def sector_histograms(lat: IsingLattice) -> dict:
    """The frustration histogram of every holonomy sector from one enumeration."""
    backgrounds = [Background.from_holonomies(lat, *sector) for sector in SECTORS]
    return dict(zip(SECTORS, _histograms(lat, backgrounds)))


def _weights(beta: float, count: int) -> np.ndarray:
    """exp(-2*beta*k) for k < count.  beta*k is formed first, so k = 0 gives
    1 at any finite beta (not exp(-inf * 0)); doubling is exact, so the
    values equal exp(-2.0*beta*k) wherever that one is finite."""
    with np.errstate(over="ignore"):
        return np.exp(-2.0 * (beta * np.arange(count, dtype=np.float64)))


def _partition_from_histogram(hist: np.ndarray, beta: float) -> float:
    return float(np.sum(hist * _weights(beta, len(hist))))


def partition_bruteforce(lat: IsingLattice, bg: Background | None = None) -> float:
    """Z = sum over spins of prod over edges weight(beta, s_i s_j eps_e)."""
    return _partition_from_histogram(frustration_histogram(lat, bg), lat.beta)


def transfer_matrix(length: int, beta: float, spatial_twist: int = 0) -> np.ndarray:
    """Row-to-row transfer matrix on 2^L row configurations.

    M[next, cur] = H(cur) * V(cur, next), where H carries the row's spatial
    edges (with the optional wrap twist) and V the vertical edges to the
    next row.  Contract: Z(L x T torus, holonomies (h_x, h_t)) equals
    trace(matrix_power(M_{h_x}, T) @ F^{h_t}) with F the global spin flip.
    All entries are positive, so Perron-Frobenius applies.

    Built by table lookup: the entry is w[k] = exp(-2*beta*k) with k the
    frustrated count popcount(next ^ cur) + horiz(cur), k <= 2L.
    """
    if not 1 <= length <= TRANSFER_MAX_WIDTH:
        raise ValueError(f"transfer width must be in 1..{TRANSFER_MAX_WIDTH}")
    if not beta > 0:
        raise ValueError("beta must be positive")
    rows = np.arange(2**length)
    bits = [(rows >> x) & 1 for x in range(length)]
    ones = sum(bits)
    horiz = sum(bits[x] ^ bits[x + 1] for x in range(length - 1)) + (
        bits[-1] ^ bits[0] ^ spatial_twist % 2
    )
    w = _weights(beta, 2 * length + 1)
    return w[ones[rows[:, np.newaxis] ^ rows] + horiz]


def _transfer_traces(lat: IsingLattice, h_x: int, flips=(0, 1)) -> list[float]:
    """Z in the sectors (h_x, h_t), h_t in ``flips``, from one matrix power P.

    The flip sector's trace(P @ F) is the anti-diagonal sum trace(P[:, ::-1]),
    entry for entry the same diagonal.  A non-finite trace is a ValueError.
    """
    m = transfer_matrix(lat.length, lat.beta, spatial_twist=h_x)
    with np.errstate(over="ignore", invalid="ignore"):
        power = np.linalg.matrix_power(m, lat.time_steps)
    zs = [float(np.trace(power[:, ::-1] if h_t % 2 else power)) for h_t in flips]
    if not all(isfinite(z) for z in zs):
        raise ValueError("Z overflows a float; use brute force or a shorter torus")
    return zs


def partition_transfer(lat: IsingLattice, sector=(0, 0)) -> float:
    """Z via the transfer matrix, in the holonomy sector (h_x, h_t)."""
    h_x, h_t = sector
    return _transfer_traces(lat, h_x, (h_t,))[0]


def sector_partitions(lat: IsingLattice, method: str = "bruteforce") -> dict:
    """Z in all four holonomy sectors: one spin enumeration (brute force) or
    one transfer-matrix power per spatial twist (transfer)."""
    if method == "bruteforce":
        return {
            sector: _partition_from_histogram(hist, lat.beta)
            for sector, hist in sector_histograms(lat).items()
        }
    if method == "transfer":
        out = {}
        for h_x in (0, 1):
            out[(h_x, 0)], out[(h_x, 1)] = _transfer_traces(lat, h_x)
        return out
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
    """The dual inverse temperature: sinh(2*beta) * sinh(2*dual) = 1.

    Past 2*beta = 700, where sinh nears overflow, 1/sinh(2*beta) is taken
    as 2*exp(-2*beta) / (1 - exp(-4*beta)); below, the direct form is kept
    so that existing values do not move by an ulp.
    """
    if not beta > 0:
        raise ValueError("beta must be positive")
    if 2.0 * beta <= 700.0:
        return 0.5 * asinh(1.0 / sinh(2.0 * beta))
    dual = 0.5 * asinh(2.0 * exp(-2.0 * beta) / -expm1(-4.0 * beta))
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
    if method == "bruteforce":
        z_dual = partition_bruteforce(dual)
    else:
        z_dual = partition_transfer(dual)
    factor = ((1.0 + exp(-2.0 * lat.beta)) / sqrt(2.0)) ** n_edges
    return gauged / (factor * z_dual)
