"""ising_sweep: square-torus Ising partition functions on beta grids.

Why: the only float and BLAS workload.  Brute force runs up to 20 sites,
the transfer route up to L = 10, and beta crosses beta_c.  Long thin tori
(L <= 4, T >= 300) are ordinary inputs: at this commit the transfer route
returns inf/nan there, a known defect that counts as a failure.
"""

from __future__ import annotations

import math

import numpy as np

from finsym import ising

import common


BETAS = [0.1, 0.25, 0.4, 0.4406868, 0.5, 0.8, 1.2]
BF_SMALL = [(2, 2), (2, 3), (3, 3), (2, 5), (3, 4), (4, 3), (2, 6)]
BF_MID = [(4, 4), (2, 7), (3, 5), (2, 8)]
BF_BIG = [(3, 6), (2, 9), (4, 5), (2, 10)]
TR_SMALL = [(2, 8), (3, 6), (4, 4), (4, 8), (5, 5), (5, 9), (6, 6), (6, 4)]
TR_MID = [(7, 7), (8, 4), (8, 8)]
TR_BIG = [(9, 6), (10, 4), (10, 10)]
SMALL_TORI = [(2, 2), (3, 3), (2, 4), (3, 4), (4, 4)]
LONG_TORI = [(4, 300, 0.05), (2, 1100, 0.01), (3, 400, 0.05), (4, 400, 0.02)]


def _sectors(tori, method):
    return [{"kind": "sectors", "L": l, "T": t, "beta": b, "method": method}
            for l, t in tori for b in BETAS]


STRATA = [
    ("bruteforce_small", 8, _sectors(BF_SMALL, "bruteforce")),
    ("bruteforce_mid", 4, _sectors(BF_MID, "bruteforce")),
    ("bruteforce_20", 1, _sectors(BF_BIG, "bruteforce")),
    ("transfer_small", 10, _sectors(TR_SMALL, "transfer")),
    ("transfer_mid", 4, _sectors(TR_MID, "transfer")),
    ("transfer_big", 1, _sectors(TR_BIG, "transfer")),
    ("gauged", 4, [
        {"kind": "gauged", "L": l, "T": t, "beta": b, "method": m}
        for l, t in SMALL_TORI for b in BETAS for m in ("bruteforce", "transfer")
    ]),
    ("kw_ratio", 4, [
        {"kind": "kw", "L": l, "T": t, "beta": b, "method": m}
        for l, t in SMALL_TORI for b in BETAS for m in ("bruteforce", "transfer")
    ]),
    ("long_torus", 2, [
        {"kind": "long_torus", "L": l, "T": t, "beta": b} for l, t, b in LONG_TORI
    ]),
]

# Transfer results are checked against brute force up to this many sites.
LIVE_BRUTE_SITES = 16
KW_TOL = 1e-9
ROUTE_TOL = 1e-12


def known_defect(spec) -> bool:
    """The long tori overflow the transfer route (inf/nan) at this commit."""
    return spec["kind"] == "long_torus"


def accepts_error(spec, error: str) -> bool:
    """A clean rejection (ValueError) of an overflowing torus is a pass."""
    return spec["kind"] == "long_torus" and error.startswith("ValueError")


def _lattice(spec, beta=None):
    return ising.IsingLattice(spec["L"], spec["T"], spec["beta"] if beta is None else beta)


def _sector_list(zs):
    return [zs[s] for s in ising.SECTORS]


def run(spec):
    kind = spec["kind"]
    if kind == "sectors":
        return _sector_list(ising.sector_partitions(_lattice(spec), method=spec["method"]))
    if kind == "gauged":
        return ising.gauged_partition(_lattice(spec), method=spec["method"])
    if kind == "kw":
        return ising.kw_ratio(_lattice(spec), method=spec["method"])
    if kind == "long_torus":
        return _sector_list(ising.sector_partitions(_lattice(spec), method="transfer"))
    raise ValueError(f"unknown job kind {kind!r}")


# ---------------------------------------------------------------------------
# Oracles.
# ---------------------------------------------------------------------------


def _other_route(spec):
    lat = _lattice(spec)
    other = "transfer" if spec["method"] == "bruteforce" else "bruteforce"
    return _sector_list(ising.sector_partitions(lat, method=other))


def _log_z_reference(length, steps, beta, sector):
    """log Z by a transfer product rescaled at every step (never overflows)."""
    size = 2**length
    rows = np.arange(size)
    spins = [1 - 2 * ((rows >> x) & 1) for x in range(length)]
    horiz = np.zeros(size)
    for x in range(length):
        eps = -1 if (sector[0] and x == length - 1) else 1
        horiz += (1 - spins[x] * spins[(x + 1) % length] * eps) // 2
    vert = sum((1 - np.outer(s, s)) // 2 for s in spins)
    m = np.exp(-2.0 * beta * (vert + horiz[np.newaxis, :]))
    state, log_scale = np.eye(size), 0.0
    for _ in range(steps):
        state = m @ state
        top = np.abs(state).max()
        state /= top
        log_scale += math.log(top)
    if sector[1]:
        state = state[:, ::-1]
    return log_scale + math.log(np.trace(state))


def _kw_identity(spec, gauged):
    """gauged Z(beta) / (f(beta)^E Z(beta*)), which Kramers-Wannier fixes at 1."""
    lat = _lattice(spec)
    dual = _lattice(spec, ising.kw_dual_beta(lat.beta))
    if lat.sites <= LIVE_BRUTE_SITES:
        z_dual = ising.partition_bruteforce(dual)
    else:
        z_dual = ising.partition_transfer(dual)
    f = (1.0 + math.exp(-2.0 * lat.beta)) / math.sqrt(2.0)
    return gauged / (f ** (2 * lat.sites) * z_dual)


def check(spec, out, thorough: bool = False):
    """None when ``out`` agrees with the oracle, else a reason; ``Unchecked``
    when no live oracle fits the job."""
    kind = spec["kind"]
    if not common.all_finite(out):
        return f"non-finite result {out}"
    if kind == "sectors":
        sites = spec["L"] * spec["T"]
        if spec["method"] == "bruteforce" or sites <= LIVE_BRUTE_SITES:
            other = _other_route(spec)
            if not all(common.rel_close(a, b, ROUTE_TOL) for a, b in zip(out, other)):
                return f"transfer and brute force differ: {out} vs {other}"
        elif thorough:
            ratio = _kw_identity(spec, 0.5 * sum(out))
            if not common.rel_close(ratio, 1.0, KW_TOL):
                return f"Kramers-Wannier ratio {ratio} is not 1"
        else:
            return common.Unchecked(out)
        return None
    if kind == "gauged":
        ratio = _kw_identity(spec, out)
        return None if common.rel_close(ratio, 1.0, KW_TOL) else f"KW ratio {ratio} is not 1"
    if kind == "kw":
        return None if common.rel_close(out, 1.0, KW_TOL) else f"KW ratio {out} is not 1"
    if kind == "long_torus":
        for sector, z in zip(ising.SECTORS, out):
            ref = _log_z_reference(spec["L"], spec["T"], spec["beta"], sector)
            if not (z > 0 and common.rel_close(math.log(z), ref, ROUTE_TOL)):
                return f"Z{sector} = {z}, reference log Z = {ref:.12g}"
        return None
    return f"unknown job kind {kind!r}"
