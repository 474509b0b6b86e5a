"""The exact Ising model on small tori and its Kramers-Wannier duality.

Brute force and transfer matrices agree to machine precision; twisting by a
Z2 background splits the partition function into four holonomy sectors;
summing them (with the 1/2 normalization) gauges the symmetry, and the
gauged model at beta is the original at the dual temperature, up to a
per-edge factor that this script exhibits numerically.
"""

import math

from finsym.ising import (
    BETA_C,
    SECTORS,
    Background,
    IsingLattice,
    gauged_partition,
    kw_dual_beta,
    kw_ratio,
    partition_bruteforce,
    partition_transfer,
    sector_partitions,
)

print("== Two routes to the same number ==")
lat = IsingLattice(3, 3, 0.44)
for sector in SECTORS:
    zb = partition_bruteforce(lat, Background.from_holonomies(lat, *sector))
    zt = partition_transfer(lat, sector)
    print(f"  3x3, sector {sector}: brute {zb:.12f}, transfer {zt:.12f}, "
          f"rel diff {abs(zb - zt) / zb:.2e}")

print()
print("== Gauge invariance of backgrounds ==")
bg = Background.from_holonomies(lat, 1, 0)
flipped = bg.flip_site(1, 1).flip_site(0, 2)
print(f"  twisting by a coboundary leaves Z unchanged: "
      f"{partition_bruteforce(lat, bg):.12f} vs "
      f"{partition_bruteforce(lat, flipped):.12f}")

print()
print("== The self-dual point ==")
print(f"  beta_c = ln(1 + sqrt 2)/2 = {BETA_C:.17f}")
print(f"  sinh(2 beta_c) = {math.sinh(2 * BETA_C):.15f}")
print(f"  dual(beta_c) - beta_c = {kw_dual_beta(BETA_C) - BETA_C:+.2e}")

print()
print("== Duality as an exact finite-size statement ==")
print("  gauged Z(beta) / [f(beta)^E Z(beta*)] with f = (1 + e^(-2 beta))/sqrt 2:")
for length, steps in ((2, 2), (3, 3)):
    ratios = [
        kw_ratio(IsingLattice(length, steps, 0.15 + i * ((1.2 - 0.15) / 9)))
        for i in range(10)
    ]
    print(f"  {length}x{steps}: ratio across a beta sweep in "
          f"[{min(ratios):.12f}, {max(ratios):.12f}]")

print()
print("== A small beta sweep (gauged vs dual) ==")
for beta in (0.25, 0.44, 0.75, 1.1):
    lat = IsingLattice(2, 3, beta)
    dual = kw_dual_beta(beta)
    print(f"  beta {beta:.2f} -> dual {dual:.5f}: gauged Z = "
          f"{gauged_partition(lat):.9f}, sectors "
          f"{[f'{z:.5f}' for z in sector_partitions(lat).values()]}")
