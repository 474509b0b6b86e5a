"""library_mix: the three in-process catalogues in one block sequence.

Why: one in-process workload that still runs every compute layer, so that a
run can be long enough to average out the host's speed drift.  Each block
holds the cohomology, finite-group and Ising blocks with the multipliers
below, which give each part about a third of the run time on the baseline
machine; most jobs are the short SNF ones, so p50 follows cohomology while
p90 and throughput follow all three.  The parts stay runnable alone as
``cohomology_sweep``, ``finite_group_sweep`` and ``ising_sweep``.

The Ising long tori (a known defect: inf/nan at this commit) are left out
of this workload, so that every job of a run is expected to pass and the
failure count does not depend on how many jobs a run completes.  They stay
in ``ising_sweep``, and the defect probe's long torus keeps the defect
visible in every run (``probe.nonfinite``).
"""

from __future__ import annotations

import wl_cohomology
import wl_groups
import wl_ising


PARTS = [(wl_cohomology, 24), (wl_groups, 2), (wl_ising, 1)]
STRATA = [(name, quota * mult, specs) for wl, mult in PARTS for name, quota, specs in wl.STRATA
          if not any(wl.known_defect(spec) for spec in specs)]
_MODULE = {spec["kind"]: wl for wl, _ in PARTS for _, _, specs in wl.STRATA for spec in specs}


def run(spec):
    return _MODULE[spec["kind"]].run(spec)


def check(spec, out, thorough: bool = False):
    return _MODULE[spec["kind"]].check(spec, out, thorough)


def known_defect(spec) -> bool:
    return _MODULE[spec["kind"]].known_defect(spec)


def accepts_error(spec, error: str) -> bool:
    accepts = getattr(_MODULE[spec["kind"]], "accepts_error", None)
    return accepts is not None and accepts(spec, error)
