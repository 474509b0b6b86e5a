"""Seeded job lists drawn from each workload's fixed catalogue.

A workload's catalogue is a list of strata.  Each stratum names a job
family, a quota and the specs it may draw from.  A job list is a sequence
of blocks; every block holds exactly ``quota`` jobs of each stratum and is
shuffled.  Each stratum deals its specs from a shuffled deck and reshuffles
when the deck runs out, so a long run revisits the same inputs (as a
parameter sweep does) while every spec is drawn equally often.  The fixed
quotas and the even dealing keep the job mix, and so the metrics, the same
from seed to seed; the seed decides the order and which inputs a run ends
on.
"""

from __future__ import annotations

import importlib
import itertools
import random

WORKLOADS = {
    "cli_cold": "wl_cli",
    "library_mix": "wl_mix",
    "cohomology_sweep": "wl_cohomology",
    "finite_group_sweep": "wl_groups",
    "ising_sweep": "wl_ising",
}
# Workloads with a catalogue of their own; library_mix reuses three of them.
RECORDED = ("cli_cold", "cohomology_sweep", "finite_group_sweep", "ising_sweep")


def module(workload: str):
    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    return importlib.import_module(WORKLOADS[workload])


def stream(strata, seed: int):
    """The endless seeded block sequence of job specs."""
    rng = random.Random(f"finsym-bench:{seed}")
    decks: list[list] = [[] for _ in strata]

    def deal(i, specs):
        if not decks[i]:
            decks[i] = list(specs)
            rng.shuffle(decks[i])
        return decks[i].pop()

    while True:
        block = [deal(i, specs) for i, (_, quota, specs) in enumerate(strata)
                 for _ in range(quota)]
        rng.shuffle(block)
        yield from block


def draw(strata, seed: int, count: int) -> list:
    """The first ``count`` jobs of the seeded sequence."""
    return list(itertools.islice(stream(strata, seed), count))


def all_specs(strata) -> list:
    """Every distinct spec of the catalogue, in catalogue order."""
    seen, out = set(), []
    for _, _, specs in strata:
        for spec in specs:
            key = repr(spec)
            if key not in seen:
                seen.add(key)
                out.append(spec)
    return out
