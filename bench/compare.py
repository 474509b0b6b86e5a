"""Compare two result sets, parent and change, one row per (workload, metric).

A result set is a directory of run records as ``run.py`` writes them to
.bench_out/runs/.  Only untraced runs count.  The rule is the one in the
choosing-metrics guide (section 8):
  improved      the change wins at least 9/10 of the pairs (ties count for
                neither) and the medians differ by more than the parent's
                interquartile range;
  worse         the change's median is worse than the parent's by more than
                the metric's bound;
  unresolved    a side's spread (IQR / median) is wider than the bound, and
                not every change run beats every parent run;
  within bound  otherwise.
Pairs are matched by seed when both sides ran the same seeds, else by order.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def load(directory: Path) -> dict:
    """{workload: {metric: [(seed, value), ...]}} from untraced runs."""
    out: dict = {}
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text())
        if rec["trace"]:
            continue
        for name, entry in rec["result"]["metrics"].items():
            out.setdefault(rec["workload"], {}).setdefault(name, []).append(
                (rec["seed"], entry["value"]))
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better: str, bound: float):
    """(verdict, pairs won, pairs) for two lists of (seed, value)."""
    sign = 1.0 if better == "higher" else -1.0
    p_seeds, c_seeds = [s for s, _ in parent], [s for s, _ in change]
    if sorted(p_seeds) == sorted(c_seeds):
        pairs = [(v, dict(change)[s]) for s, v in parent]
    else:
        pairs = list(zip([v for _, v in parent], [v for _, v in change]))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    p_vals, c_vals = [v for _, v in parent], [v for _, v in change]
    p1, pm, p3 = quartiles(p_vals)
    c1, cm, c3 = quartiles(c_vals)
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = min(sign * c for c in c_vals) > max(sign * p for p in p_vals)
    worse_by = -sign * (cm - pm) / abs(pm) if pm else 0.0
    if spread > bound and not all_better:
        return "unresolved", wins, len(pairs)
    if wins >= 0.9 * len(pairs) and sign * (cm - pm) > (p3 - p1):
        return "improved", wins, len(pairs)
    if worse_by > bound:
        return "worse", wins, len(pairs)
    return "within bound", wins, len(pairs)


def main(parent_dir: Path, change_dir: Path, spec: dict) -> int:
    parent, change = load(parent_dir), load(change_dir)
    print(f"{'workload':20s} {'metric':12s} {'parent median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'won':7s} verdict")
    for workload in sorted(set(parent) & set(change)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p, c = parent[workload].get(name), change[workload].get(name)
            if not p or not c:
                continue
            result, wins, n = verdict(p, c, metric["better"], metric["bound"])
            cells = []
            for side in (p, c):
                q1, q2, q3 = quartiles([v for _, v in side])
                cells.append(f"{q2:.6g} [{q1:.6g}, {q3:.6g}]")
            print(f"{workload:20s} {name:12s} {cells[0]:34s} {cells[1]:34s} "
                  f"{f'{wins}/{n}':7s} {result}")
    return 0
