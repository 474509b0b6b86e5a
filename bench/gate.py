"""The correctness gate, run after the timed loop and never timed.

Every job's output is checked:
  * by the workload's live oracle (closed forms, properties such as "each
    representative is a cocycle of its stated order", brute force where it
    fits the enumeration guard);
  * where no live oracle fits, the workload's ``check`` returns
    ``common.Unchecked`` with the basis-independent part of the output,
    which must match the value recorded in expected.json (exactly, or
    within 1e-12 relative for floats, which are BLAS-dependent).  Only such
    jobs are recorded, and each recorded value was checked against a
    record-time oracle when it was recorded;
  * repeated draws of one job must give byte-identical outputs (finsym
    promises determinism).
A failure of a job the workload lists as a known defect still counts in
``failed`` but does not make the run incorrect.
"""

from __future__ import annotations

import json
import os

import common

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def load_expected() -> dict:
    """Recorded outputs of every workload, by job id (ids never collide:
    the job kinds of the workloads are distinct)."""
    with open(EXPECTED) as fh:
        return {key: entry for section in json.load(fh).values()
                for key, entry in section.items()}


def record_entry(value) -> dict:
    """Hash of a recorded value, plus the value itself where it holds
    floats, whose last digits may differ on another CPU."""
    entry = {"hash": common.digest(value)}
    if common.has_float(value) or common.has_decimal(value):
        entry["value"] = value
    return entry


def _error(output):
    if isinstance(output, dict) and set(output) == {"error"}:
        return output["error"]
    return None


def verdict(wl, spec, output, expected) -> str | None:
    """None when one output passes, else the reason it fails."""
    error = _error(output)
    if error is not None:
        accepts = getattr(wl, "accepts_error", None)
        return None if accepts is not None and accepts(spec, error) else f"raised {error}"
    try:
        result = wl.check(spec, output)
    except Exception as exc:  # a malformed output fails its job, not the run
        return f"oracle could not read the output: {type(exc).__name__}: {exc}"
    if not isinstance(result, common.Unchecked):
        return result
    entry = expected.get(common.job_id(spec))
    if entry is None:
        return "no live oracle and no recorded value"
    if entry["hash"] != common.digest(result.value) and not common.close(
            entry.get("value"), result.value):
        return "differs from the recorded value"
    return None


class Repeat(str):
    """The digest of an output whose job already ran earlier in the run."""


def run(wl, specs, outputs, expected):
    """Check every job; returns (failed, unexpected failures, run hash).

    ``unexpected`` maps job id to reason for failures outside the known
    defects; the run hash covers the distinct (job, output) pairs.
    """
    first, reasons = {}, {}
    for spec, output in zip(specs, outputs):
        key = common.job_id(spec)
        digest = output if isinstance(output, Repeat) else common.digest(output)
        if key not in first:
            first[key] = digest
            reasons[key] = verdict(wl, spec, output, expected)
        elif first[key] != digest and reasons[key] is None:
            reasons[key] = "output changed between two runs of the same job"
    failed = sum(reasons[common.job_id(s)] is not None for s in specs)
    unexpected = {k: r for k, r in reasons.items()
                  if r is not None and not wl.known_defect(json.loads(k))}
    run_hash = common.digest(sorted(first.items()))
    return failed, unexpected, run_hash
