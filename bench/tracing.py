"""Spans and work counts around finsym's public functions, from the bench side.

``install`` wraps each listed function at every module binding it is looked
up through (``complexes.smith_normal_form_full`` as well as
``intmatrix.smith_normal_form_full``), and the ``__init__`` of the listed
validating classes.  A span records name, start, end, parent span and job
id; spans stay in memory until ``write``.  Self time is a span's duration
minus the time its child spans and the counting hooks cover.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent, job, hook_s]
        self.stack = []
        self.job = None
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.seen = set()
        self.own_s = 0.0       # time spent in the wrappers themselves

    def add(self, name, value):
        self.counts[name] += value

    def peak(self, name, value):
        self.maxima[name] = max(self.maxima[name], value)

    def open(self, name) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, _clock(), None, parent, self.job, 0.0])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index) -> None:
        self.spans[index][2] = _clock()
        self.stack.pop()

    def self_times(self):
        busy = [span[5] for span in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                busy[parent] += end - start
        return [s[2] - s[1] - b for s, b in zip(self.spans, busy)]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, job, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")


# ---------------------------------------------------------------------------
# Counting hooks: (tracer, args, kwargs, result) -> None.
# ---------------------------------------------------------------------------


def _snf(tr, args, kwargs, result):
    m = args[0]
    tr.add("intmatrix.smith_normal_form_full.cells", m.rows * m.cols)
    tr.peak("intmatrix.smith_normal_form_full.max_side", max(m.rows, m.cols))
    bits = max((abs(x).bit_length() for mat in (result.u, result.v, result.u_inv, result.v_inv)
                for row in mat.data for x in row), default=0)
    tr.peak("intmatrix.smith_normal_form_full.max_entry_bits", bits)


def _cohomology(tr, args, kwargs, result):
    cx, coeffs, q = args[:3]
    key = (cx.cells, cx.boundaries, coeffs.invariant_factors, q)
    if key in tr.seen:
        tr.add("complexes.cohomology.repeats", 1)
    tr.seen.add(key)


def _bordism_matrix(tr, args, kwargs, result):
    tr.add("tqft2d.bordism_matrix.entries", result.target.dim * result.source.dim)


def _surface_count(tr, args, kwargs, result):
    group, genus = args[:2]
    if genus > 0:
        tr.add("pathintegral.surface_gauge_count.tuples", group.order ** (2 * genus))


def _finite_group(tr, args, kwargs, result):
    tr.add("groups.FiniteGroup.triples", len(args[1]) ** 3)


def _fusion_ring(tr, args, kwargs, result):
    tr.add("fusion.FusionRing.assoc_terms", len(args[1]) ** 4)


def _quadratic_form(tr, args, kwargs, result):
    tr.add("quadratic.QuadraticForm.triples", args[1].order ** 3)


def _gauss_direct(tr, args, kwargs, result):
    tr.add("anomaly.gauss_sum_direct.terms", args[0] ** 2)


def _histogram(tr, args, kwargs, result):
    tr.add("ising.frustration_histogram.configs", 2 ** args[0].sites)


def _transfer_matrix(tr, args, kwargs, result):
    tr.peak("ising.transfer_matrix.max_side", 2 ** args[0])


def _nonfinite(tr, args, kwargs, result):
    if not math.isfinite(result):
        tr.add("ising.nonfinite", 1)


def _check_enum(tr, args, kwargs, result):
    from finsym import limits

    limit = args[1] if len(args) > 1 else kwargs.get("limit")
    tr.peak("limits.check_enum.max_share", args[0] / limits.effective_limit(limit))


# (module, attribute, hook): functions first, then validating constructors.
TARGETS = [
    ("intmatrix", "smith_normal_form_full", _snf),
    ("complexes", "cohomology", _cohomology),
    ("complexes", "relative_cohomology", None),
    ("complexes", "restriction_map", None),
    ("complexes", "is_closed", None),
    ("tqft2d", "bordism_matrix", _bordism_matrix),
    ("tqft2d", "glue", None),
    ("tqft2d", "trace_check", None),
    ("pathintegral", "em_partition", None),
    ("pathintegral", "surface_gauge_count", _surface_count),
    ("groups", "conjugacy_classes", None),
    ("fusion", "pf_dimensions", None),
    ("fusion", "fiber_functor_obstruction", None),
    ("quadratic", "bihomomorphism", None),
    ("anomaly", "allowed_lines", None),
    ("anomaly", "minimal_tft_data", None),
    ("anomaly", "gauss_sum_direct", _gauss_direct),
    ("ising", "frustration_histogram", _histogram),
    ("ising", "partition_transfer", _nonfinite),
    ("ising", "transfer_matrix", _transfer_matrix),
    ("ising", "kw_ratio", _nonfinite),
    ("limits", "check_enum", _check_enum),
    ("cli", "main", None),
]
CONSTRUCTORS = [
    ("groups", "FiniteGroup", _finite_group),
    ("fusion", "FusionRing", _fusion_ring),
    ("quadratic", "QuadraticForm", _quadratic_form),
]


def _wrap(tracer, name, fn, hook):
    def traced(*args, **kwargs):
        entered = _clock()
        index = tracer.open(name)
        called = _clock()
        tracer.own_s += called - entered
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            tracer.close(index)
            if name == "limits.check_enum" and type(exc).__name__ == "GuardExceeded":
                tracer.add("limits.check_enum.exceeded", 1)
            raise
        returned = _clock()
        tracer.close(index)
        if hook is not None:
            start = _clock()
            hook(tracer, args, kwargs, result)
            parent = tracer.spans[index][3]
            if parent is not None:
                tracer.spans[parent][5] += _clock() - start
        tracer.own_s += _clock() - returned
        return result

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every target at every finsym binding.  Imports all of finsym."""
    modules = {name: importlib.import_module(f"finsym.{name}")
               for name in ("intmatrix", "groups", "quadratic", "complexes", "pathintegral",
                            "tqft2d", "fusion", "anomaly", "ising", "limits", "cli")}
    for mod_name, attr, hook in TARGETS:
        original = getattr(modules[mod_name], attr)
        wrapper = _wrap(tracer, f"{mod_name}.{attr}", original, hook)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("finsym"):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
    for mod_name, cls_name, hook in CONSTRUCTORS:
        cls = getattr(modules[mod_name], cls_name)
        cls.__init__ = _wrap(tracer, f"{mod_name}.{cls_name}", cls.__init__, hook)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics by name: calls and self time per span name, plus
    the work counts the hooks collected."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for (name, *_), own in zip(tracer.spans, tracer.self_times()):
        calls[name] += 1
        self_s[name] += own
    snf_under_cohomology = 0
    for name, _, _, parent, _, _ in tracer.spans:
        if name != "intmatrix.smith_normal_form_full":
            continue
        while parent is not None and tracer.spans[parent][0] != "complexes.cohomology":
            parent = tracer.spans[parent][3]
        snf_under_cohomology += parent is not None
    out = {}
    for mod_name, attr, _ in TARGETS + CONSTRUCTORS:
        name = f"{mod_name}.{attr}"
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    coh_calls = calls["complexes.cohomology"]
    out["complexes.cohomology.repeat_share"] = (
        tracer.counts["complexes.cohomology.repeats"] / coh_calls if coh_calls else 0.0)
    out["complexes.cohomology.snf_per_call"] = (
        snf_under_cohomology / coh_calls if coh_calls else 0.0)
    for name in ("intmatrix.smith_normal_form_full.cells", "tqft2d.bordism_matrix.entries",
                 "pathintegral.surface_gauge_count.tuples", "groups.FiniteGroup.triples",
                 "fusion.FusionRing.assoc_terms", "quadratic.QuadraticForm.triples",
                 "anomaly.gauss_sum_direct.terms", "ising.frustration_histogram.configs",
                 "ising.nonfinite", "limits.check_enum.exceeded"):
        out[name] = tracer.counts[name]
    for name in ("intmatrix.smith_normal_form_full.max_side",
                 "intmatrix.smith_normal_form_full.max_entry_bits",
                 "ising.transfer_matrix.max_side", "limits.check_enum.max_share"):
        out[name] = tracer.maxima[name]
    return out
