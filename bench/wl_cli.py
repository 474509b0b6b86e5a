"""cli_cold: one cold ``python -m finsym.cli`` process per job.

Why: this is how README users call finsym.  Interpreter start and imports
dominate each call, so only this workload shows changes to ``cli`` and to
import cost; it also has no in-process reuse at all.  The draw includes
bad input (exit 2) and tripped guards (exit 3).

Each catalogue entry carries the argv, the exit code the README promises,
and, for exit 0, the oracle: the equivalent library job spec, or a closed
form the CLI's own formats are checked against.  This
module imports finsym only inside ``check``, after the timed loop.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import common




def _job(argv, code=0, oracle=None):
    return {"argv": argv, "code": code, "oracle": oracle}


def _manifold(text):
    name, _, param = text.partition(":")
    return [name, int(param)] if param else [name]


def _partition_jobs():
    jobs = []
    for n in range(1, 5):
        for a in ("Z2", "Z3", "Z2xZ4"):
            for m in ("torus:2", "torus:3", "torus:5", "sphere:3", "surface:2", "rp:3", "klein"):
                jobs.append(_job(["partition", "--target", f"B{n}:{a}", "--manifold", m],
                                 oracle={"kind": "em", "cx": _manifold(m), "A": a, "n": n}))
    for g in ("S3", "D4", "Q8"):
        for m, genus in (("surface:0", 0), ("torus:2", 1), ("surface:1", 1), ("surface:2", 2)):
            jobs.append(_job(["partition", "--target", f"B1:{g}", "--manifold", m],
                             oracle={"kind": "surface_count", "G": g, "genus": genus}))
    return jobs


def _cohomology_jobs():
    jobs = []
    for m, top in (("rp:3", 3), ("rp:4", 4), ("torus:3", 3), ("surface:2", 2),
                   ("klein", 2), ("sphere:4", 4)):
        for a in ("Z2", "Z4", "Z2xZ2"):
            for q in range(top + 1):
                jobs.append(_job(
                    ["cohomology", "--manifold", m, "--coefficients", a, "--degree", str(q)],
                    oracle={"kind": "cohomology", "cx": _manifold(m), "A": a, "q": q}))
    return jobs


def _tft_jobs():
    jobs = [
        _job(["bordism", "--group", a, "--shape", s],
             oracle={"kind": "bordism", "shape": s, "A": a})
        for a in ("Z2", "Z3", "Z2xZ2")
        for s in ("cylinder", "pants", "copants", "cap", "cup", "torus", "sphere")
    ]
    jobs += [_job(["problem1", "--group", a], oracle={"kind": "problem1", "A": a})
             for a in ("Z2", "Z3", "Z4", "Z2xZ2")]
    return jobs


def _algebra_jobs():
    jobs = [_job(["fusion", "--ty", g], oracle={"kind": "ty", "G": g})
            for g in ("Z2", "Z3", "Z4", "Z2xZ2")]
    jobs += [_job(["fusion", "--group-ring", g], oracle={"kind": "group_ring", "G": g})
             for g in ("S3", "D4", "Q8", "Z4")]
    jobs += [_job(["fusion", "--ty", g, "--report", "table"], oracle={"kind": "ty_table", "A": g})
             for g in ("Z2", "Z3")]
    lines = [
        ("Z2", "full", "1/4", "", [[1]], ["1/4"], []),
        ("Z4", "full", "1/8", "", [[1]], ["1/8"], []),
        ("Z4", "2", "1/4", "", [[2]], ["1/4"], []),
        ("Z2", "0", "", "", [], [], []),
        ("Z2xZ2", "full", "1/4,1/4", "0,1:1/2", [[1, 0], [0, 1]], ["1/4", "1/4"],
         [[0, 1, "1/2"]]),
        ("Z2xZ4", "full", "1/4,1/8", "", [[1, 0], [0, 1]], ["1/4", "1/8"], []),
    ]
    for a, sub, q, cross, gens, values, cross_list in lines:
        argv = ["lines", "--A", a, "--Aprime", sub, "--q", q]
        if cross:
            argv += ["--q-cross", cross]
        jobs.append(_job(argv, oracle={"kind": "lines", "A": a, "gens": gens,
                                       "values": values, "cross": cross_list}))
    jobs += [_job(["anyons", "--N", str(n), "--p", str(p)],
                  oracle={"kind": "anyons", "N": n, "p": p})
             for n, p in ((2, 1), (3, 1), (4, 1), (5, 2), (6, 1), (8, 3), (12, 5), (30, 7))]
    jobs += [_job(["anomaly", "--ym-theta-pi", str(n)], oracle={"kind": "ym", "N": n})
             for n in range(2, 10)]
    jobs += [_job(["anomaly", "--ym-theta-pi", str(n), "--fractional-instanton", str(n), str(p)],
                  oracle={"kind": "ym", "N": n, "P": p})
             for n, p in ((4, 1), (5, 2), (6, 3), (3, 1))]
    jobs += [_job(["gauss", "--N", str(n), "--p", str(p)],
                  oracle={"kind": "gauss", "N": n, "p": p})
             for n, p in ((5, 2), (7, 3), (12, 5), (30, 7), (97, 1), (64, 3))]
    return jobs


def _ising_jobs():
    jobs = []
    for (l, t), beta in zip(((2, 2), (2, 3), (3, 3), (3, 4), (4, 4)),
                            ("0.2", "0.44068679", "0.6", "0.3", "1.1")):
        for method in ("bruteforce", "transfer"):
            jobs.append(_job(
                ["ising", "--L", str(l), "--T", str(t), "--beta", beta, "--sectors", "all",
                 "--gauge", "--method", method],
                oracle={"kind": "sectors", "L": l, "T": t, "beta": float(beta),
                        "method": method}))
    for l, t, start, stop, count, method in ((2, 2, "0.1", "1.0", 10, "bruteforce"),
                                             (3, 3, "0.2", "0.8", 4, "transfer")):
        jobs.append(_job(
            ["ising", "--L", str(l), "--T", str(t), "--sweep", start, stop, str(count),
             "--method", method, "--format", "csv"],
            oracle={"kind": "sweep", "L": l, "T": t, "start": float(start),
                    "stop": float(stop), "count": count, "method": method}))
    return jobs


BAD_INPUT = [
    ["partition", "--target", "B2:Z2", "--manifold", "cube:3"],
    ["partition", "--target", "X2:Z2", "--manifold", "torus:2"],
    ["partition", "--target", "B1:S3", "--manifold", "torus:3"],
    ["partition", "--target", "B2:Z2"],
    ["gauss", "--N", "4", "--p", "2"],
    ["anomaly", "--spin"],
    ["ising", "--L", "2", "--T", "2"],
    ["cohomology", "--manifold", "torus:2", "--coefficients", "Z2", "--degree", "7"],
    ["bordism", "--group", "Z2", "--shape", "klein"],
    ["lines", "--A", "Z2", "--Aprime", "full", "--q", ""],
    ["fusion", "--ty", "S3"],
    ["anyons", "--N", "4", "--p", "2"],
]
GUARD_TRIPPED = [
    ["partition", "--target", "B1:S3", "--manifold", "surface:2", "--max-enum", "100"],
    ["partition", "--target", "B1:D4", "--manifold", "surface:3", "--max-enum", "1000"],
    ["partition", "--target", "B1:Q8", "--manifold", "surface:2", "--max-enum", "4000"],
    ["ising", "--L", "4", "--T", "4", "--beta", "0.4", "--max-enum", "1000"],
    ["ising", "--L", "3", "--T", "3", "--beta", "0.44", "--sectors", "trivial",
     "--max-enum", "100"],
]

STRATA = [
    ("partition", 5, _partition_jobs()),
    ("cohomology", 3, _cohomology_jobs()),
    ("tft2d", 2, _tft_jobs()),
    ("algebra", 4, _algebra_jobs()),
    ("ising", 2, _ising_jobs()),
    ("bad_input", 2, [_job(argv, 2) for argv in BAD_INPUT]),
    ("guard_tripped", 2, [_job(argv, 3) for argv in GUARD_TRIPPED]),
]


def known_defect(spec) -> bool:
    return False


# ---------------------------------------------------------------------------
# Oracles: map the CLI document onto the library output the in-process
# workloads check, then reuse their oracles.
# ---------------------------------------------------------------------------


ORACLE_MODULE = {
    "em": "wl_cohomology", "cohomology": "wl_cohomology", "bordism": "wl_cohomology",
    "problem1": "wl_cohomology", "surface_count": "wl_groups", "ty": "wl_groups",
    "group_ring": "wl_groups", "lines": "wl_groups", "anyons": "wl_groups",
    "gauss": "wl_groups", "sectors": "wl_ising",
}


def _group_factors(text: str) -> list[int]:
    return [] if text == "Z1" else [int(p[1:]) for p in text.split("x")]


def _library_output(oracle, doc):
    kind = oracle["kind"]
    if kind == "em" or kind == "surface_count":
        return doc["value"]
    if kind == "cohomology":
        return {"group": _group_factors(doc["group"]), "order": doc["order"]}
    if kind == "bordism":
        return doc["matrix"]
    if kind == "problem1":
        t = doc["trace_check"]
        return {"dim": doc["state_space_dim"], "pants": doc["pants"]["matrix"],
                "copants": doc["copants"]["matrix"],
                "cylinder_is_identity": doc["cylinder_is_identity"],
                "trace": {"passed": t["passed"], "trace": t["cylinder_trace"],
                          "closed": t["closed_torus_value"]}}
    if kind in ("ty", "group_ring"):
        return {"dims": [float(d) for d in doc["dims"]],
                "fiber": [doc["fiber_functor"]["verdict"], doc["fiber_functor"]["witness"]],
                "sqrt": doc["square_root"]["verdict"]}
    if kind == "lines":
        return doc["pairs"]
    if kind == "anyons":
        return {"spins": [a["spin"] for a in doc["anyons"]],
                "charges": [a["charge"] for a in doc["anyons"]]}
    if kind == "gauss":
        return {"value": Fraction(doc["value"]).numerator,
                "re": float(doc["direct_real"]), "im": float(doc["direct_imag"])}
    if kind == "sectors":
        return [float(doc[f"Z{s}"]) for s in ("00", "01", "10", "11")]
    raise ValueError(kind)


def _check_ym(oracle, doc):
    n = oracle["N"]
    expected = {"verdict": "anomalous"} if n % 2 == 0 else {"verdict": "counterterm",
                                                           "k": (n - 1) // 2}
    if "P" in oracle:
        p = oracle["P"] % (math.gcd(2, n) * n)
        expected["fractional_instanton"] = common.frac(Fraction(-(n - 1) * p, 2 * n) % 1)
    return None if doc == expected else f"anomaly report {doc}, expected {expected}"


def _check_ty_table(oracle, doc):
    """TY(A) on labels A + [m]: a.b = a+b, a.m = m.a = m, m.m = sum of A."""
    a = oracle["A"]
    elements = common.elements(a)
    m = len(elements)

    def fuse(i, j):
        if i < m and j < m:
            return [int(k == elements.index(common.add(a, elements[i], elements[j])))
                    for k in range(m)] + [0]
        return [0] * m + [1] if i < m or j < m else [1] * m + [0]

    table = [[fuse(i, j) for j in range(m + 1)] for i in range(m + 1)]
    zero = elements[0]
    dual = [next(k for k in range(m) if common.add(a, elements[i], elements[k]) == zero)
            for i in range(m)] + [m]
    if doc["N"] != table or doc["dual"] != dual or doc["unit"] != 0:
        return f"fusion table of TY({a}) differs from the closed form"
    return None


def _check_sweep(oracle, stdout):
    """Each CSV row against the library's other route at the grid's beta."""
    import wl_ising

    rows = [line.split(",") for line in stdout.split()]
    start, stop, count = oracle["start"], oracle["stop"], oracle["count"]
    if rows[0] != ["beta", "Z00", "Z01", "Z10", "Z11"] or len(rows) != count + 1:
        return "sweep table has the wrong shape"
    for i, row in enumerate(rows[1:]):
        beta = float(row[0])
        if not common.rel_close(beta, start + i * (stop - start) / (count - 1), 1e-12):
            return f"row {i} has beta {beta}, off the grid"
        spec = {"kind": "sectors", "L": oracle["L"], "T": oracle["T"], "beta": beta,
                "method": oracle["method"]}
        error = wl_ising.check(spec, [float(z) for z in row[1:]])
        if error is not None:
            return error
    return None


def check(spec, out, thorough: bool = False):
    """``out`` is {"code": exit code, "stdout": text}.  A library oracle that
    does not fit the job hands back its ``Unchecked`` value."""
    if out["code"] != spec["code"]:
        return f"exit code {out['code']}, expected {spec['code']}"
    if spec["code"] != 0:
        return "output printed on a failing exit" if out["stdout"].strip() else None
    if common.NONFINITE.search(out["stdout"]):
        return "non-finite number in the output"
    oracle = spec["oracle"]
    if oracle["kind"] == "sweep":
        return _check_sweep(oracle, out["stdout"])
    doc = json.loads(out["stdout"])
    if oracle["kind"] == "ym":
        return _check_ym(oracle, doc)
    if oracle["kind"] == "ty_table":
        return _check_ty_table(oracle, doc)
    import importlib

    wl = importlib.import_module(ORACLE_MODULE[oracle["kind"]])
    error = wl.check(oracle, _library_output(oracle, doc), thorough)
    if error is None and "gauged" in doc:
        error = wl.check(dict(oracle, kind="gauged"), float(doc["gauged"]), thorough)
    return error


def run(spec):
    """In-process replay through ``cli.main``: the traced view of a cold job."""
    import contextlib
    import io

    from finsym import cli

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(spec["argv"]))
    return {"code": code, "stdout": stdout.getvalue()}
