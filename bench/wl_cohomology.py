"""cohomology_sweep: SNF cohomology, B^nA partition functions and 2d bordisms.

Why: almost all of the work is Smith normal form in ``intmatrix`` under
``complexes`` and ``tqft2d``, with no group enumeration and no floats.
Coefficients with two or three invariant factors repeat the SNF once per
factor; single-factor coefficients do not.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product as iproduct

from finsym import complexes, pathintegral, tqft2d
from finsym.groups import FiniteAbelianGroup, parse_abelian

import common


COEFFS = ["Z2", "Z3", "Z4", "Z6", "Z8", "Z2xZ2", "Z2xZ4", "Z3xZ3", "Z2xZ2xZ2", "Z2xZ4xZ8"]
PRODUCT_COEFFS = ["Z2", "Z3", "Z4", "Z2xZ2", "Z2xZ4", "Z2xZ4xZ8"]
EM_COEFFS = ["Z2", "Z3", "Z2xZ4", "Z2xZ4xZ8"]
SMALL = [
    ["circle"], ["torus", 2], ["torus", 3], ["torus", 4], ["torus", 5],
    ["sphere", 2], ["sphere", 3], ["sphere", 4],
    ["surface", 1], ["surface", 2], ["surface", 3], ["surface", 4],
    ["rp", 2], ["rp", 3], ["rp", 4], ["klein"],
]
T2, T3, S2, SG = ["torus", 2], ["torus", 3], ["sphere", 2], "surface"
PRODUCTS = [
    ["product", T3, T3],                      # T^6: 20 cells in degree 3
    ["product", [SG, 4], [SG, 4]],            # 66 cells in degree 2
    ["product", T3, [SG, 4]],
    ["product", [SG, 2], [SG, 3]],
    ["product", S2, T3],
    ["product", T2, [SG, 3]],
    ["product", ["product", T2, [SG, 2]], S2],
    ["product", ["product", S2, S2], [SG, 2]],
    ["product", ["product", [SG, 1], [SG, 2]], ["circle"]],
]
SHAPES = ["cylinder", "pants", "copants", "cap", "cup", "torus", "sphere"]
BORDISM_COEFFS = ["Z2", "Z3", "Z4", "Z5", "Z2xZ2", "Z2xZ4", "Z3xZ3"]
GLUE_PAIRS = [
    ("pants", "copants"), ("pants", "cylinder"), ("cylinder", "copants"),
    ("cylinder", "cylinder"), ("cap", "cylinder"), ("cylinder", "cup"),
    ("cap", "cup"), ("pants", "cup"), ("cap", "copants"),
]
# Bordisms whose boundary circles the restriction jobs restrict to.
RESTRICT_TO = [
    (["cap"], 1), (["cup"], 1), (["pants"], 3), (["copants"], 3), (["cylinder"], 2),
    (["pants", "copants"], 4), (["cap", "copants"], 2), (["pants", "cylinder"], 3),
]
SMALL_COEFFS = ["Z2", "Z3", "Z4", "Z2xZ2", "Z2xZ4"]


def _top(desc) -> int:
    b = common.betti(desc)
    if b is not None:
        return len(b) - 1
    return desc[1] if desc[0] == "rp" else 2


def _cohomology_specs(complexes_, coeffs):
    return [
        {"kind": "cohomology", "cx": cx, "A": a, "q": q}
        for cx in complexes_ for a in coeffs for q in range(_top(cx) + 1)
    ]


STRATA = [
    ("coh_small", 4, _cohomology_specs(SMALL, COEFFS)),
    ("coh_product", 6, _cohomology_specs(PRODUCTS, PRODUCT_COEFFS)),
    ("em_partition", 4, [
        {"kind": "em", "cx": cx, "A": a, "n": n}
        for cx in SMALL + PRODUCTS[:6] for a in EM_COEFFS for n in range(1, 5)
    ]),
    ("restriction", 2, [
        {"kind": "restriction", "w": w, "circle": i, "A": a, "q": q}
        for w, circles in RESTRICT_TO for i in range(circles)
        for a in SMALL_COEFFS for q in (0, 1)
    ]),
    ("bordism", 2, [
        {"kind": "bordism", "shape": s, "A": a} for s in SHAPES for a in BORDISM_COEFFS
    ]),
    ("glue", 1, [
        {"kind": "glue", "first": f, "second": s, "A": a}
        for f, s in GLUE_PAIRS for a in ["Z2", "Z3", "Z4", "Z2xZ2"]
    ]),
    ("trace_check", 1, [
        {"kind": "trace", "circles": k, "A": a}
        for k in (1, 2, 3) for a in ["Z2", "Z3", "Z4", "Z2xZ2"]
    ]),
    ("problem1", 1, [
        {"kind": "problem1", "A": a} for a in ["Z2", "Z3", "Z4", "Z5", "Z2xZ2", "Z2xZ4"]
    ]),
]

# Brute-force oracles run only where the cochain enumeration stays this small.
LIVE_ENUM = 2**12
RECORD_ENUM = 2**18


def known_defect(spec) -> bool:
    return False


def _bordism(w):
    if len(w) == 1:
        return tqft2d.bordism_preset(w[0])
    return tqft2d.glue(tqft2d.bordism_preset(w[0]), tqft2d.bordism_preset(w[1]))


def _matrix(mat) -> list:
    return [[common.frac(x) for x in row] for row in mat.entries]


def run(spec):
    kind = spec["kind"]
    if kind == "cohomology":
        cx = common.build_complex(spec["cx"], complexes)
        h = complexes.cohomology(cx, parse_abelian(spec["A"]), spec["q"])
        return {"group": list(h.group.invariant_factors), "order": h.order,
                "factors": [{"n": f.n, "orders": list(f.orders),
                             "reps": [list(r) for r in f.reps]} for f in h.factors]}
    if kind == "em":
        cx = common.build_complex(spec["cx"], complexes)
        return common.frac(pathintegral.em_partition(cx, parse_abelian(spec["A"]), spec["n"]))
    if kind == "restriction":
        b = _bordism(spec["w"])
        sub = (b.in_circles + b.out_circles)[spec["circle"]]
        m = complexes.restriction_map(b.w, sub, parse_abelian(spec["A"]), spec["q"])
        return {"source": m.source.order, "target": m.target.order,
                "factors": [{"source": list(fs.orders), "target": list(ft.orders),
                             "map": [list(r) for r in mat.data]}
                            for fs, ft, mat in zip(m.source.factors, m.target.factors,
                                                   m.matrices)]}
    if kind == "bordism":
        b = tqft2d.bordism_preset(spec["shape"])
        return _matrix(tqft2d.bordism_matrix(b, parse_abelian(spec["A"])))
    if kind == "glue":
        b = tqft2d.glue(tqft2d.bordism_preset(spec["first"]),
                        tqft2d.bordism_preset(spec["second"]))
        return _matrix(tqft2d.bordism_matrix(b, parse_abelian(spec["A"])))
    if kind == "trace":
        r = tqft2d.trace_check(spec["circles"], parse_abelian(spec["A"]))
        return {"passed": r.passed, "trace": common.frac(r.cylinder_trace),
                "closed": common.frac(r.closed_torus_value), "dim": r.state_space_dim}
    if kind == "problem1":
        r = tqft2d.solve_problem_one(parse_abelian(spec["A"]))
        t = r["trace_check"]
        return {"dim": r["state_space_dim"], "pants": _matrix(r["pants"]),
                "copants": _matrix(r["copants"]),
                "cylinder_is_identity": r["cylinder_is_identity"],
                "trace": {"passed": t.passed, "trace": common.frac(t.cylinder_trace),
                          "closed": common.frac(t.closed_torus_value)}}
    raise ValueError(f"unknown job kind {kind!r}")


# ---------------------------------------------------------------------------
# Oracles.
# ---------------------------------------------------------------------------


def _labels(a: str, circles: int):
    return [tuple(t) for t in iproduct(common.elements(a), repeat=circles)]


def shape_matrix(shape: str, a: str):
    """Closed-form bordism matrix (rows: out labels, cols: in labels)."""
    zero = tuple(0 for _ in common.factors(a))
    order = common.group_order(a)
    ins, outs = {"cylinder": (1, 1), "pants": (2, 1), "copants": (1, 2), "cap": (0, 1),
                 "cup": (1, 0), "torus": (0, 0), "sphere": (0, 0)}[shape]
    scale = {"cap": Fraction(1, order), "sphere": Fraction(1, order),
             "torus": Fraction(order)}.get(shape, Fraction(1))

    def entry(out, inn):
        if shape == "cylinder":
            return out == inn
        if shape == "pants":
            return out[0] == common.add(a, inn[0], inn[1])
        if shape == "copants":
            return inn[0] == common.add(a, out[0], out[1])
        if shape == "cap":
            return out[0] == zero
        if shape == "cup":
            return inn[0] == zero
        return True

    return [[scale * entry(o, i) for i in _labels(a, ins)] for o in _labels(a, outs)]


def _matmul(x, y):
    return [[sum((x[i][k] * y[k][j] for k in range(len(y))), Fraction(0))
             for j in range(len(y[0]))] for i in range(len(x))]


def _as_strings(mat):
    return [[common.frac(v) for v in row] for row in mat]


def _enum_size(cx, a: str, q: int) -> int:
    """Cochains the brute-force oracle enumerates (one cyclic factor at a time)."""
    return max(common.factors(a)) ** cx.n_cells(q)


def _combine(coeffs, vectors, n):
    """sum_i coeffs[i] * vectors[i] mod n."""
    out = [0] * len(vectors[0])
    for c, v in zip(coeffs, vectors):
        for i, x in enumerate(v):
            out[i] += c * x
    return tuple(x % n for x in out)


def _apply(rows, vector, n):
    return tuple(sum(a * x for a, x in zip(row, vector)) % n for row in rows)


def _coboundary_group(cx, q: int, n: int, limit: int):
    """B^q(cx; Z_n) as a set of cochains, or None once it exceeds ``limit``."""
    group = {(0,) * cx.n_cells(q)}
    for column in zip(*cx.coboundary(q - 1).data):
        if tuple(x % n for x in column) in group:
            continue
        group = {tuple((a + k * b) % n for a, b in zip(x, column))
                 for x in group for k in range(n)}
        if len(group) > limit:
            return None
    return group


def _check_reps(spec, out, limit):
    """Each factor's representatives are cocycles.  Where B^q fits the
    enumeration guard they are also a basis of the stated orders: order_i *
    rep_i is a coboundary, and no nonzero combination below the orders is."""
    cx = common.build_complex(spec["cx"], complexes)
    q = spec["q"]
    delta = cx.coboundary(q).data
    for f in out["factors"]:
        n, orders, reps = f["n"], f["orders"], f["reps"]
        if len(reps) != len(orders) or any(len(r) != cx.n_cells(q) for r in reps):
            return "representatives do not match the stated orders"
        if any(any(_apply(delta, r, n)) for r in reps):
            return f"a representative is not a cocycle mod {n}"
        boundaries = _coboundary_group(cx, q, n, limit) if math.prod(orders) <= limit else None
        if boundaries is None:
            continue
        for o, r in zip(orders, reps):
            if _combine([o], [r], n) not in boundaries:
                return f"a representative mod {n} has an order above its stated {o}"
        for coeffs in iproduct(*(range(o) for o in orders)):
            if any(coeffs) and _combine(coeffs, reps, n) in boundaries:
                return f"representatives mod {n} are not independent of orders {orders}"
    return None


def _image_size(out) -> int:
    """|image| of the restriction map, from its matrices on class coordinates."""
    size = 1
    for f in out["factors"]:
        rows = f["map"]
        image = {tuple(sum(a * c for a, c in zip(row, coeffs)) % t
                       for row, t in zip(rows, f["target"]))
                 for coeffs in iproduct(*(range(o) for o in f["source"]))}
        size *= len(image)
    return size


def check(spec, out, thorough: bool = False):
    """None when ``out`` agrees with the oracle, else a reason; ``Unchecked``
    when no live oracle fits the job."""
    kind = spec["kind"]
    a = spec.get("A")
    limit = RECORD_ENUM if thorough else LIVE_ENUM
    if kind == "cohomology":
        if "factors" in out:  # the CLI prints no representatives
            per_factor = [o for f in out["factors"] for o in f["orders"]]
            if common.elementary_divisors(per_factor) != common.elementary_divisors(out["group"]):
                return f"H^q is {out['group']}, but its factors have orders {per_factor}"
            error = _check_reps(spec, out, limit)
            if error is not None:
                return error
        orders = common.cohomology_orders(spec["cx"], a, spec["q"])
        if orders is not None:
            if common.elementary_divisors(orders) != common.elementary_divisors(out["group"]):
                return f"H^q is {out['group']}, closed form gives {orders}"
            return None
        cx = common.build_complex(spec["cx"], complexes)
        if _enum_size(cx, a, spec["q"]) > limit:
            return common.Unchecked({"group": out["group"], "order": out["order"]})
        count = len(complexes.enumerate_cocycles(cx, parse_abelian(a), spec["q"]))
        if count != out["order"]:
            return f"|H^q| = {out['order']}, cocycle enumeration gives {count}"
        return None
    if kind == "em":
        expected = common.em_partition_closed_form(spec["cx"], a, spec["n"])
        if expected is None:
            cx = common.build_complex(spec["cx"], complexes)
            if _enum_size(cx, a, min(spec["n"], cx.top_dim)) > limit:
                return common.Unchecked(out)
            expected = pathintegral.em_partition_bruteforce(cx, parse_abelian(a), spec["n"])
        if out != common.frac(expected):
            return f"Z = {out}, oracle gives {common.frac(expected)}"
        return None
    if kind == "restriction":
        source = math.prod(o for f in out["factors"] for o in f["source"])
        target = math.prod(o for f in out["factors"] for o in f["target"])
        if (source, target) != (out["source"], out["target"]):
            return "restriction factors do not match the group orders"
        got = {"source": source, "target": target, "image": _image_size(out)}
        b = _bordism(spec["w"])
        sub = (b.in_circles + b.out_circles)[spec["circle"]]
        q = spec["q"]
        if _enum_size(b.w, a, q) > limit:
            return common.Unchecked(got)
        # The boundary circle has one vertex and a loop, so B^q(S^1) = 0 and
        # the image of H^q(W) is the set of distinct pulled-back cocycles.
        image = 1
        for n in common.factors(a):
            reps = complexes.enumerate_cocycles(b.w, FiniteAbelianGroup([n]), q)
            image *= len({sub.pull_back(tuple(c[0] for c in z), q) for z in reps})
        if got["image"] != image:
            return f"restriction image {got['image']}, brute force gives {image}"
        return None
    if kind == "bordism":
        if out != _as_strings(shape_matrix(spec["shape"], a)):
            return "bordism matrix differs from the closed form"
        return None
    if kind == "glue":
        formal = _matmul(shape_matrix(spec["second"], a), shape_matrix(spec["first"], a))
        if out != _as_strings(formal):
            return "glued matrix differs from the formal composite"
        return None
    if kind == "trace":
        n = common.frac(common.group_order(a) ** spec["circles"])
        if not (out["passed"] and out["trace"] == out["closed"] == n):
            return f"trace identity fails: {out}"
        return None
    if kind == "problem1":
        t = out["trace"]
        order = common.group_order(a)
        ok = (out["dim"] == order and out["cylinder_is_identity"] and t["passed"]
              and t["trace"] == t["closed"] == common.frac(order)
              and out["pants"] == _as_strings(shape_matrix("pants", a))
              and out["copants"] == _as_strings(shape_matrix("copants", a)))
        return None if ok else "problem-one report differs from the closed forms"
    return f"unknown job kind {kind!r}"
