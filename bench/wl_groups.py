"""finite_group_sweep: exact enumeration and validation without SNF.

Why: the work is Cayley-table, fusion-ring and quadratic-form validation,
nonabelian surface counts and Q/Z arithmetic in ``groups``, ``fusion``,
``quadratic``, ``anomaly`` and ``pathintegral``; ``intmatrix`` is idle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product as iproduct

from finsym import anomaly, fusion, groups, pathintegral, quadratic
from finsym.groups import parse_abelian

import common


NONABELIAN = ["S3", "D4", "Q8"]
ORDER_LE_16 = [
    "Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "Z7", "Z8", "Z2xZ4", "Z2xZ2xZ2", "Z9",
    "Z3xZ3", "Z10", "Z12", "Z2xZ6", "Z16", "Z4xZ4", "Z2xZ8", "Z2xZ2xZ4",
]
ORDER_LE_32 = ORDER_LE_16 + [
    "Z18", "Z20", "Z24", "Z2xZ12", "Z5xZ5", "Z27", "Z3xZ9", "Z28", "Z30", "Z32",
    "Z2xZ2xZ2xZ4",
]
TY_GROUPS = ["Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "Z7", "Z8", "Z2xZ4", "Z2xZ2xZ2",
             "Z9", "Z3xZ3"]
FORM_GROUPS = ["Z2", "Z3", "Z4", "Z8", "Z9", "Z16", "Z2xZ2", "Z2xZ4", "Z3xZ3",
               "Z4xZ4", "Z2xZ8", "Z2xZ2xZ2", "Z2xZ2xZ4"]
GAUSS_N = [5, 12, 30, 64, 97, 128, 150, 199, 256, 300, 343, 400]
ANYON_N = [2, 3, 4, 5, 6, 8, 12, 50, 100, 250, 500, 1000, 2000]


def _refinement_value(order: int, k: int) -> str:
    """A value q(g) that refines on a cyclic group of the given order."""
    return f"{k}/{2 * order if order % 2 == 0 else order}"


def _form_specs():
    specs = []
    for a in FORM_GROUPS:
        fs = common.factors(a)
        for variant in (1, 3):
            values = [_refinement_value(n, variant + i) for i, n in enumerate(fs)]
            cross = [[i, j, f"1/{math.gcd(fs[i], fs[j])}"]
                     for i in range(len(fs)) for j in range(i + 1, len(fs))
                     if variant == 3 and math.gcd(fs[i], fs[j]) > 1]
            specs.append({"A": a, "gens": "full", "values": values, "cross": cross})
    return specs


def _element_order(a: str, g) -> int:
    return math.lcm(*(n // math.gcd(x, n) for x, n in zip(g, common.factors(a))))


def _line_specs():
    specs = _form_specs()
    for a in FORM_GROUPS:
        fs = common.factors(a)
        specs.append({"A": a, "gens": [], "values": [], "cross": []})
        g = [n // 2 if n % 2 == 0 else 1 for n in fs]
        g[-1] = 1
        o = _element_order(a, g)
        specs.append({"A": a, "gens": [g], "values": [_refinement_value(o, 1)], "cross": []})
    return [dict(s, kind="lines") for s in specs]


STRATA = [
    ("surface_count", 4, [
        {"kind": "surface_count", "G": g, "genus": k}
        for g in NONABELIAN + ["Z2xZ2"] for k in (0, 1, 2)
    ]),
    ("surface_count_g3", 1, [
        {"kind": "surface_count", "G": g, "genus": 3} for g in NONABELIAN + ["Z2xZ2"]
    ]),
    ("conjugacy", 4, [{"kind": "conjugacy", "G": g} for g in NONABELIAN + ORDER_LE_32]),
    ("group_ring", 2, [{"kind": "group_ring", "G": g} for g in NONABELIAN + ORDER_LE_16]),
    ("tambara_yamagami", 2, [{"kind": "ty", "G": g} for g in TY_GROUPS]),
    ("quadratic", 2, [dict(s, kind="quadratic") for s in _form_specs()]),
    ("lines", 2, _line_specs()),
    ("anyons", 2, [
        {"kind": "anyons", "N": n, "p": p}
        for n in ANYON_N for p in (1, 3, 7) if math.gcd(n, p) == 1
    ]),
    ("gauss", 2, [
        {"kind": "gauss", "N": n, "p": p}
        for n in GAUSS_N for p in (1, 3) if math.gcd(n, p) == 1
    ]),
]


def known_defect(spec) -> bool:
    return False


def _fracs(values):
    return [Fraction(v) for v in values]


def _cross(spec):
    return {(i, j): Fraction(v) for i, j, v in spec["cross"]}


def _gens(spec):
    if spec["gens"] == "full":
        k = len(common.factors(spec["A"]))
        return [tuple(int(i == j) for j in range(k)) for i in range(k)]
    return [tuple(g) for g in spec["gens"]]


def _report(ring):
    ff = fusion.fiber_functor_obstruction(ring)
    return {"labels": list(ring.labels), "dims": fusion.pf_dimensions(ring),
            "fiber": [ff.verdict, ff.witness],
            "sqrt": fusion.square_root_obstruction(ring).verdict}


def run(spec):
    kind = spec["kind"]
    if kind == "surface_count":
        g = groups.named_group(spec["G"])
        return common.frac(pathintegral.surface_gauge_count(g, spec["genus"]))
    if kind == "conjugacy":
        return [list(c) for c in groups.conjugacy_classes(groups.named_group(spec["G"]))]
    if kind == "group_ring":
        return _report(fusion.group_ring(groups.named_group(spec["G"])))
    if kind == "ty":
        return _report(fusion.tambara_yamagami(groups.named_group(spec["G"])))
    if kind == "quadratic":
        q = quadratic.QuadraticForm(parse_abelian(spec["A"]), _fracs(spec["values"]),
                                    _cross(spec))
        b = quadratic.bihomomorphism(q)
        return [[list(x), list(y), common.frac(v)] for (x, y), v in sorted(b.items())]
    if kind == "lines":
        lattice = anomaly.allowed_lines_from_generator_values(
            parse_abelian(spec["A"]), _gens(spec), _fracs(spec["values"]), _cross(spec))
        return [[list(m), list(e)] for m, e in lattice.pairs]
    if kind == "anyons":
        t = anomaly.minimal_tft_data(anomaly.MinimalTFT(spec["N"], spec["p"]))
        return {"spins": [common.frac(s) for s in t.spins], "charges": list(t.charges)}
    if kind == "gauss":
        direct = anomaly.gauss_sum_direct(spec["N"], spec["p"])
        return {"value": anomaly.gauss_sum(spec["N"], spec["p"]),
                "re": direct.real, "im": direct.imag}
    raise ValueError(f"unknown job kind {kind!r}")


# ---------------------------------------------------------------------------
# Oracles.
# ---------------------------------------------------------------------------


def _subgroup_table(spec):
    """q on the subgroup A' expanded from generator data, bench-side."""
    a = spec["A"]
    gens = _gens(spec)
    values, cross = _fracs(spec["values"]), _cross(spec)
    table = {}
    for coeffs in iproduct(*(range(_element_order(a, g)) for g in gens)):
        elem = tuple(0 for _ in common.factors(a))
        for c, g in zip(coeffs, gens):
            for _ in range(c):
                elem = common.add(a, elem, g)
        q = sum((c * c * v for c, v in zip(coeffs, values)), Fraction(0))
        q += sum((coeffs[i] * coeffs[j] * v for (i, j), v in cross.items()), Fraction(0))
        table[elem] = q % 1
    return table


def _polarization(a, table, x, y):
    return (table[common.add(a, x, y)] - table[x] - table[y]) % 1


def _order(name: str) -> int:
    if name in common.CLASS_SIZES:
        return sum(common.CLASS_SIZES[name])
    return common.group_order(name)


def _check_fusion(out, order, is_ty):
    dims = out["dims"]
    if not common.all_finite(dims):
        return "non-finite PF dimension"
    expected = [1.0] * order + ([math.sqrt(order)] if is_ty else [])
    if len(dims) != len(expected) or any(abs(d - e) > 1e-9 * e for d, e in zip(dims, expected)):
        return f"PF dimensions {dims}, expected {expected}"
    square = math.isqrt(order) ** 2 == order
    fiber = "possible" if (not is_ty or square) else "impossible"
    rank = len(expected)
    sqrt = "inconclusive" if math.isqrt(rank) ** 2 == rank else "no_sqrt"
    if out["fiber"][0] != fiber or out["sqrt"] != sqrt:
        return f"verdicts {out['fiber'][0]}/{out['sqrt']}, expected {fiber}/{sqrt}"
    return None


def check(spec, out, thorough: bool = False):
    """None when ``out`` agrees with the oracle, else a reason.  Every job
    here has a live oracle."""
    kind = spec["kind"]
    if kind == "surface_count":
        expected = common.frac(common.mednykh(spec["G"], spec["genus"]))
        if out != expected:
            return f"Z = {out}, Frobenius-Mednykh gives {expected}"
        if spec["genus"] == 1:
            classes = len(groups.conjugacy_classes(groups.named_group(spec["G"])))
            if out != common.frac(classes):
                return f"Z(T^2) = {out}, but there are {classes} conjugacy classes"
        return None
    if kind == "conjugacy":
        name = spec["G"]
        order = _order(name)
        members = sorted(x for c in out for x in c)
        sizes = sorted(len(c) for c in out)
        expected = common.CLASS_SIZES.get(name, [1] * order)
        if members != list(range(order)) or sizes != expected or [0] not in out:
            return f"class sizes {sizes}, expected {expected}"
        return None
    if kind in ("group_ring", "ty"):
        return _check_fusion(out, _order(spec["G"]), kind == "ty")
    if kind == "quadratic":
        a = spec["A"]
        table = _subgroup_table(spec)
        expected = [[list(x), list(y), common.frac(_polarization(a, table, x, y))]
                    for x in sorted(table) for y in sorted(table)]
        return None if out == expected else "polarization differs from the expansion"
    if kind == "lines":
        a = spec["A"]
        table = _subgroup_table(spec)
        fs = common.factors(a)
        pairs = {(tuple(m), tuple(e)) for m, e in out}
        if len(pairs) != len(out) or len(out) != common.group_order(a):
            return f"{len(out)} lines, expected {common.group_order(a)} distinct ones"
        for m, e in pairs:
            if m not in table:
                return f"magnetic label {m} is outside A'"
            for x in table:
                chi = sum((Fraction(t * v, n) for t, v, n in zip(e, x, fs)), Fraction(0))
                if (chi + _polarization(a, table, m, x)) % 1:
                    return f"line {(m, e)} violates e|A' = -b(m, -)"
        return None
    if kind == "anyons":
        n, p = spec["N"], spec["p"]
        spins = [common.frac(Fraction(p * k * k, 2 * n) % 1) for k in range(n)]
        charges = [(p * k) % n for k in range(n)]
        return None if out == {"spins": spins, "charges": charges} else "anyon table differs"
    if kind == "gauss":
        n = spec["N"]
        if out["value"] != n or not common.all_finite(out):
            return f"gauss_sum = {out['value']}, expected {n}"
        if abs(complex(out["re"], out["im"]) - n) > 1e-9:
            return f"direct sum {out['re']}+{out['im']}i differs from {n} by more than 1e-9"
        return None
    return f"unknown job kind {kind!r}"
