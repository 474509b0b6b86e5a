"""Command-line surface: parse the mini-language, dispatch, emit JSON/CSV/plain.

Every run is deterministic: no randomness anywhere, fixed iteration orders,
and sorted JSON keys.  Exact rationals print as "a/b"; floats print with 15
significant digits.  Exit codes: 0 success, 1 stdout closed before the
output was written, 2 input error, 3 guard exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

# Only stdlib, groups and limits at module level: each parser and runner
# imports the one finsym module it calls.
from .groups import (NONABELIAN_PRESETS, FiniteAbelianGroup, named_group, parse_abelian,
                     parse_cyclic_orders)
from .limits import GuardExceeded, check_enum, max_enum


def fmt_fraction(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def fmt_float(x: float) -> str:
    return format(float(x), ".15g")


def parse_fraction(text: str) -> Fraction:
    return Fraction(text.strip())


def parse_manifold(text: str):
    from . import complexes

    name, _, param = text.partition(":")
    if param:
        return complexes.preset(name, int(param))
    return complexes.preset(name)


def parse_target(text: str):
    from . import pathintegral

    head, _, group_name = text.partition(":")
    if not group_name:
        raise ValueError(f"target must look like B2:Z2, got {text!r}")
    degree = int(head[1:]) if len(head) > 1 else 1
    if head[:1] != "B" or degree < 1:
        raise ValueError(f"cannot parse target {text!r}")
    if group_name in NONABELIAN_PRESETS:
        return pathintegral.PiFiniteTarget(named_group(group_name), degree)
    return pathintegral.PiFiniteTarget(parse_abelian(group_name), degree)


def _parse_subgroup(group: FiniteAbelianGroup, orders, text: str):
    """Generators in the written factor order ``orders`` of ``group``;
    ``full`` is the unit generators of the nontrivial written factors."""
    text = text.strip()
    if text in ("0", "trivial"):
        return []
    if text in ("full", str(group)):
        k = len(orders)
        return [tuple(int(i == j) for j in range(k)) for i in range(k) if orders[i] > 1]
    return [tuple(int(x) for x in part.split(",")) for part in text.split(";")]


def _written_to_canonical(orders):
    """Carry elements of Z_{n_1} x ... in the written order into
    ``FiniteAbelianGroup.from_cyclic_orders(orders)``.  With U diag(n) V = S
    in Smith form, x -> (U x)_i mod d_i over the d_i > 1 is an isomorphism,
    and U = I when the orders are already canonical."""
    from .intmatrix import IntMatrix, smith_normal_form_full

    k = len(orders)
    snf = smith_normal_form_full(IntMatrix(
        [[n * (i == j) for j in range(k)] for i, n in enumerate(orders)], rows=k, cols=k))
    written = "x".join(f"Z{n}" for n in orders) or "Z1"

    def carry(x):
        if len(x) != k or not all(0 <= a < n for a, n in zip(x, orders)):
            raise ValueError(f"{x} is not an element of {written}")
        return tuple(a % d for a, d in zip(snf.u.apply_vector(x), snf.diagonal) if d > 1)

    return carry


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(2)


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "plain", "csv"), default="json")
    common.add_argument("--max-enum", type=int, default=None,
                        help="lower the enumeration guard (hard ceiling 2^24)")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted for interface stability; computations "
                             "are deterministic and single-threaded")

    parser = _Parser(prog="finsym", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def add_parser(name, run, **kwargs):
        p = sub.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(run=run)
        return p

    p = add_parser("cohomology", _run_cohomology, help="H^q(manifold; A) for a preset manifold")
    p.add_argument("--manifold", required=True)
    p.add_argument("--coefficients", required=True)
    p.add_argument("--degree", type=int, required=True)

    p = add_parser("partition", _run_partition, help="finite homotopy partition function")
    p.add_argument("--target", required=True, help="e.g. B2:Z2, B1:S3")
    p.add_argument("--manifold", required=True, help="e.g. torus:5, surface:2")

    p = add_parser("bordism", _run_bordism, help="exact bordism matrix of the 2d gauge theory")
    p.add_argument("--group", required=True)
    p.add_argument("--shape", required=True,
                   choices=sorted(("cylinder", "pants", "copants", "cap", "cup",
                                   "torus", "sphere")))

    p = add_parser("fusion", _run_fusion, help="fusion-ring reports and obstructions")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--ty", help="Tambara-Yamagami ring of an abelian group")
    src.add_argument("--group-ring", help="group ring of a preset group")
    p.add_argument("--report", default="dims,obstructions",
                   help="comma list from: dims, obstructions, table")

    p = add_parser("lines", _run_lines, help="line lattice selected by (A', q)")
    p.add_argument("--A", required=True, dest="ambient")
    p.add_argument("--Aprime", required=True, dest="sub",
                   help="'0', 'full', or generators like '1,0;0,2'")
    p.add_argument("--q", default="", help="comma list of q(generator) fractions")
    p.add_argument("--q-cross", default="", dest="q_cross",
                   help="cross terms like '0,1:1/2;0,2:1/4'")

    p = add_parser("anyons", _run_anyons, help="anyon data of the minimal Z_N theory")
    p.add_argument("--N", type=int, required=True, dest="n")
    p.add_argument("--p", type=int, required=True)

    p = add_parser("anomaly", _run_anomaly, help="anomaly arithmetic")
    p.add_argument("--ym-theta-pi", type=int, dest="ym", default=None,
                   help="time reversal at theta = pi for SU(N)")
    p.add_argument("--fractional-instanton", nargs=2, type=int, default=None,
                   dest="frac", metavar=("N", "P"))
    p.add_argument("--spin", action="store_true",
                   help="restrict the Pontryagin input to spin manifolds")

    p = add_parser("gauss", _run_gauss, help="Z_N Gauss-sum self-duality scalar")
    p.add_argument("--N", type=int, required=True, dest="n")
    p.add_argument("--p", type=int, required=True)

    p = add_parser("ising", _run_ising, help="square-torus Ising partition functions")
    p.add_argument("--L", type=int, required=True, dest="length")
    p.add_argument("--T", type=int, required=True, dest="time_steps")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--sectors", choices=("all", "trivial"), default="all")
    p.add_argument("--gauge", action="store_true")
    p.add_argument("--method", choices=("bruteforce", "transfer"),
                   default="bruteforce")
    p.add_argument("--sweep", nargs=3, default=None,
                   metavar=("START", "STOP", "COUNT"),
                   help="beta grid for CSV export")

    p = add_parser("problem1", _run_problem1, help="the d=2 pair-of-pants exercise")
    p.add_argument("--group", default="Z2")
    return parser


def _matrix_doc(mat) -> dict:
    # every entry is mat.value or 0: two strings, formatted once each
    nonzero, zero = fmt_fraction(mat.value), fmt_fraction(0)
    return {
        "source_dim": mat.source.dim,
        "target_dim": mat.target.dim,
        "source_basis": [list(map(list, b)) for b in mat.source.basis],
        "target_basis": [list(map(list, b)) for b in mat.target.basis],
        "matrix": [[nonzero if x else zero for x in row] for row in mat.entries],
    }


def _run_cohomology(args) -> dict:
    from . import complexes

    cx = parse_manifold(args.manifold)
    coeffs = parse_abelian(args.coefficients)
    group = FiniteAbelianGroup.from_cyclic_orders(
        complexes.cohomology_cyclic_orders(cx, coeffs, args.degree))
    return {
        "manifold": args.manifold,
        "coefficients": str(coeffs),
        "degree": args.degree,
        "group": str(group),
        "order": group.order,
    }


def _run_partition(args) -> dict:
    from . import pathintegral

    target = parse_target(args.target)
    cx = parse_manifold(args.manifold)
    value = pathintegral.partition(target, cx)
    return {"target": args.target, "manifold": args.manifold,
            "value": fmt_fraction(value)}


def _run_bordism(args) -> dict:
    from . import tqft2d

    group = parse_abelian(args.group)
    mat = tqft2d.bordism_matrix(tqft2d.bordism_preset(args.shape), group)
    doc = {"shape": args.shape, "group": str(group)}
    doc.update(_matrix_doc(mat))
    return doc


def _run_fusion(args) -> dict:
    from . import fusion

    name = args.group_ring if args.ty is None else args.ty
    if name.strip() not in NONABELIAN_PRESETS:
        # the ring's rank^3, before an abelian group's |A|^2 Cayley table is built
        fusion._charged_rank(parse_abelian(name).order + (args.ty is not None))
    if args.ty is not None:
        ring = fusion.tambara_yamagami(named_group(args.ty))
        doc = {"ring": f"TY({args.ty})"}
    else:
        ring = fusion.group_ring(named_group(args.group_ring))
        doc = {"ring": f"C[{args.group_ring}]"}
    doc["labels"] = list(ring.labels)
    wanted = [w.strip() for w in args.report.split(",") if w.strip()]
    for item in wanted:
        if item == "dims":
            doc["dims"] = [fmt_float(fusion._rounded(fusion._pf_enclosure(ring, i)[0])[0])
                           for i in range(ring.rank)]
        elif item == "obstructions":
            ff = fusion.fiber_functor_obstruction(ring)
            sq = fusion.square_root_obstruction(ring)
            doc["fiber_functor"] = {"verdict": ff.verdict, "witness": ff.witness,
                                    "detail": ff.detail}
            doc["square_root"] = {"verdict": sq.verdict, "detail": sq.detail}
        elif item == "table":
            doc["N"] = [[list(row) for row in plane] for plane in ring.n_tensor]
            doc["dual"] = list(ring.dual)
            doc["unit"] = ring.unit
        else:
            raise ValueError(f"unknown report item {item!r}")
    return doc


def _run_lines(args) -> dict:
    from . import anomaly

    orders = parse_cyclic_orders(args.ambient)
    ambient = FiniteAbelianGroup.from_cyclic_orders(orders)
    written = _parse_subgroup(ambient, orders, args.sub)
    gen_values = [parse_fraction(v) for v in args.q.split(",") if v.strip()]
    if len(gen_values) != len(written):
        raise ValueError("need one --q value per subgroup generator")
    cross = {}
    for chunk in args.q_cross.split(";"):
        if not chunk.strip():
            continue
        pair, _, val = chunk.partition(":")
        i, j = (int(x) for x in pair.split(","))
        cross[(i, j)] = parse_fraction(val)
    gens = list(map(_written_to_canonical(orders), written))
    lattice = anomaly.allowed_lines_from_generator_values(
        ambient, gens, gen_values, cross
    )
    return {
        "A": str(ambient),
        "Aprime_generators": [list(g) for g in gens],
        "pairs": [[list(m), list(e)] for m, e in lattice.pairs],
        "count": len(lattice.pairs),
    }


def _run_anyons(args) -> dict:
    from . import anomaly

    table = anomaly.minimal_tft_data(anomaly.MinimalTFT(args.n, args.p))
    return {
        "N": args.n,
        "p": args.p,
        "anyons": [
            {"k": k, "spin": fmt_fraction(s), "charge": c}
            for k, (s, c) in enumerate(zip(table.spins, table.charges))
        ],
        "quantum_dim": fmt_float(anomaly.defect_quantum_dim(args.n)),
    }


def _run_anomaly(args) -> dict:
    from . import anomaly

    doc = {}
    if args.ym is None and args.frac is None:
        raise ValueError("choose --ym-theta-pi and/or --fractional-instanton")
    if args.ym is not None:
        verdict = anomaly.ym_theta_pi_anomaly(args.ym)
        if verdict.anomalous:
            doc["verdict"] = "anomalous"
        else:
            doc["verdict"] = "counterterm"
            doc["k"] = verdict.counterterm
    if args.frac is not None:
        n, p = args.frac
        doc["fractional_instanton"] = fmt_fraction(
            anomaly.fractional_instanton(n, p, spin=args.spin)
        )
    return doc


def _run_gauss(args) -> dict:
    from . import anomaly

    exact = anomaly.gauss_sum(args.n, args.p)
    direct = anomaly.gauss_sum_direct(args.n, args.p)
    return {
        "N": args.n,
        "p": args.p,
        "value": fmt_fraction(exact),
        "direct_real": fmt_float(direct.real),
        "direct_imag": fmt_float(direct.imag),
    }


def _run_ising(args) -> dict:
    from . import ising

    if args.sweep is not None:
        start, stop, count = float(args.sweep[0]), float(args.sweep[1]), int(args.sweep[2])
        if count < 2 or not (start > 0 and stop > start):
            raise ValueError("sweep needs 0 < start < stop and count >= 2")
        lat = ising.IsingLattice(args.length, args.time_steps, start)
        check_enum(count * ising.evaluation_cost(lat, args.method), what="beta sweep")
        # the grid below multiplies before it divides; keep its bits, reject overflow
        if not math.isfinite((count - 1) * (stop - start)):
            raise ValueError(
                "sweep overflows a float: (count - 1) * (stop - start) must be finite")
        betas = [start + i * (stop - start) / (count - 1) for i in range(count)]
    else:
        if args.beta is None:
            raise ValueError("--beta (or --sweep) is required")
        betas = [args.beta]
    rows = []
    for beta in betas:
        zs = ising.sector_partitions(
            ising.IsingLattice(args.length, args.time_steps, beta), args.method)
        shown = zs if args.sectors == "all" else {(0, 0): zs[(0, 0)]}
        row = {"beta": fmt_float(beta)}
        row.update((f"Z{h_x}{h_t}", fmt_float(z)) for (h_x, h_t), z in shown.items())
        if args.gauge:
            row["gauged"] = fmt_float(ising.gauge_sum(zs))
        rows.append(row)
    if args.sweep is None:
        return {"L": args.length, "T": args.time_steps, **rows[0]}
    return {"L": args.length, "T": args.time_steps, "sweep": rows}


def _run_problem1(args) -> dict:
    from . import tqft2d

    report = tqft2d.solve_problem_one(parse_abelian(args.group))
    return {
        "group": report["group"],
        "state_space_dim": report["state_space_dim"],
        "state_space_basis": [list(map(list, b)) for b in report["state_space_basis"]],
        "pants": _matrix_doc(report["pants"]),
        "pants_provenance": report["pants_provenance"],
        "copants": _matrix_doc(report["copants"]),
        "copants_provenance": report["copants_provenance"],
        "cylinder_is_identity": report["cylinder_is_identity"],
        "trace_check": {
            "passed": report["trace_check"].passed,
            "cylinder_trace": fmt_fraction(report["trace_check"].cylinder_trace),
            "closed_torus_value": fmt_fraction(report["trace_check"].closed_torus_value),
        },
    }


def _emit_plain(doc, prefix="") -> list[str]:
    lines = []
    if isinstance(doc, dict):
        for k in doc:
            lines.extend(_emit_plain(doc[k], f"{prefix}{k}." if prefix else f"{k}."))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            lines.extend(_emit_plain(v, f"{prefix}{i}."))
    else:
        lines.append(f"{prefix[:-1]} = {doc}")
    return lines


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.threads < 1:
        print("--threads must be >= 1", file=sys.stderr)
        return 2

    try:
        with max_enum(args.max_enum):
            doc = args.run(args)
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        lines = [json.dumps(doc, sort_keys=True, indent=2)]
    elif args.format == "plain":
        lines = _emit_plain(doc)
    elif args.command != "ising":
        print("error: CSV output is only available for ising runs", file=sys.stderr)
        return 2
    else:
        # one row per beta: the sweep's rows, or the document without L and T
        rows = doc.get("sweep") or [{k: v for k, v in doc.items() if k not in ("L", "T")}]
        lines = [",".join(row) for row in [list(rows[0]), *(r.values() for r in rows)]]
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (`finsym ... | head`); as the signal
        # module's docs advise, point stdout at devnull so that the flush at
        # exit stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
