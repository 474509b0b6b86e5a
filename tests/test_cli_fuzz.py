"""Grammar fuzz of every subcommand: ``lines``, ``fusion``, ``cohomology``,
``partition``, ``bordism``, ``anyons``, ``anomaly``, ``gauss``, ``ising``
and ``problem1``.

Hypothesis draws argvs from the CLI grammar (group strings, among them
products of coprime prime powers in every written order, subgroup specs,
q values and cross terms, reports, manifold presets and their parameters,
targets, shapes, degrees, integer parameters, inverse temperatures and
sweeps, formats and ``--max-enum``), well-formed and garbled alike.  Every
argv must end in exit 0, 2 or 3 from ``cli.main``: a result, an input
error or a tripped guard, never an uncaught exception; and stdout never
prints ``inf`` or ``nan``.  A ``cohomology`` argv prints the same with its
coefficient factors written in reverse.  Runs are derandomized and keep no
example database, and the groups and lattices stay small, so the suite
stays fast and deterministic.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from finsym.cli import main

# Hypothesis's pytest plugin caches the literals of local modules under its
# home directory while collecting, database or not; keep that out of the
# checkout.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "finsym-hypothesis")

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=150)

GARBAGE = st.sampled_from(["", " ", "x", ";", ",", ":", "-1", "1/0", "0/0", "1/2/3",
                           "1.5", "1e3", "Z", "Zx2", "Z0", "Z-4", "nan", "∞"])


def mixed_primes(max_factor, max_factors):
    """Products of coprime prime powers, in every order: Z3xZ4 as well as Z4xZ3."""
    powers = [n for n in (2, 3, 4, 5, 7, 8, 9, 11) if n <= max_factor]
    coprime = st.lists(st.sampled_from(powers), min_size=2, max_size=max(2, max_factors),
                       unique_by=lambda n: min(p for p in (2, 3, 5, 7, 11) if n % p == 0))
    return coprime.flatmap(st.permutations).map(lambda ns: "x".join(f"Z{n}" for n in ns))


def groups(max_factor, max_factors):
    cyclic = st.integers(1, max_factor).map(lambda n: f"Z{n}")
    return st.one_of(st.lists(cyclic, min_size=1, max_size=max_factors).map("x".join),
                     mixed_primes(max_factor, max_factors),
                     st.sampled_from(["S3", "D4", "Q8", "Z1", "trivial", "0", "E8"]), GARBAGE)


FRACTIONS = st.one_of(
    st.sampled_from(["0", "1/2", "1/4", "3/4", "1/8", "1/6", "1/3"]),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-9, 9), st.integers(0, 16)),
    st.integers(-3, 3).map(str),
    GARBAGE,
)
ELEMENT = st.lists(st.integers(-1, 12).map(str), min_size=0, max_size=3).map(",".join)
SUBGROUPS = st.one_of(st.sampled_from(["0", "trivial", "full"]),
                      st.lists(ELEMENT, min_size=1, max_size=3).map(";".join), GARBAGE)
CROSS = st.one_of(
    st.just(""),
    st.lists(st.builds(lambda i, j, v: f"{i},{j}:{v}", st.integers(-1, 3),
                       st.integers(-1, 3), FRACTIONS), max_size=2).map(";".join),
    GARBAGE,
)
COMMON = st.tuples(
    st.one_of(st.just([]), st.integers(-2, 5000).map(lambda n: ["--max-enum", str(n)])),
    st.one_of(st.just([]), st.sampled_from(["json", "plain", "csv"]).map(
        lambda f: ["--format", f])),
)


NONFINITE = re.compile(r"\b(inf|nan)\b")


def _exit_code(argv) -> int:
    """The exit code of ``argv``, after checking stdout prints no inf/nan."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert not NONFINITE.search(stdout.getvalue()), stdout.getvalue()
    return code


@FUZZ
@given(groups(12, 3), SUBGROUPS, st.lists(FRACTIONS, max_size=3).map(",".join), CROSS, COMMON)
def test_lines_argvs_exit_cleanly(group, sub, q, cross, common):
    argv = ["lines", "--A", group, "--Aprime", sub, "--q", q, "--q-cross", cross]
    assert _exit_code(argv + common[0] + common[1]) in (0, 2, 3)


@FUZZ
@given(st.sampled_from(["--ty", "--group-ring"]), groups(8, 2),
       st.lists(st.sampled_from(["dims", "obstructions", "table", "bogus", " "]),
                max_size=3).map(",".join),
       COMMON)
def test_fusion_argvs_exit_cleanly(flag, group, report, common):
    argv = ["fusion", flag, group, "--report", report]
    assert _exit_code(argv + common[0] + common[1]) in (0, 2, 3)


MANIFOLDS = st.one_of(
    st.sampled_from(["circle", "interval", "klein", "disk", "pants", "sphere", "torus",
                     "surface", "rp", "cube", ""]),
    st.builds(lambda name, param: f"{name}:{param}",
              st.sampled_from(["circle", "klein", "sphere", "torus", "surface", "rp", "cube"]),
              st.one_of(st.integers(-1, 6).map(str), st.just("2:3"), GARBAGE)),
    GARBAGE,
)
TARGETS = st.one_of(
    st.builds(lambda head, group: f"{head}:{group}",
              st.one_of(st.integers(-1, 6).map(lambda n: f"B{n}"),
                        st.sampled_from(["", "B", "b1", "C2", "BB", "B-", "2", "B1.5"])),
              groups(6, 2)),
    GARBAGE,
)
DEGREES = st.one_of(st.integers(-2, 6).map(str), GARBAGE)


@FUZZ
@given(MANIFOLDS, groups(12, 3), DEGREES, COMMON)
def test_cohomology_argvs_exit_cleanly(manifold, group, degree, common):
    argv = ["cohomology", "--manifold", manifold, "--coefficients", group, "--degree", degree]
    assert _exit_code(argv + common[0] + common[1]) in (0, 2, 3)


@FUZZ
@given(MANIFOLDS, mixed_primes(12, 3), DEGREES)
def test_cohomology_ignores_the_written_factor_order(manifold, group, degree):
    outputs = set()
    for name in (group, "x".join(reversed(group.split("x")))):
        stdout = io.StringIO()
        argv = ["cohomology", "--manifold", manifold, "--coefficients", name, "--degree", degree]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            outputs.add((main(argv), stdout.getvalue()))
    assert len(outputs) == 1


@FUZZ
@given(TARGETS, MANIFOLDS, st.integers(-2, 5000), COMMON)
def test_partition_argvs_exit_cleanly(target, manifold, limit, common):
    # always bounded: a nonabelian genus-4 count is |G|^8 tuples under the ceiling
    argv = ["partition", "--target", target, "--manifold", manifold,
            "--max-enum", str(limit)]
    assert _exit_code(argv + common[1]) in (0, 2, 3)


@FUZZ
@given(groups(4, 2), st.sampled_from(["cylinder", "pants", "copants", "cap", "cup", "torus",
                                      "sphere", "klein", ""]), COMMON)
def test_bordism_argvs_exit_cleanly(group, shape, common):
    argv = ["bordism", "--group", group, "--shape", shape]
    assert _exit_code(argv + common[0] + common[1]) in (0, 2, 3)


INTS = st.one_of(st.integers(-3, 40).map(str), GARBAGE)


@FUZZ
@given(INTS, INTS, COMMON)
def test_anyons_argvs_exit_cleanly(n, p, common):
    argv = ["anyons", "--N", n, "--p", p]
    assert _exit_code(argv + common[0] + common[1]) in (0, 2, 3)


@FUZZ
@given(st.one_of(st.just([]), INTS.map(lambda n: ["--ym-theta-pi", n])),
       st.one_of(st.just([]), st.tuples(INTS, INTS).map(
           lambda np_: ["--fractional-instanton", *np_])),
       st.sampled_from([[], ["--spin"]]), COMMON)
def test_anomaly_argvs_exit_cleanly(ym, frac, spin, common):
    argv = ["anomaly", *ym, *frac, *spin]
    assert _exit_code(argv + common[0] + common[1]) in (0, 2, 3)


@FUZZ
@given(INTS, INTS, COMMON)
def test_gauss_argvs_exit_cleanly(n, p, common):
    argv = ["gauss", "--N", n, "--p", p]
    assert _exit_code(argv + common[0] + common[1]) in (0, 2, 3)


BETAS = st.one_of(
    st.sampled_from(["inf", "-inf", "+inf", "nan", "-nan", "1e308", "1.7976931348623157e308",
                     "1e200", "-1", "0", "-0.0", "5e-324", "1e-300", "0.44068679", "1e3"]),
    st.floats(-5, 50, allow_nan=False).map(repr),
    GARBAGE,
)
SIDE = st.integers(1, 3).map(str)
OPTIONS = st.tuples(st.sampled_from([[], ["--sectors", "all"], ["--sectors", "trivial"]]),
                    st.sampled_from([[], ["--gauge"]]),
                    st.sampled_from([[], ["--method", "bruteforce"], ["--method", "transfer"]]))


@FUZZ
@given(SIDE, SIDE, BETAS, OPTIONS, COMMON)
def test_ising_beta_argvs_exit_cleanly(length, steps, beta, options, common):
    argv = ["ising", "--L", length, "--T", steps, "--beta", beta, *sum(options, [])]
    assert _exit_code(argv + common[0] + common[1]) in (0, 2, 3)


@FUZZ
@given(st.one_of(SIDE, st.integers(-1, 0).map(str), GARBAGE),
       st.one_of(SIDE, st.integers(-1, 0).map(str), GARBAGE),
       st.one_of(st.tuples(BETAS, BETAS, st.one_of(st.integers(-1, 12).map(str), GARBAGE))
                 .map(lambda sweep: ["--sweep", *sweep]),
                 st.just([])),
       OPTIONS, COMMON)
def test_ising_argvs_exit_cleanly(length, steps, sweep, options, common):
    argv = ["ising", "--L", length, "--T", steps, *sweep, *sum(options, [])]
    assert _exit_code(argv + common[0] + common[1]) in (0, 2, 3)


@FUZZ
@given(st.one_of(st.sampled_from(["Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "Z2xZ2",
                                  "Z2xZ4", "Z4xZ2", "Z2xZ3", "Z2xZ2xZ2", "Z1xZ2", "S3",
                                  "trivial"]), GARBAGE),
       COMMON)
def test_problem1_argvs_exit_cleanly(group, common):
    argv = ["problem1", "--group", group]
    assert _exit_code(argv + common[0] + common[1]) in (0, 2, 3)
