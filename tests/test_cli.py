import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path
from types import MappingProxyType

import pytest

import finsym
from finsym.cli import main
from finsym.limits import HARD_CEILING, effective_limit


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSubcommands:
    def test_partition(self, capsys):
        code, out, _ = run(capsys, "partition", "--target", "B2:Z2",
                           "--manifold", "torus:5")
        assert code == 0
        assert json.loads(out)["value"] == "64/1"

    def test_partition_nonabelian_surface(self, capsys):
        code, out, _ = run(capsys, "partition", "--target", "B1:S3",
                           "--manifold", "surface:1")
        assert code == 0
        assert json.loads(out)["value"] == "3/1"

    @pytest.mark.parametrize("manifold", ["klein", "rp:2"])
    def test_partition_nonabelian_off_surfaces(self, capsys, manifold):
        code, out, err = run(capsys, "partition", "--target", "B1:S3",
                             "--manifold", manifold)
        assert code == 2 and out == ""
        assert err == "error: nonabelian gauge groups are supported on closed surfaces only\n"

    def test_partition_bare_b_means_degree_one(self, capsys):
        code, out, _ = run(capsys, "partition", "--target", "B:S3",
                           "--manifold", "surface:0")
        assert code == 0
        assert json.loads(out)["value"] == "1/6"

    @pytest.mark.parametrize("target,message", [
        ("B0:Z2", "cannot parse target 'B0:Z2'"),
        ("Z2", "target must look like B2:Z2, got 'Z2'"),
        ("C2:Z2", "cannot parse target 'C2:Z2'"),
        (":Z2", "cannot parse target ':Z2'"),
        (":S3", "cannot parse target ':S3'"),
    ])
    def test_bad_target_rejected(self, capsys, target, message):
        code, out, err = run(capsys, "partition", "--target", target,
                             "--manifold", "sphere:2")
        assert code == 2 and out == "" and err == f"error: {message}\n"

    def test_cohomology(self, capsys):
        code, out, _ = run(capsys, "cohomology", "--manifold", "rp:2",
                           "--coefficients", "Z2", "--degree", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["group"] == "Z2" and doc["order"] == 2

    @pytest.mark.parametrize("manifold", [
        "circle", "interval", "klein", "disk", "pants",
        *(f"{name}:{k}" for name in ("sphere", "torus", "rp") for k in range(1, 5)),
        *(f"surface:{g}" for g in range(5)),
    ])
    def test_cohomology_group_matches_full_route(self, capsys, manifold):
        from finsym.cli import parse_manifold
        from finsym.complexes import cohomology
        from finsym.groups import parse_abelian

        cx = parse_manifold(manifold)
        for name in ("Z2", "Z4", "Z6", "Z2xZ4"):
            for q in range(cx.top_dim + 1):
                code, out, _ = run(capsys, "cohomology", "--manifold", manifold,
                                   "--coefficients", name, "--degree", str(q))
                h = cohomology(cx, parse_abelian(name), q)
                assert code == 0
                assert json.loads(out) == {"manifold": manifold, "coefficients": name,
                                           "degree": q, "group": str(h.group),
                                           "order": h.order}

    def test_cohomology_degree_out_of_range_is_input_error(self, capsys):
        code, out, err = run(capsys, "cohomology", "--manifold", "torus:2",
                             "--coefficients", "Z2", "--degree", "3")
        assert code == 2 and out == "" and err == "error: degree 3 out of range 0..2\n"

    def test_bordism_pants(self, capsys):
        code, out, _ = run(capsys, "bordism", "--group", "Z2", "--shape", "pants")
        assert code == 0
        doc = json.loads(out)
        assert doc["matrix"] == [["1/1", "0/1", "0/1", "1/1"],
                                 ["0/1", "1/1", "1/1", "0/1"]]

    def test_fusion_report(self, capsys):
        code, out, _ = run(capsys, "fusion", "--ty", "Z2",
                           "--report", "dims,obstructions,table")
        assert code == 0
        doc = json.loads(out)
        assert doc["fiber_functor"]["verdict"] == "impossible"
        assert doc["dual"] == [0, 1, 2]

    def test_lines(self, capsys):
        code, out, _ = run(capsys, "lines", "--A", "Z2", "--Aprime", "full",
                           "--q", "1/4")
        assert code == 0
        assert json.loads(out)["pairs"] == [[[0], [0]], [[1], [1]]]

    def test_lines_trivial_subgroup(self, capsys):
        code, out, _ = run(capsys, "lines", "--A", "Z2", "--Aprime", "0", "--q", "")
        assert code == 0
        assert json.loads(out)["pairs"] == [[[0], [0]], [[0], [1]]]

    def test_lines_subgroup_named_like_the_group(self, capsys):
        code, out, _ = run(capsys, "lines", "--A", "Z2", "--Aprime", "Z2",
                           "--q", "1/4")
        assert code == 0
        assert json.loads(out)["pairs"] == [[[0], [0]], [[1], [1]]]

    def test_lines_generator_list(self, capsys):
        code, out, _ = run(capsys, "lines", "--A", "Z2xZ4", "--Aprime", "0,2",
                           "--q", "1/4")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 8

    @pytest.mark.parametrize("written,canonical", [
        # Z4xZ2 is Z2xZ4 canonically, with the factors swapped
        (("Z4xZ2", "1,1;2,0", "0,0"), ("Z2xZ4", "1,1;0,2", "0,0")),
        (("Z4xZ2", "full", "1/8,1/4"), ("Z2xZ4", "0,1;1,0", "1/8,1/4")),
        # Z2xZ3 is Z6, and (1, 0) is its element 3 of order 2
        (("Z2xZ3", "1,0", "1/2"), ("Z6", "3", "1/2")),
    ])
    def test_lines_reads_generators_in_the_written_factor_order(self, capsys, written,
                                                                canonical):
        docs = []
        for group, sub, q in (written, canonical):
            code, out, err = run(capsys, "lines", "--A", group, "--Aprime", sub, "--q", q)
            assert code == 0, err
            docs.append(json.loads(out))
        assert docs[0] == docs[1]

    def test_lines_checks_generators_against_the_written_factors(self, capsys):
        code, out, err = run(capsys, "lines", "--A", "Z4xZ2", "--Aprime", "0,2", "--q", "0")
        assert code == 2 and out == ""
        assert err == "error: (0, 2) is not an element of Z4xZ2\n"

    def test_anyons(self, capsys):
        code, out, _ = run(capsys, "anyons", "--N", "2", "--p", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["anyons"][1]["spin"] == "1/4"

    def test_anomaly_even(self, capsys):
        code, out, _ = run(capsys, "anomaly", "--ym-theta-pi", "4")
        assert code == 0
        assert json.loads(out) == {"verdict": "anomalous"}

    def test_anomaly_odd_and_instanton(self, capsys):
        code, out, _ = run(capsys, "anomaly", "--ym-theta-pi", "5",
                           "--fractional-instanton", "2", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "counterterm" and doc["k"] == 2
        assert doc["fractional_instanton"] == "3/4"

    def test_gauss(self, capsys):
        code, out, _ = run(capsys, "gauss", "--N", "5", "--p", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == "5/1"
        assert abs(float(doc["direct_real"]) - 5) <= 1e-9

    def test_ising_sectors_and_gauge(self, capsys):
        code, out, _ = run(capsys, "ising", "--L", "2", "--T", "2",
                           "--beta", "0.44068679", "--sectors", "all", "--gauge")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"L", "T", "beta", "Z00", "Z01", "Z10", "Z11", "gauged"}
        total = sum(float(doc[f"Z{s[0]}{s[1]}"]) for s in
                    ((0, 0), (0, 1), (1, 0), (1, 1)))
        assert float(doc["gauged"]) == pytest.approx(0.5 * total, rel=1e-12)

    @pytest.mark.parametrize("sectors", ["all", "trivial"])
    @pytest.mark.parametrize("method", ["bruteforce", "transfer"])
    def test_ising_gauge_reuses_the_sectors(self, capsys, monkeypatch, sectors, method):
        from finsym import ising

        lat = ising.IsingLattice(3, 2, 0.3)
        expected = ising.gauged_partition(lat, method=method)
        calls = []
        original = ising.sector_partitions

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(ising, "sector_partitions", counted)
        code, out, _ = run(capsys, "ising", "--L", "3", "--T", "2", "--beta", "0.3",
                           "--sectors", sectors, "--gauge", "--method", method)
        assert code == 0 and len(calls) == 1
        assert json.loads(out)["gauged"] == format(expected, ".15g")

    def test_problem1(self, capsys):
        code, out, _ = run(capsys, "problem1", "--group", "Z2")
        assert code == 0
        doc = json.loads(out)
        assert doc["state_space_dim"] == 2
        assert doc["cylinder_is_identity"] is True
        assert doc["trace_check"]["passed"] is True
        assert doc["pants"]["matrix"] == [["1/1", "0/1", "0/1", "1/1"],
                                          ["0/1", "1/1", "1/1", "0/1"]]


class TestMixedPrimeGroups:
    """Groups print in invariant-factor form whatever the primes and their order."""

    @pytest.mark.parametrize("coefficients", ["Z3xZ4", "Z4xZ3"])
    def test_cohomology(self, capsys, coefficients):
        code, out, _ = run(capsys, "cohomology", "--manifold", "circle",
                           "--coefficients", coefficients, "--degree", "1")
        doc = json.loads(out)
        assert code == 0 and doc["group"] == "Z12" and doc["order"] == 12

    def test_partition(self, capsys):
        code, out, _ = run(capsys, "partition", "--target", "B1:Z3xZ4",
                           "--manifold", "torus:2")
        assert code == 0 and json.loads(out)["value"] == "12/1"

    def test_lines(self, capsys):
        code, out, _ = run(capsys, "lines", "--A", "Z3xZ4", "--Aprime", "full",
                           "--q", "0,0")
        doc = json.loads(out)
        assert code == 0 and doc["A"] == "Z12" and doc["count"] == 12

    def test_large_prime_coefficients_are_quick(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "cohomology", "--manifold", "circle",
                           "--coefficients", "Z10000000000000061", "--degree", "1")
        assert time.perf_counter() - start < 1.0
        assert code == 0 and json.loads(out)["order"] == 10000000000000061


class TestFormats:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "gauss", "--N", "3", "--p", "2",
                           "--format", "plain")
        assert code == 0
        assert "value = 3/1" in out

    def test_csv_sweep(self, capsys):
        code, out, _ = run(capsys, "ising", "--L", "2", "--T", "2",
                           "--sweep", "0.2", "1.0", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("beta,Z00")
        assert len(lines) == 4

    @pytest.mark.parametrize("method", ["bruteforce", "transfer"])
    @pytest.mark.parametrize("sectors", ["all", "trivial"])
    @pytest.mark.parametrize("gauge", [[], ["--gauge"]])
    @pytest.mark.parametrize("points", [["--beta", "0.44068679"],
                                        ["--sweep", "0.1", "1.0", "4"]])
    def test_csv_renders_the_json_rows(self, capsys, method, sectors, gauge, points):
        argv = ["ising", "--L", "3", "--T", "2", *points, "--method", method,
                "--sectors", sectors, *gauge]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        rows = doc["sweep"] if "sweep" in doc else [
            {k: v for k, v in doc.items() if k not in ("L", "T")}]
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        header, *cells = (line.split(",") for line in out.splitlines())
        # JSON sorts its keys; CSV keeps the document's order, beta first
        assert header[0] == "beta" and sorted(header) == sorted(rows[0])
        assert [dict(zip(header, row)) for row in cells] == rows

    def test_csv_rejected_elsewhere(self, capsys):
        code, _, err = run(capsys, "gauss", "--N", "3", "--p", "1",
                           "--format", "csv")
        assert code == 2
        assert "CSV" in err

    def test_json_reparses(self, capsys):
        for argv in (
            ["partition", "--target", "B2:Z2", "--manifold", "sphere:2"],
            ["anyons", "--N", "3", "--p", "2"],
            ["problem1"],
        ):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            json.loads(out)


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("partition", "--target", "B2:Z2", "--manifold", "torus:4"),
            ("bordism", "--group", "Z2xZ2", "--shape", "copants"),
            ("ising", "--L", "3", "--T", "2", "--beta", "0.3", "--gauge"),
            ("problem1", "--group", "Z3"),
        ],
    )
    def test_byte_identical_runs(self, capsys, argv):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2


class TestSubprocess:
    def test_installed_entry_point_matches_in_process(self, capsys):
        argv = ["anyons", "--N", "4", "--p", "3"]
        _, in_process, _ = run(capsys, *argv)
        completed = subprocess.run(
            [sys.executable, "-m", "finsym.cli", *argv],
            capture_output=True,
            text=True,
            check=True,
        )
        assert completed.stdout == in_process


def child_env() -> dict:
    """The environment of a child interpreter that imports this finsym."""
    src = os.path.dirname(os.path.dirname(finsym.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def numpy_loaded_after(*argvs, code=0) -> bool:
    """Run ``cli.main`` on each argv in one fresh interpreter, each expected
    to exit with ``code``; report whether numpy was imported by the end."""
    program = (
        "import sys\n"
        "from finsym.cli import main\n"
        f"for argv in {argvs!r}:\n"
        f"    assert main(list(argv)) == {code!r}, argv\n"
        "print('numpy' in sys.modules)\n"
    )
    completed = subprocess.run([sys.executable, "-c", program], capture_output=True,
                               text=True, check=True, env=child_env())
    return {"True": True, "False": False}[completed.stdout.splitlines()[-1]]


class TestLazyImports:
    def test_exact_subcommands_never_load_numpy(self):
        assert not numpy_loaded_after(
            ("partition", "--target", "B2:Z2", "--manifold", "torus:3"),
            ("cohomology", "--manifold", "rp:3", "--coefficients", "Z2", "--degree", "2"),
            ("bordism", "--group", "Z2", "--shape", "pants"),
            ("problem1", "--group", "Z2"),
            ("lines", "--A", "Z2", "--Aprime", "full", "--q", "1/4"),
            ("anyons", "--N", "4", "--p", "1"),
            ("anomaly", "--ym-theta-pi", "5", "--fractional-instanton", "2", "1"),
            ("gauss", "--N", "5", "--p", "2"),
            ("fusion", "--group-ring", "D4"),
            ("fusion", "--ty", "Z2"),
        )

    def test_transfer_ising_never_loads_numpy(self):
        assert not numpy_loaded_after(
            ("ising", "--L", "3", "--T", "3", "--beta", "0.44", "--method", "transfer"),
            ("ising", "--L", "2", "--T", "2", "--method", "transfer",
             "--sweep", "0.1", "1.0", "4", "--format", "csv"),
        )

    def test_tripped_guard_never_loads_numpy(self):
        assert not numpy_loaded_after(
            ("ising", "--L", "4", "--T", "4", "--beta", "0.4", "--max-enum", "1000"), code=3)

    def test_bad_input_never_loads_numpy(self):
        assert not numpy_loaded_after(("ising", "--L", "2", "--T", "2"), code=2)

    def test_brute_force_ising_never_loads_numpy(self):
        assert not numpy_loaded_after(
            ("ising", "--L", "2", "--T", "2", "--beta", "0.3"),
            ("ising", "--L", "4", "--T", "5", "--beta", "0.4", "--sectors", "all", "--gauge"),
        )


# the bench's cold-CLI brute-force ising argvs, with their exit codes
BRUTE_FORCE_ISING = [
    *(["ising", "--L", length, "--T", steps, "--beta", beta, "--sectors", "all", "--gauge",
       "--method", "bruteforce"]
      for length, steps, beta in (("2", "2", "0.2"), ("2", "3", "0.44068679"), ("3", "3", "0.6"),
                                  ("3", "4", "0.3"), ("4", "4", "1.1"))),
    ["ising", "--L", "2", "--T", "2", "--sweep", "0.1", "1.0", "10", "--method", "bruteforce",
     "--format", "csv"],
    ["ising", "--L", "2", "--T", "2"],
    ["ising", "--L", "4", "--T", "4", "--beta", "0.4", "--max-enum", "1000"],
    ["ising", "--L", "3", "--T", "3", "--beta", "0.44", "--sectors", "trivial",
     "--max-enum", "100"],
]


def test_runs_without_numpy(capsys):
    """Every README command and brute-force ising argv prints the same in a
    child where ``import numpy`` fails as in this process."""
    argvs = [argv for argv, _ in _readme_cli_examples()] + BRUTE_FORCE_ISING
    program = (
        "import contextlib, io, json, sys\n"
        "sys.modules['numpy'] = None\n"
        "from finsym.cli import main\n"
        "results = []\n"
        f"for argv in {argvs!r}:\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        code = main(argv)\n"
        "    results.append([code, out.getvalue(), err.getvalue()])\n"
        "print(json.dumps(results))\n"
    )
    completed = subprocess.run([sys.executable, "-c", program], capture_output=True,
                               text=True, check=True, env=child_env())
    assert json.loads(completed.stdout) == [list(run(capsys, *argv)) for argv in argvs]


class TestClosedPipe:
    def test_early_close_exits_1_without_a_traceback(self):
        # about 0.5 MB of JSON, far more than a pipe buffers, so the writer
        # is still writing when the reader goes away
        with subprocess.Popen(
            [sys.executable, "-m", "finsym.cli", "fusion", "--ty", "Z2xZ2xZ2xZ4",
             "--report", "table"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
        ) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert (first, code, err) == (b"{\n", 1, b"")


class TestExitCodes:
    def test_unknown_preset_is_input_error(self, capsys):
        code, _, err = run(capsys, "partition", "--target", "B2:Z2",
                           "--manifold", "nosuch:1")
        assert code == 2 and "nosuch" in err

    def test_unknown_flag_is_input_error(self, capsys):
        code, _, _ = run(capsys, "gauss", "--N", "3", "--p", "1", "--bogus")
        assert code == 2

    def test_guard_exceeded_is_exit_3(self, capsys):
        code, _, err = run(capsys, "partition", "--target", "B1:S3",
                           "--manifold", "surface:2", "--max-enum", "100")
        assert code == 3 and "guard" in err

    def test_max_enum_leaves_environment_alone(self, capsys, monkeypatch):
        before = dict(os.environ)
        with monkeypatch.context() as m:
            # a read-only environment: --max-enum must not write to it
            m.setattr(os, "environ", MappingProxyType(before))
            code, _, err = run(capsys, "partition", "--target", "B1:S3",
                               "--manifold", "surface:2", "--max-enum", "100")
        assert code == 3 and "guard" in err
        assert dict(os.environ) == before
        assert effective_limit() == HARD_CEILING
        code, out, _ = run(capsys, "partition", "--target", "B1:S3",
                           "--manifold", "surface:2")
        assert code == 0 and json.loads(out)["value"]

    @pytest.mark.parametrize("argv", [
        ("gauss", "--N", "100000", "--p", "1"),
        ("anyons", "--N", "30000000", "--p", "1"),
    ])
    def test_large_n_trips_the_default_guard(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 3 and "guard" in err and out == ""

    def test_large_group_ring_validates_quickly(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "fusion", "--group-ring", "Z60")
        assert time.perf_counter() - start < 1.0
        doc = json.loads(out)
        assert code == 0 and doc["dims"] == ["1"] * 60
        assert doc["fiber_functor"]["verdict"] == "possible"

    def test_closed_bordism_over_a_large_group_is_quick(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "bordism", "--group", "Z1000", "--shape", "torus")
        assert time.perf_counter() - start < 1.0
        assert code == 0 and json.loads(out)["matrix"] == [["1000/1"]]

    def test_bordism_entry_count_trips_the_default_guard(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "bordism", "--group", "Z400", "--shape", "pants")
        assert time.perf_counter() - start < 1.0
        assert code == 3 and "bordism matrix entries" in err and out == ""

    @pytest.mark.parametrize("group,q,states", [("Z32xZ32", "0,0", 2**30),
                                                ("Z1000000", "0", 10**18)])
    def test_line_selection_trips_the_default_guard(self, capsys, group, q, states):
        # charged before A' is enumerated, so even a million-element A' is quick
        start = time.perf_counter()
        code, out, err = run(capsys, "lines", "--A", group, "--Aprime", "full", "--q", q)
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert err == (f"guard exceeded: line selection (|A'|^2 |A|) needs {states} states, "
                       f"guard allows {HARD_CEILING}\n")

    def test_line_selection_at_the_guard_ceiling_runs(self, capsys):
        # |A'|^2 |A| = 2^24 exactly; q = 0 dresses no flux with a charge
        start = time.perf_counter()
        code, out, _ = run(capsys, "lines", "--A", "Z16xZ16", "--Aprime", "full",
                           "--q", "0,0")
        assert time.perf_counter() - start < 2.0
        pairs = [[[a, b], [0, 0]] for a in range(16) for b in range(16)]
        expected = {"A": "Z16xZ16", "Aprime_generators": [[1, 0], [0, 1]],
                    "pairs": pairs, "count": 256}
        assert code == 0 and out == json.dumps(expected, sort_keys=True, indent=2) + "\n"

    def test_pure_wilson_lines_of_a_large_group_are_quick(self, capsys):
        # A' = 0 is charged |A| = 4096; the |A|^2 pairwise closure check is gone
        start = time.perf_counter()
        code, out, _ = run(capsys, "lines", "--A", "Z4096", "--Aprime", "0", "--q", "")
        assert time.perf_counter() - start < 1.0
        doc = json.loads(out)
        assert code == 0 and doc["count"] == 4096
        assert doc["pairs"] == [[[0], [e]] for e in range(4096)]

    @pytest.mark.parametrize("flag,group,rank", [
        ("--group-ring", "Z300", 300), ("--ty", "Z300", 301),
        # Z2048's |A|^2 Cayley table fits under the ceiling; its rank^3 does not
        ("--group-ring", "Z2048", 2048), ("--ty", "Z2048", 2049),
        # one past the largest rings the ceiling admits (256^3 = 2^24)
        ("--group-ring", "Z257", 257), ("--ty", "Z256", 257),
    ])
    def test_large_group_ring_trips_the_guard_before_it_is_built(self, capsys, flag, group,
                                                                  rank):
        start = time.perf_counter()
        code, out, err = run(capsys, "fusion", flag, group)
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert err == (f"guard exceeded: fusion associativity check ({rank}^3 triples) "
                       f"needs {rank**3} states, guard allows {HARD_CEILING}\n")

    def test_largest_rings_the_guard_admits_are_quick(self, capsys):
        # rank 256: 256^3 = 2^24 triples, exactly the ceiling
        for argv, last in ((["--ty", "Z255", "--report", "dims"], "15.9687194226713"),
                           (["--group-ring", "Z256"], "1")):
            start = time.perf_counter()
            code, out, _ = run(capsys, "fusion", *argv)
            assert time.perf_counter() - start < 1.0
            assert code == 0 and json.loads(out)["dims"][-1] == last

    def test_target_degree_far_above_the_manifold_is_quick(self, capsys):
        # degrees above the top cell contribute 1: B^n Z2 on T^2 is 1 for n >= 3
        start = time.perf_counter()
        code, out, _ = run(capsys, "partition", "--target", "B100000000:Z2",
                           "--manifold", "torus:2")
        assert time.perf_counter() - start < 1.0
        assert code == 0 and json.loads(out)["value"] == "1/1"

    @pytest.mark.parametrize("flag", ["--q", "--q-cross"])
    def test_zero_denominator_is_input_error(self, capsys, flag):
        argv = ["lines", "--A", "Z2xZ2", "--Aprime", "full", "--q", "1/4,1/4"]
        code, out, err = run(capsys, *argv, flag, "1/0" if flag == "--q" else "0,1:1/0")
        assert code == 2 and err.startswith("error: ") and out == ""

    @pytest.mark.parametrize("group,sub,limit,expected", [
        # A' = A = Z4xZ4: 16^2 * 16 = 4096 selection steps
        ("Z4xZ4", "full", 4096, 0), ("Z4xZ4", "full", 4095, 3),
        # (1,1) and (0,2) = 2(1,1) span a cyclic A' of order 4 in Z2xZ4: 4^2 * 8
        ("Z2xZ4", "1,1;0,2", 128, 0), ("Z2xZ4", "1,1;0,2", 127, 3),
    ])
    def test_line_selection_charge_is_exact(self, capsys, group, sub, limit, expected):
        code, _, _ = run(capsys, "lines", "--A", group, "--Aprime", sub,
                         "--q", "0,0", "--max-enum", str(limit))
        assert code == expected

    def test_wide_transfer_answers(self, capsys):
        # any width runs; 13 x 2 equals the transposed 2 x 13 torus
        docs = []
        for length, steps in (("13", "2"), ("2", "13")):
            code, out, err = run(capsys, "ising", "--L", length, "--T", steps,
                                 "--beta", "0.4", "--method", "transfer")
            assert code == 0 and err == ""
            docs.append(json.loads(out))
        assert [docs[0][f"Z{h}"] for h in ("00", "01", "10", "11")] == \
            [docs[1][f"Z{h}"] for h in ("00", "10", "01", "11")]

    @pytest.mark.parametrize("length,steps", [("4", "6"), ("2", "12"), ("1", "24")])
    def test_bruteforce_up_to_24_sites(self, capsys, length, steps):
        docs = []
        for method in ("bruteforce", "transfer"):
            code, out, err = run(capsys, "ising", "--L", length, "--T", steps,
                                 "--beta", "0.4", "--method", method)
            assert code == 0 and err == ""
            docs.append(json.loads(out))
        for h in ("00", "01", "10", "11"):
            assert float(docs[0][f"Z{h}"]) == pytest.approx(float(docs[1][f"Z{h}"]), rel=1e-13)

    def test_bruteforce_past_the_ceiling_trips_the_guard(self, capsys):
        code, out, err = run(capsys, "ising", "--L", "5", "--T", "5", "--beta", "0.4")
        assert code == 3 and out == ""
        assert err == ("guard exceeded: spin configuration enumeration needs 33554432 "
                       "states, guard allows 16777216\n")

    def test_transfer_digits_of_t_trip_the_guard(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "ising", "--L", "12", "--T", "1" + "0" * 1000,
                             "--beta", "300", "--method", "transfer")
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert err.startswith("guard exceeded: transfer evaluation needs ")

    def test_sweep_over_a_huge_torus_is_quick(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "ising", "--L", "1000000", "--T", "1000000",
                             "--sweep", "0.1", "1.0", "2")
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert err == ("guard exceeded: beta sweep needs at least 2^65537 states, "
                       f"guard allows {HARD_CEILING}\n")

    def test_bruteforce_over_a_huge_torus_is_guarded(self, capsys):
        # the guard is charged before the 2*L*T twists of a background are built
        code, out, err = run(capsys, "ising", "--L", "1", "--T", "100000000000000000000",
                             "--beta", "0.4")
        assert code == 3 and out == ""
        assert err == ("guard exceeded: spin configuration enumeration needs at least "
                       f"2^65536 states, guard allows {HARD_CEILING}\n")

    def test_transfer_overflow_is_input_error(self, capsys):
        code, out, err = run(capsys, "ising", "--L", "4", "--T", "300", "--beta", "0.05",
                             "--method", "transfer")
        assert code == 2 and "overflows a float" in err and out == ""

    @pytest.mark.parametrize("method", ["bruteforce", "transfer"])
    def test_huge_beta_gives_the_ground_state_count(self, capsys, method):
        # the k = 0 weight is 1, not exp(-inf * 0) = nan; 2 ground states on 2x2
        code, out, err = run(capsys, "ising", "--L", "2", "--T", "2", "--beta", "1e308",
                             "--method", method)
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert [doc[f"Z{h}"] for h in ("00", "01", "10", "11")] == ["2", "0", "0", "0"]

    def test_infinite_beta_is_input_error(self, capsys):
        code, out, err = run(capsys, "ising", "--L", "2", "--T", "2", "--beta", "inf")
        assert code == 2 and out == ""
        assert err == "error: beta must be positive and finite\n"

    @pytest.mark.parametrize("method", ["bruteforce", "transfer"])
    def test_sweep_count_trips_the_default_guard(self, capsys, method):
        start = time.perf_counter()
        code, out, err = run(capsys, "ising", "--L", "2", "--T", "2",
                             "--sweep", "0.1", "1.0", "100000000", "--method", method)
        assert time.perf_counter() - start < 1.0
        assert code == 3 and "guard" in err and out == ""

    def test_transfer_sweep_is_charged_per_digit(self, capsys):
        # 100000 points x L = 12 x 43 digits; one unit per point would pass
        start = time.perf_counter()
        code, out, err = run(capsys, "ising", "--L", "12", "--T", "12",
                             "--sweep", "0.1", "1.0", "100000", "--method", "transfer")
        assert time.perf_counter() - start < 1.0
        assert code == 3 and "guard" in err and out == ""

    @pytest.mark.parametrize("stop", ["1e308", "inf"])
    def test_overflowing_sweep_is_input_error(self, capsys, stop):
        code, out, err = run(capsys, "ising", "--L", "2", "--T", "2",
                             "--sweep", "0.1", stop, "3")
        assert code == 2 and out == ""
        assert err == ("error: sweep overflows a float: "
                       "(count - 1) * (stop - start) must be finite\n")

    def test_genus_four_surface_count_is_quick(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "partition", "--target", "B1:D4",
                           "--manifold", "surface:4")
        assert time.perf_counter() - start < 1.0
        assert code == 0 and json.loads(out)["value"] == "1052672/1"

    def test_widest_transfer_is_quick(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "ising", "--L", "12", "--T", "12", "--beta", "0.44",
                             "--sectors", "all", "--gauge", "--method", "transfer")
        assert time.perf_counter() - start < 1.0
        assert code == 0 and err == ""
        doc = json.loads(out)
        half_sum = 0.5 * sum(float(doc[f"Z{h}"]) for h in ("00", "01", "10", "11"))
        assert float(doc["gauged"]) == pytest.approx(half_sum, rel=1e-14)

    def test_zero_generator_value_is_input_error(self, capsys):
        code, out, err = run(capsys, "lines", "--A", "Z2xZ2", "--Aprime", "1,0;0,0",
                             "--q", "1/4,1/4")
        assert code == 2 and "contradicts" in err and out == ""

    def test_bad_threads(self, capsys):
        code, _, _ = run(capsys, "gauss", "--N", "3", "--p", "1",
                         "--threads", "0")
        assert code == 2


def _readme_cli_examples():
    """(argv, expected subset or None) for each line of the README CLI block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "finsym"
        comment = comment.strip()
        examples.append((argv[1:], json.loads(comment) if comment.startswith("{") else None))
    return examples


@pytest.mark.parametrize("argv,expected", _readme_cli_examples(),
                         ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_readme_cli_examples(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    if expected is not None:
        doc = json.loads(out)
        assert {k: doc.get(k) for k in expected} == expected
