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

    def test_partition_bare_b_means_degree_one(self, capsys):
        code, out, _ = run(capsys, "partition", "--target", "B:S3",
                           "--manifold", "surface:0")
        assert code == 0
        assert json.loads(out)["value"] == "1/6"

    def test_bad_target_rejected(self, capsys):
        for target in ("B0:Z2", "Z2", "C2:Z2"):
            code, _, _ = run(capsys, "partition", "--target", target,
                             "--manifold", "sphere:2")
            assert code == 2

    def test_cohomology(self, capsys):
        code, out, _ = run(capsys, "cohomology", "--manifold", "rp:2",
                           "--coefficients", "Z2", "--degree", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["group"] == "Z2" and doc["order"] == 2

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


def numpy_loaded_after(*argvs) -> bool:
    """Run ``cli.main`` on each argv in one fresh interpreter; report
    whether numpy was imported by the end."""
    code = (
        "import sys\n"
        "from finsym.cli import main\n"
        f"for argv in {argvs!r}:\n"
        "    assert main(list(argv)) == 0, argv\n"
        "print('numpy' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(finsym.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    completed = subprocess.run([sys.executable, "-c", code], capture_output=True,
                               text=True, check=True, env=env)
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
        )

    @pytest.mark.parametrize("argv", [
        ("ising", "--L", "2", "--T", "2", "--beta", "0.3"),
        ("fusion", "--ty", "Z2"),
    ])
    def test_float_subcommands_load_numpy(self, argv):
        assert numpy_loaded_after(argv)


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

    def test_line_selection_trips_the_default_guard(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "lines", "--A", "Z32xZ32", "--Aprime", "full",
                             "--q", "0,0")
        assert time.perf_counter() - start < 1.0
        assert code == 3 and "line selection" in err and out == ""

    def test_line_selection_at_the_guard_ceiling_runs(self, capsys):
        # |A'|^2 |A| = 2^24 exactly; q = 0 dresses no flux with a charge
        code, out, _ = run(capsys, "lines", "--A", "Z16xZ16", "--Aprime", "full",
                           "--q", "0,0")
        pairs = [[[a, b], [0, 0]] for a in range(16) for b in range(16)]
        expected = {"A": "Z16xZ16", "Aprime_generators": [[1, 0], [0, 1]],
                    "pairs": pairs, "count": 256}
        assert code == 0 and out == json.dumps(expected, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("limit,expected", [(4096, 0), (4095, 3)])
    def test_line_selection_charge_is_exact(self, capsys, limit, expected):
        # Z4xZ4 with A' = A: 16^2 * 16 = 4096 selection steps
        code, _, _ = run(capsys, "lines", "--A", "Z4xZ4", "--Aprime", "full",
                         "--q", "0,0", "--max-enum", str(limit))
        assert code == expected

    def test_transfer_overflow_is_input_error(self, capsys):
        code, out, err = run(capsys, "ising", "--L", "4", "--T", "300", "--beta", "0.05",
                             "--method", "transfer")
        assert code == 2 and "overflows a float" in err and out == ""

    @pytest.mark.parametrize("method", ["bruteforce", "transfer"])
    def test_sweep_count_trips_the_default_guard(self, capsys, method):
        start = time.perf_counter()
        code, out, err = run(capsys, "ising", "--L", "2", "--T", "2",
                             "--sweep", "0.1", "1.0", "100000000", "--method", method)
        assert time.perf_counter() - start < 1.0
        assert code == 3 and "guard" in err and out == ""

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
