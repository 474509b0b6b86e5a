"""finsym benchmark: one command runs a workload, checks every output and
prints every metric by name with its unit.

Run from the repository root:

  python3 bench/run.py --workload cohomology_sweep --seed 1 --seconds 50 --trace 0
  python3 bench/run.py --compare PARENT_RUNS CHANGE_RUNS
  python3 bench/run.py --record        # rewrite bench/expected.json, oracle-checked
  python3 bench/run.py --selftest      # short runs, and a corrupted output must fail
  python3 bench/run.py --fingerprint   # machine, Python, numpy and BLAS

Load comes from one closed-loop client: one job at a time, the next only
after the previous one returns.  In-process workloads run in a fresh
interpreter per run (imports are paid in set-up and nothing carries over);
cli_cold starts one cold ``python -m finsym.cli`` child per job.  With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` the
per-layer metrics of a traced replay of the same jobs.  The last line of
stdout is the result as JSON.  Every run also writes its result to
.bench_out/runs/ for ``--compare``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BLAS_THREADS = 1            # pinned for every child; at most nproc
MIN_JOBS = 100              # so that at least 10 samples lie beyond p90; also
                            # the jobs generated in set-up, on every commit
SETUP_SAMPLES = 10          # fresh set-up interpreters before and again after the
                            # timed run; setup_s is the median of all of them
KERNEL_PER_SPAWN = 3        # host-speed kernel samples before each child starts
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("FINSYM_MAX_ENUM", None)
    return env


def worker(root: Path, env: dict, cfg: dict, deadline: float) -> dict:
    """Run bench/worker.py in a fresh interpreter; adds its set-up time."""
    spawned = _monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py")],
                              input=json.dumps(cfg), capture_output=True, text=True,
                              cwd=root, env=env, timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {cfg['mode']} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {cfg['mode']} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if "ready" in result:
        result["setup_s"] = result["ready"] - spawned
    return result


def _quantile(values, q: int) -> float:
    """statistics.quantiles(values, n=10)[q - 1], or the single value."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[q - 1]


def e2e_metrics(durations, setup_s, rss_mb, failed) -> dict:
    """``jobs_per_s`` counts the time spent in jobs only, so the client's
    own bookkeeping between jobs (job ids, output hashes) is left out.
    The times given are host-speed corrected (hostspeed.py)."""
    ms = [d * 1000.0 for d in durations]
    return {
        "setup_s": setup_s,
        "jobs_per_s": len(durations) / sum(durations),
        "job_ms_p50": statistics.median(ms),
        "job_ms_p90": _quantile(ms, 9),
        "pass_frac": 1.0 - failed / len(durations),
        "peak_rss_mb": rss_mb,
    }


# ---------------------------------------------------------------------------
# cli_cold: cold children from this process.
# ---------------------------------------------------------------------------


def run_cli_cold(root, env, seed, seconds, deadline):
    import catalogue
    import gate
    import hostspeed
    import wl_cli

    jobs = catalogue.stream(wl_cli.STRATA, seed)
    done, durations, starts, outputs = [], [], [], []
    meter = hostspeed.Meter(interval=0.0)
    start = time.perf_counter()
    for spec in jobs:
        done.append(spec)
        for _ in range(KERNEL_PER_SPAWN):
            meter.sample()
        t = time.perf_counter()
        starts.append(t)
        proc = subprocess.run([sys.executable, "-m", "finsym.cli", *spec["argv"]],
                              capture_output=True, text=True, cwd=root, env=env,
                              timeout=max(1.0, deadline - _monotonic()))
        durations.append(time.perf_counter() - t)
        outputs.append({"code": proc.returncode, "stdout": proc.stdout})
        if time.perf_counter() - start >= seconds and len(durations) >= MIN_JOBS:
            break
    meter.sample()
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    sys.path.insert(0, str(root / "src"))  # the gate's oracles use the library
    failed, unexpected, run_hash = gate.run(wl_cli, done, outputs,
                                            gate.load_expected())
    return {"durations": durations, "corrected": meter.correct(starts, durations),
            "rss_mb": rss_mb, "failed": failed,
            "unexpected": unexpected, "run_hash": run_hash, "known_defects": 0}


def import_timings(root, env, reps=3) -> dict:
    """Cold child timings of interpreter start and of the imports."""
    def child(code):
        t = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              cwd=root, env=env, timeout=60, check=True)
        return time.perf_counter() - t, proc.stdout

    timed = ("import time; t = time.perf_counter(); import {}; "
             "print(time.perf_counter() - t)")
    return {
        "cli.python_startup_ms": statistics.median(child("pass")[0] for _ in range(reps)) * 1e3,
        "cli.import_ms": statistics.median(
            float(child(timed.format("finsym.cli"))[1]) for _ in range(reps)) * 1e3,
        "cli.numpy_import_ms": statistics.median(
            float(child(timed.format("numpy"))[1]) for _ in range(reps)) * 1e3,
    }


# ---------------------------------------------------------------------------
# One run.
# ---------------------------------------------------------------------------


def spawn(root, env, cfg, deadline, meter) -> dict:
    """A worker spawned right after the host-speed kernel has run; adds the
    spawn time on the kernel's clock."""
    for _ in range(KERNEL_PER_SPAWN):
        meter.sample()
    at = time.perf_counter()
    return dict(worker(root, env, cfg, deadline), spawned_at=at)


def setup_samples(root, env, base, deadline, meter) -> list:
    """(spawn time, set-up time) of fresh interpreters that stop when ready
    for the first job.  The cli_cold client imports no finsym (every cold
    job pays that), so its set-up is interpreter start plus list generation."""
    runs = [spawn(root, env, dict(base, mode="setup", count=MIN_JOBS), deadline, meter)
            for _ in range(SETUP_SAMPLES)]
    return [(r["spawned_at"], r["setup_s"]) for r in runs]


def measure(root, env, workload, seed, seconds, trace, deadline):
    """Returns (metrics, attempted, failed, unexpected failures, details)."""
    import hostspeed

    base = {"workload": workload, "seed": seed}
    if not trace:
        meter = hostspeed.Meter(interval=0.0)
        setups = setup_samples(root, env, base, deadline, meter)
        if workload == "cli_cold":
            res = run_cli_cold(root, env, seed, seconds, deadline)
        else:
            res = spawn(root, env, dict(base, mode="timed", seconds=seconds,
                                        min_jobs=MIN_JOBS, count=MIN_JOBS), deadline, meter)
            setups.append((res["spawned_at"], res["setup_s"]))
        setups += setup_samples(root, env, base, deadline, meter)
        spawned, raw_setups = zip(*setups)
        setup_s = statistics.median(meter.correct(spawned, raw_setups))
        metrics = e2e_metrics(res["corrected"], setup_s, res["rss_mb"], res["failed"])
        res["uncorrected"] = e2e_metrics(res["durations"], statistics.median(raw_setups),
                                         res["rss_mb"], res["failed"])
        return metrics, len(res["durations"]), res["failed"], res["unexpected"], res
    # Traced: an untraced run, then a traced replay of exactly the same jobs,
    # each in its own fresh interpreter.  cli_cold replays through cli.main.
    if workload == "cli_cold":
        first = worker(root, env, dict(base, mode="replay", count=MIN_JOBS), deadline)
    else:
        first = worker(root, env, dict(base, mode="timed", seconds=seconds / 2,
                                       min_jobs=MIN_JOBS, count=MIN_JOBS), deadline)
    out_dir = root / ".bench_out" / "spans"
    out_dir.mkdir(parents=True, exist_ok=True)
    traced = worker(root, env, dict(base, mode="replay", count=len(first["durations"]),
                                    trace=True,
                                    spans=str(out_dir / f"{workload}-s{seed}.jsonl")),
                    deadline)
    metrics = dict(traced["layers"])
    # The tracer times its own wrappers, so the overhead is measured within
    # the traced replay and a drift of the host's speed cancels.
    busy = sum(traced["durations"])
    metrics["trace.overhead"] = busy / (busy - traced["tracer_own_s"])
    metrics.update(import_timings(root, env))
    unexpected = dict(first["unexpected"], **traced["unexpected"])
    return metrics, len(first["durations"]), first["failed"], unexpected, first


def load_spec(root: Path) -> dict:
    with open(root / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_once(args) -> int:
    root = Path.cwd()
    if not (root / "src" / "finsym" / "cli.py").is_file():
        print("bench: run from a finsym checkout (src/finsym is missing)", file=sys.stderr)
        return 2
    spec = load_spec(root)
    deadline = _monotonic() + CHILD_TIMEOUT_S
    # Byte-compile once so that no run pays compilation in its timings.
    compileall.compile_dir(str(root / "src"), quiet=1)
    compileall.compile_dir(str(BENCH_DIR), quiet=1)
    env = child_env(root)
    import probe

    metrics, attempted, failed, unexpected, details = measure(
        root, env, args.workload, args.seed, args.seconds, args.trace, deadline)
    metrics.update(probe.run(root, env))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }
    durations = details["durations"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  blas_threads {BLAS_THREADS}  nproc {os.cpu_count()}")
    print(f"jobs {len(durations)} timed, {len(durations) // 10} beyond p90; "
          f"fail_frac {failed / attempted:.6g} ({failed}/{attempted}, "
          f"{details['known_defects']} known-defect jobs); output hash {details['run_hash'][:16]}")
    for name, reason in sorted(unexpected.items())[:10]:
        print(f"FAIL {name}: {reason}")
    if not args.trace:
        for name in ("probe.hangs", "probe.nonfinite", "probe.uncaught"):
            print(f"{name} {metrics[name]} count")
        raw = details["uncorrected"]
        print("uncorrected: " + ", ".join(f"{name} {raw[name]:.6g}" for name in
                                          ("setup_s", "jobs_per_s", "job_ms_p50", "job_ms_p90")))
    for name, entry in result["metrics"].items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    if args.trace:
        by_layer: dict = {}
        for name, value in metrics.items():
            if name.endswith(".self_s"):
                layer = name.split(".")[0]
                by_layer[layer] = by_layer.get(layer, 0.0) + value
        ranked = sorted(by_layer.items(), key=lambda kv: -kv[1])
        print("self time by layer: " + ", ".join(f"{k} {v:.3g} s" for k, v in ranked))
    runs = root / ".bench_out" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "result": result}
    (runs / f"{args.workload}-t{args.trace}-s{args.seed}-{time.time_ns()}.json").write_text(
        json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Maintenance commands.
# ---------------------------------------------------------------------------


def record_expected() -> int:
    """Run every catalogue job once, check it with the record-time oracles,
    and rewrite expected.json only if every check passes."""
    import catalogue
    import gate

    root = Path.cwd()
    env = child_env(root)
    doc, bad = {}, 0
    for workload in catalogue.RECORDED:
        res = worker(root, env, {"workload": workload, "mode": "record"},
                     _monotonic() + 1800)
        for key, reason in res["problems"].items():
            print(f"{workload}: {key}: {reason}")
        bad += len(res["problems"])
        doc[workload] = res["entries"]
        print(f"{workload}: {len(res['entries'])} values recorded")
    if bad:
        print(f"{bad} oracle failures; expected.json left unchanged")
        return 1
    with open(gate.EXPECTED, "w") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


def rebased_outputs():
    """(workload, name, spec, output) for outputs that differ from finsym's
    but are just as correct: another basis or another order of classes."""
    import catalogue
    import common
    import gate
    import wl_cohomology
    import wl_groups
    from finsym import complexes

    def shifted(spec):
        """Every representative plus a coboundary that is nonzero mod n."""
        out = wl_cohomology.run(spec)
        columns = list(zip(*common.build_complex(spec["cx"], complexes)
                           .coboundary(spec["q"] - 1).data))
        changed = False
        for f in out["factors"]:
            shift = next((c for c in columns if any(x % f["n"] for x in c)), None)
            if f["reps"] and shift is not None:
                f["reps"] = [[(x + y) % f["n"] for x, y in zip(r, shift)] for r in f["reps"]]
                changed = True
        return out if changed else None

    def swapped(spec):
        """The first two source generators swapped, where their orders agree."""
        out = wl_cohomology.run(spec)
        f = out["factors"][0]
        if len(f["source"]) < 2 or f["source"][0] != f["source"][1]:
            return None
        new_map = [[row[1], row[0], *row[2:]] for row in f["map"]]
        if new_map == f["map"]:
            return None
        f["map"] = new_map
        return out

    # Recorded jobs first, so that the expected.json path is exercised too.
    recorded = gate.load_expected()
    specs = sorted(catalogue.all_specs(wl_cohomology.STRATA),
                   key=lambda s: common.job_id(s) not in recorded)
    cases = []
    for kind, rebase in (("cohomology", shifted), ("restriction", swapped)):
        spec, out = next((s, o) for s in specs if s["kind"] == kind
                         for o in [rebase(s)] if o is not None)
        cases.append((wl_cohomology, kind, spec, out))
    spec = {"kind": "conjugacy", "G": "D4"}
    cases.append((wl_groups, "conjugacy", spec, wl_groups.run(spec)[::-1]))
    return cases


def selftest() -> int:
    """Short runs must pass the gate; a corrupted output must not, and an
    output in another valid basis must."""
    import catalogue
    import gate
    import wl_cli

    root = Path.cwd()
    env = child_env(root)
    deadline = _monotonic() + 600
    ok = True
    for workload in catalogue.WORKLOADS:
        base = {"workload": workload, "seed": 0, "mode": "timed", "seconds": 1.0,
                "min_jobs": 20, "count": 400}
        if workload == "cli_cold":
            res = run_cli_cold(root, env, 0, 1.0, deadline)
            jobs = catalogue.draw(wl_cli.STRATA, 0, 5)
            outputs = [wl_cli.run(s) for s in jobs]
            outputs[0] = dict(outputs[0], stdout=outputs[0]["stdout"] + "0")
            bad = gate.run(wl_cli, jobs, outputs, gate.load_expected())[1]
        else:
            res = worker(root, env, base, deadline)
            bad = worker(root, env, dict(base, corrupt=True), deadline)["unexpected"]
        clean = not res["unexpected"]
        print(f"{workload}: {len(res['durations'])} jobs, {res['failed']} failed "
              f"({res['known_defects']} known-defect jobs), "
              f"{'clean' if clean else res['unexpected']}; "
              f"corrupted output {'rejected' if bad else 'NOT rejected'}")
        ok = ok and clean and bool(bad)
    for wl, name, spec, out in rebased_outputs():
        reasons = gate.run(wl, [spec], [out], gate.load_expected())[1]
        print(f"{name} in another basis: {'accepted' if not reasons else reasons}")
        ok = ok and not reasons
    spec = load_spec(root)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    if len(names) != len(set(names)):
        print("BENCHMARK.json names a metric twice")
        ok = False
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


def fingerprint() -> int:
    root = Path.cwd()
    code = ("import json, os, platform, numpy\n"
            "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
            "model = next((l.split(':', 1)[1].strip() for l in open('/proc/cpuinfo')\n"
            "              if l.startswith('model name')), 'unknown')\n"
            "print(json.dumps({'nproc': len(os.sched_getaffinity(0)), 'cpu_model': model,\n"
            "    'python': platform.python_version(), 'numpy': numpy.__version__,\n"
            "    'blas': f\"{blas['name']} {blas['version']}\",\n"
            "    'blas_threads': int(os.environ['OPENBLAS_NUM_THREADS'])}))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=root, env=child_env(root), check=True)
    print(proc.stdout.strip())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--fingerprint", action="store_true")
    args = parser.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(Path(args.compare[0]), Path(args.compare[1]),
                            load_spec(Path.cwd()))
    if args.record:
        return record_expected()
    if args.selftest:
        return selftest()
    if args.fingerprint:
        return fingerprint()
    if args.workload is None:
        parser.error("--workload is required")
    import catalogue

    if args.workload not in catalogue.WORKLOADS:
        parser.error(f"unknown workload; choose from {sorted(catalogue.WORKLOADS)}")
    try:
        return run_once(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
