"""One benchmark run inside a fresh interpreter.

Reads a JSON config on stdin, imports what the workload needs, draws the
job list from the seed, and reports the moment it is ready for the first
job (CLOCK_MONOTONIC, comparable with the parent's spawn time).  Modes:
  setup   stop there (a set-up sample);
  timed   run jobs closed-loop, one at a time, until ``seconds`` have passed
          and at least ``min_jobs`` are done, then gate the outputs; the
          host-speed kernel runs between jobs (hostspeed.py);
  replay  run exactly ``count`` jobs, optionally traced, then gate them;
  record  run every catalogue job once; record the jobs no live oracle
          covers, each checked against the thorough (record-time) oracle.
The result is one JSON object on stdout.
"""

from __future__ import annotations

import itertools
import json
import resource
import sys
import time


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> None:
    cfg = json.loads(sys.stdin.read())
    import catalogue
    import common
    import gate
    import hostspeed
    import tracing

    wl = catalogue.module(cfg["workload"])
    if cfg["workload"] == "cli_cold" and cfg["mode"] != "setup":
        import finsym.cli  # noqa: F401  (the replay calls cli.main in-process)
    if cfg["mode"] == "record":
        print(json.dumps(_record(wl)))
        return
    # Set-up generates the first ``count`` jobs of the seeded sequence; a
    # timed run that outlasts them draws the rest from the same sequence.
    source = catalogue.stream(wl.STRATA, cfg["seed"])
    jobs = [(spec, common.job_id(spec)) for spec in itertools.islice(source, cfg["count"])]
    tracer = None
    if cfg.get("trace"):
        tracer = tracing.Tracer()
        tracing.install(tracer)
    ready = _monotonic()
    if cfg["mode"] == "setup":
        print(json.dumps({"ready": ready}))
        return

    deadline = cfg.get("seconds")
    min_jobs = cfg.get("min_jobs", 0)
    more = ((spec, common.job_id(spec)) for spec in source)
    durations, starts, outputs, seen, done = [], [], [], set(), []
    meter = hostspeed.Meter() if deadline is not None else None
    clock = time.perf_counter
    start = clock()
    for spec, key in itertools.chain(jobs, more) if deadline is not None else jobs:
        done.append(spec)
        if meter is not None:
            meter.sample()
        if tracer is not None:
            tracer.job = len(durations)
            span = tracer.open("job")
        t = clock()
        starts.append(t)
        try:
            out = wl.run(spec)
        except Exception as exc:  # a raising job is a failed job, not a crash
            out = {"error": f"{type(exc).__name__}: {exc}"}
        durations.append(clock() - t)
        if tracer is not None:
            tracer.close(span)
        # Keep whole outputs only for first runs of a job, so the client's
        # memory does not grow with the number of jobs a run completes.
        outputs.append(gate.Repeat(common.digest(out)) if key in seen else out)
        seen.add(key)
        if deadline is not None and clock() - start >= deadline and len(durations) >= min_jobs:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"ready": ready, "durations": durations, "rss_mb": rss_mb}
    if meter is not None:
        meter.sample()
        result["corrected"] = meter.correct(starts, durations)
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        result["tracer_own_s"] = tracer.own_s
        if cfg.get("spans"):
            tracer.write(cfg["spans"])
    if cfg.get("corrupt"):  # self-test: the gate must reject this
        i = next(i for i, s in enumerate(done) if not wl.known_defect(s))
        outputs[i] = {"corrupted": common.digest(outputs[i])}
    failed, unexpected, run_hash = gate.run(wl, done, outputs, gate.load_expected())
    result.update(failed=failed, unexpected=unexpected, run_hash=run_hash,
                  known_defects=sum(wl.known_defect(s) for s in done))
    print(json.dumps(result))


def _record(wl) -> dict:
    """Run each catalogue job once.  Jobs that no live oracle covers are
    checked against the thorough (record-time) oracle, and the
    basis-independent part of their output is recorded."""
    import catalogue
    import common
    import gate

    entries, problems = {}, {}
    for spec in catalogue.all_specs(wl.STRATA):
        if wl.known_defect(spec):
            continue
        key = common.job_id(spec)
        try:
            out = wl.run(spec)
        except Exception as exc:
            problems[key] = f"raised {type(exc).__name__}: {exc}"
            continue
        live = wl.check(spec, out)
        if not isinstance(live, common.Unchecked):
            if live is not None:
                problems[key] = live
            continue
        error = wl.check(spec, out, thorough=True)
        if error is not None:
            problems[key] = "no oracle fits" if isinstance(error, common.Unchecked) else error
        entries[key] = gate.record_entry(live.value)
    return {"entries": entries, "problems": problems}


if __name__ == "__main__":
    main()
