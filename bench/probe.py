"""Probe for the defects the ROADMAP lists, once per bench invocation.

Each probe is a child process with a wall-clock timeout and an
address-space limit set on that child only.  The inputs stay out of the
timed lists because a hang has no latency; the counts keep the defects
visible:
  hangs      children killed at the timeout (unguarded CLI inputs);
  nonfinite  inf/nan printed or returned;
  uncaught   an exception other than the library's ValueError, or a CLI
             exit code other than 0, 2 and 3.
"""

from __future__ import annotations

import resource
import subprocess
import sys
import time
from pathlib import Path

import common

TIMEOUT_S = 2.0
ADDRESS_SPACE = 2 << 30

CLI_PROBES = [
    ["gauss", "--N", "100000", "--p", "1"],
    ["fusion", "--group-ring", "Z60"],
    ["anyons", "--N", "30000000", "--p", "1"],
]
# Library probes print repr(result); a non-ValueError exception exits 1.
LIBRARY_PROBES = [
    "from finsym import ising\n"
    "print(repr(ising.partition_transfer(ising.IsingLattice(4, 300, 0.05))))",
    "from finsym import ising\nprint(repr(ising.kw_dual_beta(400.0)))",
]


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run(root: Path, env) -> dict:
    """Start every probe at once, kill those still running at the timeout,
    and wait for all of them."""
    commands = [[sys.executable, "-m", "finsym.cli", *argv] for argv in CLI_PROBES]
    commands += [[sys.executable, "-c", code] for code in LIBRARY_PROBES]
    out_dir = root / ".bench_out" / "probe"
    out_dir.mkdir(parents=True, exist_ok=True)
    children = []
    for i, cmd in enumerate(commands):
        # Files, not pipes: a full pipe would block a child and fake a hang.
        stdout, stderr = out_dir / f"{i}.out", out_dir / f"{i}.err"
        with open(stdout, "w") as out, open(stderr, "w") as err:
            child = subprocess.Popen(cmd, cwd=root, env=env, stdout=out, stderr=err,
                                     preexec_fn=_limit_address_space)
        children.append((child, stdout, stderr))
    deadline = time.monotonic() + TIMEOUT_S
    try:
        while time.monotonic() < deadline and any(c.poll() is None for c, _, _ in children):
            time.sleep(0.02)
    finally:
        hung = [c.poll() is None for c, _, _ in children]
        for child, _, _ in children:
            if child.poll() is None:
                child.kill()
            child.wait()
    counts = {"probe.hangs": sum(hung), "probe.nonfinite": 0, "probe.uncaught": 0}
    for (child, stdout, stderr), hang in zip(children, hung):
        if hang:
            continue
        if common.NONFINITE.search(stdout.read_text()):
            counts["probe.nonfinite"] += 1
        if child.returncode not in (0, 2, 3) and "ValueError" not in stderr.read_text():
            counts["probe.uncaught"] += 1
    return counts
