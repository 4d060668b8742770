#!/usr/bin/env python3
"""Check that every benchmark workload reproduces its pinned report digest.

Usage: python3 scripts/check_bench_digests.py

Runs ``bench/run.py --workload W --seed 1 --seconds 0`` for each workload,
which does one cycle of seeded items in a fresh process, and compares the
SHA-256 of that cycle's reports with the one pinned here.  Exits 1 when a
workload fails an item, prints another digest or does not run; every
workload still runs and the problems are listed on standard error.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINNED = {
    "four_chart": "8e2425dea656dff8b7bbe815c1af892ece79db81a86e4818d81b0e03a24fe163",
    "builtin_sweep": "7d278c3946eda06e3a322d865018ddd1521f48d7e732ef18cd260f053a39bc76",
    "exp_log_roundtrip": "520bed5ebef79180ee5464e859949e2beab6408d40f4980e26aba0c69af6a54b",
    "mc_lift": "844dd53a8b7d3fb1b655b442e544117fa62772df9dcbb497c3ea0e52dfb995dd",
}
PREFIX = "report sha256 (first cycle): "


def problems_of(workload: str, pinned: str) -> list:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if done.returncode != 0:
        return [f"{workload}: bench/run.py exited {done.returncode}: {done.stderr.strip()}"]
    lines = done.stdout.strip().splitlines()
    digest = next((l[len(PREFIX):] for l in lines if l.startswith(PREFIX)), None)
    failed = json.loads(lines[-1])["failed"]
    out = []
    if failed:
        out.append(f"{workload}: {failed} failed item(s)")
    if digest != pinned:
        out.append(f"{workload}: report digest {digest}, pinned {pinned}")
    return out


def main() -> int:
    problems = []
    for workload, pinned in PINNED.items():
        found = problems_of(workload, pinned)
        print(f"{workload}: {'FAILED' if found else 'ok'} ({pinned[:8]}…)")
        problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
