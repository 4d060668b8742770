#!/usr/bin/env python3
"""Check that every benchmark workload reproduces its pinned report digest.

Usage: python3 scripts/check_bench_digests.py

Runs ``bench/run.py --workload W --seed S --seconds 0`` for each workload
and each pinned seed, which does one cycle of seeded items in a fresh
process, and compares the SHA-256 of that cycle's reports with the one
pinned here.  Seed 1 is the one changes are usually tried on; seed 2
draws other items, so it catches a byte change that seed 1 happens to
miss.  Exits 1 when a run fails an item, prints another digest or does
not run; every run still happens and the problems are listed on standard
error.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINNED = {
    1: {
        "four_chart": "8e2425dea656dff8b7bbe815c1af892ece79db81a86e4818d81b0e03a24fe163",
        "builtin_sweep": "7d278c3946eda06e3a322d865018ddd1521f48d7e732ef18cd260f053a39bc76",
        "exp_log_roundtrip": "520bed5ebef79180ee5464e859949e2beab6408d40f4980e26aba0c69af6a54b",
        "mc_lift": "844dd53a8b7d3fb1b655b442e544117fa62772df9dcbb497c3ea0e52dfb995dd",
    },
    2: {
        "four_chart": "09b4c11cd476b0d7da86e6bc854b8c0254f3feb7549c2cf4f18910b08b2ca1a3",
        "builtin_sweep": "58f590e054167eaae31f62dd7fc1a3118876c45a02d15449c765316831ca20bc",
        "exp_log_roundtrip": "b18e57204c5e541a772e15b0971c51d30a1f036ee601ca943b21656903295bd0",
        "mc_lift": "768dde4dd846388a9ead471a0accb2015a0cb51ffc2298a361a2920abe023966",
    },
}
PREFIX = "report sha256 (first cycle): "


def problems_of(workload: str, seed: int, pinned: str) -> list:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0"]
    where = f"{workload} seed {seed}"
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if done.returncode != 0:
        return [f"{where}: bench/run.py exited {done.returncode}: {done.stderr.strip()}"]
    lines = done.stdout.strip().splitlines()
    digest = next((l[len(PREFIX):] for l in lines if l.startswith(PREFIX)), None)
    failed = json.loads(lines[-1])["failed"]
    out = []
    if failed:
        out.append(f"{where}: {failed} failed item(s)")
    if digest != pinned:
        out.append(f"{where}: report digest {digest}, pinned {pinned}")
    return out


def main() -> int:
    problems = []
    for seed, digests in PINNED.items():
        for workload, pinned in digests.items():
            found = problems_of(workload, seed, pinned)
            print(f"{workload} seed {seed}: {'FAILED' if found else 'ok'} ({pinned[:8]}…)")
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
