#!/usr/bin/env python3
"""Record alternating parent/change runs of the benchmark in one JSON file.

Usage:

    python3 scripts/bench_pairs.py PARENT CHANGE --pairs N --seconds S [--workload W] -o BENCH_x.json

Each commit is unpacked with ``git archive`` into its own temporary
directory, and ``bench/run.py --workload W --seed SEED --seconds S`` runs
from there, one run at a time.  Pair p runs seed 2 when p is odd and seed 1
when it is even; odd pairs run the parent first, even pairs the change
first.  The record holds the end-to-end metrics of every run and, for each
metric, the [q1, median, q3] of each side and the number of pairs in which
the change reads better (the direction is the one ``BENCHMARK.json`` gives
in the change's tree).  It is written in any case; the exit status is 1
when some run fails an item or the two runs of a pair print different
report digests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGEST_PREFIX = "report sha256 (first cycle): "
SIDES = ("parent", "change")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="the commit the change is measured against")
    ap.add_argument("change", help="the commit with the change")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workload", default="all", help="a bench/run.py workload, or all")
    ap.add_argument("-o", "--output", required=True, help="where to write the JSON record")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    return args


def git(*argv) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *argv], capture_output=True, text=True,
                          check=True).stdout.strip()


def unpack(commit: str, into: Path) -> None:
    into.mkdir()
    tar = into.with_suffix(".tar")
    git("archive", "--format=tar", "-o", str(tar), commit)
    subprocess.run(["tar", "-xf", str(tar), "-C", str(into)], check=True)
    tar.unlink()


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``tree``: its metrics, counts and digests."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=3600)
    if done.returncode != 0:
        raise SystemExit(f"bench/run.py exited {done.returncode} in {tree.name}: {done.stderr.strip()}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    prefix = "" if workload == "all" else f"{workload}."
    return {
        "metrics": {prefix + k: m["value"] for k, m in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "digests": [l[len(DIGEST_PREFIX):] for l in lines if l.startswith(DIGEST_PREFIX)],
    }


def quartiles(values):
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def directions(tree: Path) -> dict:
    """``higher`` or ``lower`` for each end-to-end metric of the benchmark."""
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def summarize(runs: list, better: dict) -> dict:
    metrics = {}
    for name in runs[0]["parent"]:
        parent = [r["parent"][name] for r in runs]
        change = [r["change"][name] for r in runs]
        direction = better.get(name.rsplit(".", 1)[-1])
        wins = sum(1 for p, c in zip(parent, change)
                   if (c > p if direction == "higher" else c < p))
        metrics[name] = {
            "parent_quartiles": quartiles(parent),
            "change_quartiles": quartiles(change),
            "change_better_in_pairs": wins if direction else None,
        }
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    commits = {side: git("rev-parse", "--verify", f"{ref}^{{commit}}")
               for side, ref in zip(SIDES, (args.parent, args.change))}
    runs, failed, digests_equal = [], {side: 0 for side in SIDES}, True
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            unpack(commits[side], trees[side])
        better = directions(trees["change"])
        for pair in range(1, args.pairs + 1):
            seed = 2 if pair % 2 else 1
            order = SIDES if pair % 2 else SIDES[::-1]
            got = {}
            for side in order:
                got[side] = run_bench(trees[side], args.workload, seed, args.seconds)
                failed[side] += got[side]["failed"]
                if got[side]["failed"]:
                    print(f"pair {pair}: the {side} run failed {got[side]['failed']} item(s)",
                          file=sys.stderr)
            if got["parent"]["digests"] != got["change"]["digests"]:
                digests_equal = False
                print(f"pair {pair}: the report digests differ", file=sys.stderr)
            runs.append({
                "pair": pair,
                "seed": seed,
                "first": order[0],
                **{side: got[side]["metrics"] for side in SIDES},
                "attempted": {side: got[side]["attempted"] for side in SIDES},
            })
            print(f"pair {pair} of {args.pairs} done (seed {seed}, {order[0]} first)", file=sys.stderr)
    record = {
        "command": f"python3 bench/run.py --workload {args.workload} --seed SEED "
                   f"--seconds {args.seconds:g}",
        "machine": f"{os.cpu_count()}-core {platform.machine()} {platform.system()}, "
                   f"{platform.python_implementation()} {platform.python_version()}, "
                   "PYTHONDONTWRITEBYTECODE=1; both sides run from a git archive of their commit",
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "order": f"pairs 1..{args.pairs}; seed 2 on odd pairs, 1 on even pairs; "
                 "odd pairs ran the parent first, even pairs the change first",
        "summary": {
            "pairs": args.pairs,
            "quartiles": "[q1, median, q3] of the runs of each side",
            "change_better_in_pairs": "pairs in which the change's run reads better than its parent's run",
            "failed": failed,
            "digests_equal_in_every_pair": digests_equal,
            "metrics": summarize(runs, better),
        },
        "runs": runs,
    }
    Path(args.output).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if digests_equal and not any(failed.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
