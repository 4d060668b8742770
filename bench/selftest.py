#!/usr/bin/env python3
"""Self-test of the benchmark harness.  Run from the repository root:

    python3 bench/selftest.py

Checks that every workload runs and passes its gate at the tiny size,
that a wrong expected answer planted in the harness is counted as a
failed item, that two traced runs give identical exact counts and report
digests, and that the traced runs confirm the workload design in
``design.json``.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SEED = 7


def bench(workload, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    digest = next(l for l in lines if l.startswith("report sha256")).split(": ")[1]
    return json.loads(lines[-1]), digest


def counts(result):
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


def check_planted_failure() -> None:
    sys.path[:0] = [str(SRC), str(BENCH)]
    import run
    import workloads

    s = workloads.round_trip(workloads.four_chart_scenario(1, -1))
    right = workloads.scenario_item("expects verified", s, (-2, 2), "verified")
    # the four-chart nerve has a quadruple, so "vacuous" is a wrong expectation
    wrong = workloads.scenario_item("expects vacuous", s, (-2, 2), "vacuous")
    loop = run.Run(workloads.Workload("planted", [right, wrong], {}))
    for pos, item in enumerate(loop.workload.cycle):
        loop.execute(pos, item, 0, run.Clock())
    assert (loop.attempted, loop.failed) == (2, 1), (loop.attempted, loop.failed, loop.problems)
    assert "expected vacuous" in loop.problems[0], loop.problems


def main() -> int:
    design = json.loads((BENCH / "design.json").read_text())
    check_planted_failure()
    print("ok: a wrong expected answer in the harness counts as 1 failed of 2 attempted")

    traced = {}
    for name in design["workloads"]:
        plain, plain_digest = bench(name, 0)
        assert plain["correct"] and plain["failed"] == 0, (name, plain)
        first, first_digest = bench(name, 1)
        second, second_digest = bench(name, 1)
        assert first["correct"] and second["correct"], name
        assert counts(first) == counts(second), f"{name}: trace counts differ between runs"
        assert plain_digest == first_digest == second_digest, f"{name}: report digests differ"
        traced[name] = {k: m["value"] for k, m in first["metrics"].items()}
        print(f"ok: {name} passes its gate; two traced runs agree on {len(counts(first))} counts"
              f" and the report digest")

    for rule in design["no_move"]:
        layers = "|".join(rule["zero_calls_into"])
        calls = {k: v for k, v in traced[rule["workload"]].items()
                 if re.fullmatch(rf"({layers})\.[A-Za-z_.]*calls", k)}
        assert calls and not any(calls.values()), (rule, calls)
        print(f"ok: {rule['workload']} makes no calls into {', '.join(rule['zero_calls_into'])}")
    low, high = (traced[w]["filtered.ChartRing.mul.kept_ratio"]
                 for w in ("exp_log_roundtrip", "four_chart"))
    assert low < high, (low, high)
    print(f"ok: ChartRing.mul keeps {low:.2f} of its term products on exp_log_roundtrip"
          f" against {high:.2f} on four_chart")
    return 0


if __name__ == "__main__":
    sys.exit(main())
