#!/usr/bin/env python3
"""Benchmark of the nbhdext engine, driven from outside through its public API.

Run from the repository root:

    python3 bench/run.py --workload four_chart --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

A run builds its inputs from ``--seed`` and times whole cycles of items
(see ``workloads.py``) until ``--seconds`` have passed, checking every
item.  Reported times are reference seconds: each measured time is scaled
by a fixed kernel timed around and during the item (see ``reference.py``),
which takes out the load that other tenants put on a shared machine.  Human-readable
lines come first, with the unscaled figures; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` instead
runs a fixed item schedule (so its counts repeat exactly), each item once
untraced and once traced, and reports the per-layer metrics; its spans
are written to ``.bench_trace/`` under the working directory.

``--workload all`` runs every workload in its own fresh process, one at
a time, and prints all of their metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from reference import NOMINAL_S, Clock
from tracer import COUNT_SPAN, LAYERS, TARGETS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("four_chart", "builtin_sweep", "exp_log_roundtrip", "mc_lift")
SETUP_SAMPLES = 9
# cycles in a traced run: a fixed schedule, so exact counts repeat
TRACE_CYCLES = {"four_chart": 1, "builtin_sweep": 2, "exp_log_roundtrip": 1, "mc_lift": 1}

# a fresh interpreter timing import and input generation, for setup_s
SETUP_PROBE = """
import time
t0 = time.perf_counter()
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.WORKLOADS[{name!r}]({seed}, {size!r})
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every item, for the self-test")
    return ap.parse_args(argv)


def metric(value, unit):
    return {"value": value, "unit": unit}


def percentile_with_tail(values, min_tail=10):
    """Highest whole percentile with at least ``min_tail`` samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99, 95, 90, 75):
        idx = max(0, -(-pct * n // 100) - 1)  # nearest-rank
        if n - idx - 1 >= min_tail:
            return pct, ordered[idx], n - idx - 1
    return None


def quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def setup_probe(name, seed, size) -> float:
    code = SETUP_PROBE.format(src=str(SRC), bench=str(BENCH), name=name, seed=seed, size=size)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


class Run:
    """Item loop shared by the timed and the traced modes."""

    def __init__(self, workload):
        self.workload = workload
        self.first_reports = {}  # cycle position -> report bytes of the first pass
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.verdicts = Counter()
        self.measured_s = 0.0  # unscaled time of the items that ran to the end

    def execute(self, pos, item, cycle, clock):
        """Run and check one item; returns its time in reference seconds.

        Returns None when the item raised, so it has no time.
        """
        self.attempted += 1
        try:
            result, elapsed, factor = clock.time(item.run)
        except Exception as exc:  # an engine error fails the item, not the run
            self._fail(item, f"{type(exc).__name__}: {exc}")
            return None
        self.measured_s += elapsed
        outcome = item.check(result)
        problems = list(outcome.problems)
        first = self.first_reports.setdefault(pos, outcome.report)
        if first != outcome.report:
            problems.append("report bytes differ from the first pass of this item")
        if cycle == 0:
            self.verdicts.update(outcome.verdicts)
        if problems:
            self._fail(item, "; ".join(problems))
        return elapsed * factor

    def _fail(self, item, why):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{item.label}: {why}")

    def digest(self) -> str:
        h = hashlib.sha256()
        for pos in sorted(self.first_reports):
            h.update(self.first_reports[pos])
        return h.hexdigest()


def timed_run(seconds, workload, setup_samples, clock):
    """Whole cycles until the deadline, so every run covers the same items.

    Times are reference seconds (see ``reference.py``); the unscaled
    figures are printed beside them.
    """
    run = Run(workload)
    per_item = [[] for _ in workload.cycle]
    deadline = time.perf_counter() + seconds
    cycle = 0
    while True:
        for pos, item in enumerate(workload.cycle):
            t = run.execute(pos, item, cycle, clock)
            if t is not None:
                per_item[pos].append(t)
        cycle += 1
        if time.perf_counter() >= deadline:
            break
    times = [t for ts in per_item for t in ts]
    if not times:
        raise SystemExit("error: every item raised; nothing was timed\n" + "\n".join(run.problems))
    ok = run.attempted - run.failed
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # the median item by its typical time: with few items per cycle this
    # does not jump between the two item sizes the way a pooled median does
    p50 = statistics.median(statistics.median(ts) for ts in per_item if ts)
    metrics = {
        "items_per_s": metric(ok / sum(times), "1/s"),
        "item_p50_ms": metric(p50 * 1000, "ms"),
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "peak_rss_mib": metric(rss_mib, "MiB"),
    }
    q1, q2, q3 = quartiles(times)  # pooled over every run of every item
    kernel = clock.kernel_samples
    lines = [
        f"cycles completed: {cycle} ({run.attempted} items, {len(workload.cycle)} per cycle)",
        f"item time quartiles: {q1 * 1000:.3f} / {q2 * 1000:.3f} / {q3 * 1000:.3f} ms",
        f"unscaled: {ok / run.measured_s:.6g} items/s; reference kernel"
        f" {len(kernel)} samples, fastest {min(kernel) * 1000:.3f} ms,"
        f" median {statistics.median(kernel) * 1000:.3f} ms, nominal {NOMINAL_S * 1000:.3f} ms",
        "setup samples (s): " + ", ".join(f"{x:.4f}" for x in setup_samples),
    ]
    tail = percentile_with_tail(times)
    if tail is None:
        lines.append(f"item_tail_ms: omitted, {len(times)} items leave fewer than 10 beyond p75")
    else:
        pct, value, beyond = tail
        lines.append(f"item_tail_ms: p{pct} = {value * 1000:.3f} ms"
                     f" ({beyond} of {len(times)} items beyond it)")
    return run, metrics, lines


def traced_run(workload, tracer, extra_modules, clock, setup_s):
    """A fixed schedule, each item untraced and then traced.

    The traced pass must reproduce the untraced report bytes; the two
    timings give the tracing overhead.  Set-up was traced too, so the
    layer shares are of traced set-up plus traced item time.
    """
    def traced(fn):
        def run_traced():
            tracer.install(extra_modules)
            try:
                return fn()
            finally:
                tracer.uninstall()
        return run_traced

    run = Run(workload)
    plain_ref = traced_ref = 0.0
    traced_s = setup_s
    wall_start = time.perf_counter()
    for cycle in range(TRACE_CYCLES[workload.name]):
        for pos, item in enumerate(workload.cycle):
            plain_ref += run.execute(pos, item, cycle, clock) or 0.0
            before = run.measured_s
            # counted as a repeat, so its verdicts are not counted twice
            traced_item = dataclasses.replace(item, run=traced(item.run))
            traced_ref += run.execute(pos, traced_item, cycle + 1, clock) or 0.0
            traced_s += run.measured_s - before
    wall = time.perf_counter() - wall_start
    summary = tracer.summary()
    counts = tracer.counts
    metrics = {}

    def put(name, value, unit):
        metrics[name] = metric(value, unit)

    for name in TARGETS:
        row = summary.get(name, {"calls": 0, "self_s": 0.0})
        put(f"{name}.calls", row["calls"], "count")
        put(f"{name}.self_s", row["self_s"], "s")
    for layer in LAYERS:
        rows = [r for n, r in summary.items() if n.split(".")[0] == layer]
        put(f"{layer}.calls", sum(r["calls"] for r in rows), "count")
        put(f"{layer}.self_s", sum(r["self_s"] for r in rows), "s")
    for key in ("rows", "cols", "nnz", "rank", "max_cols"):
        put(f"linsolve.{key}", counts[f"linsolve.{key}"], "count")
    cells = counts["linsolve.cells"]
    put("linsolve.density", counts["linsolve.nnz"] / cells if cells else 0.0, "ratio")
    put("laurent.LaurentPoly.mul.term_pairs", counts["laurent.LaurentPoly.mul.term_pairs"], "count")
    pairs = counts["filtered.ChartRing.mul.term_pairs"]
    put("filtered.ChartRing.mul.kept_ratio",
        counts["filtered.ChartRing.mul.kept_terms"] / pairs if pairs else 0.0, "ratio")
    put("mclift.d_density", workload.input_metrics.get("mclift.d_density", 0.0), "ratio")
    put("trace.overhead_ratio", traced_ref / plain_ref - 1, "ratio")
    put("trace.traced_s", traced_s, "s")
    put("trace.count.self_s", summary.get(COUNT_SPAN, {"self_s": 0.0})["self_s"], "s")

    out_dir = Path.cwd() / ".bench_trace"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"{workload.name}.jsonl"  # the latest traced run only
    tracer.dump(span_file)
    share = {layer: metrics[f"{layer}.self_s"]["value"] / traced_s for layer in LAYERS}
    lines = [
        f"traced schedule: {run.attempted // 2} items, each untraced then traced ({wall:.2f} s wall)",
        "self time share of traced time: "
        + ", ".join(f"{layer} {100 * v:.1f}%" for layer, v in share.items()),
        f"spans: {len(tracer.spans) // 4} written to {span_file.relative_to(Path.cwd())}",
    ]
    return run, metrics, lines


def run_one(args) -> int:
    if not (SRC / "nbhdext" / "__init__.py").is_file():
        print(f"error: no nbhdext sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    setup_start = time.perf_counter()
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install([workloads])
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.size)
    finally:
        if tracer:
            tracer.uninstall()
    own_setup = time.perf_counter() - setup_start

    clock = Clock(sample_during=not args.trace)
    if args.trace:
        run, metrics, lines = traced_run(workload, tracer, [workloads], clock, own_setup)
    else:
        samples = [own_setup * NOMINAL_S / clock.kernel_samples[0]]
        for _ in range(SETUP_SAMPLES - 1):
            probe_s, _, factor = clock.time(setup_probe, args.workload, args.seed, args.size)
            samples.append(probe_s * factor)
        run, metrics, lines = timed_run(args.seconds, workload, samples, clock)

    print(f"workload {args.workload}, seed {args.seed}, size {args.size}, trace {args.trace}")
    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio: {run.failed}/{run.attempted} = {run.failed / run.attempted:.4f}")
    print("verdicts per cycle: " + ", ".join(f"{k}={v}" for k, v in sorted(run.verdicts.items())))
    print(f"report sha256 (first cycle): {run.digest()}")
    for problem in run.problems:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
