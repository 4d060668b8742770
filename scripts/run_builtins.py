#!/usr/bin/env python3
"""Sweep every builtin scenario through the full pipeline and print a table.

Usage: python scripts/run_builtins.py [--orders 2]

Exits 1 when a closedness verdict is FAILED, a solved torsor dimension
differs from its cohomology oracle, a rank-one system is not exact (every
builtin extends), or a case raises; every case still runs and the
problems are listed on standard error.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nbhdext.cech import Solved
from nbhdext.cli import describe_status
from nbhdext.scenarios import generate_builtin, run_pipeline

CASES = [
    ("affine_split", 0, 0),
    ("line_in_p2", -3, 0),
    ("line_in_p2", 0, 0),
    ("line_in_p2", 3, 0),
    ("line_in_p2", 2, 1),
    ("diagonal_p1xp1", -2, 0),
    ("diagonal_p1xp1", 1, 0),
    ("hyperplane_p2_in_p3", 1, 0),
    ("hyperplane_p2_in_p3", 2, 1),
    ("p1_in_line_bundle", 2, 0),
    ("p1_in_line_bundle", 4, 0),
]


def problems_of(bundle) -> list:
    """What is wrong with one case's reports; empty when nothing is."""
    out = []
    for r in bundle.reports:
        if r.closedness == "FAILED":
            out.append(f"order {r.order}: closedness FAILED")
        status = r.status
        if (
            isinstance(status, Solved)
            and status.h1_oracle is not None
            and status.torsor_dim != status.h1_oracle
        ):
            out.append(
                f"order {r.order}: torsor dimension {status.torsor_dim} "
                f"!= oracle {status.h1_oracle}"
            )
    if bundle.abelianized is not None and bundle.abelianized["exact"] is False:
        out.append("abelianized rank-one system not exact")
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--orders", type=int, default=2)
    args = parser.parse_args()

    width = max(len(name) for name, _, _ in CASES) + 12
    failures = []
    for name, d, twist in CASES:
        t0 = time.monotonic()
        label = f"{name}(d={d}, twist={twist})".ljust(width)
        try:
            scenario = generate_builtin(name, d=d, twist=twist)
            bundle = run_pipeline(scenario, k=args.orders)
        except Exception as err:
            print(f"{label} RAISED {type(err).__name__}: {err}")
            failures.append(f"{label.strip()}: raised {type(err).__name__}: {err}")
            continue
        parts = [f"order {r.order}: {describe_status(r.status)}" for r in bundle.reports]
        if bundle.abelianized is not None:
            parts.append(
                "abelianized exact" if bundle.abelianized["exact"] else "abelianized FAILS"
            )
        elapsed = time.monotonic() - t0
        print(f"{label} {'; '.join(parts)}  [{elapsed:.2f}s]")
        failures += [f"{label.strip()}: {problem}" for problem in problems_of(bundle)]
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
