#!/usr/bin/env python3
"""Sweep every builtin scenario through the full pipeline and print a table.

Usage: python scripts/run_builtins.py [--orders 2]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

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


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--orders", type=int, default=2)
    args = parser.parse_args()

    width = max(len(name) for name, _, _ in CASES) + 12
    for name, d, twist in CASES:
        t0 = time.monotonic()
        scenario = generate_builtin(name, d=d, twist=twist)
        bundle = run_pipeline(scenario, k=args.orders)
        label = f"{name}(d={d}, twist={twist})".ljust(width)
        parts = [f"order {r.order}: {describe_status(r.status)}" for r in bundle.reports]
        if bundle.abelianized is not None:
            parts.append(
                "abelianized exact" if bundle.abelianized["exact"] else "abelianized FAILS"
            )
        elapsed = time.monotonic() - t0
        print(f"{label} {'; '.join(parts)}  [{elapsed:.2f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
