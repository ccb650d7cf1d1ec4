"""Self-tests of the benchmark: tracing changes no result, counts do not depend on the seed.

    python3 perfbench/selftest.py [--workloads build-L9-log,audit-L9-log] [--seeds 3,4]

Run from the repository root.  For each workload it makes one untraced run
and two traced runs of seed A and one traced run of seed B, each as short as
the workload allows, and checks that:

* every run is correct (a traced run also fails if its traced iteration's
  manifest differs from its untraced one);
* the untraced and traced runs of seed A print the same manifest digest;
* every count metric (counts, bytes, MiB) repeats exactly across the two
  runs of seed A and across seeds A and B, except ``store.bytes_written``
  across seeds: stored floats and the seed itself are written in decimal,
  so their length depends on the seed.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from record import run_once
from worker import WORKLOADS

COUNT_UNITS = ("count", "bytes", "MiB")
SEED_DEPENDENT = ("store.bytes_written",)


def check(workload: str, seed_a: int, seed_b: int) -> List[str]:
    plain = run_once(workload, seed_a, 0.0, 0)
    traced = [run_once(workload, seed, 0.0, 1) for seed in (seed_a, seed_a, seed_b)]
    problems = [
        f"seed {r['seed']} trace={i > 0}: not correct ({r['failed']} of {r['attempted']} failed)"
        for i, r in enumerate([plain, *traced]) if not r["correct"]
    ]
    for r in traced[:2]:
        if r["digest"] != plain["digest"]:
            problems.append(f"seed {seed_a}: traced digest {r['digest']} != untraced {plain['digest']}")
    first, again, other = traced
    counts = [name for name, unit in first["units"].items() if unit in COUNT_UNITS]
    for name in counts:
        if again["metrics"][name] != first["metrics"][name]:
            problems.append(f"{name}: {first['metrics'][name]} then {again['metrics'][name]} on seed {seed_a}")
        if name not in SEED_DEPENDENT and other["metrics"][name] != first["metrics"][name]:
            problems.append(f"{name}: {first['metrics'][name]} on seed {seed_a}, {other['metrics'][name]} on seed {seed_b}")
    varying = ", ".join(
        f"{name} {first['metrics'][name]} (seed {seed_a}) / {other['metrics'][name]} (seed {seed_b})"
        for name in SEED_DEPENDENT
    )
    print(f"{workload}: {len(counts)} count metrics, digest {plain['digest'][:12]}; {varying}; "
          f"{'ok' if not problems else 'FAILED'}", flush=True)
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="3,4")
    args = parser.parse_args()
    seed_a, seed_b = (int(s) for s in args.seeds.split(","))
    problems = [p for w in args.workloads.split(",") for p in check(w, seed_a, seed_b)]
    for p in problems:
        print(f"  {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
