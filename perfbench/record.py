"""Run the benchmark over several seeds and record the results as JSON.

    python3 perfbench/record.py --workload audit-L9-log --seeds 1-10 --seconds 45 \\
        --out perfbench/results/baseline.json [--trace 1]

Run from the repository root.  Each seed is one ``run.py`` invocation.  The
output file keeps one entry per (workload, trace) pair, so several calls can
fill one file; each entry holds every run's metrics and manifest digest and,
per metric, the median and the quartile spread (q3 - q1) / median that
BENCHMARK.json's bounds are judged against.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

RUN = Path(__file__).resolve().parent / "run.py"
_DIGEST = re.compile(r"^\s+digest \S+ seed=\d+ manifest_sha256=([0-9a-f]{64})$")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> Dict:
    """One benchmark run: its result line, its manifest digest and its environment line."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=200,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: run.py exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    return {
        "seed": seed,
        "wall_s": time.monotonic() - start,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "units": {name: m["unit"] for name, m in result["metrics"].items()},
        "digest": next(m.group(1) for m in map(_DIGEST.match, lines) if m),
        "environment": next(line for line in lines if line.startswith("environment ")),
    }


def summarize(runs: List[Dict]) -> Dict[str, Dict]:
    out = {}
    for name, unit in runs[0]["units"].items():
        values = [r["metrics"][name] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
        out[name] = {
            "unit": unit,
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
        }
    return out


def _seeds(text: str) -> List[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=_seeds, help="inclusive range such as 1-10")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()

    runs = []
    for seed in args.seeds:
        run = run_once(args.workload, seed, args.seconds, args.trace)
        runs.append(run)
        print(f"{args.workload} seed={seed} wall={run['wall_s']:.1f}s correct={run['correct']} "
              + " ".join(f"{k}={v:.6g}" for k, v in run["metrics"].items() if not args.trace), flush=True)
    summary = summarize(runs)
    for name, s in summary.items():
        print(f"{args.workload} {name}: median={s['median']:.6g} spread={s['spread']:.4f}")

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    key = f"{args.workload}/trace{args.trace}"
    doc.setdefault("entries", {})[key] = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": runs[0]["environment"],
        "summary": summary,
        "runs": [{k: v for k, v in r.items() if k not in ("environment", "units")} for r in runs],
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
