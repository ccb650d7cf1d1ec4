"""aplab benchmark: one workload, one seed, one JSON result on the last line.

    python3 perfbench/run.py --workload audit-L9-log --seed 7 --seconds 45 --trace 0

Run from the repository root.  Load model: closed loop, one client, one
process, no concurrency.  Each run starts fresh interpreters (``worker.py``)
with the BLAS thread count fixed before numpy loads: some that only set up
(at least ``SETUP_SAMPLES - 1``, more while they have taken less than
``SETUP_SECONDS``), then one that sets up and times the workload's commands
for ``--seconds``.  The numpy oracle in ``oracle.py`` then rechecks the top
level of the store the last iteration left.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced iterations and reports the per-layer metrics
of the traced ones, with ``trace.overhead_s`` the difference of the two.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from worker import TOP_LEVEL, WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3  # at least this many set-ups per run ...
SETUP_SECONDS = 3.0  # ... and more while the set-up-only ones have taken less than this
RUN_LIMIT_S = 170.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_threads() -> int:
    """BLAS threads for every interpreter of the run: at most 2, never more than nproc."""
    return min(2, len(os.sched_getaffinity(0)))


def _quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4f} q3={q3:.4f}"


def _spawn(args: argparse.Namespace, work: Path, deadline: float, setup_only: str = "") -> Dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work),
        "--spawned", repr(time.clock_gettime(time.CLOCK_MONOTONIC)),
    ]
    if setup_only:
        cmd += ["--setup-only", setup_only]
    done = subprocess.run(
        cmd, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - time.monotonic())
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S
    # on SIGTERM, unwind: subprocess.run then kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "aplab" / "cli.py").is_file():
        print("perfbench: run from the repository root; src/aplab is missing", file=sys.stderr)
        return 2
    threads = blas_threads()
    for name in BLAS_ENV:
        os.environ[name] = str(threads)

    run_dir = root / ".perfbench_work" / f"{args.workload}-s{args.seed}"
    work = run_dir / "stores"
    shutil.rmtree(run_dir, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setups: List[Dict] = []
        started = time.monotonic()
        while len(setups) < SETUP_SAMPLES - 1 or time.monotonic() - started < SETUP_SECONDS:
            setups.append(_spawn(args, work, deadline, setup_only=f"s{len(setups)}"))
        result = _spawn(args, work, deadline)

        import numpy
        import oracle

        workers = setups + [result]
        attempted = sum(w["attempted"] for w in workers)
        failed = sum(w["failed"] for w in workers)
        failures = [f for w in workers for f in w["failures"]]
        attempted += 1
        problems = oracle.check_top_level(Path(result["store"]), TOP_LEVEL)
        failed += bool(problems)
        failures += [f"oracle: {p}" for p in problems]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    timings = result["timings"]
    setup_values = [s["setup_s"] for s in setups] + [result["setup_s"]]
    e2e = {
        "setup_s": (statistics.median(setup_values), "s"),
        "total_s": (statistics.median(timings["total"]), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
    }

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(
        f"environment nproc={len(os.sched_getaffinity(0))} blas_threads={threads} "
        f"python={platform.python_version()} numpy={numpy.__version__} machine={platform.machine()}"
    )
    print(f"  setup_s      {e2e['setup_s'][0]:10.4f} s    median of set-ups {_quartiles(setup_values)}")
    for key, values in timings.items():
        print(f"  {key + '_s':<12} {statistics.median(values):10.4f} s    median over untraced iterations {_quartiles(values)}")
    print(f"  peak_rss_mb  {e2e['peak_rss_mb'][0]:10.1f} MiB  getrusage peak after set-up and the first iteration")
    print(f"  fail_ratio   {failed / attempted:10.4f}      {failed} failed / {attempted} attempted")
    for failure in failures:
        print(f"  FAILED: {failure}")
    envelope = result["envelope"]
    if envelope["passed"] or envelope["failed"]:
        print(
            f"  moduli growth envelope (criterion 9b): passed {envelope['passed']}, failed {envelope['failed']}; "
            "recorded as-is, never counted as a failure"
        )
    print(f"  digest {args.workload} seed={args.seed} manifest_sha256={result['digest']}")

    if args.trace:
        metrics = dict(sorted(result["layers"].items()))
        for curve in result["curves"]:
            print(
                f"  curve sign-search build={curve['build']} level={curve['level']} calls={curve['calls']} "
                f"best_so_far={curve['improvements']}"
            )
        for name, value in metrics.items():
            print(f"  layer {name:<44} {value:.6g}")
        from tracer import unit_of

        payload = {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()}
    else:
        payload = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": payload}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
