"""One workload in a fresh interpreter: set up, then time aplab commands.

Started by ``perfbench/run.py``, which fixes the BLAS thread count in the
environment before this interpreter loads numpy.  Commands go through the
public entry point ``aplab.cli.main`` with generated arguments only.  The
worker prints one JSON document on stdout: setup time, per-iteration command
times, operation counts, manifest digests, peak RSS and, when traced, the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional

IDENTITY_TRACE_TOL = 1e-10
TOP_LEVEL = 9


class Runner:
    """Runs commands, checks their artifacts and counts operations."""

    def __init__(self, aplab_main: Callable) -> None:
        self.aplab_main = aplab_main
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.envelope = {"passed": 0, "failed": 0}
        self.digest: Optional[str] = None

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)

    def command(self, name: str, args: List[str], out: Path, seconds: Dict[str, float]) -> None:
        """Run one aplab command, record its wall time under ``name`` and check its output."""
        argv = [name, *args, "--out", str(out)]
        self.attempted += 1
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            try:
                code = self.aplab_main(argv)
            except Exception as exc:  # a crash is one failed operation; the run goes on
                traceback.print_exc()
                code = repr(exc)
            elapsed = time.perf_counter() - start
        seconds[name] = seconds.get(name, 0.0) + elapsed
        problem = f"exit code {code}" if code != 0 else self._check(name, out)
        if problem:
            self.fail(f"{' '.join(argv)}: {problem}")

    def _check(self, name: str, out: Path) -> str:
        if name == "verify":
            rows = json.loads((out / "verify_report.json").read_text())["rows"]
            bad = [f"{r['check']}@{r['level']}" for r in rows if not r["passed"]]
            return f"verify rows failed: {bad}" if bad else ""
        if name == "ap":
            rows = json.loads((out / "ap" / "obstruction.json").read_text())["identity_trace"]
            worst = max(r["deviation"] for r in rows)
            return f"identity-trace deviation {worst!r}" if worst > IDENTITY_TRACE_TOL else ""
        if name == "moduli":
            # criterion 9b fails by construction on the log schedule: recorded, never counted
            passed = json.loads((out / "moduli" / "envelope.json").read_text())["passed"]
            self.envelope["passed" if passed else "failed"] += 1
        return ""

    def check_digest(self, out: Path) -> None:
        """Record the manifest sha256; later iterations must reproduce it byte for byte."""
        sha = hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest()
        if self.digest is None:
            self.digest = sha
            return
        self.attempted += 1
        if sha != self.digest:
            self.fail(f"{out}: manifest digest {sha} differs from the first iteration's {self.digest}")


class Workload:
    """Set-up and one timed iteration, which leaves one store."""

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work

    def setup(self, runner: Runner, tag: str) -> None:
        pass

    def iteration(self, runner: Runner, out: Path, seconds: Dict[str, float]) -> None:
        raise NotImplementedError


class BuildL9Log(Workload):
    """One level-9 log-schedule build with the default budgets (2048 / 64)."""

    def iteration(self, runner, out, seconds):
        args = ["--schedule", "log", "--max-level", str(TOP_LEVEL), "--seed", str(self.seed)]
        runner.command("build", args, out, seconds)


class AuditL9Log(Workload):
    """verify, ap and moduli on a level-9 log store built with small budgets in set-up."""

    def setup(self, runner, tag):
        self.base = self.work / f"setup-{tag}"
        args = ["--schedule", "log", "--max-level", str(TOP_LEVEL), "--seed", str(self.seed),
                "--budget", "64", "--sign-budget", "4"]
        runner.command("build", args, self.base, {})

    def iteration(self, runner, out, seconds):
        shutil.copytree(self.base, out)
        runner.command("verify", [], out, seconds)
        runner.command("ap", ["--seed", str(self.seed)], out, seconds)
        runner.command("moduli", ["--schedule", "log"], out, seconds)


WORKLOADS = {
    "build-L9-log": BuildL9Log,
    "audit-L9-log": AuditL9Log,
}


def _samples(iterations: List[Dict], traced: bool, key: str) -> List[float]:
    """Seconds of ``key`` in each traced or each untraced iteration."""
    return [it["seconds"][key] for it in iterations if it["traced"] == traced and key in it["seconds"]]


def _measure(workload: Workload, runner: Runner, seconds: float, trace: bool) -> Dict:
    """Iterate until ``seconds`` have passed; traced runs alternate untraced and traced iterations."""
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer(TOP_LEVEL)
    iterations: List[Dict] = []
    store = None
    start = time.perf_counter()
    while not iterations or time.perf_counter() - start < seconds or (trace and len(iterations) % 2):
        index = len(iterations)
        traced = trace and index % 2 == 1
        out = workload.work / f"it{index}"
        times: Dict[str, float] = {}
        gc.collect()  # start every iteration from the same heap
        if traced:
            tracer.run = f"it{index}"
            tracer.install()
        try:
            workload.iteration(runner, out, times)
        finally:
            if traced:
                tracer.uninstall()
        times["total"] = sum(times.values())
        if not iterations:
            # what one command needs; later iterations only add allocator retention, which varies
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        iterations.append({"traced": traced, "seconds": times})
        runner.check_digest(out)
        if store is not None:
            shutil.rmtree(store)
        store = out

    result: Dict = {
        "iterations": sum(not it["traced"] for it in iterations),
        "peak_rss_mb": peak_rss_mb,
        "store": str(store),
        "timings": {
            key: samples
            for key in ("build", "verify", "ap", "moduli", "total")
            if (samples := _samples(iterations, False, key))
        },
    }
    if tracer is not None:
        runs = [f"it{i}" for i, it in enumerate(iterations) if it["traced"]]
        per_run = [tracer.metrics(run) for run in runs]
        layers = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
        layers["trace.overhead_s"] = (
            statistics.median(_samples(iterations, True, "total"))
            - statistics.median(_samples(iterations, False, "total"))
        )
        result["layers"] = layers
        result["curves"] = [c for c in tracer.curves if c["run"] == runs[0]]
        tracer.dump(workload.work.parent / "spans.jsonl")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="directory for this run's stores")
    parser.add_argument("--spawned", type=float, required=True, help="CLOCK_MONOTONIC when the parent started us")
    parser.add_argument("--setup-only", default="", metavar="TAG", help="set up, report set-up time, exit")
    args = parser.parse_args()

    sys.path.insert(0, str(Path.cwd() / "src"))
    from aplab.cli import main as aplab_main

    runner = Runner(aplab_main)
    work = Path(args.work)
    workload = WORKLOADS[args.workload](args.seed, work)
    workload.setup(runner, args.setup_only or "main")
    result: Dict = {"setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned}
    if not args.setup_only:
        result.update(_measure(workload, runner, args.seconds, bool(args.trace)))
        result["digest"] = runner.digest
        result["envelope"] = runner.envelope
    result.update(attempted=runner.attempted, failed=runner.failed, failures=runner.failures)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
