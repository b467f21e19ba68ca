"""Benchmark of the calibrate-and-price pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It generates the workload's inputs
from the seed, runs the workload in fresh interpreters against the
checkout's `src` and checks every run's answers.  The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1).  Workloads, metrics and bounds are listed in
BENCHMARK.json at the repository root; perfbench/README.md says why.

Load is a closed loop with one client: each run starts after the previous
one has ended and been checked.  Every process is pinned to one worker
thread and one BLAS/OpenMP thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy
import scipy

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
LIB_WORKLOAD = "static-lib-30x30"

SETUP_SAMPLES = 3        # fresh-interpreter set-ups per invocation
# dynamic-3x3 is interpreter-bound and the noisiest on a shared host; a
# second run halves its spread, and the time budget of a full benchmark
# round allows it for this workload only.
MIN_RUNS = {"dynamic-3x3": 2}
RUN_TIMEOUT_S = 150      # a single run taking longer is killed and failed
THREAD_ENV = {
    "ENTROPIC_BESPOKE_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))


class Sample:
    """One child process: exit code, wall time from start to exit, and the
    child's own rusage (os.wait4), so nothing leaks between runs."""

    def __init__(self, code: int, wall_s: float, usage):
        self.code = code
        self.wall_s = wall_s
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is KiB


def run_process(cmd: list[str], cwd: Path, env: dict, log: Path) -> Sample:
    with open(log, "wb") as log_fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=log_fh,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(proc.returncode, wall, usage)


class Bench:
    def __init__(self, root: Path, workload: str, work: Path,
                 reference: dict | None):
        self.root = root
        self.workload = workload
        self.work = work
        self.reference = reference
        self.inputs = work / "inputs"
        self.env = {**os.environ, **THREAD_ENV,
                    "PYTHONPATH": str(root / "src")}
        self.runs: list[dict] = []

    def child(self, *args) -> list[str]:
        return [sys.executable, str(HERE / "child.py"), *map(str, args)]

    def workload_cmd(self, out: Path) -> list[str]:
        if self.workload == LIB_WORKLOAD:
            return self.child("lib", self.workload, self.inputs, out)
        return [sys.executable, "-m", "entropic_bespoke.cli",
                "--config", str(self.inputs / "config.json"), "--out", str(out)]

    def setup_s(self) -> float:
        """Median wall time of fresh interpreters that import the package
        and load the inputs.  Each one also proves the children import the
        package from this checkout."""
        src = (self.root / "src").resolve()
        walls = []
        for n in range(SETUP_SAMPLES):
            log = self.work / f"setup-{n}.log"
            sample = run_process(self.child("setup", self.workload, self.inputs),
                                 self.work, self.env, log)
            where = Path(log.read_text().strip() or "/").resolve()
            if sample.code != 0 or src not in where.parents:
                raise SystemExit(f"perfbench: set-up failed or imported the "
                                 f"package from outside {src}; see {log}")
            walls.append(sample.wall_s)
        return statistics.median(walls)

    def finish(self, sample: Sample, out: Path, log: Path, **extra) -> dict:
        """Check one run's answers, record it and delete its outputs."""
        if sample.code != 0:
            tail = log.read_text(errors="replace")[-500:]
            failures = [f"exit code {sample.code}: {tail}"]
            fingerprint, files = {}, {}
        else:
            failures, fingerprint = checks.check_run(
                self.workload, self.inputs, out, self.reference)
            files = checks.file_digests(out)
            if self.workload == LIB_WORKLOAD:
                files = {}  # library_result.json is the benchmark's own file
            elif "manifest.json" not in files:
                failures.append("manifest.json missing: run incomplete")
        record = {"wall_s": sample.wall_s, "cpu_s": sample.cpu_s,
                  "peak_rss_mb": sample.peak_rss_mb, "failures": failures,
                  "fingerprint": fingerprint, "files": files, **extra}
        self.runs.append(record)
        shutil.rmtree(out, ignore_errors=True)
        return record

    def run_untraced(self) -> dict:
        n = len(self.runs)
        out, log = self.work / f"out-{n}", self.work / f"run-{n}.log"
        sample = run_process(self.workload_cmd(out), self.work, self.env, log)
        return self.finish(sample, out, log, traced=False)

    def run_traced(self) -> tuple[dict, dict]:
        n = len(self.runs)
        out, log = self.work / f"out-{n}", self.work / f"run-{n}.log"
        spans = self.work / "spans.json"
        sample = run_process(
            self.child("traced", self.workload, self.inputs, out, spans),
            self.work, self.env, log)
        record = self.finish(sample, out, log, traced=True)
        trace = json.loads(spans.read_text()) if sample.code == 0 else None
        return record, trace


def environment() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(), **THREAD_ENV}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record this default-seed run's answers as the "
                             "reference fingerprints")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "entropic_bespoke" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout; "
              "src/entropic_bespoke is missing", file=sys.stderr)
        return 2
    if args.write_reference and args.seed != workloads.DEFAULT_SEED:
        parser.error("--write-reference needs the default seed")
    reference = None
    if args.seed == workloads.DEFAULT_SEED and not args.write_reference:
        reference = json.loads(REFERENCE.read_text())[args.workload]

    work = (root / ".bench_runs" /
            f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(root, args.workload, work, reference)
    workloads.generate(args.workload, args.seed, bench.inputs)

    if args.trace == 0:
        setup = bench.setup_s()
        start = time.perf_counter()
        while True:
            bench.run_untraced()
            # start another run only if a typical one ends within --seconds
            typical = statistics.median(r["wall_s"] for r in bench.runs)
            if (len(bench.runs) >= MIN_RUNS.get(args.workload, 1)
                    and time.perf_counter() - start + typical > args.seconds):
                break
        values = {name: statistics.median(r[name] for r in bench.runs)
                  for name, _ in END_TO_END if name != "setup_s"}
        values["setup_s"] = setup
        units = dict(END_TO_END)
    else:
        untraced = bench.run_untraced()
        traced, trace = bench.run_traced()
        values = {}
        if trace is not None:
            values = tracing.layer_metrics(trace, traced["files"],
                                           untraced["wall_s"], traced["wall_s"])
        units = dict(tracing.PER_LAYER)

    failed = sum(1 for r in bench.runs if r["failures"])
    attempted = len(bench.runs)
    if args.write_reference and not failed:
        doc = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        doc[args.workload] = bench.runs[0]["fingerprint"]
        REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")

    env = environment()
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "fail_frac": failed / attempted,
              "metrics": values, "runs": bench.runs}
    (work / "report.json").write_text(json.dumps(report, indent=1))

    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for run in bench.runs:
        for failure in run["failures"]:
            print(f"FAILED: {failure}")
    print(f"fail_frac = {failed / attempted!r} ratio ({failed}/{attempted} runs)")
    for name, value in values.items():
        print(f"{name} = {value!r} {units[name]}")
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units if name in values}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
