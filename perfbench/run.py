#!/usr/bin/env python3
"""Benchmark of the qsdc simulator.

    python3 perfbench/run.py [--workload long_session|many_sessions|round_paths|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere inside a source checkout; it imports the package from
the checkout's src/ directory.  Each workload runs in fresh single-threaded
worker processes (BLAS pinned to one thread).  SETUP_SAMPLES - 1 workers
only time a cold start; one more runs a closed loop of calls, each with its
own config seed derived from --seed, for --seconds.  With --trace 0 it
reports the end-to-end metrics; with --trace 1 the worker spends half the
time traced and half untraced and reports per-layer metrics.  Times are
speed-normalized against a fixed reference loop (see worker.py).  Lines of
human-readable output come first; the last line of standard output is a
JSON object with keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / "_out"
WORKLOADS = ("long_session", "many_sessions", "round_paths")
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150
BLAS_THREADS = "1"

UNITS = {
    "rounds_per_s": "1/s",
    "call_s_p50": "s",
    "call_s_p90": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def layer_unit(name: str) -> str:
    if name.endswith("rounds_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("share", "share_sum", "overhead")):
        return "fraction"
    return "count"


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_worker(spec: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        env=worker_env(),
        stdout=subprocess.PIPE,
        timeout=WORKER_TIMEOUT_S,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {spec['workload']} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def git_sha() -> str | None:
    """HEAD's commit id read from .git, if the checkout has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(numpy_version: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_sha": git_sha(),
        "blas_threads": BLAS_THREADS,
    }


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    spec = dict(workload=name, seed=seed, seconds=seconds, trace=trace,
                src=str(SRC), workdir=str(WORKDIR))
    samples = [] if trace else [
        run_worker(dict(spec, mode="setup")) for _ in range(SETUP_SAMPLES - 1)
    ]
    timed = run_worker(dict(spec, mode="timed"))
    samples.append(timed)
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    if trace:
        metrics, wall = timed["layers"], {}
    else:
        metrics = dict(timed["metrics"], setup_s=statistics.median(s["setup_s"] for s in samples))
        wall = dict(timed["wall"], wall_setup_s=statistics.median(s["wall_setup_s"] for s in samples))
    return {
        "workload": name,
        "attempted": attempted,
        "failed": failed,
        "failed_fraction": failed / attempted,
        "timed_calls": timed["calls"],
        "metrics": metrics,
        "wall": wall,
        "provenance": provenance(timed["numpy"]),
    }


def report(result: dict, trace: int) -> None:
    name = result["workload"]
    unit = layer_unit if trace else UNITS.__getitem__
    for metric, value in result["metrics"].items():
        print(f"{name:<14} {metric:<44} {value:<24.10g} {unit(metric)}")
    for metric, value in result["wall"].items():
        print(f"{name:<14} {metric:<44} {value:<24.10g} {UNITS[metric.removeprefix('wall_')]} (wall clock)")
    print(f"{name:<14} {'failed_fraction':<44} {result['failed_fraction']:<24.10g} "
          f"({result['failed']} of {result['attempted']} calls; {result['timed_calls']} timed)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qsdc" / "__init__.py").is_file():
        print(f"no qsdc sources under {SRC}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(n, args.seed, args.seconds, args.trace) for n in names]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    print("provenance " + json.dumps(results[0]["provenance"]))
    for result in results:
        report(result, args.trace)
    (WORKDIR / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(results, indent=2) + "\n"
    )
    prefix = len(results) > 1
    unit = layer_unit if args.trace else UNITS.__getitem__
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            (f"{r['workload']}.{m}" if prefix else m): {"value": v, "unit": unit(m)}
            for r in results
            for m, v in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
