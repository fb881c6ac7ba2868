"""Benchmark worker: one fresh process per set-up sample or timed run.

run.py starts it with a JSON spec as its only argument; it prints one JSON
line.  Only the standard library and the benchmark's own modules are
imported before the set-up clock starts, so set-up time covers importing
the package (and numpy) and its first, cold call.

Spec keys: workload, seed, seconds, trace (0 or 1), mode ("setup" or
"timed"), src (the package's source directory) and workdir.

Speed normalization: on a shared host the speed of a core drifts by up
to a factor of two within minutes, which no run length averages away.
Before each call, and after set-up, the worker therefore times
`reference_work`, a fixed loop of the benchmark's own that does not touch
qsdc.  Each call's wall time is divided by the reference time measured
just before it and multiplied by REFERENCE_S: the normalized figure reads
as seconds on a machine where the reference loop takes REFERENCE_S.  A
change to qsdc moves the normalized figures as it moves wall time; a
drift of the host moves both the call and the reference, and cancels.
The raw wall-clock figures are reported alongside.
"""
from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads

REFERENCE_S = 0.005
SETUP_REFERENCE_REPEATS = 5


def reference_work(np) -> int:
    """A fixed mix of interpreter and numpy work that does not touch qsdc."""
    rng = np.random.default_rng(0)
    total = 0
    for _ in range(50):
        a = rng.random(4096)
        total += int(np.searchsorted(np.cumsum(a), a[:64]).sum())
        total += len({i: (i, i * 2) for i in range(200)})
        total += sum(tuple(int(b) for b in a[:100] > 0.5))
    return total


def time_reference(np) -> float:
    start = time.perf_counter()
    reference_work(np)
    return time.perf_counter() - start


def attempt(workload, seed: int, index: int, recorder=None, keep_output=False):
    """Prepare, time and check call `index`.

    Returns (seconds or None if it raised, failure messages, output bytes
    if `keep_output`).  A call that raises or fails a check is reported
    and counted; it does not stop the run.
    """
    inputs = workload.prepare(workloads.derive_seed(seed, workload.name, index))
    elapsed = None
    try:
        start = time.perf_counter()
        if recorder is None:
            result = workload.call(inputs)
        else:
            with recorder.root(index):
                result = workload.call(inputs)
        elapsed = time.perf_counter() - start
        failures = workload.check(inputs, result)
        output = workload.output_bytes(inputs, result) if keep_output else None
    except Exception:
        traceback.print_exc()
        return elapsed, ["call or check raised"], None
    for message in failures:
        print(f"{workload.name} call {index}: {message}", file=sys.stderr)
    return elapsed, failures, output


class Phase:
    """A closed loop of calls for a fixed number of seconds."""

    def __init__(self, workload, np, seed, seconds, first_index, recorder=None):
        self.wall, self.normalized, self.failed, self.output0 = [], [], 0, None
        index = first_index
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            reference = time_reference(np)
            elapsed, failures, output = attempt(
                workload, seed, index, recorder, keep_output=index == 0
            )
            if elapsed is not None:
                self.wall.append(elapsed)
                self.normalized.append(elapsed * REFERENCE_S / reference)
            self.failed += bool(failures)
            if index == 0:
                self.output0 = output
            index += 1
        self.indices = range(first_index, index)
        self.rounds_per_s = workload.rounds * len(self.normalized) / sum(self.normalized)


def latency(times: list[float], prefix: str = "") -> dict:
    return {
        f"{prefix}call_s_p50": statistics.median(times),
        f"{prefix}call_s_p90": statistics.quantiles(times, n=10, method="inclusive")[-1],
    }


def main(spec: dict) -> dict:
    t0 = time.perf_counter()
    workload = workloads.WORKLOADS[spec["workload"]](Path(spec["workdir"]))
    import numpy
    import qsdc

    src = Path(spec["src"]).resolve()
    if src not in Path(qsdc.__file__).resolve().parents:
        raise SystemExit(f"qsdc was imported from {qsdc.__file__}, not from {src}")

    seed = spec["seed"]
    recorder = spans.Recorder() if spec["trace"] else None
    saved = spans.install(recorder) if recorder else []
    _, failures, _ = attempt(workload, seed, -1, recorder)
    setup_s = time.perf_counter() - t0
    reference = statistics.median(
        time_reference(numpy) for _ in range(SETUP_REFERENCE_REPEATS)
    )
    result = {
        "wall_setup_s": setup_s,
        "setup_s": setup_s * REFERENCE_S / reference,
        "attempted": 1,
        "failed": int(bool(failures)),
        "numpy": numpy.__version__,
    }
    if spec["mode"] == "setup":
        return result

    if recorder:
        recorder.counters = dict.fromkeys(recorder.counters, 0)
        traced = Phase(workload, numpy, seed, spec["seconds"] / 2, 0, recorder)
        spans.restore(saved)
        untraced = Phase(workload, numpy, seed, spec["seconds"] / 2, traced.indices.stop)
        phases = (traced, untraced)
    else:
        untraced = Phase(workload, numpy, seed, spec["seconds"], 0)
        phases = (untraced,)

    # Same seed, same bytes: re-run call 0 untraced and compare its output.
    _, failures, output = attempt(workload, seed, 0, keep_output=True)
    if output != phases[0].output0:
        print(f"{workload.name}: re-run of call 0 gave different bytes", file=sys.stderr)
        failures = failures or ["different bytes"]
    result["attempted"] += sum(len(p.indices) for p in phases) + 1
    result["failed"] += sum(p.failed for p in phases) + bool(failures)
    result["calls"] = len(untraced.normalized)
    result["metrics"] = {
        "rounds_per_s": untraced.rounds_per_s,
        **latency(untraced.normalized),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    result["wall"] = {
        "wall_rounds_per_s": workload.rounds * len(untraced.wall) / sum(untraced.wall),
        **latency(untraced.wall, "wall_"),
    }
    if recorder:
        result["layers"] = layer_metrics(recorder, traced, untraced)
        spans.save(recorder, Path(spec["workdir"]) / f"spans-{workload.name}.npz")
    return result


def layer_metrics(recorder, traced: Phase, untraced: Phase) -> dict:
    n_calls = len(traced.indices)
    metrics = spans.summarize(recorder, traced.indices)
    for counter, total in recorder.counters.items():
        metrics[counter] = total / n_calls
    warmup = spans.summarize(recorder, [-1])
    metrics["warmup.call_s"] = warmup["trace.call_s"]
    for key in ("qsim.x_probabilities.calls", "protocol.round_distribution.calls",
                "protocol.round_distribution.self_s"):
        metrics[f"warmup.{key}"] = warmup[key]
    metrics["bench.timed_calls"] = n_calls
    metrics["trace.rounds_per_s"] = traced.rounds_per_s
    metrics["trace.untraced_rounds_per_s"] = untraced.rounds_per_s
    metrics["trace.overhead"] = untraced.rounds_per_s / traced.rounds_per_s - 1.0
    return metrics


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
