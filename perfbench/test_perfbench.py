"""Tests of the benchmark itself: python3 -m pytest perfbench"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_is_duration_minus_union_of_children():
    # root [0,100] has children a [10,40] and b [30,60], which overlap on
    # [30,40], and c [90,120], which overruns the root; a has child d [15,20].
    start = [0, 10, 30, 90, 15]
    end = [100, 40, 60, 120, 20]
    parent = [-1, 0, 0, 0, 1]
    assert spans.self_times(start, end, parent).tolist() == [100 - 50 - 10, 30 - 5, 30, 30, 5]


def test_nested_self_times_add_up_to_the_root():
    start = [0, 5, 6, 20, 21, 23]
    end = [50, 15, 9, 30, 22, 29]
    parent = [-1, 0, 1, 0, 3, 3]
    self_ns = spans.self_times(start, end, parent)
    assert self_ns.tolist() == [30, 7, 3, 3, 1, 6]
    assert self_ns.sum() == end[0] - start[0]


def test_seed_derivation_is_deterministic_and_distinct():
    seeds = [workloads.derive_seed(7, "round_paths", i) for i in range(-1, 200)]
    assert seeds == [workloads.derive_seed(7, "round_paths", i) for i in range(-1, 200)]
    assert len(set(seeds)) == len(seeds)
    assert all(0 <= s < 2**64 for s in seeds)
    assert workloads.derive_seed(8, "round_paths", 0) != seeds[1]
    assert workloads.derive_seed(7, "long_session", 0) != seeds[1]


def call(workload, index=0):
    inputs = workload.prepare(workloads.derive_seed(3, workload.name, index))
    return inputs, workload.call(inputs)


def test_doctored_long_session_report_fails(tmp_path):
    workload = workloads.LongSession(tmp_path)
    config, text = call(workload)
    assert workload.check(config, text) == []
    report = json.loads(text)
    for key, value in [("z_equal_fraction", 0.99), ("trent_guess_accuracy", 0.6),
                       ("total_rounds", 199_999), ("bob_error_rate", 0.0)]:
        doctored = json.dumps(dict(report, **{key: value}))
        assert workload.check(config, doctored), key


def test_doctored_many_sessions_csv_fails(tmp_path):
    workload = workloads.ManySessions(tmp_path)
    argv, status = call(workload)
    assert workload.check(argv, status) == []
    assert workload.check(argv, 2) == ["cli.main returned 2"]
    lines = workload.out.read_text().splitlines()
    row = lines[1].split(",")
    row[2] = str(1 - int(row[2]))
    workload.out.write_text("\n".join([lines[0], ",".join(row), *lines[2:]]) + "\n")
    assert "abort flag disagrees with error rate" in workload.check(argv, status)


def test_doctored_round_paths_guess_fails(tmp_path):
    workload = workloads.RoundPaths(tmp_path)
    inputs, result = call(workload)
    assert workload.check(inputs, result) == []
    residuals, tables, sessions, rounds = result
    # Protocol 1, original encoding, attacked: every guess is right, so
    # flipping 20 of 2000 gives a guess accuracy of 0.99.
    plan, (transcripts, error, abort) = sessions[0]
    doctored = [
        dataclasses.replace(t, adversary_guess=1 - t.adversary_guess) if i < 20 else t
        for i, t in enumerate(transcripts)
    ]
    sessions = [(plan, (doctored, error, abort))] + sessions[1:]
    failures = workload.check(inputs, (residuals, tables, sessions, rounds))
    assert failures == ["session 1/original/attack: original-encoding guess accuracy 0.99 != 1"]


def test_recorder_counts_layers_and_restores_them(tmp_path):
    from qsdc import protocol

    workload = workloads.LongSession(tmp_path)
    original = vars(protocol.SessionPlan)["build"]
    call(workload, -1)  # cold enumeration happens outside the recorded call
    recorder = spans.Recorder()
    saved = spans.install(recorder)
    try:
        inputs = workload.prepare(1)
        with recorder.root(0):
            workload.call(inputs)
    finally:
        spans.restore(saved)
    assert vars(protocol.SessionPlan)["build"] is original
    metrics = spans.summarize(recorder, [0])
    assert metrics["protocol.SessionPlan.build.calls"] == 1
    assert metrics["harness.run_experiment.calls"] == 1
    assert metrics["qsim.apply_gate.calls"] == 0
    assert metrics["trace.share_sum"] == pytest.approx(1.0)
    assert recorder.counters["harness.sessions"] == 1


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_output_names_every_declared_metric(trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    proc = run_bench(ROOT, "--workload", "round_paths", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "long_session", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
