"""Smoke self-test of the benchmark on tiny slices.

    python3 -m pytest perfbench -q

``--smoke`` shrinks every workload: a size <= 2 sweep, 10^3-point witness
pairs, a few dozen oracle pairs and one measure per variant.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import reference

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import oploop  # noqa: E402  (needs src on the path)
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_workloads_match_benchmark_json():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end_metrics(workload):
    proc = _run(workload, 0)
    result = _result(proc)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert f"fail_frac 0 (0 of {result['attempted']} ops)" in proc.stdout


@pytest.mark.parametrize("workload", NAMES)
def test_per_layer_metrics(workload):
    result = _result(_run(workload, 1))
    assert result["correct"] is True
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_reference_reproduces_known_counts():
    assert reference.self_check()


@pytest.mark.parametrize("workload", NAMES)
def test_inputs_depend_only_on_seed(workload, tmp_path):
    def digest(seed):  # full-size inputs: generating them is cheap
        return workloads.WORKLOADS[workload](seed, False, str(tmp_path)).generate()

    assert digest(1) == digest(1)
    assert digest(1) != digest(2)


@pytest.mark.parametrize("workload", NAMES)
def test_wrong_answer_counts_as_failure(workload, tmp_path):
    wl = workloads.WORKLOADS[workload](1, True, str(tmp_path))
    wl.generate()
    honest = wl.run

    def lying(payload):
        answer = honest(payload)
        return wl.corrupt(payload, answer) if wl.check(payload, True, answer) else answer

    wl.run = lying
    stats = oploop.drive(wl, count=wl.pass_len or 12)
    assert stats.yes.seen > 0
    assert stats.failed >= stats.yes.seen


def test_op_times_are_scaled_to_the_reference_host(tmp_path, monkeypatch):
    wl = workloads.WORKLOADS["decide-sweep"](1, True, str(tmp_path))
    wl.generate()
    ticks = iter(range(0, 10**9, 1000))  # every op takes 1000 ns
    monkeypatch.setattr(oploop, "perf_counter_ns", lambda: next(ticks))
    # a host at half the reference speed
    monkeypatch.setattr(oploop.gauge, "sample_ns",
                        lambda budget, kind: 2 * oploop.gauge.REF_NS[kind])
    stats = oploop.drive(wl, count=50)
    assert stats.attempted == 50
    assert stats.busy_ns == 50 * 500


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("decide-sweep", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
