"""Benchmark entry point.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each workload runs in fresh single-threaded Python processes started from
``worker.py``, with ``pcdres`` imported from ``src/`` of this checkout.  With
``--trace 0`` several processes only set up (import and warm-up) and one
more runs the closed op loop for ``--seconds``; the end-to-end metrics of
``BENCHMARK.json`` come from these.  With ``--trace 1`` one process runs a
fixed slice of ops twice untraced and then traced, and reports the
per-layer metrics.  Every answer is checked against the references in
``reference.py``.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import gauge
import reference

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
SETUP_PROBES = 6  # processes per run that only set up; the measuring one adds a sample
TIME_LIMIT_S = 170


def _spawn(args, workload: str, mode: str, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")  # one seed replays the same run
    launch = time.monotonic()
    cmd = [sys.executable, WORKER, workload, str(args.seed), str(args.seconds), mode,
           repr(launch), str(int(args.smoke))]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=deadline - launch
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} worker ({mode}) exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not its own git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    package = os.path.join(ROOT, "src", "pcdres")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def fingerprint(seed: int, input_sha256: str) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "seed": seed,
        "input_sha256": input_sha256,
    }


def run_workload(args, workload: str, spec: dict) -> dict:
    """Run one workload, print its report and return its result object."""
    deadline = time.monotonic() + TIME_LIMIT_S
    trace = bool(args.trace)
    print(f"workload {workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    if trace:
        res = _spawn(args, workload, "trace", deadline)
        declared = spec["per_layer"]
        metrics = res["layer_metrics"]
        print(f"  traced slice: {res['slice_ops']} ops, {res['spans']} spans"
              f" in {res['trace_file']}")
    else:
        setups = [
            _spawn(args, workload, "probe", deadline)["setup_s"] for _ in range(SETUP_PROBES)
        ]
        res = _spawn(args, workload, "measure", deadline)
        setups.append(res["setup_s"])
        declared = spec["end_to_end"]
        metrics = {m["name"]: res.get(m["name"]) for m in declared}
        metrics["setup_s"] = statistics.median(setups)
        samples = res["samples"]
        counts = {
            "throughput_ops_s": f"median of {res['windows']} windows of >= 1 s",
            "op_p50_ms": f"n={samples['op']}",
            "yes_p50_ms": f"n={samples['yes']}",
            "no_p50_ms": f"n={samples['no']}",
            "peak_rss_mb": "measuring process",
            "setup_s": f"median of {len(setups)} processes",
        }
    missing = [m["name"] for m in declared if metrics.get(m["name"]) is None]
    if missing:
        raise SystemExit(f"{workload}: no value for {', '.join(missing)}")
    for m in declared:
        note = "" if trace else counts.get(m["name"], "")
        print(f"  {m['name']:<40} {metrics[m['name']]:>14.6g} {m['unit']:<6} {note}")
    if not trace:
        p90 = res.get("op_p90_ms")
        if p90 is None:
            print(f"  {'op_p90_ms':<40} not reported (< 100 ops)")
        else:
            print(f"  {'op_p90_ms':<40} {p90:>14.6g} ms     n={samples['op']}")
        kind = res["gauge"]
        print(f"  host gauge ({kind} kernel): mean run {res['host_ns'] / 1e6:.4g} ms here,"
              f" {gauge.REF_NS[kind] / 1e6:.4g} ms on the reference host")
    failed, attempted = res["failed"], res["attempted"]
    print(f"  fail_frac {failed / attempted:.6g} ({failed} of {attempted} ops)")
    caught = res["negative_control"]
    print(f"  negative control (corrupted answer counted as failed): {caught}")
    print("  fingerprint " + json.dumps(fingerprint(args.seed, res["input_sha256"])))
    return {
        "correct": res["failed"] == 0 and caught is True,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "pcdres", "__init__.py")):
        raise SystemExit(f"no pcdres sources under {ROOT}/src")
    if not reference.self_check():
        raise SystemExit("reference criterion disagrees with the known counts at size <= 3")
    names = workloads if args.workload == "all" else [args.workload]
    results = {name: run_workload(args, name, spec) for name in names}
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))


if __name__ == "__main__":
    main()
