"""Run one workload in a fresh single-threaded interpreter; started by run.py.

    python3 perfbench/worker.py <workload> <seed> <seconds> <mode> <launch> <smoke>

``mode`` is ``probe`` (stop once set up), ``measure`` (the untraced timed
loop) or ``trace`` (the same ops untraced, then traced).  ``launch`` is the
parent's ``time.monotonic()`` just before it started this process; set-up
time counts from there.  Prints one JSON object on stdout.

Only modules that the interpreter has already loaded at start-up are
imported before ``pcdres``, so that the package's import cost, including the
stdlib modules it pulls in, lands in set-up time and the benchmark's own
imports do not.
"""

import os
import sys
import time

SETUP_GAUGE_NS = 50_000_000  # host sample that scales each set-up time

# The module a user of each workload imports.
ENTRY = {"witness-large": "pcdres.cli"}


def main(argv: list[str]) -> None:
    name, seed, seconds, mode, launch, smoke = argv
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    __import__(ENTRY.get(name, "pcdres"))
    imported = time.monotonic()

    import pcdres

    if not os.path.abspath(pcdres.__file__).startswith(src + os.sep):
        raise SystemExit(f"pcdres was imported from {pcdres.__file__}, not from {src}")

    import json
    import shutil

    import gauge
    import oploop
    import workloads

    out_dir = os.path.join(".bench_build", "perfbench")
    workdir = os.path.join(root, out_dir, f"{name}-{os.getpid()}")
    wl = workloads.WORKLOADS[name](int(seed), smoke == "1", workdir)
    digest = wl.generate()
    warm = time.monotonic()
    wl.warm_up()
    ready = time.monotonic()
    host = gauge.sample_ns(SETUP_GAUGE_NS, wl.gauge)
    setup_s = (imported - float(launch)) + (ready - warm)
    result = {"setup_s": setup_s * gauge.REF_NS[wl.gauge] / host, "input_sha256": digest}
    try:
        if mode == "measure":
            result.update(oploop.measure(wl, float(seconds)))
        elif mode == "trace":
            trace_file = os.path.join(out_dir, f"trace-{name}.bin")
            os.makedirs(os.path.join(root, out_dir), exist_ok=True)
            result.update(oploop.trace(wl, float(seconds), os.path.join(root, trace_file)))
            result["trace_file"] = trace_file
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
