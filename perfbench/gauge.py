"""Host-speed gauge: fixed pure-Python kernels timed next to the ops.

The benchmark runs on shared virtual machines whose speed flips between a
fast and a slow state within milliseconds, in proportions that drift by
20-30 % over minutes, while the program's own cost does not change.  The
measuring process therefore times a kernel between ops, for a tenth as
long as the ops it brackets, and scales every time it reports by
``REF_NS / local``, where ``local`` is the kernel's mean time on this host
around that op.  A time so scaled reads in milliseconds of a reference host
on which one kernel run takes ``REF_NS``; a change to the program moves it
as much as it moves the raw time, because a kernel never runs program code.

Each workload uses the kernel whose work is most like its ops, because the
host slows cache-resident work on small maps (``compute``) and work on
fresh large lists (``wire``) by different amounts.  The kernels work on
inputs fixed here and never change: a different kernel would rescale every
reported time.  The garbage collector is off while one runs, so that its
time does not depend on the program's heap.
"""

from __future__ import annotations

import gc
import json
import random
from time import perf_counter_ns

import reference

SHARE = 0.1  # gauge time per unit of op time it scales

_rng = random.Random(20150510)
_SMALL = [
    (c, [_rng.randrange(c) for _ in range(d)])
    for d in range(1, 5)
    for c in range(1, 5)
    for _ in range(4)
]
_LARGE = [_rng.randrange(1 << 11) for _ in range(1 << 12)]
_WIRE = [_rng.randrange(20_000) for _ in range(20_000)]


def compute_kernel() -> int:
    """Small tuples and lists that stay in cache, as in ``decide`` and the oracle."""
    sigs = [
        reference.signature(variant, m, c, 4)
        for variant in ("set-bij", "set-inj")
        for c, m in _SMALL
    ]
    hits = sum(reference.dominates(a, b) for a in sigs[::32] for b in sigs)
    sizes = reference.fiber_sizes(_LARGE, 1 << 11)
    return hits + max(sizes) + len(sorted(sizes))


def wire_kernel() -> int:
    """A JSON round trip and a fiber count of a 2·10^4-point map: fresh
    large lists, as in the CLI ``witness`` flow."""
    back = json.loads(json.dumps(_WIRE))
    sizes = reference.fiber_sizes(back, len(back))
    return sorted(sizes)[-1]


KERNELS = {"compute": compute_kernel, "wire": wire_kernel}
# Mean kernel run on the reference host (2-vCPU Intel Xeon VM, Python 3.11.7).
REF_NS = {"compute": 1_250_000, "wire": 7_650_000}


def sample_ns(budget_ns: float, kind: str) -> float:
    """Mean time of one run of kernel ``kind``, over runs that last
    ``budget_ns`` in all (at least one), with the garbage collector off.

    The mean, not the median: the host flips between a fast and a slow state
    within milliseconds, and the mean follows the share of time spent in
    each, as the ops' own times do.
    """
    kernel = KERNELS[kind]
    enabled = gc.isenabled()
    gc.disable()
    try:
        runs = 0
        start = perf_counter_ns()
        while True:
            kernel()
            runs += 1
            elapsed = perf_counter_ns() - start
            if elapsed >= budget_ns:
                return elapsed / runs
    finally:
        if enabled:
            gc.enable()
