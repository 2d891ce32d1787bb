"""The closed op loop, its latency statistics, and the traced run."""

from __future__ import annotations

import resource
import statistics
import time
from array import array
from time import perf_counter_ns

import gauge
import tracer as tracing


class Sampler:
    """Op latencies in ns with bounded memory.

    Keeps every ``stride``-th value; when full it drops every other kept
    value and doubles the stride, so the kept values stay evenly spread over
    the run however many ops it has.
    """

    CAP = 1 << 16

    def __init__(self) -> None:
        self.values = array("q")
        self.stride = 1
        self.seen = 0

    def add(self, ns: int) -> None:
        if self.seen % self.stride == 0:
            self.values.append(ns)
            if len(self.values) == self.CAP:
                self.values = self.values[::2]
                self.stride *= 2
        self.seen += 1

    def quantile_ms(self, q: float) -> float | None:
        """Quantile ``q`` by linear interpolation, or None without samples."""
        if not self.values:
            return None
        ordered = sorted(self.values)
        pos = q * (len(ordered) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(ordered) - 1)
        return (ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)) / 1e6


class Stats:
    """Counts and latencies of one run of the op loop.

    Throughput is taken per window of at least one second of op time,
    closed only between whole passes where the workload has them, and
    reported as the median over windows, so that a stall of the machine in
    one window does not move it.
    """

    WINDOW_NS = 10**9

    def __init__(self, pass_len: int | None = None) -> None:
        self.pass_len = pass_len or 1
        self.all, self.yes, self.no = Sampler(), Sampler(), Sampler()
        self.busy_ns = 0
        self.attempted = 0
        self.failed = 0
        self.window_rates = array("d")
        self.host_ns = array("d")  # gauge samples: mean kernel time on this host
        self._window = [0, 0]  # ops, ns
        self.control_caught = None  # whether the corrupted answer was rejected
        self.expected: list[bool] = []  # per op, kept in traced passes only

    def add(self, ns: int, expected: bool, ok: bool) -> None:
        self.busy_ns += ns
        self.attempted += 1
        self.failed += not ok
        self.all.add(ns)
        (self.yes if expected else self.no).add(ns)
        window = self._window
        window[0] += 1
        window[1] += ns
        if window[1] >= self.WINDOW_NS and self.attempted % self.pass_len == 0:
            self.window_rates.append(window[0] / (window[1] / 1e9))
            window[:] = [0, 0]

    def summary(self) -> dict:
        p50 = {k: getattr(self, k).quantile_ms(0.5) for k in ("all", "yes", "no")}
        rate = self.attempted / (self.busy_ns / 1e9)
        out = {
            "attempted": self.attempted,
            "failed": self.failed,
            "negative_control": self.control_caught,
            "throughput_ops_s": statistics.median(self.window_rates or [rate]),
            "windows": len(self.window_rates),
            "host_ns": statistics.fmean(self.host_ns) if self.host_ns else None,
            "op_p50_ms": p50["all"],
            "yes_p50_ms": p50["yes"],
            "no_p50_ms": p50["no"],
            "samples": {"op": self.all.seen, "yes": self.yes.seen, "no": self.no.seen},
        }
        # p90 only where at least ten ops lie beyond it
        if self.attempted >= 100:
            out["op_p90_ms"] = self.all.quantile_ms(0.9)
        return out


GAUGE_EVERY_NS = 100_000_000


def drive(wl, seconds: float | None = None, count: int | None = None, tracer=None) -> Stats:
    """The closed loop: each op starts when the previous one has been checked.

    Stops after ``count`` ops, or once ``seconds`` have passed; a workload
    with ``pass_len`` set stops only between whole passes, and only starts a
    pass that it expects to finish in time.

    The workload's gauge kernel samples the host before the first op and
    after every ``GAUGE_EVERY_NS`` of op time (after every op, where ops are
    longer), each time for ``gauge.SHARE`` of the op time since the last
    sample; the ops between two samples are recorded with their times
    scaled by the kernel's ``gauge.REF_NS`` over the mean of the two samples.
    """
    stats = Stats(wl.pass_len)
    pending: list[tuple[int, bool, bool]] = []  # ops since the last gauge sample
    pending_ns = 0
    kind = wl.gauge
    last_gauge = gauge.sample_ns(gauge.SHARE * GAUGE_EVERY_NS, kind)
    stats.host_ns.append(last_gauge)

    def flush() -> None:
        nonlocal last_gauge, pending_ns
        now = gauge.sample_ns(gauge.SHARE * pending_ns, kind)
        stats.host_ns.append(now)
        scale = 2 * gauge.REF_NS[kind] / (last_gauge + now)
        for ns, expected, ok in pending:
            stats.add(round(ns * scale), expected, ok)
        last_gauge, pending_ns = now, 0
        pending.clear()

    start = time.monotonic()
    for index, (payload, expected) in enumerate(wl.ops()):
        if index == count:
            break
        if tracer is not None:
            tracer.current_op = index
        t0 = perf_counter_ns()
        try:
            answer = wl.run(payload)
        except Exception as exc:  # an op that raises is a failed op
            answer = exc
        ns = perf_counter_ns() - t0
        try:
            ok = not isinstance(answer, Exception) and wl.check(payload, expected, answer)
        except Exception:  # a malformed answer is a failed op
            ok = False
        pending.append((ns, expected, ok))
        pending_ns += ns
        if pending_ns >= GAUGE_EVERY_NS:
            flush()
        if tracer is not None:
            stats.expected.append(expected)
        if ok and expected and stats.control_caught is None:
            stats.control_caught = not wl.check(payload, expected, wl.corrupt(payload, answer))
        if seconds is None:
            continue
        elapsed = time.monotonic() - start
        if wl.pass_len is None:
            if elapsed >= seconds:
                break
        elif (index + 1) % wl.pass_len == 0:
            passes = (index + 1) // wl.pass_len
            if elapsed + elapsed / passes > seconds:
                break
    if pending:
        flush()
    return stats


def measure(wl, seconds: float) -> dict:
    stats = drive(wl, seconds=seconds)
    # read before summary() sorts the samples, which is the benchmark's own work
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return dict(stats.summary(), peak_rss_mb=peak_rss_mb, gauge=wl.gauge)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def trace(wl, seconds: float, trace_file: str) -> dict:
    """Run a fixed slice of ops twice untraced, then the same slice traced.

    The slice is a fixed number of ops per second of ``seconds``, rounded up
    to whole passes; it never depends on speed, so counts compare across
    versions of the program.
    """
    count = max(1, round(wl.trace_ops_per_s * seconds))
    if wl.pass_len:
        count = -(-count // wl.pass_len) * wl.pass_len  # whole passes
    # the first pass lets allocations settle, so that first-touch costs do not
    # land on the untraced pass alone
    passes = [drive(wl, count=count) for _ in range(2)]
    tr = tracing.Tracer()
    tr.install()
    plain, traced = passes[-1], drive(wl, count=count, tracer=tr)
    passes.append(traced)
    tr.write(trace_file)

    calls, self_s = tr.self_times()
    metrics = {}
    for name in tracing.SPAN_NAMES:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
    metrics["convert.normal_form.per_decide"] = _ratio(
        calls["convert.normal_form"], calls["convert.decide"]
    )
    per_search = tr.calls_per_op("oracle.solve_discard")
    searches = tr.calls_per_op("oracle.oracle_convertible")
    for label, verdict in (("yes", True), ("no", False)):
        ops = [k for k in searches if traced.expected[k] is verdict]
        metrics[f"oracle.xi1_per_search.{label}"] = _ratio(
            sum(per_search.get(k, 0) for k in ops), len(ops)
        )
    metrics["oracle.solve_discard.hit_ratio"] = _ratio(
        tr.hits["oracle.solve_discard"], calls["oracle.solve_discard"]
    )
    metrics["trace.overhead_ratio"] = traced.busy_ns / plain.busy_ns
    return {
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "negative_control": all(p.control_caught for p in passes),
        "slice_ops": count,
        "spans": len(tr),
        "layer_metrics": metrics,
    }

