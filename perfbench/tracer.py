"""Span recorder for the traced run.

:meth:`Tracer.install` wraps public functions and methods of ``pcdres`` from
outside.  A module-level function is replaced at every place its name is
bound, because ``pcdres`` re-exports names with ``from .x import y`` and
patching only the defining module would miss those callers.  Methods are
replaced on their class, which every caller reaches through attribute
lookup.

Each call becomes one span: name, start, end, parent span and op id, kept
in flat arrays until the run ends.  Self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter_ns

# (module, attribute path, span name); a dotted attribute path is a method,
# patched on its class.  The span name starts with the layer.
TARGETS = (
    ("pcdres.finset", "FinFun.__post_init__", "finset.FinFun"),
    ("pcdres.finset", "compose", "finset.compose"),
    ("pcdres.finset", "disjoint_union", "finset.disjoint_union"),
    ("pcdres.finset", "rel_compose", "finset.rel_compose"),
    ("pcdres.finset", "rel_product", "finset.rel_product"),
    ("pcdres.finset", "finfun_from_dict", "finset.finfun_from_dict"),
    ("pcdres.profiles", "Profile.__init__", "profiles.Profile"),
    ("pcdres.profiles", "phi_profile", "profiles.phi_profile"),
    ("pcdres.profiles", "gamma_profile", "profiles.gamma_profile"),
    ("pcdres.profiles", "Profile.__ge__", "profiles.Profile.ge"),
    ("pcdres.convert", "decide", "convert.decide"),
    ("pcdres.convert", "normal_form", "convert.normal_form"),
    ("pcdres.convert", "witness", "convert.witness"),
    ("pcdres.convert", "check_witness", "convert.check_witness"),
    ("pcdres.convert", "witness_to_dict", "convert.witness_to_dict"),
    ("pcdres.convert", "witness_from_dict", "convert.witness_from_dict"),
    ("pcdres.oracle", "oracle_convertible", "oracle.oracle_convertible"),
    ("pcdres.oracle", "SetTheory.solve_discard", "oracle.solve_discard"),
    ("pcdres.oracle", "TheoryInstance.solve_discard", "oracle.solve_discard"),
    ("pcdres.monotones", "check_measure", "monotones.check_measure"),
    ("pcdres.monotones", "check_complete_family", "monotones.check_complete_family"),
    ("pcdres.monotones", "CandidateMeasure.__call__", "monotones.measure_eval"),
    ("pcdres.cli", "main", "cli.main"),
)

# Spans whose non-None return values are counted as hits.
HIT_COUNTED = {"oracle.solve_discard"}

SPAN_NAMES = tuple(dict.fromkeys(t[2] for t in TARGETS))


class Tracer:
    """Wraps ``pcdres`` entry points and records one span per call."""

    def __init__(self) -> None:
        self.names = array("B")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.hits = dict.fromkeys(HIT_COUNTED, 0)
        self.current_op = -1
        self._stack = [-1]

    def _wrap(self, fn, name: str):
        name_id = SPAN_NAMES.index(name)
        names, start, end, parent, op = self.names, self.start, self.end, self.parent, self.op
        stack = self._stack
        count_hits = name in HIT_COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parent.append(stack[-1])
            op.append(self.current_op)
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if count_hits and result is not None:
                self.hits[name] += 1
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in the ``pcdres`` modules imported so far.

        A module the workload never imported, such as ``pcdres.cli`` for a
        library workload, stays unwrapped and its spans read zero.
        """
        package = [m for n, m in sys.modules.items() if n == "pcdres" or n.startswith("pcdres.")]
        for module_name, path, name in TARGETS:
            owner = sys.modules.get(module_name)
            if owner is None:
                continue
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, attr, self._wrap(cls.__dict__[attr], name))
                continue
            original = getattr(owner, path)
            traced = self._wrap(original, name)
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

    def __len__(self) -> int:
        return len(self.names)

    def self_times(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self seconds per span name."""
        child = array("q", bytes(8 * len(self.names)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_ns = dict.fromkeys(SPAN_NAMES, 0)
        for i, name_id in enumerate(self.names):
            name = SPAN_NAMES[name_id]
            calls[name] += 1
            self_ns[name] += self.end[i] - self.start[i] - child[i]
        return calls, {n: ns / 1e9 for n, ns in self_ns.items()}

    def calls_per_op(self, name: str) -> dict[int, int]:
        name_id = SPAN_NAMES.index(name)
        per_op: dict[int, int] = {}
        for i, n in enumerate(self.names):
            if n == name_id:
                per_op[self.op[i]] = per_op.get(self.op[i], 0) + 1
        return per_op

    def write(self, path) -> None:
        """One JSON header line, then the raw arrays in header order."""
        fields = ("names", "start", "end", "parent", "op")
        header = {
            "span_names": SPAN_NAMES,
            "spans": len(self.names),
            "fields": [[f, getattr(self, f).typecode, getattr(self, f).itemsize] for f in fields],
            "byteorder": sys.byteorder,
            "hits": self.hits,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for f in fields:
                getattr(self, f).tofile(fh)
