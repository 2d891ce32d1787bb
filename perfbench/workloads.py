"""The four benchmark workloads.

Each workload generates its inputs from the seed with the public
constructors of ``pcdres``, yields ops as ``(payload, expected)``, runs one
op with :meth:`run` and checks the answer against the independent
references in :mod:`reference` with :meth:`check`.  ``expected`` is the
reference verdict; it also classifies the op as positive or negative.
:meth:`corrupt` turns a correct answer to a positive op into a wrong one,
for the negative control.  ``pass_len`` is set where the workload runs only
whole passes; ``trace_ops_per_s`` sizes the traced slice.  ``gauge`` names
the kernel in :mod:`gauge` whose work is most like the workload's ops.

Program entry points are looked up on the ``pcdres`` modules at call time,
so that the traced run sees the wrapped versions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import types

import pcdres
import reference

BIJ = pcdres.TheoryVariant.SET_BIJ
INJ = pcdres.TheoryVariant.SET_INJ
VARIANTS = (BIJ, INJ)


def _plain(m) -> tuple:
    """A ``pcdres`` morphism as the plain data the references take."""
    if isinstance(m, pcdres.FinFun):
        return (m.dom.size, m.cod.size, m.map)
    return (m.dom.size, m.cod.size, set(m.pairs()))


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _permutation(rng: random.Random, size: int) -> list[int]:
    """A uniformly random permutation of ``range(size)``: sorting by random
    keys runs in C, where ``shuffle`` makes one Python call per element."""
    keys = [rng.random() for _ in range(size)]
    return sorted(range(size), key=keys.__getitem__)


class DecideSweep:
    """Every ordered pair of functions with dom, cod <= 4, under both variants."""

    name = "decide-sweep"
    pass_len = None
    trace_ops_per_s = 4000
    gauge = "compute"

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        self.seed = seed
        self.max_size = 2 if smoke else 4

    def generate(self) -> str:
        self.funs = list(pcdres.enumerate_all_functions(self.max_size))
        self.sigs = {
            v: [reference.signature(v.value, f.map, f.cod.size, self.max_size) for f in self.funs]
            for v in VARIANTS
        }
        self.rows = [(v, i) for v in VARIANTS for i in range(len(self.funs))]
        random.Random(self.seed).shuffle(self.rows)
        return _digest([(v.value, self.funs[i].map, self.funs[i].cod.size) for v, i in self.rows])

    def warm_up(self) -> None:
        for v in VARIANTS:
            pcdres.decide(v, self.funs[0], self.funs[-1])

    def ops(self):
        funs = self.funs
        while True:
            for v, i in self.rows:
                f, sigs = funs[i], self.sigs[v]
                sf = sigs[i]
                for k, g in enumerate(funs):
                    yield (v, f, g), reference.dominates(sf, sigs[k])

    def run(self, payload):
        return pcdres.decide(*payload)

    def check(self, payload, expected, answer) -> bool:
        return answer is expected

    def corrupt(self, payload, answer):
        return not answer


class WitnessLarge:
    """The CLI ``witness`` / ``check-witness`` flow on fresh 4·10^4-point inputs.

    Ops come in passes of three: a positive flow under set-bij, one under
    set-inj, then a negative request (``witness g f``, exit 2) whose variant
    alternates.  Two positive ops to one negative keep the median op inside
    the positive ops' latencies rather than in the gap between the two
    kinds.  Every op gets a freshly generated pair.
    """

    name = "witness-large"
    pass_len = 3
    trace_ops_per_s = 0.4
    gauge = "wire"

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        self.seed = seed
        self.points = 10**3 if smoke else 4 * 10**4
        self.surplus = self.points // 4
        self.workdir = workdir

    def _pair(self, index: int):
        """``g`` random on ``points`` points; ``f`` is ``g`` plus a surplus block, conjugated."""
        rng = random.Random(f"{self.seed}:{index}")
        n, s = self.points, self.surplus
        gmap = rng.choices(range(n), k=n)
        joined = gmap + [n + y for y in rng.choices(range(s), k=s)]
        into, out = _permutation(rng, n + s), _permutation(rng, n + s)
        fmap = [0] * (n + s)
        for x, y in enumerate(joined):
            fmap[into[x]] = out[y]
        return pcdres.FinFun.from_map(fmap, n + s), pcdres.FinFun.from_map(gmap, n)

    def generate(self) -> str:
        f, g = self._pair(0)
        return _digest(f.map, g.map)

    def warm_up(self) -> None:
        pass

    def ops(self):
        for index in itertools.count():
            slot = index % 3
            kind = "neg" if slot == 2 else "pos"
            variant = ("set-bij", "set-inj")[(index // 3) % 2 if kind == "neg" else slot]
            f, g = self._pair(index)
            folder = os.path.join(self.workdir, kind)
            os.makedirs(folder, exist_ok=True)
            paths = [os.path.join(folder, name) for name in ("f.json", "g.json", "w.json")]
            for path, m in zip(paths, (f, g)):
                with open(path, "w") as fh:
                    fh.write(json.dumps(pcdres.finfun_to_dict(m)))
            fp, gp = _plain(f), _plain(g)
            if kind == "pos":
                expected = reference.convertible(variant, fp, gp)
            else:
                expected = reference.convertible(variant, gp, fp)
            yield (kind, variant, paths, fp, gp), expected

    def run(self, payload):
        kind, variant, (fpath, gpath, wpath), _, _ = payload
        main = pcdres.cli.main
        if kind == "neg":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["witness", "--variant", variant, gpath, fpath])
            return code, out.getvalue(), None
        with open(wpath, "w") as fh, contextlib.redirect_stdout(fh):
            made = main(["witness", "--variant", variant, fpath, gpath])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            checked = main(["check-witness", "--variant", variant, fpath, gpath, wpath])
        return (made, checked), out.getvalue(), wpath

    def check(self, payload, expected, answer) -> bool:
        kind, variant, _, fp, gp = payload
        codes, out, wpath = answer
        if kind == "neg":
            return not expected and codes == 2 and out == ""
        if not (expected and codes == (0, 0) and out == "valid\n"):
            return False
        with open(wpath) as fh:
            w = json.load(fh)
        parts = [(w[k]["dom"], w[k]["cod"], w[k]["map"]) for k in ("xi1", "xi2", "j")]
        return reference.replay_set(variant, fp, gp, w["Z"], *parts)

    def corrupt(self, payload, answer):
        """The same answer with the ``xi2`` image of input 0 swapped away in the witness file."""
        codes, out, wpath = answer
        with open(wpath) as fh:
            w = json.load(fh)
        fdom, fcod, fmap = payload[3]
        x = w["xi1"]["map"][0]
        t = fmap[x] if x < fdom else fcod + x - fdom
        xi2 = w["xi2"]["map"]
        u = (t + 1) % len(xi2)
        xi2[t], xi2[u] = xi2[u], xi2[t]
        bad = wpath + ".tampered"
        with open(bad, "w") as fh:
            json.dump(w, fh)
        return codes, out, bad


class OracleSearch:
    """Brute-force searches: set theories at size <= 3, rel-times at size <= 2."""

    name = "oracle-search"
    pass_len = None
    trace_ops_per_s = 30
    gauge = "compute"

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        self.seed = seed
        self.smoke = smoke

    def generate(self) -> str:
        fun_size, rel_size = (1, 1) if self.smoke else (3, 2)
        funs = list(pcdres.enumerate_all_functions(fun_size))
        bounds = pcdres.SearchBounds(3, 6, 6)
        pairs = []
        for v in VARIANTS:
            theory = pcdres.theory_for(v)
            for f in funs:
                for g in funs:
                    expected = reference.convertible(v.value, _plain(f), _plain(g))
                    pairs.append(((theory, f, g, bounds), expected))
        rels = [
            pcdres.Relation.from_pairs(d, c, [divmod(k, c) for k, hit in enumerate(bits) if hit])
            for d in range(rel_size + 1)
            for c in range(rel_size + 1)
            for bits in itertools.product((False, True), repeat=d * c)
        ]
        # The relational order is trivial: an empty junk input annihilates g,
        # so every pair converts with Z = C = D = 0.
        rel_theory = pcdres.REL_TIMES_THEORY
        pairs += [((rel_theory, f, g, None), True) for f in rels for g in rels]
        random.Random(self.seed).shuffle(pairs)
        self.pairs = pairs
        return _digest([(p[0].name, _plain(p[1]), _plain(p[2])) for p, _ in pairs])

    def warm_up(self) -> None:
        """Fill the oracle's caches of free morphisms: one negative search per shape."""
        seen = set()
        for (theory, f, g, bounds), expected in self.pairs:
            shape = (theory.name, f.dom.size, g.dom.size)
            if not expected and shape not in seen:
                seen.add(shape)
                pcdres.oracle_convertible(theory, f, g, bounds)

    def ops(self):
        while True:
            yield from self.pairs

    def run(self, payload):
        return pcdres.oracle_convertible(*payload)

    def check(self, payload, expected, answer) -> bool:
        if answer is None:
            return not expected
        if not expected:
            return False
        theory, f, g, _ = payload
        parts = [_plain(m) for m in (answer.xi1, answer.xi2, answer.j)]
        if theory is pcdres.REL_TIMES_THEORY:
            return reference.replay_rel(_plain(f), _plain(g), answer.Z.size, *parts)
        return reference.replay_set(theory.name, _plain(f), _plain(g), answer.Z.size, *parts)

    def corrupt(self, payload, answer):
        return None


class MonotoneScreen:
    """Every built-in measure screened per variant, then the complete-family checks."""

    name = "monotone-screen"
    pass_len = None  # set by generate(): this workload runs whole passes
    trace_ops_per_s = 1
    gauge = "compute"

    SIZE_LIMIT = 3

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        self.seed = seed
        self.smoke = smoke

    def generate(self) -> str:
        measures = sorted(pcdres.BUILTIN_MEASURES)
        if self.smoke:
            measures = ["phi_0"]
        ops = []
        for v in VARIANTS:
            rejected = reference.REJECTED_AT_SIZE_3[v.value]
            ops += [(("measure", v, (name,)), name not in rejected) for name in measures]
            family = tuple(mu.name for mu in pcdres.default_family(v))
            if not self.smoke:
                ops.append((("family", v, family), True))
                ops += [(("family", v, (name,)), False) for name in family]
        random.Random(self.seed).shuffle(ops)
        self.pass_ops = ops
        self.pass_len = len(ops)
        return _digest([(kind, v.value, names) for (kind, v, names), _ in ops])

    def warm_up(self) -> None:
        pass

    def ops(self):
        while True:
            yield from self.pass_ops

    def run(self, payload):
        kind, v, names = payload
        measures = [pcdres.BUILTIN_MEASURES[n] for n in names]
        if kind == "measure":
            return pcdres.check_measure(v, measures[0], self.SIZE_LIMIT)
        return pcdres.check_complete_family(v, measures, self.SIZE_LIMIT)

    def check(self, payload, expected, answer) -> bool:
        kind, v, names = payload
        if answer.passed != expected:
            return False
        if expected:
            return True
        if kind == "measure":
            conditions = (answer.additivity, answer.unit, answer.monotonicity)
            return any(not c.passed and c.counterexample for c in conditions)
        if answer.counterexample is None:
            return False
        f, g = (_plain(m) for m in answer.counterexample)
        dominated = all(
            reference.measure_value(n, f) >= reference.measure_value(n, g) for n in names
        )
        return dominated != reference.convertible(v.value, f, g)

    def corrupt(self, payload, answer):
        return types.SimpleNamespace(passed=False)


WORKLOADS = {w.name: w for w in (DecideSweep, WitnessLarge, OracleSearch, MonotoneScreen)}
