"""Independent correctness references for the benchmark.

Nothing here imports ``pcdres``.  Processes arrive as plain data: a function
is ``(dom, cod, map)`` with ``map`` a sequence of ints, a relation is
``(dom, cod, pairs)`` with ``pairs`` a set of ``(x, y)`` tuples.  The
criterion works from fiber histograms of the raw maps; the replays check the
defining equation ``xi2 . (f + 1_Z) . xi1 = g + j`` with lists (functions)
or sets of pairs (relations), and check freeness by counting preimages.
"""

from __future__ import annotations

# Every pair of functions with dom, cod <= 3 that converts, per variant.
CONVERTIBLE_AT_SIZE_3 = {"set-bij": 1727, "set-inj": 2556}

# Measures that check_measure must reject at size limit 3; all others pass.
#  set-bij: free bijections preserve every fiber, so phi_i and gamma_i are
#   monotone; phi_1, gamma_0, gamma_1, dom and cod size are nonzero on
#   identities.
#  set-inj: pre-composing with an injection shrinks fibers and
#   post-composing adds unhit points, so phi_0 and phi_i (a size-(i+1) fiber
#   shrinks to size i, possible while i + 1 <= 3) fail monotonicity; phi_3..8
#   pass only because no fiber of size >= 4 exists at this limit.
REJECTED_AT_SIZE_3 = {
    "set-bij": {"phi_1", "gamma_0", "gamma_1", "dom_size", "cod_size"},
    "set-inj": {"phi_0", "phi_1", "phi_2", "gamma_0", "gamma_1", "dom_size", "cod_size"},
}


def fiber_sizes(fmap, cod: int) -> list[int]:
    sizes = [0] * cod
    for y in fmap:
        sizes[y] += 1
    return sizes


def signature(variant: str, fmap, cod: int, top: int) -> tuple[int, ...]:
    """The fiber counts that the variant's criterion compares; fibers have size <= ``top``.

    set-bij: how many outputs have exactly ``i`` preimages, ``i != 1``.
    set-inj: how many outputs have at least ``i`` preimages, ``i >= 2``.
    """
    hist = [0] * (top + 1)
    for s in fiber_sizes(fmap, cod):
        hist[s] += 1
    if variant == "set-bij":
        return tuple(n for i, n in enumerate(hist) if i != 1)
    tails, running = [], 0
    for n in reversed(hist[2:]):
        running += n
        tails.append(running)
    return tuple(reversed(tails))


def dominates(sig_f: tuple[int, ...], sig_g: tuple[int, ...]) -> bool:
    return all(a >= b for a, b in zip(sig_f, sig_g))


def convertible(variant: str, f, g) -> bool:
    """Whether ``f`` converts to ``g``; ``f`` and ``g`` are ``(dom, cod, map)``."""
    top = max((*fiber_sizes(f[2], f[1]), *fiber_sizes(g[2], g[1]), 0))
    return dominates(signature(variant, f[2], f[1], top), signature(variant, g[2], g[1], top))


def measure_value(name: str, f) -> int:
    """The built-in measure ``name`` (``phi_i``/``gamma_i``) on ``f = (dom, cod, map)``."""
    kind, i = name.split("_")
    sizes = fiber_sizes(f[2], f[1])
    if kind == "phi":
        return sum(1 for s in sizes if s == int(i))
    return sum(1 for s in sizes if s >= int(i))


def _is_free(variant: str, m) -> bool:
    dom, cod, mmap = m
    if len(mmap) != dom or any(not 0 <= y < cod for y in mmap):
        return False
    hits = fiber_sizes(mmap, cod)
    if variant == "set-bij":
        return dom == cod and all(h == 1 for h in hits)
    return all(h <= 1 for h in hits)


def replay_set(variant: str, f, g, z: int, xi1, xi2, j) -> bool:
    """Replay a function witness; every morphism is ``(dom, cod, map)``."""
    fdom, fcod, fmap = f
    gdom, gcod, gmap = g
    jdom, jcod, jmap = j
    if xi1[0] != gdom + jdom or xi1[1] != fdom + z:
        return False
    if xi2[0] != fcod + z or xi2[1] != gcod + jcod:
        return False
    if len(jmap) != jdom or any(not 0 <= y < jcod for y in jmap):
        return False
    if not (_is_free(variant, xi1) and _is_free(variant, xi2)):
        return False
    padded = list(fmap) + list(range(fcod, fcod + z))
    xi2map = xi2[2]
    left = [xi2map[padded[x]] for x in xi1[2]]
    right = list(gmap) + [gcod + y for y in jmap]
    return left == right


def _is_graph(r) -> bool:
    dom, _, pairs = r
    outs = [0] * dom
    for x, _y in pairs:
        outs[x] += 1
    return all(n == 1 for n in outs)


def _then(first: set, second: set) -> set:
    """Relational composite: apply ``first``, then ``second``."""
    return {(a, c) for a, b in first for b2, c in second if b == b2}


def replay_rel(f, g, z: int, xi1, xi2, j) -> bool:
    """Replay a witness of the relational theory over cartesian products.

    Every relation is ``(dom, cod, pairs)``; pair ``(x, a)`` of ``X x A``
    has index ``x * |A| + a``.
    """
    fdom, fcod, fpairs = f
    gdom, gcod, gpairs = g
    jdom, jcod, jpairs = j
    if xi1[0] != gdom * jdom or xi1[1] != fdom * z:
        return False
    if xi2[0] != fcod * z or xi2[1] != gcod * jcod:
        return False
    if not (_is_graph(xi1) and _is_graph(xi2)):
        return False
    padded = {(x * z + k, y * z + k) for x, y in fpairs for k in range(z)}
    left = _then(_then(set(xi1[2]), padded), set(xi2[2]))
    right = {(a * jdom + c, b * jcod + d) for a, b in gpairs for c, d in jpairs}
    return left == right


def self_check() -> bool:
    """Cross-check :func:`convertible` against the known counts at size <= 3."""
    import itertools

    funs = [
        (d, c, m)
        for d in range(4)
        for c in range(4)
        for m in itertools.product(range(c), repeat=d)
    ]
    for variant, expected in CONVERTIBLE_AT_SIZE_3.items():
        sigs = [signature(variant, m, c, 3) for _, c, m in funs]
        found = sum(dominates(a, b) for a in sigs for b in sigs)
        if found != expected:
            return False
    return True
