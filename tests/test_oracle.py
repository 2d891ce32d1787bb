"""Brute-force search route and its agreement with the decision procedure.

The search is the independent route: it never looks at fiber profiles, only at
the defining equation.  These tests pin its output on worked examples, compare
the one-pass discarding solver, the symmetry-reduced ``xi1`` scan and the
level pruning against plain enumeration, the pruned scan against the
filtered orbit scan, and check the order structure the search recovers.
"""

import gc
import itertools
import random
import tracemalloc
from collections import Counter
from dataclasses import astuple
from functools import lru_cache
from unittest import mock

import pytest

from pcdres import (
    FinFun,
    FinSet,
    Relation,
    THEORIES,
    SearchBounds,
    TheoryVariant,
    Witness,
    decide,
    default_bounds,
    disjoint_union,
    enumerate_all_functions,
    enumerate_functions,
    identity,
    oracle_convertible,
    preorder_lines,
    preorder_table,
    relx_convert,
    theory_for,
    witness_to_dict,
)
from pcdres import check_witness as verify_witness
from pcdres import convert
from pcdres.convert import (
    _fiber_classes,
    _first_candidate,
    _first_use,
    _free_funs,
    _map_pattern,
    _scan_levels,
    _scan_xi1,
)
from pcdres.finset import _compact_json
from pcdres.oracle import REL_TIMES_THEORY, BoundsTooTightError, TheoryInstance

MERGE = FinFun.from_map([0, 0], 1)
POINT = FinFun.from_map([0], 1)


class Wrapped:
    """A theory with some methods swapped for their plain ``TheoryInstance`` versions."""

    def __init__(self, theory):
        self.theory = theory

    def __getattr__(self, attr):
        return getattr(self.theory, attr)


class NaiveTheory(Wrapped):
    """Same theory, but discarding solved by enumerating every free wiring."""

    solve_discard = TheoryInstance.solve_discard


def scanned_levels(variant, f, g, bounds):
    """The levels the set theories' search scans."""
    return tuple(_scan_levels(
        variant, f.dom.size - g.dom.size, f.cod.size - g.cod.size,
        bounds.max_z, bounds.max_c, bounds.max_d,
    ))


class PlainScan(Wrapped):
    """Same theory, but the search tries every free ``xi1`` on its levels."""

    def candidates(self, f, g, bounds):
        for z, c in scanned_levels(self.theory, f, g, bounds):
            for xi1 in self.wirings(f, z, g.dom.size, c):
                yield z, c, xi1

    def wirings(self, f, z, a, c):
        return self.free_morphisms(a + c, f.dom.size + z)


@lru_cache(maxsize=None)
def _orbit_scan(variant, classes, z, a, c):
    n, size = len(classes) + z, a + c
    if size > n or (variant is TheoryVariant.SET_BIJ and size != n):
        return ()  # no free map of this shape
    return tuple(_scan_xi1(classes, z, a, c))


def orbit_scan(variant, f, z, a, c):
    """The free ``xi1 : a + c -> dom(f) + z`` the orbit scan keeps, solvable or not."""
    return _orbit_scan(variant, _fiber_classes(f.map), z, a, c)


class OrbitScan(PlainScan):
    """Same theory, but the search tries every ``xi1`` the orbit scan keeps, unfiltered."""

    def wirings(self, f, z, a, c):
        return orbit_scan(self.theory, f, z, a, c)


class Counted(Wrapped):
    """Same theory, counting the calls to ``solve_discard`` and to ``pad``."""

    calls = 0
    pads = 0

    def solve_discard(self, m, g, c_size, max_d):
        self.calls += 1
        return self.theory.solve_discard(m, g, c_size, max_d)

    def pad(self, f, z):
        self.pads += 1
        return self.theory.pad(f, z)


def all_relations(max_size):
    for d in range(max_size + 1):
        for c in range(max_size + 1):
            for bits in itertools.product((False, True), repeat=d * c):
                yield Relation.from_pairs(d, c, [divmod(k, c) for k, hit in enumerate(bits) if hit])


def test_each_set_variant_is_its_own_theory():
    for v in TheoryVariant:
        assert theory_for(v) is v is THEORIES[v.value]
        assert v.name == v.value


def test_search_bounds_validation():
    with pytest.raises(ValueError):
        SearchBounds(-1, 0, 0)
    with pytest.raises(ValueError):
        SearchBounds(0, 0, True)
    b = default_bounds(MERGE, POINT)
    assert b == SearchBounds(3, 5, 5)


def test_oracle_finds_the_worked_example_witness():
    w = oracle_convertible(TheoryVariant.SET_BIJ, MERGE, POINT)
    # first witness in scan order (Z, C, xi1, smallest D, least xi2); it happens
    # to coincide with the constructive one
    assert w == Witness(
        FinSet(1),
        FinFun(FinSet(3), FinSet(3), (2, 0, 1)),
        FinFun(FinSet(2), FinSet(2), (1, 0)),
        FinFun(FinSet(2), FinSet(1), (0, 0)),
    )
    assert verify_witness(TheoryVariant.SET_BIJ, MERGE, POINT, w)


def test_oracle_misses_impossible_conversions():
    assert oracle_convertible(TheoryVariant.SET_BIJ, POINT, MERGE) is None
    assert oracle_convertible(TheoryVariant.SET_INJ, POINT, MERGE) is None


def test_oracle_respects_bounds():
    # the worked example needs one auxiliary point; forbid it and the search fails
    tight = SearchBounds(0, 5, 5)
    assert oracle_convertible(TheoryVariant.SET_BIJ, MERGE, POINT, tight) is None


def test_oracle_agrees_with_decide_exhaustively():
    funs = list(enumerate_all_functions(2))
    bounds = SearchBounds(2, 4, 4)
    for variant in TheoryVariant:
        theory = theory_for(variant)
        found = 0
        for f in funs:
            for g in funs:
                w = oracle_convertible(theory, f, g, bounds)
                assert (w is not None) == decide(variant, f, g)
                if w is not None:
                    assert verify_witness(theory, f, g, w)
                    found += 1
        assert found == {TheoryVariant.SET_BIJ: 70, TheoryVariant.SET_INJ: 97}[variant]


def test_propagation_matches_plain_enumeration():
    # the fast discarding solver must reproduce the naive scan exactly:
    # same found/not-found and the same first witness
    funs = list(enumerate_all_functions(2))
    bounds = SearchBounds(2, 3, 3)
    for variant in TheoryVariant:
        # over the unfiltered orbit scan, so the naive solver also meets
        # the wirings that do not solve
        naive = NaiveTheory(OrbitScan(variant))
        fast = theory_for(variant)
        for f in funs:
            for g in funs:
                expected = oracle_convertible(naive, f, g, bounds)
                got = oracle_convertible(fast, f, g, bounds)
                assert expected == got


def test_discard_solver_matches_enumeration_reference():
    # solver against reference on every (m, g, c), not only the m some
    # canonical xi1 produces, so the one-pass pools meet arbitrary demands
    cases = 0
    for variant in TheoryVariant:
        for m_dom, m_cod in itertools.product(range(4), range(5)):
            for m in enumerate_functions(m_dom, m_cod):
                for g_dom, g_cod in itertools.product(range(m_dom + 1), range(3)):
                    for g in enumerate_functions(g_dom, g_cod):
                        c = m_dom - g_dom
                        expected = TheoryInstance.solve_discard(variant, m, g, c, 3)
                        assert variant.solve_discard(m, g, c, 3) == expected, (variant, m, g)
                        cases += 1
    assert cases == 4810


def test_symmetry_reduced_scan_matches_plain_scan():
    # the reduced scan must return the very witness the plain scan finds
    # first; dom-4 maps are the first with two fibers of size >= 2
    small = list(enumerate_all_functions(2))
    dom4 = [f for c in range(4) for f in enumerate_functions(4, c)]
    bounds = SearchBounds(2, 4, 4)
    for variant in TheoryVariant:
        plain = PlainScan(variant)
        for f in small + dom4:
            for g in small:
                expected = oracle_convertible(plain, f, g, bounds)
                assert oracle_convertible(variant, f, g, bounds) == expected, (f, g)


def _witness_json(w):
    return None if w is None else _compact_json(witness_to_dict(w))


def test_indexed_search_matches_orbit_scan():
    # the pruned scan yields only the wirings that solve, so each positive
    # search calls solve_discard once and each negative never, and f + 1_Z
    # is built only for a wiring to try: once or never; the witness bytes
    # are those of the orbit scan that tries every orbit-least wiring
    funs = list(enumerate_all_functions(3))
    cases = [
        (bounds, variant, f, g)
        for bounds in (SearchBounds(3, 6, 6), SearchBounds(1, 2, 1), SearchBounds(2, 4, 0))
        for variant in TheoryVariant
        for f in funs
        for g in funs
    ]
    expected = [_witness_json(oracle_convertible(OrbitScan(v), f, g, b)) for b, v, f, g in cases]
    _first_candidate.cache_clear()
    tally = {True: Counter(), False: Counter()}
    for (bounds, variant, f, g), want in zip(cases, expected):
        counted = Counted(variant)
        got = _witness_json(oracle_convertible(counted, f, g, bounds))
        assert got == want, (bounds, variant, f, g)
        tally[got is not None][counted.calls, counted.pads] += 1
    assert tally == {True: {(1, 1): 9587}, False: {(0, 0): 12013}}
    _first_candidate.cache_clear()


def _class_representatives(n):
    """One function per class ``(dom, cod, sorted fiber sizes)`` of size <= ``n``.

    Every bijection is free in both set theories, so the oracle's answer
    depends only on the classes of ``f`` and ``g``.
    """
    reps = {}
    for f in enumerate_all_functions(n):
        reps.setdefault((f.dom.size, f.cod.size, tuple(sorted(Counter(f.map).values()))), f)
    return list(reps.values())


def test_oracle_agrees_with_decide_on_size_5_classes():
    reps = _class_representatives(5)
    assert len(reps) == 72
    bounds = SearchBounds(5, 10, 10)
    for variant, count in ((TheoryVariant.SET_BIJ, 1347), (TheoryVariant.SET_INJ, 2830)):
        found = 0
        for f in reps:
            for g in reps:
                w = oracle_convertible(variant, f, g, bounds)
                assert (w is not None) == decide(variant, f, g), (variant, f, g)
                if w is not None:
                    assert verify_witness(variant, f, g, w), (variant, f, g)
                    found += 1
        assert found == count


def _relabelings(classes):
    """Brute force: every relabeling of a codomain that the symmetries allow.

    Points move within their class, and whole fibers (classes other than
    -1) move onto fibers of equal size, members in any order.
    """
    pools = {}
    for x, k in enumerate(classes):
        pools.setdefault(k, []).append(x)
    singles = pools.pop(-1, [])
    fibers = list(pools.values())
    relabelings = []
    for targets in itertools.permutations(fibers):
        if any(len(t) != len(fiber) for t, fiber in zip(targets, fibers)):
            continue
        for images in itertools.product(
            itertools.permutations(singles), *map(itertools.permutations, targets)
        ):
            sigma = {}
            for pool, image in zip([singles, *fibers], images):
                sigma.update(zip(pool, image))
            relabelings.append(sigma)
    return relabelings


def _least_in_orbit(xi1, relabelings, a):
    """Brute force: the least image of ``xi1`` under the ``relabelings`` of its
    codomain and reorderings of its inputs from position ``a`` on (for each
    relabeling the sorted tail is the least reordering)."""
    head, tail = xi1.map[:a], xi1.map[a:]
    return min(
        tuple(sigma[x] for x in head) + tuple(sorted(sigma[x] for x in tail))
        for sigma in relabelings
    )


def _orbit_least_candidates(variant, f, z, a, c):
    """The plain scan's free maps that are least in their orbit, in scan order."""
    relabelings = _relabelings(_fiber_classes(f.map) + (-1,) * z)
    return [
        xi1
        for xi1 in variant.free_morphisms(a + c, f.dom.size + z)
        if xi1.map == _least_in_orbit(xi1, relabelings, a)
    ]


def test_xi1_candidates_are_the_orbit_representatives():
    # exactly the free maps least in their orbit, in the plain scan's order;
    # one map per fiber partition of up to four points
    shapes = {_fiber_classes(f.map): f for f in enumerate_all_functions(4)}
    assert len(shapes) == 1 + 1 + 2 + 5 + 15
    for f in shapes.values():
        for variant in TheoryVariant:
            for z, a, c in itertools.product(range(2), range(3), range(3)):
                expected = _orbit_least_candidates(variant, f, z, a, c)
                assert list(orbit_scan(variant, f, z, a, c)) == expected


# three 2-fibers and two 3-fibers, with fibers laid out in blocks and interleaved
TWIN_FIBERS = [
    FinFun.from_map([0, 0, 1, 1, 2, 2], 3),
    FinFun.from_map([0, 1, 2, 2, 1, 0], 3),
    FinFun.from_map([0, 0, 0, 1, 1, 1], 2),
    FinFun.from_map([0, 1, 1, 0, 1, 0], 2),
]


def test_xi1_candidates_are_the_orbit_representatives_across_equal_fibers():
    # fibers of equal size swap whole; a C block of three or more inputs
    # can spread its uses over them unevenly, which the opening order alone
    # does not make least, so the scan may keep more than one map of such
    # an orbit.  It must keep every orbit-least map, only free maps, and
    # the plain scan's order.  Z points only join the singleton class,
    # which the test above covers, so Z = 0 here keeps the brute force quick.
    cases = 0
    for f in TWIN_FIBERS:
        for variant in TheoryVariant:
            for a, c in itertools.product(range(3), range(3, 5)):
                plain = {m: i for i, m in enumerate(variant.free_morphisms(a + c, f.dom.size))}
                got = orbit_scan(variant, f, 0, a, c)
                expected = _orbit_least_candidates(variant, f, 0, a, c)
                assert set(expected) <= set(got), (f, variant, a, c)
                assert all(variant.is_free(m) for m in got), (f, variant, a, c)
                order = [plain[m] for m in got]
                assert order == sorted(set(order)), (f, variant, a, c)
                cases += len(expected)
    assert cases == 68


def _fibers_of_two(k):
    return FinFun.from_map([i // 2 for i in range(2 * k)], k)


def test_equal_fibers_cut_the_wirings_of_f_equals_g():
    # 10!/(2^5 5!) and 12!/(2^6 6!): one wiring per way to pair up the points
    for k, count in ((5, 945), (6, 10_395)):
        f = _fibers_of_two(k)
        for variant in TheoryVariant:
            got = orbit_scan(variant, f, 0, f.dom.size, 0)
            assert len(got) == count
            assert got[0] == identity(f.dom)
            # with g = f the wirings that solve send fibers onto fibers,
            # and they form one orbit
            assert list(variant.candidates(f, f, SearchBounds(0, 0, 0))) == [(0, 0, got[0])]


def _solvable(scan, classes, z, a, want, limit):
    """The wirings of ``scan`` that pass the three tests of the sixth reduction.

    Each fiber of ``f`` is named by its class, and each singleton-fiber or
    ``Z`` point by itself past them.  A wiring passes when the fibers its
    first ``a`` images hit form the pattern ``want``, the rest hit none of
    them, and the rest hit at most ``limit`` fibers.
    """
    n = len(classes)
    fibers = tuple(k if k >= 0 else n + x for x, k in enumerate(classes + (-1,) * z))
    for xi1 in scan:
        hit = [fibers[x] for x in xi1.map]
        junk = set(hit[a:])
        if _first_use(hit[:a]) == want and junk.isdisjoint(hit[:a]) and len(junk) <= limit:
            yield xi1


def _large_shape_patterns():
    """Eight points in four 2-fibers, and one g per way six inputs can hit fibers of ``f + 1_Z``.

    That is each partition of six points into blocks of at most two.
    """
    f = _fibers_of_two(4)
    patterns = {_first_use(m) for m in itertools.product(range(6), repeat=6)}
    gs = [FinFun.from_map(p, 6) for p in patterns if max(Counter(p).values()) <= 2]
    return f, gs


def test_pruned_scan_is_the_filtered_orbit_scan():
    # every fiber partition of up to four points, Z <= 2, every shape with a
    # free map under set-inj (set-bij's are among them), every first-use
    # pattern of the g-block and junk limits 0-3; then the 210-wiring shape
    cases = []
    for classes in {_fiber_classes(f.map) for f in enumerate_all_functions(4)}:
        for z in range(3):
            n = len(classes) + z
            for a, c in itertools.product(range(n + 1), repeat=2):
                if a + c <= n:
                    patterns = {_first_use(p) for p in itertools.product(range(a), repeat=a)}
                    cases += [(classes, z, a, c, want) for want in patterns]
    f, gs = _large_shape_patterns()
    large = [(_fiber_classes(f.map), 1, 6, 3, _map_pattern(g.map)) for g in gs]
    assert len(cases) == 9288 and len(large) == 76
    kept = 0
    for classes, z, a, c, want in cases + large:
        scan = list(_scan_xi1(classes, z, a, c))
        for limit in range(4):
            pruned = list(_scan_xi1(classes, z, a, c, want, limit))
            assert pruned == list(_solvable(scan, classes, z, a, want, limit)), (
                classes, z, a, c, want, limit
            )
            kept += len(pruned)
    assert kept > 0


def test_large_shapes_stream_in_the_cached_order():
    # the one candidate, cold and cached, is the first of the filtered orbit
    # scan, level by level, on a shape of 210 orbit-least wirings
    f, gs = _large_shape_patterns()
    classes = _fiber_classes(f.map)
    assert len(orbit_scan(TheoryVariant.SET_INJ, f, 1, 6, 3)) == 210
    assert len(gs) == 76
    variant = TheoryVariant.SET_INJ
    at_the_shape = 0
    for g in gs:
        a, want = g.dom.size, _map_pattern(g.map)
        # levels up to Z = 1, C = 3, the shape above
        for bounds in (SearchBounds(1, 3, 2), SearchBounds(1, 3, 6)):
            expected = []
            for z, c in scanned_levels(variant, f, g, bounds):
                limit = variant._junk_limit(f.cod.size + z - g.cod.size, bounds.max_d)
                scan = orbit_scan(variant, f, z, a, c)
                expected += [(z, c, xi1) for xi1 in _solvable(scan, classes, z, a, want, limit)]
            _first_candidate.cache_clear()
            assert list(variant.candidates(f, g, bounds)) == expected[:1], (g, bounds)
            assert list(variant.candidates(f, g, bounds)) == expected[:1], (g, bounds)
            at_the_shape += sum(1 for z, c, _ in expected if (z, c) == (1, 3))
    assert at_the_shape > 10
    _first_candidate.cache_clear()


def every_level(variant, room, spare, max_z, max_c, max_d):
    """Every level within bounds that has a free ``xi1``, whatever ``xi2`` needs."""
    for z, c in itertools.product(range(max_z + 1), range(max_c + 1)):
        if c <= room + z and (variant is TheoryVariant.SET_INJ or c == room + z):
            yield z, c


class PlainLevels(Wrapped):
    """Same theory, but the search scans every level within bounds with a free ``xi1``.

    A level with no free ``xi1`` holds no candidate of the plain scan, and
    the orbit scan is never asked for a shape with no free map.
    """

    def candidates(self, f, g, bounds):
        with mock.patch.object(convert, "_scan_levels", every_level):
            yield from self.theory.candidates(f, g, bounds)


def test_level_pruning_keeps_the_first_witness():
    # the set theories skip levels with no free xi1 or xi2 from sizes alone;
    # the scan of every level must find the very same witness
    small = list(enumerate_all_functions(2))
    dom4 = [f for c in range(4) for f in enumerate_functions(4, c)]
    for bounds in (
        SearchBounds(2, 4, 4),
        SearchBounds(0, 0, 0),
        SearchBounds(1, 2, 0),
        SearchBounds(3, 1, 2),
    ):
        for variant in TheoryVariant:
            plain = PlainLevels(variant)
            for f in small + dom4:
                for g in small:
                    # each search fills its first candidate afresh, so neither
                    # reads the one the other found
                    _first_candidate.cache_clear()
                    expected = oracle_convertible(plain, f, g, bounds)
                    _first_candidate.cache_clear()
                    assert oracle_convertible(variant, f, g, bounds) == expected, (bounds, f, g)


def reference_levels(variant, f, g, bounds):
    """The set theories' levels as a plain generator, written out from the sizes."""
    for z in range(bounds.max_z + 1):
        spare = f.cod.size + z - g.cod.size
        if spare > bounds.max_d:
            return
        room = f.dom.size + z - g.dom.size
        if variant is TheoryVariant.SET_INJ:
            for c in range(min(room, bounds.max_c) + 1):
                yield z, c
        elif spare >= 0 and 0 <= room <= bounds.max_c:
            yield z, room


def test_scan_levels_match_the_reference():
    # levels read sizes alone, so one function per (dom, cod) stands for all
    shapes = [
        FinFun.from_map([0] * d, c) for d in range(5) for c in range(5) if c or not d
    ]
    assert len(shapes) == 21  # a nonempty domain needs a codomain point
    for bounds in (
        SearchBounds(0, 0, 0),
        SearchBounds(1, 2, 1),
        SearchBounds(2, 4, 0),
        SearchBounds(3, 1, 2),
        SearchBounds(3, 6, 6),
    ):
        for variant in TheoryVariant:
            for f in shapes:
                for g in shapes:
                    expected = list(reference_levels(variant, f, g, bounds))
                    assert list(scanned_levels(variant, f, g, bounds)) == expected, (bounds, f, g)


def test_every_scanned_level_has_a_free_xi1_and_room_for_junk():
    # the search reads each level's index and rule on D without a guard, so
    # every level must admit a free xi1 and some free xi2
    levels = 0
    for variant in TheoryVariant:
        bij = variant is TheoryVariant.SET_BIJ
        for room, spare in itertools.product(range(-4, 6), repeat=2):
            for max_z, max_c, max_d in itertools.product(range(4), range(6), range(6)):
                for z, c in _scan_levels(variant, room, spare, max_z, max_c, max_d):
                    assert 0 <= c <= max_c and 0 <= z <= max_z
                    assert c == room + z if bij else c <= room + z
                    assert variant._junk_limit(spare + z, max_d) >= 0
                    levels += 1
    assert levels == 46_830


def test_huge_bounds_stream_their_levels():
    huge = SearchBounds(10**6, 10**6, 10**6)
    f, g = FinFun.from_map([0, 0, 1], 2), POINT
    reference = list(itertools.islice(reference_levels(TheoryVariant.SET_INJ, f, g, huge), 400))
    gc.collect()
    tracemalloc.start()
    try:
        levels = _scan_levels(
            TheoryVariant.SET_INJ, f.dom.size - g.dom.size, f.cod.size - g.cod.size, *astuple(huge)
        )
        pulled = list(itertools.islice(levels, 400))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the levels come in the order of the plain scan, and none is held
    assert pulled == reference and peak < 2**20
    _first_candidate.cache_clear()
    # the second pair's set-bij witness needs Z = 2, C = 2 and D = 1
    for g in (POINT, identity(FinSet(2))):
        for variant in TheoryVariant:
            w = oracle_convertible(variant, MERGE, g, huge)
            assert w is not None
            assert w == oracle_convertible(variant, MERGE, g, SearchBounds(3, 6, 6))


def test_oracle_agrees_with_decide_on_a_size_4_sample():
    funs = list(enumerate_all_functions(4))
    assert len(funs) == 499
    bounds = SearchBounds(4, 8, 8)
    rng = random.Random(4)
    for variant in TheoryVariant:
        for _ in range(2000):
            f, g = rng.choice(funs), rng.choice(funs)
            w = oracle_convertible(variant, f, g, bounds)
            assert (w is not None) == decide(variant, f, g), (variant, f, g)
            if w is not None:
                assert verify_witness(variant, f, g, w), (variant, f, g)


def test_oracle_caches_stay_small():
    # the size <= 3 sweep at bounds (3, 6, 6) leaves under 0.5 MB behind
    funs = list(enumerate_all_functions(3))
    bounds = SearchBounds(3, 6, 6)
    caches = (_first_candidate, _map_pattern, _fiber_classes, _free_funs)
    for cache in caches:
        cache.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for variant in TheoryVariant:
            for f in funs:
                for g in funs:
                    oracle_convertible(variant, f, g, bounds)
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 0.5 * 2**20


def test_a_seen_key_answers_without_levels_or_index(monkeypatch):
    # a 2-fiber and a singleton never give a 3-fiber; the twins relabel
    # both maps, so they share the class-level key
    f, g = FinFun.from_map([0, 0, 1], 2), FinFun.from_map([0, 0, 0], 2)
    twins = FinFun.from_map([1, 1, 0], 2), FinFun.from_map([1, 1, 1], 2)
    bounds = SearchBounds(3, 6, 6)
    calls = Counter()

    def counted(name):
        real = getattr(convert, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(convert, name, wrapper)

    counted("_scan_levels")
    counted("_scan_xi1")

    def lookups():
        return calls["_scan_levels"], calls["_scan_xi1"]

    for variant in TheoryVariant:
        _first_candidate.cache_clear()
        before = lookups()
        assert oracle_convertible(variant, f, g, bounds) is None
        seen = lookups()
        assert all(map(int.__gt__, seen, before))
        for pair in ((f, g), twins):
            assert oracle_convertible(variant, *pair, bounds) is None
        assert lookups() == seen
        info = _first_candidate.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 2)
    _first_candidate.cache_clear()


def test_keys_apart_in_one_size_are_separate_entries():
    f = FinFun.from_map([0, 0, 1], 3)
    gs = [FinFun.from_map([0], n) for n in (1, 2, 3)]  # cod(f) - cod(g) is 2, 1, 0
    base = SearchBounds(2, 4, 4)
    bounds = [base] + [
        SearchBounds(*(v - 1 if i == k else v for i, v in enumerate(astuple(base))))
        for k in range(3)
    ]
    for variant in TheoryVariant:
        _first_candidate.cache_clear()
        found = set()
        for g in gs:
            for b in bounds:
                got = _witness_json(oracle_convertible(variant, f, g, b))
                assert got == _witness_json(oracle_convertible(OrbitScan(variant), f, g, b))
                found.add(got)
        assert _first_candidate.cache_info().currsize == len(gs) * len(bounds)
        assert len(found) == 3  # the entries do not all answer alike
    _first_candidate.cache_clear()


def test_a_full_first_candidate_cache_stays_near_a_mebibyte():
    # fresh maps of up to five points, so that most entries hold key tuples
    # no other entry shares
    funs = list(enumerate_all_functions(5))
    rng = random.Random(5)
    bounds = SearchBounds(0, 2, 2)
    _first_candidate.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        while _first_candidate.cache_info().currsize < _first_candidate.cache_info().maxsize:
            f, g = rng.choice(funs), rng.choice(funs)
            for variant in TheoryVariant:
                oracle_convertible(variant, f, g, bounds)
        _fiber_classes.cache_clear()
        _map_pattern.cache_clear()
        gc.collect()
        full, _ = tracemalloc.get_traced_memory()
        _first_candidate.cache_clear()
        gc.collect()
        empty, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _first_candidate.cache_info().maxsize == convert._KEPT_FIRSTS == 4096
    assert 0.5 * 2**20 < full - empty < 1.25 * 2**20


def test_cached_witnesses_match_fresh_searches():
    # every size <= 3 witness, cached or not, is the one a search finds
    # with the cache cleared before it
    funs = list(enumerate_all_functions(3))
    for bounds in (
        SearchBounds(0, 0, 0),
        SearchBounds(1, 2, 1),
        SearchBounds(2, 4, 0),
        SearchBounds(3, 6, 6),
        SearchBounds(4, 8, 8),
    ):
        for variant in TheoryVariant:
            _first_candidate.cache_clear()
            cached = [oracle_convertible(variant, f, g, bounds) for f in funs for g in funs]
            assert _first_candidate.cache_info().hits > 0
            fresh = []
            for f in funs:
                for g in funs:
                    _first_candidate.cache_clear()
                    fresh.append(oracle_convertible(variant, f, g, bounds))
            assert list(map(_witness_json, cached)) == list(map(_witness_json, fresh)), bounds
    _first_candidate.cache_clear()


def test_verify_witness_rejects_tampering():
    w = oracle_convertible(TheoryVariant.SET_BIJ, MERGE, POINT)
    assert verify_witness(TheoryVariant.SET_BIJ, MERGE, POINT, w)
    bad_aux = Witness(FinSet(2), w.xi1, w.xi2, w.j)
    assert not verify_witness(TheoryVariant.SET_BIJ, MERGE, POINT, bad_aux)
    not_free = Witness(w.Z, w.xi1, FinFun(FinSet(2), FinSet(2), (0, 0)), w.j)
    assert not verify_witness(TheoryVariant.SET_BIJ, MERGE, POINT, not_free)
    wrong_eq = Witness(w.Z, w.xi1, FinFun(FinSet(2), FinSet(2), (0, 1)), w.j)
    assert not verify_witness(TheoryVariant.SET_BIJ, MERGE, POINT, wrong_eq)


# -- preorder tables ---------------------------------------------------------


def test_preorder_table_matches_decide():
    table = preorder_table(TheoryVariant.SET_BIJ, 2, SearchBounds(2, 4, 4))
    assert len(table) == 70
    for f, g in table:
        assert decide(TheoryVariant.SET_BIJ, f, g)


def test_preorder_table_size_one():
    assert len(preorder_table(TheoryVariant.SET_BIJ, 1)) == 7
    # with injections free an unhit output is disposable, so all three
    # morphisms up to size 1 collapse into one class
    assert len(preorder_table(TheoryVariant.SET_INJ, 1)) == 9


def test_preorder_table_raises_on_tight_bounds():
    # bounds that admit two legs of a composite conversion but not the composite
    with pytest.raises(RuntimeError) as exc:
        preorder_table(TheoryVariant.SET_BIJ, 2, SearchBounds(1, 2, 1))
    assert str(exc.value) == (
        "preorder table is not transitive at FinFun([0, 0]: 2 -> 2) -> FinFun([]: 0 -> 1) "
        "-> FinFun([]: 0 -> 0); widen bounds"
    )


class NoDiscard(Wrapped):
    """Same theory, but the discarding side never solves."""

    def solve_discard(self, m, g, c_size, max_d):
        return None


def test_preorder_table_raises_when_not_reflexive():
    with pytest.raises(BoundsTooTightError) as exc:
        preorder_table(NoDiscard(TheoryVariant.SET_BIJ), 0)
    assert str(exc.value) == (
        "preorder table is not reflexive at FinFun([]: 0 -> 0); widen bounds"
    )


def test_preorder_lines_format():
    lines = preorder_lines(preorder_table(TheoryVariant.SET_BIJ, 1))
    assert len(lines) == 7
    assert lines[0] == '{"dom":0,"cod":0,"map":[]} >= {"dom":0,"cod":0,"map":[]}'
    assert lines[-1] == '{"dom":1,"cod":1,"map":[0]} >= {"dom":1,"cod":1,"map":[0]}'
    assert lines == sorted(lines)


def test_tensor_compatibility_through_the_oracle():
    # conversions combine in parallel; check it on the oracle route at size 1
    funs = list(enumerate_all_functions(1))
    for variant in TheoryVariant:
        theory = theory_for(variant)
        pairs = [
            (f, g)
            for f in funs
            for g in funs
            if oracle_convertible(theory, f, g) is not None
        ]
        for f1, g1 in pairs:
            for f2, g2 in pairs:
                big_f, big_g = disjoint_union(f1, f2), disjoint_union(g1, g2)
                assert oracle_convertible(theory, big_f, big_g) is not None


# -- the relational theory ---------------------------------------------------


def test_relx_convert_closed_form():
    f = Relation.from_pairs(2, 2, [(0, 0), (0, 1), (1, 0)])
    g = Relation.from_pairs(1, 1, [])
    w = relx_convert(f, g)
    assert w.Z == FinSet(1)
    assert w.xi1 == Relation.from_pairs(0, 2, [])
    assert w.xi2 == Relation.from_pairs(2, 1, [(0, 0), (1, 0)])
    assert w.j == Relation.from_pairs(0, 1, [])
    assert verify_witness(REL_TIMES_THEORY, f, g, w)


def test_relx_convert_empty_codomains():
    nothing = Relation.from_pairs(0, 0, [])
    into_empty = Relation.from_pairs(2, 0, [])
    w = relx_convert(into_empty, nothing)
    assert verify_witness(REL_TIMES_THEORY, into_empty, nothing, w)
    # no constant map from a nonempty codomain into an empty one: the
    # all-empty witness Z = C = D = 0 converts instead
    unhit = Relation.from_pairs(0, 1, [])
    w = relx_convert(unhit, into_empty)
    assert w == Witness(FinSet(0), nothing, nothing, nothing)
    assert verify_witness(REL_TIMES_THEORY, unhit, into_empty, w)


def test_relx_convert_covers_every_eligible_pair():
    rels = list(all_relations(1))
    assert len(rels) == 5
    for f in rels:
        for g in rels:
            w = relx_convert(f, g)
            assert verify_witness(REL_TIMES_THEORY, f, g, w)


def test_relational_preorder_is_complete():
    rels = list(all_relations(1))
    table = preorder_table(REL_TIMES_THEORY, 1)
    assert len(table) == len(rels) ** 2 == 25
