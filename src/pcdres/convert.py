"""Deciding convertibility between finite-set processes and building witnesses.

A process ``f`` converts to ``g`` when ``g`` (padded with some junk output
``j``) can be recovered from ``f`` by running it alongside an untouched
auxiliary system ``Z`` and wiring it up with free pre- and post-processing:

    xi2 . (f + 1_Z) . xi1  =  g + j

with ``xi1 : dom(g) + dom(j) -> dom(f) + Z`` and
``xi2 : cod(f) + Z -> cod(g) + cod(j)`` drawn from the free subtheory.  Two
free subtheories are supported: all bijections and all injections.

Convertibility is characterized by fiber statistics.  With bijections free,
``f`` converts to ``g`` exactly when the multiplicity profile of ``f``
dominates that of ``g`` away from index 1 (singleton fibers are exactly what
padding with identities can create).  With injections free, domination of the
tail profiles away from indices 0 and 1 is the criterion (injections can also
invent fresh unhit outputs).  :func:`decide` applies the criterion straight
to the two sides' fiber-size counts: pointwise away from index 1 under
set-bij, and under set-inj on running tail sums taken from the largest
fiber size down to 2, stopping at the first index that fails.  No normal
form is built for it.  :func:`witness` builds an explicit
``(Z, xi1, xi2, j)`` tuple realizing it.

Each :class:`TheoryVariant` member is one whole theory: besides the
criterion it carries the category operations, the wire format and the
discarding solver that the brute-force search in :mod:`pcdres.oracle` runs.
:class:`TheoryInstance` is the protocol every theory meets, and
:func:`check_witness` replays the equation in any of them.
"""

from __future__ import annotations

import enum
import itertools
from collections import Counter, defaultdict
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

from .finset import (
    FinFun,
    FinSet,
    FormatError,
    Relation,
    compose,
    disjoint_union,
    enumerate_bijections,
    enumerate_functions,
    enumerate_injections,
    finfun_from_dict,
    finfun_to_dict,
    is_bijection,
    is_injection,
    reject_unknown_fields,
    relation_to_dict,
)
from .profiles import Profile, fiber_sizes, realize_profile, size_counts


class NotConvertibleError(ValueError):
    """Raised when a witness is requested for a pair that fails :func:`decide`."""


class TheoryInstance:
    """Category operations plus a free subtheory, enough to run the search.

    The :class:`TheoryVariant` members and the oracle's relational theory
    implement it; ``check_witness`` also reads ``morphism_type``, and the
    command line calls ``witness(f, g)`` and the two ``*_from_dict`` decoders.
    The oracle's search tries the candidates ``(Z, C, xi1)`` that
    ``candidates`` yields: every level and every free morphism by default.
    The set theories narrow that to the levels where free wirings exist
    and to the wirings that solve among those their orbit scan keeps; the
    :mod:`pcdres.oracle` docstring states the contract.
    """

    name: str
    morphism_type: type

    def compose(self, late, early):
        raise NotImplementedError

    def tensor(self, f, g):
        raise NotImplementedError

    def obj_tensor(self, x: FinSet, y: FinSet) -> FinSet:
        raise NotImplementedError

    def pad(self, f, z: FinSet):
        """``f (x) 1_Z``, the process run beside an untouched auxiliary system."""
        raise NotImplementedError

    def morphisms(self, dom: FinSet, cod: FinSet):
        """All processes of the theory between the given objects."""
        raise NotImplementedError

    def free_morphisms(self, dom: FinSet, cod: FinSet):
        raise NotImplementedError

    def candidates(self, f, g, bounds) -> Iterator[tuple[int, int, object]]:
        """The ``(Z, C, xi1)`` the search tries, in scan order.

        Default: every level within ``bounds``, ``Z`` ascending then ``C``,
        and on each every free ``xi1 : dom(g) (x) C -> dom(f) (x) Z``.  A
        theory may leave out any candidate whose omission keeps the first
        witness; the :mod:`pcdres.oracle` docstring states the contract.
        """
        for z in range(bounds.max_z + 1):
            cod = self.obj_tensor(f.dom, FinSet(z))
            for c in range(bounds.max_c + 1):
                for xi1 in self.free_morphisms(self.obj_tensor(g.dom, FinSet(c)), cod):
                    yield z, c, xi1

    def is_free(self, m) -> bool:
        raise NotImplementedError

    def split_tensor(self, h, g, c_size: int, d_size: int):
        """Recover ``j`` with ``h = g (x) j``, or None if ``h`` does not split."""
        raise NotImplementedError

    def solve_discard(self, m, g, c_size: int, max_d: int):
        """Free ``xi2`` with ``xi2 . m = g (x) j`` for some ``j``, or None.

        Default: enumerate free candidates for each junk codomain size.
        """
        for d in range(max_d + 1):
            target = self.obj_tensor(g.cod, FinSet(d))
            for xi2 in self.free_morphisms(m.cod, target):
                h = self.compose(xi2, m)
                j = self.split_tensor(h, g, c_size, d)
                if j is not None:
                    return xi2, j
        return None


class TheoryVariant(TheoryInstance, enum.Enum):
    """Finite functions under disjoint union, with bijections or injections free.

    Each member is the whole theory: its category operations and wire
    format, its free morphisms, the profile criterion :func:`decide` applies,
    and the discarding solver the oracle's search calls.
    """

    SET_BIJ = "set-bij"
    SET_INJ = "set-inj"

    @property
    def name(self) -> str:
        """The ``--variant`` name, which also keys ``oracle.THEORIES``."""
        return self.value

    @property
    def morphism_type(self) -> type:
        return FinFun

    @property
    def excluded_indices(self) -> frozenset[int]:
        """Profile indices that free padding can change, hence carry no information."""
        return frozenset({1}) if self is TheoryVariant.SET_BIJ else frozenset({0, 1})

    def witness(self, f: FinFun, g: FinFun) -> Witness:
        return witness(self, f, g)

    def compose(self, late: FinFun, early: FinFun) -> FinFun:
        return compose(late, early)

    def tensor(self, f: FinFun, g: FinFun) -> FinFun:
        return disjoint_union(f, g)

    def obj_tensor(self, x: FinSet, y: FinSet) -> FinSet:
        return FinSet(x.size + y.size)

    def pad(self, f: FinFun, z: FinSet) -> FinFun:
        if not z.size:
            return f  # f + 1_0 is f
        n = f.cod.size
        return FinFun._trusted(
            FinSet(f.dom.size + z.size), FinSet(n + z.size), f.map + tuple(range(n, n + z.size))
        )

    def morphism_from_dict(self, data: object) -> FinFun:
        return finfun_from_dict(data)

    def witness_from_dict(self, data: object) -> Witness:
        return witness_from_dict(data)

    def morphisms(self, dom: FinSet, cod: FinSet) -> Iterator[FinFun]:
        return enumerate_functions(dom, cod)

    def free_morphisms(self, dom: FinSet | int, cod: FinSet | int) -> Iterator[FinFun]:
        """The free morphisms ``dom -> cod`` in enumeration order, built once per shape."""
        return iter(_free_funs(self, getattr(dom, "size", dom), getattr(cod, "size", cod)))

    def candidates(self, f: FinFun, g: FinFun, bounds) -> Iterator[tuple[int, int, FinFun]]:
        """The stream of :func:`_candidate_stream`, its first element cached.

        The stream reads ``f`` and ``g`` only through ``f``'s fiber
        classes, ``g``'s first-use pattern and ``cod(f) - cod(g)``, so
        those and the bounds key it.  Its first element comes from
        :func:`_first_candidate`; the rest is streamed only if pulled.
        """
        key = (
            self, _fiber_classes(f.map), _map_pattern(g.map), f.cod.size - g.cod.size,
            bounds.max_z, bounds.max_c, bounds.max_d,
        )
        first = _first_candidate(*key)
        if first is None:
            return iter(())
        return itertools.chain((first,), itertools.islice(_candidate_stream(*key), 1, None))

    def _junk_limit(self, spare: int, max_d: int) -> int:
        """The most junk fibers a solvable wiring may hit, or -1 if none solves.

        ``spare = cod(m) - cod(g)``.  A free ``xi2`` needs ``D >= spare``
        (equality under set-bij) and ``D`` junk slots for the junk block's
        fibers, so the least ``D`` is ``max(spare, junk, 0)``; it must
        not pass ``max_d``, and under set-bij it must equal ``spare``.
        """
        if self is TheoryVariant.SET_BIJ:
            return spare if 0 <= spare <= max_d else -1
        return max_d if spare <= max_d else -1

    def is_free(self, f: FinFun) -> bool:
        return is_bijection(f) if self is TheoryVariant.SET_BIJ else is_injection(f)

    def split_tensor(self, h: FinFun, g: FinFun, c_size: int, d_size: int):
        n_a, n_b = g.dom.size, g.cod.size
        if h.dom.size != n_a + c_size or h.cod.size != n_b + d_size:
            return None
        if h.map[:n_a] != g.map:
            return None
        tail = h.map[n_a:]
        if any(v < n_b for v in tail):
            return None
        return FinFun._trusted(FinSet(c_size), FinSet(d_size), tuple(v - n_b for v in tail))

    def solve_discard(self, m: FinFun, g: FinFun, c_size: int, max_d: int):
        """The least ``xi2`` at the smallest ``D``, built in one pass over ``cod(m)``.

        The equation forces ``xi2(m(i)) = g(i)`` on the ``g`` block and sends
        the junk block's images (``must_d``) into ``D``, so ``D >= |must_d|``;
        ``xi2`` is free only if ``D >= cod(m) - cod(g)``, with equality under
        set-bij.  A forced point takes its image, a ``must_d`` point the next
        slot of the junk pool ``cod(g) .. cod(g) + D - 1``, any other point
        the next unforced ``cod(g)`` value and, once those run out, the next
        junk slot.  :meth:`_junk_limit` states the rule on ``D``.

        - The pools never run dry: the junk pool serves only ``must_d`` while
          unforced ``cod(g)`` values last, and ``cod(m) - cod(g)`` points in
          all if they run out; either way at most ``D``.
        - No free point takes a junk slot a later ``must_d`` point needs: a
          free point reaches the junk pool only when every point left needs
          a slot, so the slots left exceed the ``must_d`` points left.
        - ``xi2`` is the least admissible map, the first the enumeration in
          ``TheoryInstance.solve_discard`` finds: both pools ascend, so each
          point takes the least value still free to it.
        """
        n_a, n_b, n_mid = g.dom.size, g.cod.size, m.cod.size
        forced: dict[int, int] = {}
        for t, b in zip(m.map, g.map):
            if forced.setdefault(t, b) != b:
                return None
        taken = set(forced.values())
        if len(taken) != len(forced) or not forced.keys().isdisjoint(m.map[n_a:]):
            return None
        must_d = set(m.map[n_a:])
        if len(must_d) > self._junk_limit(n_mid - n_b, max_d):
            return None
        d = max(n_mid - n_b, len(must_d), 0)
        junk = iter(range(n_b, n_b + d))
        free = itertools.chain([v for v in range(n_b) if v not in taken], junk)
        xi2_map = [
            forced[t] if t in forced else next(junk if t in must_d else free)
            for t in range(n_mid)
        ]
        xi2 = FinFun._trusted(m.cod, FinSet(n_b + d), tuple(xi2_map))
        j = tuple([xi2_map[t] - n_b for t in m.map[n_a:]])
        return xi2, FinFun._trusted(FinSet(c_size), FinSet(d), j)


@lru_cache(maxsize=None)
def _free_funs(variant: TheoryVariant, dom_size: int, cod_size: int) -> tuple[FinFun, ...]:
    if variant is TheoryVariant.SET_BIJ:
        return tuple(enumerate_bijections(dom_size, cod_size))
    return tuple(enumerate_injections(dom_size, cod_size))


def _candidate_stream(
    variant: TheoryVariant,
    classes: tuple[int, ...],
    want: tuple[int, ...],
    spare: int,
    max_z: int,
    max_c: int,
    max_d: int,
) -> Iterator[tuple[int, int, FinFun]]:
    """The wirings that solve, level by level, in scan order.

    ``classes`` is ``f``'s :func:`_fiber_classes`, ``want`` is ``g``'s
    :func:`_map_pattern` and ``spare = cod(f) - cod(g)``; ``dom(f)`` and
    ``dom(g)`` are their lengths.  Each level of :func:`_scan_levels` gets
    the pruned :func:`_scan_xi1`; the :mod:`pcdres.oracle` docstring states
    why the first witness is unchanged.
    """
    a = len(want)
    for z, c in _scan_levels(variant, len(classes) - a, spare, max_z, max_c, max_d):
        for xi1 in _scan_xi1(classes, z, a, c, want, variant._junk_limit(spare + z, max_d)):
            yield z, c, xi1


# The most first candidates kept.  Under tracemalloc an entry takes about
# 216 bytes where entries share their key tuples (the size <= 3 searches)
# and about 260 where each brings its own (fresh maps of up to five
# points), so a full cache takes 0.9-1.1 MiB.
_KEPT_FIRSTS = 1 << 12


@lru_cache(maxsize=_KEPT_FIRSTS)
def _first_candidate(
    variant: TheoryVariant,
    classes: tuple[int, ...],
    want: tuple[int, ...],
    spare: int,
    max_z: int,
    max_c: int,
    max_d: int,
) -> tuple[int, int, FinFun] | None:
    """The first element of :func:`_candidate_stream`, or None if it is empty.

    The key is exact: the stream reads nothing but these arguments.  The
    :mod:`pcdres.oracle` docstring ("First candidates") says why that
    element decides the search.
    """
    return next(_candidate_stream(variant, classes, want, spare, max_z, max_c, max_d), None)


def _scan_levels(
    variant: TheoryVariant, room: int, spare: int, max_z: int, max_c: int, max_d: int
) -> Iterator[tuple[int, int]]:
    """The levels with a free ``xi1`` and, for some ``D <= max_d``, a free ``xi2``.

    ``room = dom(f) - dom(g)`` and ``spare = cod(f) - cod(g)`` at ``Z = 0``;
    both grow by one with each ``Z`` point, and the four sizes enter the
    levels only through them.  With ``A = dom(g)``,
    ``xi1 : A + C -> dom(f) + Z`` is free only if ``C <= room``, with
    equality under set-bij.  ``xi2 : cod(f) + Z -> cod(g) + D`` is free
    only if ``spare <= D``, with equality under set-bij, so only if
    ``spare <= max_d`` (and ``spare >= 0`` under set-bij).
    :meth:`TheoryVariant.solve_discard` rejects every candidate of a skipped
    level for exactly these reasons, so the first witness is unchanged.
    The scan stops at the first ``Z`` where ``spare`` passes ``max_d``.
    """
    for z in range(max_z + 1):
        if spare + z > max_d:
            return
        if variant is TheoryVariant.SET_INJ:
            for c in range(min(room + z, max_c) + 1):
                yield z, c
        elif spare + z >= 0 and 0 <= room + z <= max_c:
            yield z, room + z


@lru_cache(maxsize=1024)
def _fiber_classes(fmap: tuple[int, ...]) -> tuple[int, ...]:
    """Each domain point's class: -1 in a singleton fiber, else its fiber's rank of first use."""
    sizes = Counter(fmap)
    rank: dict[int, int] = {}
    return tuple(-1 if sizes[y] == 1 else rank.setdefault(y, len(rank)) for y in fmap)


def _first_use(seq) -> tuple[int, ...]:
    """Each entry's rank of first use, so ``(5, 3, 5)`` gives ``(0, 1, 0)``."""
    rank: dict[int, int] = {}
    return tuple([rank.setdefault(y, len(rank)) for y in seq])


# ``_first_use(g.map)``, read once per search
_map_pattern = lru_cache(maxsize=1024)(_first_use)


def _scan_xi1(
    classes: tuple[int, ...],
    z: int,
    a: int,
    c: int,
    want: tuple[int, ...] | None = None,
    limit: int = 0,
) -> Iterator[FinFun]:
    """The orbit scan: free ``xi1 : a + c -> len(classes) + z``, in lexicographic order.

    The maps are injective, and the caller passes only shapes that have a
    free map, so under set-bij they are bijective.  The ``Z`` points join
    class -1; every other class is one fiber of ``f``.  The scan keeps the
    maps the orbit rules of the :mod:`pcdres.oracle` docstring allow.  So a
    prefix extends only by the next unused member of a class, and a fiber's
    first member only once the fiber before it is in use.

    Given ``g``'s pattern ``want`` (length ``a``) and ``limit >= 0``, it
    keeps only the maps that pass the three tests of the oracle docstring's
    sixth reduction, and drops a prefix as soon as it fails one.  A g-block
    input whose label is bound takes the next member of that label's fiber;
    one with a new label takes a fiber no g-block input hit.  At the junk
    block the g-block's fibers are marked used up, and once the junk block
    hits ``limit`` fibers it may only reuse them.  Each singleton-fiber or
    ``Z`` point is a fiber of its own.  A prefix that cannot complete goes
    too: a new label used ``r`` times in ``want`` opens only a fiber of at
    least ``r`` points, or of exactly ``r`` when the map is onto, since the
    junk block may not take the rest.  ``want=None`` keeps every map.

    The scan pops one ``(entries, uses of each class, junk fibers)`` prefix
    off a stack and pushes its extensions largest first.  The least prefix
    on the stack is then always on top: each extension of the popped prefix
    is less than everything beneath it, as the popped prefix was.  So the
    complete maps come out in lexicographic order, with no recursion.
    """
    size = a + c
    points = classes + (-1,) * z
    # the fibers of f in their classes' order, then class -1 (last, so index -1)
    members: list[list[int]] = [[] for _ in range(max(classes, default=-1) + 2)]
    for x, k in enumerate(points):
        members[k].append(x)
    single = len(members) - 1
    # a fiber a new label opens must hold all its uses, and no more if onto
    fits = int.__eq__ if size == len(points) else int.__ge__
    # after[i]: the fiber that must be in use before fiber i opens
    after: list[int | None] = []
    last: dict[int, int] = {}
    for i, m in enumerate(members[:single]):
        after.append(last.get(len(m)))
        last[len(m)] = i
    after.append(None)
    dom, cod = FinSet(size), FinSet(len(points))
    stack = [((), (0,) * len(members), 0)]
    while stack:
        entries, used, junk = stack.pop()
        i = len(entries)
        if i == size:
            yield FinFun._trusted(dom, cod, entries)
            continue
        if want is not None and i < a:
            first = want.index(want[i])  # the first g-block input with this label
            if first < i:
                k = points[entries[first]]
                u = used[k]
                nexts = [] if k < 0 or u == len(members[k]) else [(members[k][u], k)]
            else:  # a new label, with as many uses as it has in want
                r = want.count(want[i])
                nexts = [
                    (m[u], k)
                    for k, (m, u, w) in enumerate(zip(members, used, after))
                    if (
                        r == 1 and u < len(m)
                        if k == single
                        else not u and (w is None or used[w]) and fits(len(m), r)
                    )
                ]
        else:
            if i == a and want is not None:  # the g-block's fibers are used up
                used = tuple([
                    len(m) if u and k != single else u
                    for k, (m, u) in enumerate(zip(members, used))
                ])
            low = entries[-1] if i > a else -1
            nexts = [
                (m[u], k)
                for k, (m, u, w) in enumerate(zip(members, used, after))
                if u < len(m) and m[u] > low and (u or w is None or used[w])
            ]
            if want is not None and junk >= limit:
                nexts = [(x, k) for x, k in nexts if k != single and used[k]]
        for x, k in sorted(nexts, reverse=True):
            new = i >= a and (k == single or not used[k])
            stack.append((entries + (x,), used[:k] + (used[k] + 1,) + used[k + 1 :], junk + new))


@dataclass(frozen=True)
class Witness:
    """The data of one conversion: auxiliary system, free wirings, junk output."""

    Z: FinSet
    xi1: FinFun | Relation
    xi2: FinFun | Relation
    j: FinFun | Relation


def _form(variant: TheoryVariant, counts: list[int]) -> list[int]:
    """The dense normal form of a :func:`size_counts` list, built in that list.

    Multiplicity counts under set-bij, tail counts under set-inj (one
    running sum from the top, then reversed), with the excluded indices set
    to 0.  ``counts`` may be overwritten: pass a copy to keep it.
    """
    if variant is TheoryVariant.SET_INJ:
        counts = list(itertools.accumulate(reversed(counts)))
        counts.reverse()
        if counts:
            counts[0] = 0
    if len(counts) > 1:
        counts[1] = 0
    return counts


def _dense_form(variant: TheoryVariant, f: FinFun) -> list[int]:
    """``f``'s normal form as a list indexed by fiber size; trailing zeros are allowed."""
    return _form(variant, size_counts(f))


def _dominates(a: list[int], b: list[int]) -> bool:
    """Pointwise dominance of two dense forms of any lengths.

    Never list ``>=``: that order is lexicographic.
    """
    return all(map(int.__ge__, a, b)) and not any(b[len(a):])


def normal_form(variant: TheoryVariant, f: FinFun) -> Profile:
    """The complete invariant of ``f``'s convertibility class.

    Multiplicity counts under set-bij, tail counts under set-inj, less the
    excluded indices.  :func:`decide` reads them from the fiber counts and
    the family check compares them as dense lists; this is the sparse
    :class:`Profile` of their nonzero entries, for callers.
    """
    return Profile._trusted({i: n for i, n in enumerate(_dense_form(variant, f)) if n})


def _converts(variant: TheoryVariant, a: list[int], b: list[int]) -> bool:
    """Whether the :func:`size_counts` list ``a`` dominates ``b`` in normal form.

    On lists of non-negative counts it equals
    ``_dominates(_form(variant, a.copy()), _form(variant, b.copy()))``, but
    it reads the counts in one early-exit pass that builds no list and
    changes neither argument.  Missing entries count as 0, so entries of
    ``b`` past the end of ``a`` must be 0 from index 2 on.  Under set-bij
    index 0 and every index from 2 on compare pointwise; index 1 is free.
    Under set-inj the two tails are summed from the top index down to 2,
    and the first index where ``a``'s falls below ``b``'s refutes.
    """
    n, m = len(a), len(b)
    bij = variant is TheoryVariant.SET_BIJ
    if bij and m and (a[0] if n else 0) < b[0]:
        return False
    if m > n:
        if any(b[max(n, 2):]):
            return False
        m = n  # b's entries past a's end are 0 from here on
    if bij:
        for i in range(2, m):
            if a[i] < b[i]:
                return False
        return True
    if m < 3:
        return True  # b's tails from index 2 on are all 0
    tail_a = sum(a[m:]) if n > m else 0
    tail_b = 0
    for i in range(m - 1, 1, -1):
        tail_a += a[i]
        tail_b += b[i]
        if tail_a < tail_b:
            return False
    return True


def decide(variant: TheoryVariant, f: FinFun, g: FinFun) -> bool:
    """Whether ``f`` converts to ``g``: pointwise dominance of normal forms.

    Each side's fibers are counted once with :func:`size_counts`, and
    :func:`_converts` compares the normal forms straight from the two
    count lists; no form list and no :class:`Profile` is built.
    """
    return _converts(variant, size_counts(f), size_counts(g))


def equivalent(variant: TheoryVariant, f: FinFun, g: FinFun) -> bool:
    """Mutual convertibility, which is equality of normal forms."""
    return normal_form(variant, f) == normal_form(variant, g)


def representative(variant: TheoryVariant, form: Profile) -> FinFun:
    """A canonical function whose normal form is ``form``.

    Raises ValueError when no function has that normal form.  Multiplicity
    forms only need to avoid index 1; tail forms must in addition be
    non-increasing, since a fiber of size 5 is also a fiber of size 4.
    """
    bad = set(form.support) & set(variant.excluded_indices)
    if bad:
        raise ValueError(f"normal form may not mention excluded indices {sorted(bad)}")
    if variant is TheoryVariant.SET_BIJ or not form.support:
        return realize_profile(form)
    multiplicities: dict[int, int] = {}
    for i in range(2, max(form.support) + 1):
        step = form[i] - form[i + 1]
        if step < 0:
            raise ValueError(
                f"tail counts must be non-increasing, got {form[i]} at {i} "
                f"but {form[i + 1]} at {i + 1}"
            )
        multiplicities[i] = step
    return realize_profile(Profile(multiplicities))


def _wiring(
    F: FinFun, G: FinFun, F_sizes: list[int], G_sizes: list[int], descending: bool
) -> tuple[FinFun, FinFun]:
    """``(xi1, xi2)`` with ``xi2 . F . xi1 = G``, matching fibers by size.

    ``F = f + 1_Z`` and ``G = g + j`` are the padded pair, and ``F_sizes``
    and ``G_sizes`` their fiber sizes, emptied once ordered to keep peak
    memory down: pass copies to keep them.  ``xi2`` pairs the codomain
    points of ``F`` and ``G`` in the order :func:`_by_size` gives, so ties
    go to the lowest index.  ``xi1`` sends each input of ``G``, in order,
    to the least unused input of ``F`` in the partner fiber.

    ``F``'s fibers are walked as chains of inputs: one reverse pass over
    ``F.map`` sets ``head[y]``, the least input of fiber ``y``, and
    ``after[x]``, the next input of ``x``'s fiber (-1 after the last).  Each
    fiber of ``G`` keeps a cursor into its partner's chain, starting at the
    head; an input takes the cursor's point and moves the cursor one link
    on.  That is one lookup and one store per input.  Grouping ``dom(F)``
    by a sort instead costs ``log`` comparisons and a sort key per input,
    and a slot counter bumped once per input, a new ``int`` each time.

    No cursor runs past the end of its chain, because every fiber of ``G``
    is paired with a fiber of ``F`` at least as large.  Both lists are
    ordered the same way and ``decide`` holds.  Under set-bij the two
    multiplicity profiles are equal, so paired fibers have one size.  Under
    set-inj ``F``'s tail counts dominate ``G``'s at every index: at 0 the
    codomains have one size, at 1 ``Z`` makes up any shortfall in hit
    points, and from 2 on ``decide`` says so.  So the k-th largest fiber of
    ``F`` is at least the k-th largest of ``G``.
    """
    f_order = _by_size(F_sizes, descending)
    g_order = _by_size(G_sizes, descending)
    head = [-1] * F.cod.size
    after = [-1] * F.dom.size
    for x, y in zip(range(F.dom.size - 1, -1, -1), reversed(F.map)):
        after[x] = head[y]
        head[y] = x
    xi2_map = [0] * F.cod.size
    cursor = [0] * G.cod.size  # the next input of b's partner fiber
    for y, b in zip(f_order, g_order):
        xi2_map[y] = b
        cursor[b] = head[y]
    del f_order, g_order, head  # freed before the xi1 walk, to keep peak memory down
    xi1_map = []
    for b in G.map:
        x = cursor[b]
        xi1_map.append(x)
        cursor[b] = after[x]
    xi1 = FinFun._trusted(G.dom, F.dom, tuple(xi1_map))
    xi2 = FinFun._trusted(F.cod, G.cod, tuple(xi2_map))
    return xi1, xi2


def _by_size(sizes: list[int], descending: bool) -> list[int]:
    """The indices of ``sizes`` ordered by size, ties to the lowest index; empties ``sizes``.

    One bucket pass: each size's bucket fills in ascending index order, and
    ``descending`` reverses the order of the buckets, not their contents.
    Only the sizes that occur get a bucket.
    """
    buckets: defaultdict[int, list[int]] = defaultdict(list)
    for y, size in enumerate(sizes):
        buckets[size].append(y)
    sizes.clear()
    order = sorted(buckets, reverse=descending)
    return list(itertools.chain.from_iterable(map(buckets.__getitem__, order)))


def _sizes_and_counts(f: FinFun) -> tuple[list[int] | None, list[int]]:
    """``f``'s fiber sizes and its :func:`size_counts`, from one pass over ``f.map``.

    A codomain more than twice the domain is counted sparsely and its sizes
    come back ``None``, so a request that fails the decision costs memory in
    the domain only.  The dense count repeats the last lines of
    :func:`size_counts` rather than moving them into a helper both call:
    ``decide`` counts maps of a few points, and one more call per count
    made the decide-sweep benchmark's median op 3-5 % slower.
    """
    if f.cod.size > 2 * f.dom.size:
        return None, size_counts(f)
    sizes = fiber_sizes(f)
    counts = [0] * (max(sizes, default=-1) + 1)
    for size in sizes:
        counts[size] += 1
    return sizes, counts


def witness(variant: TheoryVariant, f: FinFun, g: FinFun) -> Witness:
    """An explicit conversion from ``f`` to ``g``; requires ``decide`` to hold.

    With bijections free, the junk ``j`` realizes the profile surplus of
    ``f`` over ``g`` and ``Z`` supplies any missing singleton fibers.  With
    injections free, ``j`` is output-only: ``Z`` and ``cod(j)`` pad the two
    codomains to a common size and ``xi2`` matches fibers largest-first so
    every fiber of ``g`` fits inside its donor.  Each side's fibers are
    counted once: the sizes found for the decision are padded with those
    of ``1_Z`` and ``j`` for :func:`_wiring`, which wires ``F = f + 1_Z``
    to ``G = g + j``, built with the theory's ``pad`` and ``tensor``.  A
    sparsely counted side lists its sizes only once the decision holds.
    """
    (f_sizes, f_counts), (g_sizes, g_counts) = _sizes_and_counts(f), _sizes_and_counts(g)
    if not _converts(variant, f_counts, g_counts):
        raise NotConvertibleError(
            f"f ({f.dom.size} -> {f.cod.size}) does not convert to "
            f"g ({g.dom.size} -> {g.cod.size}) under {variant.value}"
        )
    if variant is TheoryVariant.SET_BIJ:
        # decide holds, so the surplus is negative only at index 1
        surplus = [a - b for a, b in itertools.zip_longest(f_counts, g_counts, fillvalue=0)]
        z = FinSet(max(0, -surplus[1]) if len(surplus) > 1 else 0)
        j = realize_profile(Profile._trusted({i: n for i, n in enumerate(surplus) if n > 0}))
    else:
        # Z covers both the codomain gap and any shortfall in hit outputs;
        # cod(j) then balances the bijection between the padded codomains.
        hit_f, hit_g = sum(f_counts[1:]), sum(g_counts[1:])
        z = FinSet(max(0, g.cod.size - f.cod.size, hit_g - hit_f))
        j = FinFun._trusted(FinSet(0), FinSet(f.cod.size + z.size - g.cod.size), ())
    if f_sizes is None:
        f_sizes = fiber_sizes(f)
    if g_sizes is None:
        g_sizes = fiber_sizes(g)
    f_sizes += [1] * z.size
    g_sizes += fiber_sizes(j)
    xi1, xi2 = _wiring(
        variant.pad(f, z), variant.tensor(g, j), f_sizes, g_sizes, variant is TheoryVariant.SET_INJ
    )
    return Witness(z, xi1, xi2, j)


def check_witness(theory, f, g, w: Witness) -> bool:
    """Replay ``xi2 . (f (x) 1_Z) . xi1 = g (x) j``; False on any malformed or failing part.

    ``theory`` is a :class:`TheoryVariant` member or the oracle's
    ``REL_TIMES_THEORY``; the equation is replayed through its operations.
    """
    parts = (w.xi1, w.xi2, w.j)
    if not (isinstance(w.Z, FinSet) and all(isinstance(m, theory.morphism_type) for m in parts)):
        return False
    # these two keep compose from raising; the equation compares the outer sizes
    if w.xi1.cod != theory.obj_tensor(f.dom, w.Z):
        return False
    if w.xi2.dom != theory.obj_tensor(f.cod, w.Z):
        return False
    if not (theory.is_free(w.xi1) and theory.is_free(w.xi2)):
        return False
    padded = theory.pad(f, w.Z)
    left = theory.compose(w.xi2, theory.compose(padded, w.xi1))
    return left == theory.tensor(g, w.j)


# -- wire format ------------------------------------------------------------
#
# {"Z": n, "xi1": <morphism>, "xi2": <morphism>, "j": <morphism>}


def witness_to_dict(w: Witness) -> dict:
    encode = finfun_to_dict if isinstance(w.xi1, FinFun) else relation_to_dict
    return {
        "Z": w.Z.size,
        "xi1": encode(w.xi1),
        "xi2": encode(w.xi2),
        "j": encode(w.j),
    }


def witness_from_dict(data: object) -> Witness:
    """A set-theory witness; ``RelTimesTheory.witness_from_dict`` decodes relations."""
    return _witness_from_dict(data, finfun_from_dict)


def _witness_from_dict(data: object, decode) -> Witness:
    """The witness fields of ``data``, each morphism read by ``decode``."""
    if not isinstance(data, dict):
        raise FormatError("expected a JSON object with fields 'Z', 'xi1', 'xi2', 'j'")
    reject_unknown_fields(data, ("Z", "xi1", "xi2", "j"))
    for field in ("Z", "xi1", "xi2", "j"):
        if field not in data:
            raise FormatError(f"missing field '{field}'")
    z = data["Z"]
    if not isinstance(z, int) or isinstance(z, bool) or z < 0:
        raise FormatError("field 'Z' must be a non-negative integer")
    parts = {}
    for field in ("xi1", "xi2", "j"):
        try:
            parts[field] = decode(data[field])
        except FormatError as exc:
            raise FormatError(f"field '{field}': {exc}") from None
    return Witness(FinSet(z), parts["xi1"], parts["xi2"], parts["j"])
