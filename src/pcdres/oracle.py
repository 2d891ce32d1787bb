"""Brute-force conversion search, independent of the profile criteria.

Where :mod:`pcdres.convert` decides convertibility through fiber statistics,
this module answers the same question by direct search: enumerate candidate
auxiliary sizes ``Z``, junk shapes ``C -> D``, and free wirings, and test the
defining equation

    xi2 . (f (x) 1_Z) . xi1  =  g (x) j

literally.  Agreement between the two routes on exhaustive small slices is
the main correctness evidence for both.

The search tries the candidates ``(Z, C, xi1)`` that
``theory.candidates(f, g, bounds)`` yields, and nothing else.  The plain
scan, ``TheoryInstance.candidates``, takes ``Z`` ascending, then ``C``,
then every free ``xi1`` in enumeration order.  For each ``xi1`` the
discarding side is resolved with the smallest feasible ``D`` and the
lexicographically least ``xi2``, so the returned witness is the first one
in that fixed order.  The set theories are the
:class:`~pcdres.convert.TheoryVariant` members themselves; they build that
``xi2`` in one pass, each point of ``cod(f) + Z`` taking its forced image or
the least value still free to it (proof in ``TheoryVariant.solve_discard``).
The relational theory keeps the plain scan and the plain enumeration of
free morphisms.

The search contract: a theory's ``candidates`` may leave out candidates
and keep the rest in the plain scan's order, provided it keeps the first
candidate of the plain scan that solves.  The witness is then unchanged,
since every candidate kept before that one is also before it in the plain
scan, hence does not solve.  The set theories make six reductions: the
levels, four symmetries of the wirings, and the wirings that do not solve.

Levels.  They skip, from sizes alone, every level ``(Z, C)`` that holds no
free ``xi1 : A + C -> dom(f) + Z`` or, for every ``D <= max_d``, no free
``xi2 : cod(f) + Z -> cod(g) + D``.  With ``A = dom(g)`` and
``spare = cod(f) + Z - cod(g)``, set-bij scans only ``C = dom(f) + Z - A``
and only while ``0 <= spare <= max_d``; set-inj scans every
``C <= dom(f) + Z - A`` while ``spare <= max_d``.  ``solve_discard``
rejects every candidate of a skipped level for exactly these reasons.
``convert._scan_levels`` streams the levels from ``dom(f) - dom(g)``,
``cod(f) - cod(g)`` and the bounds alone, so huge bounds cost no memory.
The search builds ``f + 1_Z`` only when a ``Z`` yields its first wiring to
try, so a level with no wiring that can solve costs only the rule on ``D``
and one pruned scan, and a negative search never pads.

Orbits.  Four symmetries of the equation act on the wirings ``xi1``:

1. permuting the points of ``dom(f)`` inside one fiber of ``f``;
2. permuting the class made of every singleton-fiber point of ``f``
   together with every ``Z`` point;
3. permuting the ``C`` junk inputs;
4. permuting whole fibers of ``f`` of equal size, together with their
   codomain points.

The first fixes ``f + 1_Z``, the second commutes with it up to a bijection
of ``cod(f) + Z`` that ``xi2`` absorbs, and the third only reorders the
inputs of ``j``.  For the fourth, let ``s`` carry each moved fiber onto its
image and ``t`` carry their codomain points along, so that
``f . s = t . f``.  If ``xi2 . (f + 1_Z) . xi1 = g + j``, then
``xi2 . (t^-1 + 1_Z)`` is free, has the same ``D``, and solves for
``(s + 1_Z) . xi1``.  So each symmetry sends a solvable ``xi1`` to a
solvable one at the same ``(Z, C, D)``, and the first solvable ``xi1`` of
the plain scan is least in lexicographic order within its orbit.  The scan
``convert._scan_xi1`` keeps every orbit's least wiring, and where a junk
block of three or more inputs meets unused fibers of one size, some others
of its orbit: the i-th use of each class is its i-th smallest member, a
fiber is first used only after the fiber of its size with the next smaller
first member, and the images of the ``C`` block increase (isomorph-free
generation, as in McKay, J. Algorithms 1998).  The classes are read from
the fiber partition of ``f.map``, never from profile counts, so the search
stays independent of :func:`pcdres.convert.decide`.

Wirings that do not solve, the sixth reduction.  ``m = (f + 1_Z) . xi1``
joins two inputs exactly when their images lie in one fiber of ``f + 1_Z``,
where each singleton-fiber point and each ``Z`` point is a fiber of its
own.  ``solve_discard`` makes three tests, and each reads only those
fibers.  The forced images ``xi2(m(i)) = g(i)`` of the g-block (the first
``|A|`` inputs) neither conflict (``m`` joins two inputs that ``g`` parts)
nor merge (``g`` joins two inputs that ``m`` parts) exactly when the fibers
the g-block hits, each named by its rank of first use, form the same
pattern as ``g.map``.  No forced point is also a junk image exactly when
the junk block hits no fiber the g-block hits.  And with ``junk`` the
number of fibers the junk block hits, the least ``D`` is
``max(cod(f) + Z - cod(g), junk, 0)``; it must not pass ``max_d``, and
under set-bij it must equal ``cod(f) + Z - cod(g)``
(``TheoryVariant._junk_limit``).  When all three hold, ``solve_discard``
returns a witness (proof in its docstring).  Each test is decided by a
prefix of the wiring, and a prefix that fails one fails in every
extension: a g-block input must hit the fiber already bound to its label
in ``g``'s pattern or, for a new label, a fiber no earlier g-block input
hit; a junk input must avoid every g-block fiber; and the junk fibers hit
so far must not pass the rule on ``D``.  So ``convert._scan_xi1``, given
``g``'s pattern and that rule, drops a prefix as soon as it fails one.
The pruning is prefix-closed: the scan yields exactly the orbit scan's
wirings that pass all three, in the same order, so the first witness is
unchanged.  A positive search therefore calls ``solve_discard`` once and
a negative one never.  Like the classes, the pruning reads only ``f``'s
fiber partition and ``g``'s map and sizes, and the scan keeps nothing
once a level is done.

First candidates.  Every wiring the set theories yield passes those three
tests, so the first one solves and the stream's first element decides the
search.  The stream reads ``f`` and ``g`` only through ``f``'s fiber
classes, ``g``'s first-use pattern and ``cod(f) - cod(g)`` (``dom(f)``
and ``dom(g)`` are the lengths of the first two), besides the bounds, so
``convert._first_candidate`` caches its first element, or None, under
exactly that key.  A search whose key was seen is one lookup: no level
is walked and no wiring scanned, and the rest of the stream is built
only if a caller pulls past its first element.  The cache keeps 4,096 entries,
about 1 MiB; the 7,200 size <= 3 searches at bounds (3, 6, 6) share 630
keys.  Since ``f + 1_0`` is ``f``, a witness at ``Z = 0`` pads nothing.

Everything here also works for the relational theory over cartesian
products, whose free morphisms are graphs of functions.  That theory orders
trivially: :func:`relx_convert` returns its closed-form witness.

:data:`THEORIES` maps each ``--variant`` name to its theory object; found
witnesses are replayed by :func:`pcdres.convert.check_witness`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .convert import TheoryInstance, TheoryVariant, Witness, _witness_from_dict
from .finset import (
    FinFun,
    FinSet,
    Relation,
    _compact_json,
    enumerate_functions,
    is_fun_graph,
    rel_compose,
    rel_of_fun,
    rel_pad,
    rel_product,
    relation_from_dict,
)


@dataclass(frozen=True)
class SearchBounds:
    """Caps on the auxiliary system and junk sizes explored by the search."""

    max_z: int
    max_c: int
    max_d: int

    def __post_init__(self) -> None:
        for field in ("max_z", "max_c", "max_d"):
            value = getattr(self, field)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValueError(f"{field} must be a non-negative integer")


class BoundsTooTightError(ValueError, RuntimeError):
    """Search bounds too tight for :func:`preorder_table` to close into a preorder.

    A ``ValueError``, so the command line exits 65 naming the failure, and a
    ``RuntimeError`` for callers that catch that.
    """


def default_bounds(f, g) -> SearchBounds:
    """Bounds wide enough to contain the constructive witnesses at these sizes."""
    combined = f.dom.size + f.cod.size + g.dom.size + g.cod.size
    return SearchBounds(max(3, g.cod.size), combined, combined)


@lru_cache(maxsize=None)
def _fun_graphs(dom_size: int, cod_size: int) -> tuple[Relation, ...]:
    return tuple(rel_of_fun(f) for f in enumerate_functions(dom_size, cod_size))


class RelTimesTheory(TheoryInstance):
    """Relations under cartesian product, with graphs of functions free."""

    name = "rel-times"
    morphism_type = Relation

    def witness(self, f: Relation, g: Relation) -> Witness:
        return relx_convert(f, g)

    def morphism_from_dict(self, data: object) -> Relation:
        return relation_from_dict(data)

    def witness_from_dict(self, data: object) -> Witness:
        return _witness_from_dict(data, relation_from_dict)

    def compose(self, late: Relation, early: Relation) -> Relation:
        return rel_compose(late, early)

    def tensor(self, f: Relation, g: Relation) -> Relation:
        return rel_product(f, g)

    def obj_tensor(self, x: FinSet, y: FinSet) -> FinSet:
        return FinSet(x.size * y.size)

    def pad(self, f: Relation, z: FinSet) -> Relation:
        return rel_pad(f, z)

    def morphisms(self, dom: FinSet, cod: FinSet):
        cells = list(itertools.product(range(dom.size), range(cod.size)))
        for bits in itertools.product((False, True), repeat=len(cells)):
            yield Relation._trusted(dom, cod, frozenset(itertools.compress(cells, bits)))

    def free_morphisms(self, dom: FinSet, cod: FinSet):
        return iter(_fun_graphs(dom.size, cod.size))

    def is_free(self, m: Relation) -> bool:
        return is_fun_graph(m)

    def split_tensor(self, h: Relation, g: Relation, c_size: int, d_size: int):
        n_a, n_b = g.dom.size, g.cod.size
        if h.dom.size != n_a * c_size or h.cod.size != n_b * d_size:
            return None
        # the only candidate is h's projection onto the junk coordinates
        graph = frozenset((x % c_size, y % d_size) for x, y in h.graph)
        j = Relation._trusted(FinSet(c_size), FinSet(d_size), graph)
        return j if rel_product(g, j) == h else None


REL_TIMES_THEORY = RelTimesTheory()

# The set theories' former class name; perfbench/tracer.py still wraps
# ``SetTheory.solve_discard`` under it.
SetTheory = TheoryVariant

THEORIES: dict[str, TheoryInstance] = {
    t.name: t for t in (*TheoryVariant, REL_TIMES_THEORY)
}


def theory_for(variant: TheoryVariant) -> TheoryVariant:
    """The theory of ``variant``, which is the member itself."""
    return variant


def oracle_convertible(
    theory: TheoryInstance, f, g, bounds: SearchBounds | None = None
) -> Witness | None:
    """Search for a conversion witness within ``bounds``; None if none exists there."""
    if bounds is None:
        bounds = default_bounds(f, g)
    z_obj = padded = None
    for z, c, xi1 in theory.candidates(f, g, bounds):
        if z_obj is None or z_obj.size != z:
            z_obj = FinSet(z)
            padded = theory.pad(f, z_obj)
        found = theory.solve_discard(theory.compose(padded, xi1), g, c, bounds.max_d)
        if found is not None:
            xi2, j = found
            return Witness(z_obj, xi1, xi2, j)
    return None


def relx_convert(f: Relation, g: Relation) -> Witness:
    """The closed-form witness making the relational theory's order trivial.

    Pad with a one-point system, feed ``g`` nothing (its domain is crushed by
    the empty junk input), and discard all of ``f``'s output through a
    constant map.  When no such map exists (``g`` has no output point but
    ``f`` has one), the all-empty witness ``Z = C = D = 0`` serves: every
    part of the equation is then the empty relation on the empty set.
    """
    if g.cod.size == 0 and f.cod.size > 0:
        empty = Relation._trusted(FinSet(0), FinSet(0), frozenset())
        return Witness(FinSet(0), empty, empty, empty)
    xi1 = Relation._trusted(FinSet(0), f.dom, frozenset())
    xi2 = rel_of_fun(FinFun._trusted(f.cod, g.cod, (0,) * f.cod.size))
    j = Relation._trusted(FinSet(0), FinSet(1), frozenset())
    return Witness(FinSet(1), xi1, xi2, j)


def preorder_table(
    theory: TheoryInstance, size_limit: int, bounds: SearchBounds | None = None
) -> frozenset[tuple[object, object]]:
    """All oracle-confirmed conversions between processes up to ``size_limit``.

    The result is checked to be reflexive and transitively closed; bounds too
    tight to reproduce a composite conversion raise :class:`BoundsTooTightError`
    rather than repair.
    """
    ms = [
        m
        for x in range(size_limit + 1)
        for y in range(size_limit + 1)
        for m in theory.morphisms(FinSet(x), FinSet(y))
    ]
    table = set()
    for fm in ms:
        for gm in ms:
            if oracle_convertible(theory, fm, gm, bounds) is not None:
                table.add((fm, gm))
    for m in ms:
        if (m, m) not in table:
            raise BoundsTooTightError(f"preorder table is not reflexive at {m!r}; widen bounds")
    for a, b in table:
        for c in ms:
            if (b, c) in table and (a, c) not in table:
                raise BoundsTooTightError(
                    f"preorder table is not transitive at {a!r} -> {b!r} -> {c!r}; "
                    "widen bounds"
                )
    return frozenset(table)


def _morphism_key(m) -> tuple:
    if isinstance(m, FinFun):
        return (m.dom.size, m.cod.size, m.map)
    return (m.dom.size, m.cod.size, m.pairs())


def preorder_lines(table: frozenset[tuple[object, object]]) -> list[str]:
    """One ``<f> >= <g>`` line per table entry, in a fixed sorted order."""
    ordered = sorted(table, key=lambda fg: (_morphism_key(fg[0]), _morphism_key(fg[1])))
    return [f"{_compact_json(fm)} >= {_compact_json(gm)}" for fm, gm in ordered]
