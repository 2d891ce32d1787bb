"""Brute-force conversion search, independent of the profile criteria.

Where :mod:`pcdres.convert` decides convertibility through fiber statistics,
this module answers the same question by direct search: enumerate candidate
auxiliary sizes ``Z``, junk shapes ``C -> D``, and free wirings, and test the
defining equation

    xi2 . (f (x) 1_Z) . xi1  =  g (x) j

literally.  Agreement between the two routes on exhaustive small slices is
the main correctness evidence for both.

The search scans ``Z`` ascending, then ``C``, then ``xi1`` in enumeration
order; for each ``xi1`` the discarding side is resolved with the smallest
feasible ``D`` and the lexicographically least ``xi2``, so the returned
witness is the first one in that fixed order.  The set theories are the
:class:`~pcdres.convert.TheoryVariant` members themselves; they solve for
``xi2`` by constraint propagation (each point of ``cod(f) + Z`` has at most
one admissible image, forced by the equation).  The relational theory falls
back to plain enumeration of free morphisms.

Everything here also works for the relational theory over cartesian
products, whose free morphisms are graphs of functions.  That theory orders
trivially: :func:`relx_convert` returns its closed-form witness.

:data:`THEORIES` maps each ``--variant`` name to its theory object; found
witnesses are replayed by :func:`pcdres.convert.check_witness`.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache

from .convert import TheoryInstance, TheoryVariant, Witness, witness_from_dict
from .finset import (
    FinFun,
    FinSet,
    Relation,
    enumerate_functions,
    finfun_to_dict,
    is_fun_graph,
    rel_compose,
    rel_of_fun,
    rel_pad,
    rel_product,
    relation_from_dict,
    relation_to_dict,
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
        return witness_from_dict(data, relational=True)

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
            yield Relation.from_pairs(dom.size, cod.size, itertools.compress(cells, bits))

    def free_morphisms(self, dom: FinSet, cod: FinSet):
        return iter(_fun_graphs(dom.size, cod.size))

    def is_free(self, m: Relation) -> bool:
        return is_fun_graph(m)

    def split_tensor(self, h: Relation, g: Relation, c_size: int, d_size: int):
        n_a, n_b = g.dom.size, g.cod.size
        if h.dom.size != n_a * c_size or h.cod.size != n_b * d_size:
            return None
        # the only candidate is h's projection onto the junk coordinates
        j = Relation.from_pairs(c_size, d_size, ((x % c_size, y % d_size) for x, y in h.pairs()))
        return j if rel_product(g, j) == h else None


SET_BIJ_THEORY = TheoryVariant.SET_BIJ
SET_INJ_THEORY = TheoryVariant.SET_INJ
REL_TIMES_THEORY = RelTimesTheory()

# The set theories' former class name; perfbench/tracer.py still wraps
# ``SetTheory.solve_discard`` under it.
SetTheory = TheoryVariant

THEORIES: dict[str, TheoryInstance] = {
    t.name: t for t in (SET_BIJ_THEORY, SET_INJ_THEORY, REL_TIMES_THEORY)
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
    for z in range(bounds.max_z + 1):
        z_obj = FinSet(z)
        padded = theory.pad(f, z_obj)
        for c in range(bounds.max_c + 1):
            source = theory.obj_tensor(g.dom, FinSet(c))
            for xi1 in theory.free_morphisms(source, padded.dom):
                m = theory.compose(padded, xi1)
                found = theory.solve_discard(m, g, c, bounds.max_d)
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
        empty = Relation.from_pairs(0, 0, ())
        return Witness(FinSet(0), empty, empty, empty)
    xi1 = Relation.from_pairs(0, f.dom.size, ())
    xi2 = rel_of_fun(FinFun._trusted(f.cod, g.cod, (0,) * f.cod.size))
    j = Relation.from_pairs(0, 1, ())
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


def _morphism_json(m) -> str:
    data = finfun_to_dict(m) if isinstance(m, FinFun) else relation_to_dict(m)
    return json.dumps(data, separators=(",", ":"))


def preorder_lines(table: frozenset[tuple[object, object]]) -> list[str]:
    """One ``<f> >= <g>`` line per table entry, in a fixed sorted order."""
    ordered = sorted(table, key=lambda fg: (_morphism_key(fg[0]), _morphism_key(fg[1])))
    return [f"{_morphism_json(fm)} >= {_morphism_json(gm)}" for fm, gm in ordered]
