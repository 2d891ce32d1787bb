"""Canonical finite sets, functions between them, and relations.

A finite set of size ``n`` has elements ``0 .. n-1``; there is exactly one
such set per size, so objects are determined by a single integer.  Functions
store their whole graph as a tuple (``map[x]`` is the image of ``x``) and
relations store a boolean matrix indexed ``matrix[x][y]``.  Everything is
immutable and compares structurally, which makes morphisms usable as dict
keys and set members.

Monoidal structure conventions, fixed once and used everywhere:

* disjoint union puts the left block first: element ``i`` of ``X + Y`` is
  ``i`` of ``X`` when ``i < X.size`` and ``i - X.size`` of ``Y`` otherwise;
* cartesian products are row-major: the pair ``(x, a)`` with ``x`` in ``X``
  and ``a`` in ``A`` has index ``x * A.size + a``;
* the braiding on ``X + Y`` sends ``i`` to ``i + Y.size`` for ``i < X.size``
  and to ``i - X.size`` otherwise.

Enumerators yield morphisms in lexicographic order of their map tuples and
never repeat an entry.

Functions are validated once, where their data enters: the public
``FinFun`` constructor and :func:`finfun_from_dict` check every entry.
Morphisms the library builds itself from already valid parts (composites,
disjoint unions, identities, enumerations, witnesses) are in range by
construction and go through the private trusted constructor
``FinFun._trusted``, which checks nothing.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass


class FormatError(ValueError):
    """A serialized value violated the wire format; the message names the field."""


@dataclass(frozen=True)
class FinSet:
    """The canonical finite set {0, ..., size - 1}."""

    size: int

    def __post_init__(self) -> None:
        if not isinstance(self.size, int) or isinstance(self.size, bool) or self.size < 0:
            raise ValueError(f"FinSet size must be a non-negative integer, got {self.size!r}")

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.size))


def _as_finset(obj: FinSet | int) -> FinSet:
    return obj if isinstance(obj, FinSet) else FinSet(obj)


_INT_ONLY = frozenset({int})


def _first_bad_entry(entries: Sequence[object], cod_size: int) -> int | None:
    """Index of the first entry that is not an element of ``range(cod_size)``.

    Elements are ints, including int subclasses other than ``bool``.  The
    common all-``int`` case is settled by C-level builtins; the per-entry
    loop only runs to find the entry to name, or to admit int subclasses.
    """
    if not entries:
        return None
    if set(map(type, entries)) <= _INT_ONLY and min(entries) >= 0 and max(entries) < cod_size:
        return None
    for i, y in enumerate(entries):
        if not isinstance(y, int) or isinstance(y, bool) or not 0 <= y < cod_size:
            return i
    return None


@dataclass(frozen=True)
class FinFun:
    """A total function between canonical finite sets, stored as its graph."""

    dom: FinSet
    cod: FinSet
    map: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "map", tuple(self.map))
        if len(self.map) != self.dom.size:
            raise ValueError(
                f"map has {len(self.map)} entries but dom has size {self.dom.size}"
            )
        x = _first_bad_entry(self.map, self.cod.size)
        if x is not None:
            raise ValueError(f"map[{x}] = {self.map[x]!r} is not an element of the codomain")

    @classmethod
    def _trusted(cls, dom: FinSet, cod: FinSet, entries: tuple[int, ...]) -> FinFun:
        """Build without validation, for maps that are in range by construction.

        ``entries`` must be a tuple of ``dom.size`` elements of ``cod``.
        """
        f = object.__new__(cls)
        object.__setattr__(f, "dom", dom)
        object.__setattr__(f, "cod", cod)
        object.__setattr__(f, "map", entries)
        return f

    @classmethod
    def from_map(cls, entries: Sequence[int], cod_size: int) -> FinFun:
        """Build a function from its value list; the domain size is implied."""
        entries = tuple(entries)
        return cls(FinSet(len(entries)), FinSet(cod_size), entries)

    def __call__(self, x: int) -> int:
        return self.map[x]

    def __repr__(self) -> str:
        return f"FinFun({list(self.map)}: {self.dom.size} -> {self.cod.size})"


def identity(x: FinSet | int) -> FinFun:
    x = _as_finset(x)
    return FinFun._trusted(x, x, tuple(range(x.size)))


def compose(late: FinFun, early: FinFun) -> FinFun:
    """The composite ``late . early`` (apply ``early`` first)."""
    if early.cod != late.dom:
        raise ValueError(
            f"cannot compose: codomain {early.cod.size} does not match domain {late.dom.size}"
        )
    return FinFun._trusted(early.dom, late.cod, tuple(map(late.map.__getitem__, early.map)))


def disjoint_union(f: FinFun, g: FinFun) -> FinFun:
    """Run ``f`` and ``g`` side by side on the disjoint union, left block first."""
    shift = f.cod.size
    return FinFun._trusted(
        FinSet(f.dom.size + g.dom.size),
        FinSet(f.cod.size + g.cod.size),
        f.map + tuple(map(shift.__add__, g.map)),
    )


def braiding(x: FinSet | int, y: FinSet | int) -> FinFun:
    """The block swap ``X + Y -> Y + X``."""
    x, y = _as_finset(x), _as_finset(y)
    total = FinSet(x.size + y.size)
    swapped = tuple(
        i + y.size if i < x.size else i - x.size for i in range(total.size)
    )
    return FinFun._trusted(total, total, swapped)


def is_injection(f: FinFun) -> bool:
    return len(set(f.map)) == f.dom.size


def is_bijection(f: FinFun) -> bool:
    return f.dom.size == f.cod.size and is_injection(f)


def enumerate_functions(dom: FinSet | int, cod: FinSet | int) -> Iterator[FinFun]:
    dom, cod = _as_finset(dom), _as_finset(cod)
    for entries in itertools.product(range(cod.size), repeat=dom.size):
        yield FinFun._trusted(dom, cod, entries)


def enumerate_injections(dom: FinSet | int, cod: FinSet | int) -> Iterator[FinFun]:
    dom, cod = _as_finset(dom), _as_finset(cod)
    for entries in itertools.permutations(range(cod.size), dom.size):
        yield FinFun._trusted(dom, cod, entries)


def enumerate_bijections(dom: FinSet | int, cod: FinSet | int) -> Iterator[FinFun]:
    dom, cod = _as_finset(dom), _as_finset(cod)
    if dom.size != cod.size:
        return
    yield from enumerate_injections(dom, cod)


def enumerate_all_functions(max_size: int) -> Iterator[FinFun]:
    """Every function whose domain and codomain sizes are at most ``max_size``."""
    for d in range(max_size + 1):
        for c in range(max_size + 1):
            yield from enumerate_functions(d, c)


@dataclass(frozen=True)
class Relation:
    """A relation between canonical finite sets as a dom-by-cod boolean matrix."""

    dom: FinSet
    cod: FinSet
    matrix: tuple[tuple[bool, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", tuple(tuple(row) for row in self.matrix))
        if len(self.matrix) != self.dom.size:
            raise ValueError(
                f"matrix has {len(self.matrix)} rows but dom has size {self.dom.size}"
            )
        for x, row in enumerate(self.matrix):
            if len(row) != self.cod.size:
                raise ValueError(
                    f"matrix row {x} has {len(row)} columns but cod has size {self.cod.size}"
                )

    @classmethod
    def from_pairs(
        cls, dom_size: int, cod_size: int, pairs: Iterable[tuple[int, int]]
    ) -> Relation:
        related = set()
        for x, y in pairs:
            if not 0 <= x < dom_size or not 0 <= y < cod_size:
                raise ValueError(f"pair ({x}, {y}) is out of range")
            related.add((x, y))
        matrix = tuple(
            tuple((x, y) in related for y in range(cod_size)) for x in range(dom_size)
        )
        return cls(FinSet(dom_size), FinSet(cod_size), matrix)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The related pairs in lexicographic order."""
        return tuple(
            (x, y)
            for x, row in enumerate(self.matrix)
            for y, hit in enumerate(row)
            if hit
        )

    def __repr__(self) -> str:
        return f"Relation({list(self.pairs())}: {self.dom.size} -> {self.cod.size})"


def rel_identity(x: FinSet | int) -> Relation:
    x = _as_finset(x)
    return Relation(x, x, tuple(tuple(i == j for j in x) for i in x))


def rel_compose(late: Relation, early: Relation) -> Relation:
    """Relational composite: ``x`` relates to ``z`` when some middle ``y`` links them."""
    if early.cod != late.dom:
        raise ValueError(
            f"cannot compose: codomain {early.cod.size} does not match domain {late.dom.size}"
        )
    matrix = tuple(
        tuple(
            any(early.matrix[x][y] and late.matrix[y][z] for y in early.cod)
            for z in late.cod
        )
        for x in early.dom
    )
    return Relation(early.dom, late.cod, matrix)


def rel_product(r: Relation, s: Relation) -> Relation:
    """Cartesian product of relations under row-major pair indexing."""
    dom = FinSet(r.dom.size * s.dom.size)
    cod = FinSet(r.cod.size * s.cod.size)
    matrix = tuple(
        tuple(
            r.matrix[x][y] and s.matrix[a][b]
            for y in r.cod
            for b in s.cod
        )
        for x in r.dom
        for a in s.dom
    )
    return Relation(dom, cod, matrix)


def rel_of_fun(f: FinFun) -> Relation:
    """The graph of a function as a relation."""
    matrix = tuple(tuple(f.map[x] == y for y in f.cod) for x in f.dom)
    return Relation(f.dom, f.cod, matrix)


def is_fun_graph(r: Relation) -> bool:
    """Whether each domain element relates to exactly one codomain element."""
    return all(sum(row) == 1 for row in r.matrix)


def fun_of_rel(r: Relation) -> FinFun:
    """Invert :func:`rel_of_fun`; raises if the relation is not a graph."""
    if not is_fun_graph(r):
        raise ValueError("relation is not the graph of a function")
    return FinFun(r.dom, r.cod, tuple(row.index(True) for row in r.matrix))


# -- wire format ------------------------------------------------------------
#
# FinFun:   {"dom": n, "cod": m, "map": [y0, y1, ...]}
# Relation: {"dom": n, "cod": m, "pairs": [[x, y], ...]}  pairs sorted


def _read_size(data: dict, field: str) -> int:
    if field not in data:
        raise FormatError(f"missing field '{field}'")
    value = data[field]
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise FormatError(f"field '{field}' must be a non-negative integer")
    return value


def finfun_to_dict(f: FinFun) -> dict:
    return {"dom": f.dom.size, "cod": f.cod.size, "map": list(f.map)}


def finfun_from_dict(data: object) -> FinFun:
    if not isinstance(data, dict):
        raise FormatError("expected a JSON object with fields 'dom', 'cod', 'map'")
    dom = _read_size(data, "dom")
    cod = _read_size(data, "cod")
    entries = data.get("map")
    if not isinstance(entries, list):
        raise FormatError("field 'map' must be a list of integers")
    if len(entries) != dom:
        raise FormatError(f"field 'map' has {len(entries)} entries, expected {dom}")
    i = _first_bad_entry(entries, cod)
    if i is not None:
        raise FormatError(f"field 'map[{i}]' must be an integer in [0, {cod})")
    return FinFun._trusted(FinSet(dom), FinSet(cod), tuple(entries))


def relation_to_dict(r: Relation) -> dict:
    return {"dom": r.dom.size, "cod": r.cod.size, "pairs": [list(p) for p in r.pairs()]}


def relation_from_dict(data: object) -> Relation:
    if not isinstance(data, dict):
        raise FormatError("expected a JSON object with fields 'dom', 'cod', 'pairs'")
    dom = _read_size(data, "dom")
    cod = _read_size(data, "cod")
    raw = data.get("pairs")
    if not isinstance(raw, list):
        raise FormatError("field 'pairs' must be a list of [x, y] pairs")
    pairs = []
    for i, entry in enumerate(raw):
        ok = (
            isinstance(entry, list)
            and len(entry) == 2
            and all(isinstance(v, int) and not isinstance(v, bool) for v in entry)
        )
        if not ok:
            raise FormatError(f"field 'pairs[{i}]' must be a pair of integers")
        x, y = entry
        if not 0 <= x < dom or not 0 <= y < cod:
            raise FormatError(f"field 'pairs[{i}]' is out of range for dom {dom}, cod {cod}")
        pairs.append((x, y))
    return Relation.from_pairs(dom, cod, pairs)
