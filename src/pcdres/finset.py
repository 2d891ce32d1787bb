"""Canonical finite sets, functions between them, and relations.

A finite set of size ``n`` has elements ``0 .. n-1``; there is exactly one
such set per size, so objects are determined by a single integer.  Functions
store their whole graph as a tuple (``map[x]`` is the image of ``x``) and
relations store the frozenset of their related pairs ``(x, y)``, a format
known to this module alone.  Everything is immutable and compares
structurally, which makes morphisms usable as dict keys and set members.

Monoidal structure conventions, fixed once and used everywhere:

* disjoint union puts the left block first: element ``i`` of ``X + Y`` is
  ``i`` of ``X`` when ``i < X.size`` and ``i - X.size`` of ``Y`` otherwise;
* cartesian products are row-major: the pair ``(x, a)`` with ``x`` in ``X``
  and ``a`` in ``A`` has index ``x * A.size + a``;
* the braiding on ``X + Y`` sends ``i`` to ``i + Y.size`` for ``i < X.size``
  and to ``i - X.size`` otherwise.

Enumerators yield morphisms in lexicographic order of their map tuples and
never repeat an entry.

Morphisms are validated once, where their data enters: the public
``FinFun`` and ``Relation`` constructors, :func:`finfun_from_dict` and
:func:`relation_from_dict` check every entry or pair, and the decoders
reject unknown fields.  Morphisms the library builds itself from already
valid parts (composites, products, disjoint unions, identities,
enumerations, witnesses) are in range by construction and go through the
private trusted constructors ``FinFun._trusted`` and ``Relation._trusted``,
which check nothing.

The value types are cheap to build and hash, because the search layers build
tens of thousands per call.  ``FinSet`` instances are shared per size:
``FinSet(n)`` for a plain ``int`` below a fixed bound returns one instance
per ``n``.  ``FinFun`` and ``Relation`` are slotted frozen dataclasses.
Their trusted constructors set the slots directly, and they hash their two
sizes with their entries or pairs.

``FinFun`` has one more, private slot, ``_counts``: a memo of the function's
fiber-size counts (``profiles.size_counts`` as a tuple), or ``None``.  It is
not a dataclass field, so equality, hashing, ``repr``, pickling, copying and
the wire format ignore it.  Every constructor sets it to ``None``, so a copy
or an unpickled function has no memo.  Only the monotone screen fills it,
on the processes and disjoint unions it screens, whether it keeps them for
a whole run or streams them.  Only the screen, which counts a union once
per pair of its parts' memos, and the built-in ``phi_i`` and ``gamma_i``
read it.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from operator import itemgetter


class FormatError(ValueError):
    """A serialized value violated the wire format; the message names the field."""


# FinSet(n) for an ``int`` n below this bound returns one shared instance per size.
_SHARED_SIZES = 4096
_shared: dict[int, FinSet] = {}

# The value types declare ``__slots__`` by hand: ``dataclass(slots=True)``
# rebuilds the class, and on Python 3.10 and 3.11 its frozen ``__setattr__``
# then raises TypeError, not FrozenInstanceError, for a non-field name.  A
# frozen slotted instance cannot be restored slot by slot, so each class
# pickles and copies through ``__reduce__``.


@dataclass(frozen=True, init=False)
class FinSet:
    """The canonical finite set {0, ..., size - 1}.

    Every ``FinSet(n)`` with ``n`` a plain ``int`` below a fixed bound is the
    same instance, so building one costs a dict lookup; larger sizes and
    ``int`` subclasses build a new, equal instance.
    """

    __slots__ = ("size",)
    size: int

    def __new__(cls, size: int) -> FinSet:
        if type(size) is int:  # never a bool, whose hash would find the entry of 0 or 1
            try:
                return _shared[size]
            except KeyError:
                pass
        if not isinstance(size, int) or isinstance(size, bool) or size < 0:
            raise ValueError(f"FinSet size must be a non-negative integer, got {size!r}")
        s = object.__new__(cls)
        object.__setattr__(s, "size", size)
        if type(size) is int and size < _SHARED_SIZES:
            _shared[size] = s
        return s

    def __reduce__(self):
        return FinSet, (self.size,)

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.size))


def _as_finset(obj: FinSet | int) -> FinSet:
    return obj if isinstance(obj, FinSet) else FinSet(obj)


_INT_ONLY = frozenset({int})


def _is_element(v: object, size: int) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and 0 <= v < size


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
        if not _is_element(y, cod_size):
            return i
    return None


@dataclass(frozen=True)
class FinFun:
    """A total function between canonical finite sets, stored as its graph."""

    __slots__ = ("dom", "cod", "map", "_counts")  # _counts: see the module docstring
    dom: FinSet
    cod: FinSet
    map: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "map", tuple(self.map))
        object.__setattr__(self, "_counts", None)
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
        f = _new(cls)
        _set_fun_dom(f, dom)
        _set_fun_cod(f, cod)
        _set_fun_map(f, entries)
        _set_fun_counts(f, None)
        return f

    @classmethod
    def from_map(cls, entries: Sequence[int], cod_size: int) -> FinFun:
        """Build a function from its value list; the domain size is implied."""
        entries = tuple(entries)
        return cls(FinSet(len(entries)), FinSet(cod_size), entries)

    def __call__(self, x: int) -> int:
        return self.map[x]

    def __hash__(self) -> int:
        return hash((self.dom.size, self.cod.size, self.map))

    def __reduce__(self):
        return FinFun, (self.dom, self.cod, self.map)

    def __repr__(self) -> str:
        return f"FinFun({list(self.map)}: {self.dom.size} -> {self.cod.size})"


# The trusted constructors set the slots through these, bound once.
_new = object.__new__
_set_fun_dom, _set_fun_cod, _set_fun_map, _set_fun_counts = (
    FinFun.dom.__set__, FinFun.cod.__set__, FinFun.map.__set__, FinFun._counts.__set__
)


def identity(x: FinSet | int) -> FinFun:
    x = _as_finset(x)
    return FinFun._trusted(x, x, tuple(range(x.size)))


def compose(late: FinFun, early: FinFun) -> FinFun:
    """The composite ``late . early`` (apply ``early`` first).

    The entries are gathered by one ``itemgetter`` call, which looks up
    every point in C; a per-point ``late.map.__getitem__`` costs a Python
    call each, several times as much on large maps and on the oracle's
    small ones alike.  ``itemgetter`` needs two or more points to return
    a tuple: with one it returns the bare entry and with none it cannot be
    built, so those two maps take a plain path.
    """
    if early.cod.size != late.dom.size:
        raise ValueError(
            f"cannot compose: codomain {early.cod.size} does not match domain {late.dom.size}"
        )
    entries = early.map
    if len(entries) > 1:
        entries = itemgetter(*entries)(late.map)
    elif entries:
        entries = (late.map[entries[0]],)
    return FinFun._trusted(early.dom, late.cod, entries)


def disjoint_union(f: FinFun, g: FinFun) -> FinFun:
    """Run ``f`` and ``g`` side by side on the disjoint union, left block first."""
    shift = f.cod.size
    return FinFun._trusted(
        FinSet(f.dom.size + g.dom.size),
        FinSet(f.cod.size + g.cod.size),
        f.map + tuple([y + shift for y in g.map]),
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
    """A relation between canonical finite sets, stored as its set of related pairs.

    ``graph`` holds the pairs ``(x, y)`` with ``x`` in ``dom`` and ``y`` in
    ``cod``; every operation costs time in proportion to the pairs it reads
    and writes, never to ``dom.size * cod.size``.
    """

    __slots__ = ("dom", "cod", "graph")
    dom: FinSet
    cod: FinSet
    graph: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        graph = frozenset((x, y) for x, y in self.graph)
        for x, y in graph:
            if not (_is_element(x, self.dom.size) and _is_element(y, self.cod.size)):
                raise ValueError(f"pair ({x!r}, {y!r}) is out of range")
        object.__setattr__(self, "graph", graph)

    @classmethod
    def _trusted(cls, dom: FinSet, cod: FinSet, graph: frozenset[tuple[int, int]]) -> Relation:
        """Build without validation, for pairs that are in range by construction."""
        r = _new(cls)
        _set_rel_dom(r, dom)
        _set_rel_cod(r, cod)
        _set_rel_graph(r, graph)
        return r

    @classmethod
    def from_pairs(
        cls, dom_size: int, cod_size: int, pairs: Iterable[tuple[int, int]]
    ) -> Relation:
        return cls(FinSet(dom_size), FinSet(cod_size), pairs)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The related pairs in lexicographic order."""
        return tuple(sorted(self.graph))

    def __hash__(self) -> int:
        return hash((self.dom.size, self.cod.size, self.graph))

    def __reduce__(self):
        return Relation, (self.dom, self.cod, self.graph)

    def __repr__(self) -> str:
        return f"Relation({list(self.pairs())}: {self.dom.size} -> {self.cod.size})"


_set_rel_dom, _set_rel_cod, _set_rel_graph = (
    Relation.dom.__set__, Relation.cod.__set__, Relation.graph.__set__
)


def rel_identity(x: FinSet | int) -> Relation:
    x = _as_finset(x)
    return Relation._trusted(x, x, frozenset(zip(range(x.size), range(x.size))))


def rel_compose(late: Relation, early: Relation) -> Relation:
    """Relational composite: ``x`` relates to ``z`` when some middle ``y`` links them."""
    if early.cod.size != late.dom.size:
        raise ValueError(
            f"cannot compose: codomain {early.cod.size} does not match domain {late.dom.size}"
        )
    after: dict[int, list[int]] = {}
    for y, z in late.graph:
        after.setdefault(y, []).append(z)
    graph = frozenset((x, z) for x, y in early.graph for z in after.get(y, ()))
    return Relation._trusted(early.dom, late.cod, graph)


def rel_product(r: Relation, s: Relation) -> Relation:
    """Cartesian product of relations under row-major pair indexing."""
    n_a, n_b = s.dom.size, s.cod.size
    graph = frozenset((x * n_a + a, y * n_b + b) for x, y in r.graph for a, b in s.graph)
    return Relation._trusted(FinSet(r.dom.size * n_a), FinSet(r.cod.size * n_b), graph)


def rel_pad(r: Relation, z: FinSet | int) -> Relation:
    """``rel_product(r, rel_identity(z))`` without building the identity.

    Costs time in proportion to the ``len(r.graph) * z`` pairs written, so an
    empty ``r`` pads for free at any ``z``.
    """
    n = _as_finset(z).size
    graph = frozenset((x * n + a, y * n + a) for x, y in r.graph for a in range(n))
    return Relation._trusted(FinSet(r.dom.size * n), FinSet(r.cod.size * n), graph)


def rel_of_fun(f: FinFun) -> Relation:
    """The graph of a function as a relation."""
    return Relation._trusted(f.dom, f.cod, frozenset(enumerate(f.map)))


def is_fun_graph(r: Relation) -> bool:
    """Whether each domain element relates to exactly one codomain element."""
    return len(r.graph) == r.dom.size == len({x for x, _ in r.graph})


def fun_of_rel(r: Relation) -> FinFun:
    """Invert :func:`rel_of_fun`; raises if the relation is not a graph."""
    if not is_fun_graph(r):
        raise ValueError("relation is not the graph of a function")
    entries = [0] * r.dom.size
    for x, y in r.graph:
        entries[x] = y
    return FinFun._trusted(r.dom, r.cod, tuple(entries))


# -- wire format ------------------------------------------------------------
#
# FinFun:   {"dom": n, "cod": m, "map": [y0, y1, ...]}
# Relation: {"dom": n, "cod": m, "pairs": [[x, y], ...]}  pairs sorted


def reject_unknown_fields(data: dict, known: tuple[str, ...]) -> None:
    """Raise a :class:`FormatError` naming the first field of ``data`` not in ``known``."""
    for field in data:
        if field not in known:
            raise FormatError(f"unknown field {field!r}")


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
    reject_unknown_fields(data, ("dom", "cod", "map"))
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


def _compact_json(data: object) -> str:
    """``data`` as JSON without spaces, a ``FinFun`` or ``Relation`` in its wire format.

    Every morphism, profile and witness the CLI prints or a report shows is
    written this way.
    """
    if isinstance(data, FinFun):
        data = finfun_to_dict(data)
    elif isinstance(data, Relation):
        data = relation_to_dict(data)
    return json.dumps(data, separators=(",", ":"))


def relation_to_dict(r: Relation) -> dict:
    return {"dom": r.dom.size, "cod": r.cod.size, "pairs": [list(p) for p in r.pairs()]}


def relation_from_dict(data: object) -> Relation:
    if not isinstance(data, dict):
        raise FormatError("expected a JSON object with fields 'dom', 'cod', 'pairs'")
    reject_unknown_fields(data, ("dom", "cod", "pairs"))
    dom = _read_size(data, "dom")
    cod = _read_size(data, "cod")
    raw = data.get("pairs")
    if not isinstance(raw, list):
        raise FormatError("field 'pairs' must be a list of [x, y] pairs")
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
    return Relation._trusted(FinSet(dom), FinSet(cod), frozenset(map(tuple, raw)))
