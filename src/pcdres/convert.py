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
invent fresh unhit outputs).  :func:`decide` applies the criterion;
:func:`witness` builds an explicit ``(Z, xi1, xi2, j)`` tuple realizing it.

Each :class:`TheoryVariant` member is one whole theory: besides the
criterion it carries the category operations, the wire format and the
discarding solver that the brute-force search in :mod:`pcdres.oracle` runs.
:class:`TheoryInstance` is the protocol every theory meets, and
:func:`check_witness` replays the equation in any of them.
"""

from __future__ import annotations

import enum
import itertools
from collections import Counter
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
    identity,
    is_bijection,
    is_injection,
    reject_unknown_fields,
    relation_from_dict,
    relation_to_dict,
)
from .profiles import Profile, fiber_sizes, gamma_profile, phi_profile, realize_profile


class NotConvertibleError(ValueError):
    """Raised when a witness is requested for a pair that fails :func:`decide`."""


class TheoryInstance:
    """Category operations plus a free subtheory, enough to run the search.

    The :class:`TheoryVariant` members and the oracle's relational theory
    implement it; ``check_witness`` also reads ``morphism_type``, and the
    command line calls ``witness(f, g)`` and the two ``*_from_dict`` decoders.
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

    def profile(self, f: FinFun) -> Profile:
        """The classifying fiber statistic for this variant."""
        return phi_profile(f) if self is TheoryVariant.SET_BIJ else gamma_profile(f)

    def witness(self, f: FinFun, g: FinFun) -> Witness:
        return witness(self, f, g)

    def compose(self, late: FinFun, early: FinFun) -> FinFun:
        return compose(late, early)

    def tensor(self, f: FinFun, g: FinFun) -> FinFun:
        return disjoint_union(f, g)

    def obj_tensor(self, x: FinSet, y: FinSet) -> FinSet:
        return FinSet(x.size + y.size)

    def pad(self, f: FinFun, z: FinSet) -> FinFun:
        return disjoint_union(f, identity(z))

    def morphism_from_dict(self, data: object) -> FinFun:
        return finfun_from_dict(data)

    def witness_from_dict(self, data: object) -> Witness:
        return witness_from_dict(data)

    def morphisms(self, dom: FinSet, cod: FinSet) -> Iterator[FinFun]:
        return enumerate_functions(dom, cod)

    def free_morphisms(self, dom: FinSet | int, cod: FinSet | int) -> Iterator[FinFun]:
        """The free morphisms ``dom -> cod`` in enumeration order, built once per shape."""
        return iter(_free_funs(self, getattr(dom, "size", dom), getattr(cod, "size", cod)))

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
        # The equation pins xi2 pointwise on the image of m: points hit from
        # the g-block must land exactly on g's output, points hit only from
        # the junk block must land in the D-block, all others are free.
        n_a, n_b = g.dom.size, g.cod.size
        n_mid = m.cod.size
        forced: dict[int, int] = {}
        must_d: set[int] = set()
        for i, t in enumerate(m.map):
            if i < n_a:
                b = g.map[i]
                if t in must_d:
                    return None
                prev = forced.get(t)
                if prev is None:
                    forced[t] = b
                elif prev != b:
                    return None
            else:
                if t in forced:
                    return None
                must_d.add(t)
        values = list(forced.values())
        if len(set(values)) != len(values):
            return None
        if self is TheoryVariant.SET_BIJ:
            d = n_mid - n_b
            if d < 0 or d > max_d or len(must_d) > d:
                return None
        else:
            d = max(0, n_mid - n_b, len(must_d))
            if d > max_d:
                return None
        used = set(values)
        free_d = d  # forced targets all sit in the g block
        must_left = len(must_d)
        xi2_map = [0] * n_mid
        for t in range(n_mid):
            if t in forced:
                xi2_map[t] = forced[t]
            elif t in must_d:
                slot = next(v for v in range(n_b, n_b + d) if v not in used)
                xi2_map[t] = slot
                used.add(slot)
                free_d -= 1
                must_left -= 1
            else:
                choice = None
                for v in range(n_b + d):
                    if v in used:
                        continue
                    if v >= n_b and free_d - 1 < must_left:
                        continue  # would starve a junk-block point still to come
                    choice = v
                    break
                if choice is None:
                    return None
                xi2_map[t] = choice
                used.add(choice)
                if choice >= n_b:
                    free_d -= 1
        xi2 = FinFun._trusted(m.cod, FinSet(n_b + d), tuple(xi2_map))
        j = FinFun._trusted(
            FinSet(c_size),
            FinSet(d),
            tuple(xi2_map[m.map[n_a + i]] - n_b for i in range(c_size)),
        )
        return xi2, j


@lru_cache(maxsize=None)
def _free_funs(variant: TheoryVariant, dom_size: int, cod_size: int) -> tuple[FinFun, ...]:
    if variant is TheoryVariant.SET_BIJ:
        return tuple(enumerate_bijections(dom_size, cod_size))
    return tuple(enumerate_injections(dom_size, cod_size))


@dataclass(frozen=True)
class Witness:
    """The data of one conversion: auxiliary system, free wirings, junk output."""

    Z: FinSet
    xi1: FinFun | Relation
    xi2: FinFun | Relation
    j: FinFun | Relation


def normal_form(variant: TheoryVariant, f: FinFun) -> Profile:
    """The complete invariant of ``f``'s convertibility class."""
    return variant.profile(f).restrict(variant.excluded_indices)


def decide(variant: TheoryVariant, f: FinFun, g: FinFun) -> bool:
    """Whether ``f`` converts to ``g``: pointwise dominance of normal forms."""
    return normal_form(variant, f) >= normal_form(variant, g)


def equivalent(variant: TheoryVariant, f: FinFun, g: FinFun) -> bool:
    """Mutual convertibility; equivalently, equality of normal forms."""
    return decide(variant, f, g) and decide(variant, g, f)


def representative(variant: TheoryVariant, form: Profile) -> FinFun:
    """A canonical function whose normal form is ``form``.

    Raises ValueError when no function has that normal form.  Multiplicity
    forms only need to avoid index 1; tail forms must in addition be
    non-increasing, since a fiber of size 5 is also a fiber of size 4.
    """
    bad = set(form.support) & set(variant.excluded_indices)
    if bad:
        raise ValueError(f"normal form may not mention excluded indices {sorted(bad)}")
    if variant is TheoryVariant.SET_BIJ:
        return realize_profile(form)
    if not form.support:
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


def _order_by_fiber_size(sizes: list[int], descending: bool) -> list[int]:
    """Codomain points by fiber size, ties by lowest index (a counting sort)."""
    buckets: list[list[int]] = [[] for _ in range(max(sizes, default=0) + 1)]
    for y, size in enumerate(sizes):
        buckets[size].append(y)
    if descending:
        buckets.reverse()
    return [y for bucket in buckets for y in bucket]


def _match_fibers(
    f_sizes: list[int], g_sizes: list[int], descending: bool
) -> list[int]:
    """Pair codomain points of ``F`` and ``G`` fiber by fiber.

    Takes the fiber sizes of both and returns ``xi2_map``, which sends each
    codomain point of ``F`` to its partner in ``G``.  Ordering is by fiber
    size (ties by lowest index) so the pairing is deterministic.
    """
    xi2_map = [0] * len(f_sizes)
    f_order = _order_by_fiber_size(f_sizes, descending)
    g_order = _order_by_fiber_size(g_sizes, descending)
    for y, b in zip(f_order, g_order):
        xi2_map[y] = b
    return xi2_map


def _route_inputs(
    F: FinFun, G: FinFun, f_sizes: list[int], xi2_map: list[int]
) -> list[int]:
    """Pick ``xi1`` sending each input of ``G`` into the matched fiber of ``F``.

    Within a fiber the least not-yet-used preimage is taken, so the result is
    deterministic and injective.
    """
    # stable counting sort of F's domain by fiber: the preimages of y, in
    # ascending order, start at by_fiber[next_free[y]]
    next_free = list(itertools.accumulate(f_sizes, initial=0))
    cursor = next_free.copy()
    by_fiber = [0] * F.dom.size
    for x, y in enumerate(F.map):
        by_fiber[cursor[y]] = x
        cursor[y] += 1
    xi2_inverse = [0] * len(xi2_map)
    for y, b in enumerate(xi2_map):
        xi2_inverse[b] = y
    xi1_map = []
    for b in G.map:
        y = xi2_inverse[b]
        xi1_map.append(by_fiber[next_free[y]])
        next_free[y] += 1
    return xi1_map


def _wiring(f, g, f_sizes, g_sizes, z: FinSet, j: FinFun, descending: bool) -> Witness:
    """The witness wiring ``F = f + 1_Z`` to ``G = g + j``, matching fibers by size.

    ``f_sizes`` and ``g_sizes`` are the fiber sizes of ``f`` and ``g``.
    """
    F = disjoint_union(f, identity(z))
    G = disjoint_union(g, j)
    F_sizes = f_sizes + [1] * z.size
    xi2_map = _match_fibers(F_sizes, g_sizes + fiber_sizes(j), descending)
    xi1_map = _route_inputs(F, G, F_sizes, xi2_map)
    xi1 = FinFun._trusted(G.dom, F.dom, tuple(xi1_map))
    xi2 = FinFun._trusted(F.cod, G.cod, tuple(xi2_map))
    return Witness(z, xi1, xi2, j)


def _witness_bij(f: FinFun, g: FinFun, f_sizes: list[int], g_sizes: list[int]) -> Witness:
    phi_f, phi_g = Profile(Counter(f_sizes)), Profile(Counter(g_sizes))
    deficit = {
        i: phi_f[i] - phi_g[i]
        for i in set(phi_f.support) | set(phi_g.support)
    }
    if deficit.get(1, 0) >= 0:
        z = FinSet(0)
        j = realize_profile(Profile(deficit))
    else:
        # not enough singleton fibers in f: pad with exactly the identities missing
        z = FinSet(phi_g[1] - phi_f[1])
        j = realize_profile(Profile({i: n for i, n in deficit.items() if i != 1}))
    return _wiring(f, g, f_sizes, g_sizes, z, j, descending=False)


def _witness_inj(f: FinFun, g: FinFun, f_sizes: list[int], g_sizes: list[int]) -> Witness:
    hit_f = len(f_sizes) - f_sizes.count(0)
    hit_g = len(g_sizes) - g_sizes.count(0)
    # Z covers both the codomain gap and any shortfall in hit outputs; D then
    # balances the bijection between the padded codomains.
    z = FinSet(max(0, g.cod.size - f.cod.size, hit_g - hit_f))
    d = FinSet(f.cod.size + z.size - g.cod.size)
    j = FinFun._trusted(FinSet(0), d, ())
    return _wiring(f, g, f_sizes, g_sizes, z, j, descending=True)


def witness(variant: TheoryVariant, f: FinFun, g: FinFun) -> Witness:
    """An explicit conversion from ``f`` to ``g``; requires ``decide`` to hold.

    With bijections free, the junk ``j`` realizes the profile surplus of
    ``f`` over ``g`` and ``Z`` supplies any missing singleton fibers.  With
    injections free, ``j`` is output-only: ``Z`` and ``cod(j)`` pad the two
    codomains to a common size and ``xi2`` matches fibers largest-first so
    every fiber of ``g`` fits inside its donor.
    """
    if not decide(variant, f, g):
        raise NotConvertibleError(
            f"f ({f.dom.size} -> {f.cod.size}) does not convert to "
            f"g ({g.dom.size} -> {g.cod.size}) under {variant.value}"
        )
    build = _witness_bij if variant is TheoryVariant.SET_BIJ else _witness_inj
    return build(f, g, fiber_sizes(f), fiber_sizes(g))


def check_witness(theory, f, g, w: Witness) -> bool:
    """Replay ``xi2 . (f (x) 1_Z) . xi1 = g (x) j``; False on any malformed or failing part.

    ``theory`` is a :class:`TheoryVariant` member or the oracle's
    ``REL_TIMES_THEORY``; the equation is replayed through its operations.
    """
    parts = (w.xi1, w.xi2, w.j)
    if not (isinstance(w.Z, FinSet) and all(isinstance(m, theory.morphism_type) for m in parts)):
        return False
    if w.xi1.dom != theory.obj_tensor(g.dom, w.j.dom):
        return False
    if w.xi1.cod != theory.obj_tensor(f.dom, w.Z):
        return False
    if w.xi2.dom != theory.obj_tensor(f.cod, w.Z):
        return False
    if w.xi2.cod != theory.obj_tensor(g.cod, w.j.cod):
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


def witness_from_dict(data: object, relational: bool = False) -> Witness:
    if not isinstance(data, dict):
        raise FormatError("expected a JSON object with fields 'Z', 'xi1', 'xi2', 'j'")
    reject_unknown_fields(data, ("Z", "xi1", "xi2", "j"))
    for field in ("Z", "xi1", "xi2", "j"):
        if field not in data:
            raise FormatError(f"missing field '{field}'")
    z = data["Z"]
    if not isinstance(z, int) or isinstance(z, bool) or z < 0:
        raise FormatError("field 'Z' must be a non-negative integer")
    decode = relation_from_dict if relational else finfun_from_dict
    parts = {}
    for field in ("xi1", "xi2", "j"):
        try:
            parts[field] = decode(data[field])
        except FormatError as exc:
            raise FormatError(f"field '{field}': {exc}") from None
    return Witness(FinSet(z), parts["xi1"], parts["xi2"], parts["j"])
