"""Fiber-counting profiles of finite functions.

The multiplicity profile of ``f`` records, for each ``i``, how many codomain
points have exactly ``i`` preimages; the tail profile records how many have
at least ``i``.  Both are finitely supported maps from naturals to naturals
and both are additive under disjoint union, which is what makes them useful
as conversion invariants.

Inside the library both are read from one dense count, :func:`size_counts`,
which costs memory linear in ``dom`` however large ``cod`` is; normal forms
and registry measures read it too.  At the boundary a profile is the sparse
:class:`Profile`: an absent index means count zero and a stored count is
never zero, and addition and the pointwise order are the vector operations
on finitely supported sequences.  ``Profile(...)`` and
:func:`profile_from_dict` validate every entry; the profiles the library
builds are normal by construction and skip that through ``Profile._trusted``.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping

from .finset import FinFun, FinSet, FormatError, reject_unknown_fields


class Profile:
    """A finitely supported map from natural indices to natural counts."""

    __slots__ = ("_counts",)

    def __init__(
        self, counts: Mapping[int, int] | Iterable[tuple[int, int]] = ()
    ) -> None:
        items = counts.items() if isinstance(counts, Mapping) else counts
        acc: dict[int, int] = {}
        for index, count in items:
            if not isinstance(index, int) or isinstance(index, bool) or index < 0:
                raise ValueError(f"profile index must be a natural number, got {index!r}")
            if not isinstance(count, int) or isinstance(count, bool) or count < 0:
                raise ValueError(f"profile count must be a natural number, got {count!r}")
            if count:
                acc[index] = acc.get(index, 0) + count
        # keep insertion order sorted so iteration and repr are deterministic
        object.__setattr__(self, "_counts", dict(sorted(acc.items())))

    @classmethod
    def _trusted(cls, counts: dict[int, int]) -> Profile:
        """Build without validation, for counts that are normal by construction.

        ``counts`` must map ascending natural indices to positive counts.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "_counts", counts)
        return p

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Profile is immutable")

    def __getitem__(self, index: int) -> int:
        return self._counts.get(index, 0)

    def __iter__(self) -> Iterator[int]:
        return iter(self._counts)

    def __len__(self) -> int:
        """The support size; also the truth value, so the empty profile is falsy."""
        return len(self._counts)

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(self._counts.items())

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(self._counts)

    def __add__(self, other: Profile) -> Profile:
        if not isinstance(other, Profile):
            return NotImplemented
        a, b = self._counts, other._counts
        merged = {i: a.get(i, 0) + b.get(i, 0) for i in sorted(a.keys() | b.keys())}
        return Profile._trusted(merged)

    def __ge__(self, other: Profile) -> bool:
        """Pointwise dominance (``<=`` is its reflection).

        Counts are never negative, so only ``other``'s support needs checking.
        """
        if not isinstance(other, Profile):
            return NotImplemented
        return all(self._counts.get(i, 0) >= n for i, n in other._counts.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Profile):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:
        return hash(tuple(self._counts.items()))

    def __repr__(self) -> str:
        return f"Profile({self._counts})"


def fiber_sizes(f: FinFun) -> list[int]:
    """``sizes[y]`` is the number of preimages of codomain point ``y``."""
    sizes = [0] * f.cod.size
    for y in f.map:
        sizes[y] += 1
    return sizes


def size_counts(f: FinFun) -> list[int]:
    """``counts[i]`` is the number of codomain points with exactly ``i`` preimages.

    The list ends at the largest fiber size and is empty only when the
    codomain is.  A codomain up to twice the domain is counted in one pass
    over :func:`fiber_sizes`; a larger one from its hit points, with the
    unhit points added at index 0 in one step.

    >>> size_counts(FinFun.from_map([0, 0, 1], 3))
    [1, 1, 1]
    """
    if f.cod.size > 2 * f.dom.size:
        hits = Counter(f.map)
        by_size = Counter(hits.values())
        by_size[0] = f.cod.size - len(hits)
        return [by_size[i] for i in range(max(by_size) + 1)]
    sizes = fiber_sizes(f)
    counts = [0] * (max(sizes, default=-1) + 1)
    for size in sizes:
        counts[size] += 1
    return counts


def tail_counts(counts: list[int]) -> list[int]:
    """The suffix sums of a :func:`size_counts` list: ``tails[i] == sum(counts[i:])``."""
    return list(itertools.accumulate(reversed(counts)))[::-1]


def phi_profile(f: FinFun) -> Profile:
    """Multiplicity profile: index ``i`` counts codomain points with ``i`` preimages.

    Indices 0 and 1 participate like any other: unhit codomain points show up
    at index 0.

    >>> phi_profile(FinFun.from_map([0, 0, 1], 2))
    Profile({1: 1, 2: 1})
    """
    return Profile._trusted({i: n for i, n in enumerate(size_counts(f)) if n})


def gamma_profile(f: FinFun) -> Profile:
    """Tail profile: index ``i`` counts codomain points with at least ``i`` preimages.

    Index 0 is the codomain size.  Entries are non-increasing in ``i`` and
    ``gamma[i]`` equals the sum of ``phi[k]`` over ``k >= i``.

    >>> gamma_profile(identity_like := FinFun.from_map([0, 1], 2))
    Profile({0: 2, 1: 2})
    """
    return Profile._trusted(dict(enumerate(tail_counts(size_counts(f)))))


def realize_profile(profile: Profile) -> FinFun:
    """A canonical function whose multiplicity profile is ``profile``.

    Codomain points are laid out in blocks of increasing fiber size and the
    domain fills each fiber consecutively, so the zero-fiber points come
    first and the largest fibers land on the highest codomain indices.

    >>> realize_profile(Profile({2: 1})).map
    (0, 0)
    """
    entries: list[int] = []
    cod = 0
    for i, count in profile.items():
        for _ in range(count):
            entries.extend([cod] * i)
            cod += 1
    return FinFun._trusted(FinSet(len(entries)), FinSet(cod), tuple(entries))


# -- wire format ------------------------------------------------------------
#
# {"profile": {"0": 2, "2": 1}}   keys are decimal strings, ascending


def profile_to_dict(p: Profile) -> dict:
    return {"profile": {str(i): n for i, n in p.items()}}


def profile_from_dict(data: object) -> Profile:
    if not isinstance(data, dict) or "profile" not in data:
        raise FormatError("expected a JSON object with field 'profile'")
    reject_unknown_fields(data, ("profile",))
    raw = data["profile"]
    if not isinstance(raw, dict):
        raise FormatError("field 'profile' must be an object of index -> count")
    counts = {}
    for key, value in raw.items():
        if not isinstance(key, str) or not (key.isascii() and key.isdigit()):
            raise FormatError(f"field 'profile' has non-numeric index {key!r}")
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise FormatError(f"field 'profile[{key}]' must be a non-negative integer")
        counts[int(key)] = counts.get(int(key), 0) + value
    return Profile._trusted({i: n for i, n in sorted(counts.items()) if n})
