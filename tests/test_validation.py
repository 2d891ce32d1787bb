"""Validation happens once, where data enters.

The public ``FinFun`` constructor and ``finfun_from_dict`` must accept and
reject exactly what the per-entry rule below accepts and rejects, naming the
same first bad entry.  Morphisms and profiles the library builds itself
skip validation, so each of them must come out exactly as the validating
constructor would have built it.
"""

import enum

import pytest
from hypothesis import given, strategies as st

from pcdres import (
    FinFun,
    FinSet,
    FormatError,
    REL_TIMES_THEORY,
    Profile,
    Relation,
    TheoryVariant,
    braiding,
    compose,
    decide,
    disjoint_union,
    enumerate_all_functions,
    enumerate_injections,
    finfun_from_dict,
    gamma_profile,
    identity,
    normal_form,
    oracle_convertible,
    phi_profile,
    profile_from_dict,
    realize_profile,
    rel_product,
    relation_from_dict,
    relx_convert,
    witness,
    witness_from_dict,
)


class Level(enum.IntEnum):
    LOW = 0
    HIGH = 3


def first_bad_entry(entries, cod):
    """The per-entry rule: elements are non-bool ints in ``[0, cod)``."""
    for i, y in enumerate(entries):
        if not isinstance(y, int) or isinstance(y, bool) or not 0 <= y < cod:
            return i
    return None


MIXED_VALUE = st.one_of(
    st.integers(-2, 6),
    st.integers(),
    st.booleans(),
    st.floats(),
    st.text(max_size=2),
    st.sampled_from(list(Level)),
)
ENTRIES = st.one_of(
    st.lists(st.integers(0, 5), max_size=8),
    st.lists(st.integers(-1, 6), max_size=8),
    st.lists(st.one_of(st.integers(0, 5), st.booleans(), st.sampled_from(list(Level))), max_size=8),
    st.lists(MIXED_VALUE, max_size=8),
)


@given(ENTRIES, st.integers(0, 6))
def test_constructor_matches_per_entry_rule(entries, cod):
    bad = first_bad_entry(entries, cod)
    if bad is None:
        f = FinFun(FinSet(len(entries)), FinSet(cod), entries)
        assert f.map == tuple(entries)
        return
    with pytest.raises(ValueError, match=rf"^map\[{bad}\] = .* is not an element") as info:
        FinFun(FinSet(len(entries)), FinSet(cod), entries)
    assert type(info.value) is ValueError


@given(ENTRIES, st.integers(0, 6))
def test_parser_matches_per_entry_rule(entries, cod):
    data = {"dom": len(entries), "cod": cod, "map": list(entries)}
    bad = first_bad_entry(entries, cod)
    if bad is None:
        assert finfun_from_dict(data) == FinFun(FinSet(len(entries)), FinSet(cod), entries)
        return
    message = rf"^field 'map\[{bad}\]' must be an integer in \[0, {cod}\)$"
    with pytest.raises(FormatError, match=message) as info:
        finfun_from_dict(data)
    assert type(info.value) is FormatError


def test_int_subclasses_other_than_bool_are_elements():
    f = FinFun.from_map([Level.HIGH, 0, Level.LOW], 4)
    assert f.map == (3, 0, 0)
    assert finfun_from_dict({"dom": 1, "cod": 4, "map": [Level.HIGH]}).map == (3,)
    with pytest.raises(ValueError, match=r"map\[1\] = <Level.HIGH: 3>"):
        FinFun.from_map([0, Level.HIGH], 3)
    with pytest.raises(ValueError, match=r"map\[0\] = False"):
        FinFun.from_map([False], 1)


# -- library-built morphisms ---------------------------------------------------


def assert_as_validated(m):
    """``m`` equals, and hashes like, its data passed through the public constructor."""
    assert isinstance(m.map, tuple)
    again = FinFun(FinSet(m.dom.size), FinSet(m.cod.size), list(m.map))
    assert again == m and hash(again) == hash(m)


def finfuns(dom=st.integers(0, 5), cod=st.integers(0, 5)):
    def build(sizes):
        d, c = sizes
        if c == 0:  # the filter leaves only the empty map here
            return st.just(FinFun.from_map([], 0))
        return st.lists(st.integers(0, c - 1), min_size=d, max_size=d).map(
            lambda m: FinFun.from_map(m, c)
        )

    return st.tuples(dom, cod).filter(lambda s: s[1] or not s[0]).flatmap(build)


@given(st.data())
def test_compose_and_union_come_out_validated(data):
    f = data.draw(finfuns())
    g = data.draw(finfuns(dom=st.just(f.cod.size)))
    assert_as_validated(compose(g, f))
    assert_as_validated(disjoint_union(f, g))
    assert_as_validated(identity(f.dom))
    assert_as_validated(braiding(f.dom, g.cod))


def test_enumerators_come_out_validated():
    for f in enumerate_all_functions(3):
        assert_as_validated(f)
    for d in range(4):
        for c in range(4):
            for f in enumerate_injections(d, c):
                assert_as_validated(f)


@given(st.dictionaries(st.integers(0, 5), st.integers(0, 3), max_size=5))
def test_realized_profiles_come_out_validated(counts):
    assert_as_validated(realize_profile(Profile(counts)))


def assert_profile_as_validated(p):
    """``p`` is normal and equals, and hashes like, its counts passed through ``Profile``."""
    indices = [i for i, _ in p.items()]
    assert indices == sorted(indices) and all(n > 0 for _, n in p.items())
    again = Profile(dict(p.items()))
    assert again == p and hash(again) == hash(p)


@given(finfuns(), finfuns())
def test_library_built_profiles_come_out_validated(f, g):
    built = [phi_profile(f), gamma_profile(f), phi_profile(g), gamma_profile(g)]
    built += [normal_form(variant, f) for variant in TheoryVariant]
    built += [built[0] + built[2], built[1] + built[3]]
    for p in built:
        assert_profile_as_validated(p)


@given(finfuns(), finfuns())
def test_witness_parts_come_out_validated(f, g):
    for variant in TheoryVariant:
        if decide(variant, f, g):
            w = witness(variant, f, g)
            for part in (w.xi1, w.xi2, w.j):
                assert_as_validated(part)


def test_solve_discard_outputs_come_out_validated():
    funs = list(enumerate_all_functions(2))
    solved = 0
    for theory in TheoryVariant:
        for f in funs:
            for g in funs:
                w = oracle_convertible(theory, f, g)
                if w is not None:
                    assert_as_validated(w.xi2)
                    assert_as_validated(w.j)
                    solved += 1
        m = FinFun.from_map([0, 1, 1], 3)
        found = theory.solve_discard(m, FinFun.from_map([0], 1), 2, 4)
        assert found is not None
        for part in found:
            assert_as_validated(part)
        split = theory.split_tensor(FinFun.from_map([0, 2, 1], 3), FinFun.from_map([0], 1), 2, 2)
        assert split == FinFun.from_map([1, 0], 2)
        assert_as_validated(split)
    assert solved == 70 + 97


def assert_rel_as_validated(r):
    """``r`` equals, and hashes like, its pairs passed through the public constructor."""
    assert isinstance(r.graph, frozenset)
    again = Relation(r.dom, r.cod, r.graph)
    assert again == r and hash(again) == hash(r)


def test_rel_times_outputs_come_out_validated():
    theory = REL_TIMES_THEORY
    rels = [
        r
        for d in range(3)
        for c in range(3)
        for r in theory.morphisms(FinSet(d), FinSet(c))
    ]
    for r in rels:
        assert_rel_as_validated(r)
    small = [r for r in rels if r.dom.size * r.cod.size <= 2]
    split = 0
    for g in small:
        for j in small:
            h = rel_product(g, j)
            found = theory.split_tensor(h, g, j.dom.size, j.cod.size)
            if found is not None:
                assert_rel_as_validated(found)
                split += 1
        for f in small:
            w = relx_convert(f, g)
            for part in (w.xi1, w.xi2, w.j):
                assert_rel_as_validated(part)
    assert split == len(small) ** 2


FUN = {"dom": 1, "cod": 1, "map": [0]}


@pytest.mark.parametrize(
    "decode, data, message",
    [
        (finfun_from_dict, {**FUN, "extra": 1}, "unknown field 'extra'"),
        (relation_from_dict, {"dom": 1, "cod": 1, "pairs": [], "map": [0]}, "unknown field 'map'"),
        (witness_from_dict, {"Z": 0, "xi1": FUN, "xi2": FUN, "j": FUN, "k": 0}, "unknown field 'k'"),
        (
            witness_from_dict,
            {"Z": 0, "xi1": FUN, "xi2": {**FUN, "extra": 1}, "j": FUN},
            "field 'xi2': unknown field 'extra'",
        ),
        (profile_from_dict, {"profile": {}, "Profile": {}}, "unknown field 'Profile'"),
    ],
    ids=["finfun", "relation", "witness", "witness-part", "profile"],
)
def test_decoders_reject_unknown_fields(decode, data, message):
    with pytest.raises(FormatError) as exc:
        decode(data)
    assert str(exc.value) == message
