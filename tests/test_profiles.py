"""Fiber statistics: multiplicity and tail profiles and their algebra."""

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from pcdres import (
    BUILTIN_MEASURES,
    FinFun,
    FinSet,
    FormatError,
    Profile,
    TheoryVariant,
    compose,
    disjoint_union,
    enumerate_all_functions,
    enumerate_bijections,
    gamma_profile,
    identity,
    normal_form,
    phi_profile,
    profile_from_dict,
    profile_to_dict,
    realize_profile,
)
from pcdres.profiles import size_counts

profiles = st.dictionaries(st.integers(0, 4), st.integers(1, 3), max_size=5).map(Profile)


# -- the Profile container ---------------------------------------------------


def test_profile_normalizes():
    assert Profile({0: 0, 2: 1}) == Profile({2: 1})
    assert Profile([(2, 1), (2, 1)]) == Profile({2: 2})  # duplicate indices add up
    assert not Profile()
    assert Profile({3: 1})[3] == 1 and Profile({3: 1})[0] == 0
    assert Profile({4: 1, 0: 2}).support == (0, 4)
    with pytest.raises(ValueError):
        Profile({-1: 1})
    with pytest.raises(ValueError):
        Profile({0: -1})


def test_profile_is_immutable_and_hashable():
    p = Profile({2: 1})
    with pytest.raises(AttributeError):
        p._counts = {}
    assert hash(Profile({1: 2, 0: 1})) == hash(Profile({0: 1, 1: 2}))
    assert len({Profile({2: 1}), Profile({2: 1}), Profile()}) == 2


def test_profile_iterates_its_support_and_refuses_other_operands():
    assert list(Profile({2: 1, 0: 3})) == [0, 2]
    assert (Profile() == 1) is False
    with pytest.raises(TypeError):
        Profile() + 1
    with pytest.raises(TypeError):
        Profile() >= 1


@given(st.dictionaries(st.integers(0, 12), st.integers(1, 5), max_size=8),
       st.dictionaries(st.integers(0, 12), st.integers(1, 5), max_size=8))
def test_profile_addition_matches_counter_reference(a, b):
    merged = Counter(a)
    merged.update(b)
    total = Profile(a) + Profile(b)
    assert dict(total.items()) == dict(merged)
    assert list(total.support) == sorted(total.support)
    assert all(n > 0 for _, n in total.items())


def test_profile_addition_and_order():
    assert Profile({1: 1}) + Profile({1: 2, 0: 1}) == Profile({0: 1, 1: 3})
    assert Profile() + Profile() == Profile()
    assert Profile({2: 2}) >= Profile({2: 1})
    assert Profile({2: 1}) <= Profile({2: 2})
    assert Profile({2: 1}) >= Profile()
    # incomparable: neither dominates
    assert not Profile({0: 1}) >= Profile({2: 1})
    assert not Profile({2: 1}) >= Profile({0: 1})


@given(profiles, profiles, profiles)
def test_profile_monoid_laws(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p + Profile() == p
    assert p + q >= p


# -- profiles of functions ---------------------------------------------------


def test_profile_examples():
    f = FinFun.from_map([0, 0, 1], 2)
    assert phi_profile(f) == Profile({1: 1, 2: 1})
    assert gamma_profile(f) == Profile({0: 2, 1: 2, 2: 1})
    assert phi_profile(identity(3)) == Profile({1: 3})
    assert gamma_profile(identity(3)) == Profile({0: 3, 1: 3})
    empty = FinFun.from_map([], 0)
    assert phi_profile(empty) == Profile()
    assert gamma_profile(empty) == Profile()
    unhit = FinFun.from_map([], 2)
    assert phi_profile(unhit) == Profile({0: 2})
    assert gamma_profile(unhit) == Profile({0: 2})


def test_phi_counts_every_codomain_point():
    # a codomain over twice the domain is counted from the hit points only
    for f in enumerate_all_functions(4):
        sizes = [f.map.count(y) for y in range(f.cod.size)]
        assert phi_profile(f) == Profile(Counter(sizes))


def test_one_count_feeds_every_statistic():
    # the profiles, the registry measures and the normal forms read one dense
    # count; the last three maps are counted from their hit points
    sparse = [
        FinFun.from_map([0, 0, 5], 10**9),
        FinFun.from_map([], 7),
        FinFun.from_map([3, 1, 3], 9),
    ]
    for f in [*enumerate_all_functions(4), *sparse]:
        phi, gamma = phi_profile(f), gamma_profile(f)
        assert size_counts(f) == [phi[i] for i in range(max(phi.support, default=-1) + 1)]
        for i in range(9):
            assert BUILTIN_MEASURES[f"phi_{i}"](f) == phi[i]
            assert BUILTIN_MEASURES[f"gamma_{i}"](f) == gamma[i]
        for variant, stat in ((TheoryVariant.SET_BIJ, phi), (TheoryVariant.SET_INJ, gamma)):
            kept = {i: n for i, n in stat.items() if i not in variant.excluded_indices}
            assert normal_form(variant, f) == Profile(kept)


def test_mass_conservation():
    # total multiplicity is the domain, total count the codomain
    for f in enumerate_all_functions(4):
        phi = phi_profile(f)
        assert sum(i * n for i, n in phi.items()) == f.dom.size
        assert sum(n for _, n in phi.items()) == f.cod.size


def test_tail_identity():
    for f in enumerate_all_functions(4):
        phi, gamma = phi_profile(f), gamma_profile(f)
        top = max(phi.support, default=-1)
        for i in range(top + 2):
            assert gamma[i] == sum(phi[k] for k in range(i, top + 1))


def test_tail_is_non_increasing():
    for f in enumerate_all_functions(3):
        gamma = gamma_profile(f)
        for i in gamma.support:
            assert gamma[i] >= gamma[i + 1]


def test_profiles_add_under_disjoint_union():
    funs = list(enumerate_all_functions(2))
    for f in funs:
        for g in funs:
            fg = disjoint_union(f, g)
            assert phi_profile(fg) == phi_profile(f) + phi_profile(g)
            assert gamma_profile(fg) == gamma_profile(f) + gamma_profile(g)


def test_profiles_are_bijection_invariant():
    for f in enumerate_all_functions(3):
        for pre in enumerate_bijections(f.dom, f.dom):
            for post in enumerate_bijections(f.cod, f.cod):
                conjugated = compose(post, compose(f, pre))
                assert phi_profile(conjugated) == phi_profile(f)
                assert gamma_profile(conjugated) == gamma_profile(f)


# -- realization -------------------------------------------------------------


def test_realize_examples():
    assert realize_profile(Profile()) == FinFun.from_map([], 0)
    assert realize_profile(Profile({2: 1})) == FinFun.from_map([0, 0], 1)
    # one unhit point, then the singleton fiber: codomain 0 stays empty
    assert realize_profile(Profile({0: 2, 1: 1})) == FinFun(FinSet(1), FinSet(3), (2,))
    assert realize_profile(Profile({0: 1, 2: 2})) == FinFun(FinSet(4), FinSet(3), (1, 1, 2, 2))


@given(profiles)
def test_realize_round_trip(p):
    assert phi_profile(realize_profile(p)) == p


# -- wire format -------------------------------------------------------------


def test_profile_dict_round_trip():
    p = Profile({0: 2, 3: 1})
    data = profile_to_dict(p)
    assert data == {"profile": {"0": 2, "3": 1}}
    assert list(data["profile"]) == ["0", "3"]  # ascending keys
    assert profile_from_dict(data) == p
    assert profile_from_dict({"profile": {}}) == Profile()


def test_profile_dict_errors():
    with pytest.raises(FormatError, match="field 'profile'"):
        profile_from_dict({})
    with pytest.raises(FormatError, match="must be an object"):
        profile_from_dict({"profile": [1, 2]})
    with pytest.raises(FormatError, match="non-numeric index 'two'"):
        profile_from_dict({"profile": {"two": 1}})
    with pytest.raises(FormatError, match=r"field 'profile\[2\]' must be a non-negative"):
        profile_from_dict({"profile": {"2": -1}})


def test_profile_dict_rejects_non_ascii_digits():
    # str.isdigit admits these; int() rejects the superscript and reads the
    # Arabic-Indic digit as 3
    for key in ("\u00b2", "\u0663", "1\u00b2"):
        with pytest.raises(FormatError, match="non-numeric index"):
            profile_from_dict({"profile": {key: 1}})
