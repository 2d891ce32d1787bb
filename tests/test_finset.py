"""Category and enumeration layer: functions, relations, monoidal wiring."""

import copy
import itertools
import math
import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, strategies as st

from pcdres import (
    BUILTIN_MEASURES,
    FinFun,
    FinSet,
    FormatError,
    Relation,
    TheoryVariant,
    braiding,
    compose,
    decide,
    disjoint_union,
    enumerate_all_functions,
    enumerate_bijections,
    enumerate_functions,
    enumerate_injections,
    finfun_from_dict,
    finfun_to_dict,
    fun_of_rel,
    identity,
    is_bijection,
    is_fun_graph,
    is_injection,
    monotones,
    normal_form,
    rel_compose,
    rel_identity,
    rel_of_fun,
    rel_product,
    relation_from_dict,
    relation_to_dict,
    witness,
)
from pcdres.finset import _set_fun_counts
from pcdres.oracle import relx_convert
from pcdres.profiles import size_counts


def all_relations(max_size):
    for d in range(max_size + 1):
        for c in range(max_size + 1):
            for bits in itertools.product((False, True), repeat=d * c):
                yield Relation.from_pairs(d, c, [divmod(k, c) for k, hit in enumerate(bits) if hit])


# -- basic data --------------------------------------------------------------


def test_finset_rejects_bad_sizes():
    with pytest.raises(ValueError):
        FinSet(-1)
    with pytest.raises(ValueError):
        FinSet(True)
    assert list(FinSet(3)) == [0, 1, 2]


class _Size(int):
    """An ``int`` subclass other than ``bool``, which is a valid size."""


@pytest.mark.parametrize("size", [True, False, -1, 1.0, "3", None])
def test_finset_size_errors(size):
    FinSet(0), FinSet(1)  # True and False must not find these shared instances
    with pytest.raises(ValueError, match=r"FinSet size must be a non-negative integer, got "):
        FinSet(size)


def test_finset_is_shared_per_size():
    assert FinSet(3) is FinSet(3)
    assert FinSet(0) is FinSet(0)
    assert FinSet(3) == FinSet(3) != FinSet(4)
    assert repr(FinSet(3)) == "FinSet(size=3)"


@pytest.mark.parametrize("size", [10**9, _Size(3)], ids=["large", "int-subclass"])
def test_unshared_finsets_equal_shared_ones(size):
    made = FinSet(size)
    assert made.size == size and list(FinSet(_Size(2))) == [0, 1]
    assert made == FinSet(int(size)) and hash(made) == hash(FinSet(int(size)))
    assert len({made, FinSet(int(size))}) == 1


def test_value_types_are_immutable_and_slotted():
    f = FinFun.from_map([0], 1)
    r = Relation.from_pairs(1, 1, [(0, 0)])
    for obj in (FinSet(2), FinSet(10**9), f, r):
        assert not hasattr(obj, "__dict__")
        for name in ("size", "dom", "cod", "map", "graph", "other"):
            with pytest.raises(FrozenInstanceError):
                setattr(obj, name, getattr(obj, name, None))
            with pytest.raises(FrozenInstanceError):
                delattr(obj, name)


def test_morphism_reprs():
    assert repr(FinFun.from_map([1, 0], 2)) == "FinFun([1, 0]: 2 -> 2)"
    assert repr(Relation.from_pairs(1, 2, [(0, 1)])) == "Relation([(0, 1)]: 1 -> 2)"


CLONES = [
    copy.copy,
    copy.deepcopy,
    lambda v: pickle.loads(pickle.dumps(v)),
    lambda v: pickle.loads(pickle.dumps(v, protocol=0)),
]
CLONE_IDS = ["copy", "deepcopy", "pickle", "pickle-0"]


@pytest.mark.parametrize("clone", CLONES, ids=CLONE_IDS)
def test_value_types_survive_copy_and_pickle(clone):
    f, g = FinFun.from_map([0, 0, 1], 3), FinFun.from_map([0], 2)
    r = Relation.from_pairs(2, 1, [(1, 0)])
    values = [
        FinSet(3),
        FinSet(10**9),
        FinSet(_Size(3)),
        f,
        r,
        witness(TheoryVariant.SET_INJ, f, g),
        relx_convert(r, r),
    ]
    for value in values:
        again = clone(value)
        assert type(again) is type(value)
        assert again == value and hash(again) == hash(value)
    assert clone(FinSet(3)) is FinSet(3)


# -- the fiber-count memo -----------------------------------------------------


def _kept_tables():
    """The processes and unions the monotone screen keeps at size limit 3, memo filled."""
    return monotones._processes(3) + monotones._kept_unions(3)


@pytest.mark.parametrize("clone", CLONES, ids=CLONE_IDS)
def test_a_filled_count_memo_is_invisible(clone):
    for kept in _kept_tables()[::7]:
        fresh = FinFun.from_map(kept.map, kept.cod.size)
        assert kept._counts == tuple(size_counts(fresh)) and fresh._counts is None
        assert kept == fresh and fresh == kept and hash(kept) == hash(fresh)
        assert {fresh: 1}[kept] == 1
        assert repr(kept) == repr(fresh)
        assert finfun_to_dict(kept) == finfun_to_dict(fresh)
        assert pickle.dumps(kept) == pickle.dumps(fresh)
        again = clone(kept)
        assert again == fresh and hash(again) == hash(fresh) and repr(again) == repr(fresh)
        assert again._counts is None  # a copy counts afresh


def test_count_measures_read_the_memo_as_they_would_count():
    for kept in _kept_tables():
        fresh = FinFun.from_map(kept.map, kept.cod.size)
        for mu in BUILTIN_MEASURES.values():
            assert mu(kept) == mu(fresh)
        assert fresh._counts is None  # measuring fills nothing


def test_decisions_neither_read_nor_fill_the_memo():
    f, g = FinFun.from_map([0, 0, 1], 3), FinFun.from_map([0, 0], 2)
    wrong = FinFun.from_map(f.map, f.cod.size)
    _set_fun_counts(wrong, (0, 0, 0, 9))
    assert size_counts(wrong) == size_counts(f)
    for variant in (TheoryVariant.SET_BIJ, TheoryVariant.SET_INJ):
        assert normal_form(variant, wrong) == normal_form(variant, f)
        assert decide(variant, wrong, g) == decide(variant, f, g)
        assert decide(variant, g, wrong) == decide(variant, g, f)
        assert witness(variant, wrong, g) == witness(variant, f, g)
    for h in (f, g):
        assert h._counts is None


def test_finfun_validation():
    f = FinFun.from_map([1, 0, 1], 2)
    assert f.dom == FinSet(3) and f.cod == FinSet(2)
    assert f(0) == 1 and f(2) == 1
    with pytest.raises(ValueError):
        FinFun(FinSet(2), FinSet(2), (0,))  # length mismatch
    with pytest.raises(ValueError):
        FinFun.from_map([2], 2)  # out of codomain
    with pytest.raises(ValueError):
        FinFun(FinSet(1), FinSet(2), (True,))  # bools are not elements


def test_identity_and_compose():
    f = FinFun.from_map([1, 0], 2)
    g = FinFun.from_map([0, 0], 1)
    assert compose(g, f) == FinFun.from_map([0, 0], 1)
    assert compose(f, identity(2)) == f
    assert compose(identity(2), f) == f
    with pytest.raises(ValueError):
        compose(f, g)  # cod 1 does not meet dom 2


@pytest.mark.parametrize("early_map", [[], [2], [2, 0], [1, 1, 1], [0, 2, 1, 2]])
def test_compose_gathers_a_tuple_at_every_domain_size(early_map):
    # a gather of one point must not come back as a bare entry, nor one of none fail
    late = FinFun.from_map([4, 0, 3], 5)
    early = FinFun.from_map(early_map, 3)
    h = compose(late, early)
    assert type(h.map) is tuple and len(h.map) == len(early.map)
    assert h.map == tuple(late.map[i] for i in early.map)
    assert (h.dom, h.cod) == (early.dom, late.cod)
    assert compose(FinFun.from_map([], 2), FinFun.from_map([], 0)) == FinFun.from_map([], 2)


@st.composite
def maps_into(draw, cod):
    """A function of up to 8 points into ``cod`` points; only the empty map when ``cod`` is 0."""
    dom = draw(st.integers(0, 8 if cod else 0))
    entries = draw(st.lists(st.integers(0, max(cod - 1, 0)), min_size=dom, max_size=dom))
    return FinFun.from_map(entries, cod)


@st.composite
def composable_pairs(draw):
    late = draw(st.integers(0, 6).flatmap(maps_into))
    return late, draw(maps_into(late.dom.size))


@given(composable_pairs())
def test_compose_matches_pointwise_lookup(pair):
    late, early = pair
    h = compose(late, early)
    assert type(h.map) is tuple and len(h.map) == len(early.map)
    assert h.map == tuple(late.map[i] for i in early.map)


def test_compose_associative_exhaustive():
    sets = range(3)
    for a in sets:
        for b in sets:
            for c in sets:
                for d in sets:
                    for f in enumerate_functions(a, b):
                        for g in enumerate_functions(b, c):
                            for h in enumerate_functions(c, d):
                                assert compose(h, compose(g, f)) == compose(
                                    compose(h, g), f
                                )


def test_disjoint_union_blocks():
    f = FinFun.from_map([0, 0], 1)
    g = FinFun.from_map([1, 0], 2)
    fg = disjoint_union(f, g)
    # left block keeps its indices, right block shifts by f's sizes
    assert fg == FinFun(FinSet(4), FinSet(3), (0, 0, 2, 1))
    assert disjoint_union(identity(2), identity(3)) == identity(5)


def test_disjoint_union_with_empty_blocks():
    nothing = FinFun.from_map([], 0)
    unhit = FinFun.from_map([], 2)  # no inputs, two outputs
    f = FinFun.from_map([1, 0, 1], 2)
    assert disjoint_union(nothing, f) == f
    assert disjoint_union(f, nothing) == f
    assert disjoint_union(nothing, nothing) == nothing
    assert disjoint_union(unhit, f) == FinFun.from_map([3, 2, 3], 4)
    assert disjoint_union(f, unhit) == FinFun.from_map([1, 0, 1], 4)
    assert disjoint_union(unhit, nothing) == unhit
    for left, right in itertools.product((nothing, unhit, f), repeat=2):
        assert type(disjoint_union(left, right).map) is tuple


@given(st.integers(0, 6).flatmap(maps_into), st.integers(0, 6).flatmap(maps_into))
def test_disjoint_union_matches_shifted_concatenation(f, g):
    fg = disjoint_union(f, g)
    assert type(fg.map) is tuple
    assert fg.map == f.map + tuple(y + f.cod.size for y in g.map)
    assert (fg.dom.size, fg.cod.size) == (f.dom.size + g.dom.size, f.cod.size + g.cod.size)


def test_disjoint_union_is_functorial():
    funs = list(enumerate_all_functions(2))
    for f1 in funs:
        for f2 in funs:
            for g1 in enumerate_functions(f1.cod, 2):
                for g2 in enumerate_functions(f2.cod, 1):
                    assert disjoint_union(compose(g1, f1), compose(g2, f2)) == compose(
                        disjoint_union(g1, g2), disjoint_union(f1, f2)
                    )


def test_braiding():
    assert braiding(2, 1) == FinFun(FinSet(3), FinSet(3), (1, 2, 0))
    for x in range(4):
        for y in range(4):
            assert compose(braiding(y, x), braiding(x, y)) == identity(x + y)


def test_braiding_is_natural():
    funs = list(enumerate_all_functions(2))
    for f in funs:
        for g in funs:
            lhs = compose(braiding(f.cod, g.cod), disjoint_union(f, g))
            rhs = compose(disjoint_union(g, f), braiding(f.dom, g.dom))
            assert lhs == rhs


# -- predicates and enumeration ---------------------------------------------


def test_injection_bijection_predicates():
    assert is_injection(FinFun.from_map([2, 0], 3))
    assert not is_injection(FinFun.from_map([0, 0], 1))
    assert is_bijection(identity(3))
    assert not is_bijection(FinFun.from_map([0, 1], 3))  # injective but not onto
    assert is_bijection(FinFun.from_map([], 0))


def test_enumerators_are_lexicographic_and_complete():
    maps = [f.map for f in enumerate_functions(2, 2)]
    assert maps == [(0, 0), (0, 1), (1, 0), (1, 1)]
    inj = [f.map for f in enumerate_injections(2, 3)]
    assert inj == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
    assert len(inj) == math.perm(3, 2)
    assert len(list(enumerate_bijections(3, 3))) == math.factorial(3)
    assert list(enumerate_bijections(2, 3)) == []
    assert len(list(enumerate_functions(0, 0))) == 1  # the empty function


def test_enumerate_all_functions_counts():
    for limit, expected in ((2, 11), (3, 60)):
        funs = list(enumerate_all_functions(limit))
        assert len(funs) == expected
        assert len(set(funs)) == expected
        formula = sum(c**d for d in range(limit + 1) for c in range(limit + 1))
        assert expected == formula


# -- relations ---------------------------------------------------------------


def test_relation_construction():
    r = Relation.from_pairs(2, 2, [(0, 1), (1, 0)])
    assert r.pairs() == ((0, 1), (1, 0))
    with pytest.raises(ValueError):
        Relation.from_pairs(2, 2, [(2, 0)])
    with pytest.raises(ValueError):
        Relation(FinSet(2), FinSet(1), frozenset({(0, 1)}))  # pair out of range


def test_rel_compose_example():
    early = Relation.from_pairs(2, 2, [(0, 1)])
    late = Relation.from_pairs(2, 1, [(1, 0)])
    assert rel_compose(late, early) == Relation.from_pairs(2, 1, [(0, 0)])
    with pytest.raises(ValueError):
        rel_compose(early, late)


def test_rel_identity_and_associativity():
    rels = list(all_relations(2))
    assert len(rels) == 31
    for r in rels:
        assert rel_compose(r, rel_identity(r.dom)) == r
        assert rel_compose(rel_identity(r.cod), r) == r
    for r in rels:
        for s in rels:
            if s.dom != r.cod:
                continue
            for t in rels:
                if t.dom != s.cod:
                    continue
                assert rel_compose(t, rel_compose(s, r)) == rel_compose(
                    rel_compose(t, s), r
                )


def test_rel_product_row_major():
    r = Relation.from_pairs(2, 2, [(0, 1)])
    p = rel_product(r, rel_identity(2))
    # pair (x, a) gets index x * 2 + a on both sides
    assert p.dom == FinSet(4) and p.cod == FinSet(4)
    assert p.pairs() == ((0, 2), (1, 3))
    empty = Relation.from_pairs(1, 1, [])
    assert rel_product(r, empty).pairs() == ()


def test_rel_product_interchange():
    # (s1 . r1) x (s2 . r2) = (s1 x s2) . (r1 x r2) on a dense sample
    small = [r for r in all_relations(2) if r.dom.size and r.cod.size]
    for r1 in small[:8]:
        for s1 in small:
            if s1.dom != r1.cod:
                continue
            for r2 in small[:8]:
                for s2 in small:
                    if s2.dom != r2.cod:
                        continue
                    lhs = rel_product(rel_compose(s1, r1), rel_compose(s2, r2))
                    rhs = rel_compose(rel_product(s1, s2), rel_product(r1, r2))
                    assert lhs == rhs


def _dense(r):
    related = set(r.pairs())
    return [[(x, y) in related for y in r.cod] for x in r.dom]


def _from_dense(matrix, cod_size):
    pairs = [(x, y) for x, row in enumerate(matrix) for y, hit in enumerate(row) if hit]
    return Relation.from_pairs(len(matrix), cod_size, pairs)


def test_sparse_operations_match_dense_reference():
    # the boolean-matrix formulas, on every relation with dom, cod <= 2
    rels = list(all_relations(2))
    for r in rels:
        for s in rels:
            rm, sm = _dense(r), _dense(s)
            product = [
                [rm[x][y] and sm[a][b] for y in r.cod for b in s.cod]
                for x in r.dom
                for a in s.dom
            ]
            assert rel_product(r, s) == _from_dense(product, r.cod.size * s.cod.size)
            if s.dom != r.cod:
                continue
            composite = [
                [any(rm[x][y] and sm[y][z] for y in r.cod) for z in s.cod] for x in r.dom
            ]
            assert rel_compose(s, r) == _from_dense(composite, s.cod.size)


def test_fun_graphs():
    for f in enumerate_all_functions(2):
        graph = rel_of_fun(f)
        assert is_fun_graph(graph)
        assert fun_of_rel(graph) == f
    for f in enumerate_all_functions(2):
        for g in enumerate_functions(f.cod, 2):
            assert rel_of_fun(compose(g, f)) == rel_compose(rel_of_fun(g), rel_of_fun(f))
    with pytest.raises(ValueError):
        fun_of_rel(Relation.from_pairs(1, 2, [(0, 0), (0, 1)]))
    with pytest.raises(ValueError):
        fun_of_rel(Relation.from_pairs(1, 1, []))


# -- wire format -------------------------------------------------------------


def test_finfun_dict_round_trip():
    f = FinFun.from_map([1, 0, 1], 2)
    data = finfun_to_dict(f)
    assert data == {"dom": 3, "cod": 2, "map": [1, 0, 1]}
    assert finfun_from_dict(data) == f


@given(st.integers(1, 4).flatmap(lambda c: st.lists(st.integers(0, c - 1), max_size=5).map(lambda m: (m, c))))
def test_finfun_dict_round_trip_generated(args):
    entries, cod = args
    f = FinFun.from_map(entries, cod)
    assert finfun_from_dict(finfun_to_dict(f)) == f


def test_finfun_dict_errors_name_the_field():
    with pytest.raises(FormatError, match="expected a JSON object"):
        finfun_from_dict(42)
    with pytest.raises(FormatError, match="missing field 'dom'"):
        finfun_from_dict({"cod": 1, "map": []})
    with pytest.raises(FormatError, match="field 'cod' must be a non-negative integer"):
        finfun_from_dict({"dom": 0, "cod": -1, "map": []})
    with pytest.raises(FormatError, match="field 'map' must be a list"):
        finfun_from_dict({"dom": 0, "cod": 1, "map": "x"})
    with pytest.raises(FormatError, match="field 'map' has 1 entries, expected 2"):
        finfun_from_dict({"dom": 2, "cod": 1, "map": [0]})
    with pytest.raises(FormatError, match=r"field 'map\[1\]' must be an integer in \[0, 2\)"):
        finfun_from_dict({"dom": 2, "cod": 2, "map": [0, 2]})


def test_relation_dict_round_trip():
    r = Relation.from_pairs(2, 3, [(1, 2), (0, 0)])
    data = relation_to_dict(r)
    assert data == {"dom": 2, "cod": 3, "pairs": [[0, 0], [1, 2]]}  # sorted
    assert relation_from_dict(data) == r


def test_relation_dict_errors_name_the_field():
    with pytest.raises(FormatError, match="missing field 'cod'"):
        relation_from_dict({"dom": 1, "pairs": []})
    with pytest.raises(FormatError, match="field 'pairs' must be a list"):
        relation_from_dict({"dom": 1, "cod": 1, "pairs": 0})
    with pytest.raises(FormatError, match=r"field 'pairs\[0\]' must be a pair of integers"):
        relation_from_dict({"dom": 1, "cod": 1, "pairs": [[0]]})
    with pytest.raises(FormatError, match=r"field 'pairs\[1\]' is out of range"):
        relation_from_dict({"dom": 2, "cod": 2, "pairs": [[0, 0], [0, 2]]})
