"""Brute-force search route and its agreement with the decision procedure.

The search is the independent route: it never looks at fiber profiles, only at
the defining equation.  These tests pin its output on worked examples, compare
the constraint-propagation solver against plain enumeration, and check the
order structure the search recovers.
"""

import pytest

from pcdres import (
    FinFun,
    FinSet,
    Relation,
    THEORIES,
    SearchBounds,
    TheoryVariant,
    Witness,
    decide,
    default_bounds,
    disjoint_union,
    enumerate_all_functions,
    oracle_convertible,
    preorder_lines,
    preorder_table,
    relx_convert,
    theory_for,
)
from pcdres import check_witness as verify_witness
from pcdres.oracle import (
    REL_TIMES_THEORY,
    SET_BIJ_THEORY,
    SET_INJ_THEORY,
    TheoryInstance,
)

MERGE = FinFun.from_map([0, 0], 1)
POINT = FinFun.from_map([0], 1)


class NaiveTheory:
    """Same theory, but discarding solved by enumerating every free wiring."""

    solve_discard = TheoryInstance.solve_discard

    def __init__(self, theory):
        self.theory = theory

    def __getattr__(self, attr):
        return getattr(self.theory, attr)


def all_relations(max_size):
    import itertools

    for d in range(max_size + 1):
        for c in range(max_size + 1):
            for bits in itertools.product((False, True), repeat=d * c):
                yield Relation.from_pairs(d, c, [divmod(k, c) for k, hit in enumerate(bits) if hit])


def test_each_set_variant_is_its_own_theory():
    assert SET_BIJ_THEORY is TheoryVariant.SET_BIJ
    assert SET_INJ_THEORY is TheoryVariant.SET_INJ
    for v in TheoryVariant:
        assert theory_for(v) is v is THEORIES[v.value]
        assert v.name == v.value


def test_search_bounds_validation():
    with pytest.raises(ValueError):
        SearchBounds(-1, 0, 0)
    with pytest.raises(ValueError):
        SearchBounds(0, 0, True)
    b = default_bounds(MERGE, POINT)
    assert b == SearchBounds(3, 5, 5)


def test_oracle_finds_the_worked_example_witness():
    w = oracle_convertible(SET_BIJ_THEORY, MERGE, POINT)
    # first witness in scan order (Z, C, xi1, smallest D, least xi2); it happens
    # to coincide with the constructive one
    assert w == Witness(
        FinSet(1),
        FinFun(FinSet(3), FinSet(3), (2, 0, 1)),
        FinFun(FinSet(2), FinSet(2), (1, 0)),
        FinFun(FinSet(2), FinSet(1), (0, 0)),
    )
    assert verify_witness(SET_BIJ_THEORY, MERGE, POINT, w)


def test_oracle_misses_impossible_conversions():
    assert oracle_convertible(SET_BIJ_THEORY, POINT, MERGE) is None
    assert oracle_convertible(SET_INJ_THEORY, POINT, MERGE) is None


def test_oracle_respects_bounds():
    # the worked example needs one auxiliary point; forbid it and the search fails
    tight = SearchBounds(0, 5, 5)
    assert oracle_convertible(SET_BIJ_THEORY, MERGE, POINT, tight) is None


def test_oracle_agrees_with_decide_exhaustively():
    funs = list(enumerate_all_functions(2))
    bounds = SearchBounds(2, 4, 4)
    for variant in TheoryVariant:
        theory = theory_for(variant)
        found = 0
        for f in funs:
            for g in funs:
                w = oracle_convertible(theory, f, g, bounds)
                assert (w is not None) == decide(variant, f, g)
                if w is not None:
                    assert verify_witness(theory, f, g, w)
                    found += 1
        assert found == {TheoryVariant.SET_BIJ: 70, TheoryVariant.SET_INJ: 97}[variant]


def test_propagation_matches_plain_enumeration():
    # the fast discarding solver must reproduce the naive scan exactly:
    # same found/not-found and the same first witness
    funs = list(enumerate_all_functions(2))
    bounds = SearchBounds(2, 3, 3)
    for variant in TheoryVariant:
        naive = NaiveTheory(variant)
        fast = theory_for(variant)
        for f in funs:
            for g in funs:
                expected = oracle_convertible(naive, f, g, bounds)
                got = oracle_convertible(fast, f, g, bounds)
                assert expected == got


def test_verify_witness_rejects_tampering():
    w = oracle_convertible(SET_BIJ_THEORY, MERGE, POINT)
    assert verify_witness(SET_BIJ_THEORY, MERGE, POINT, w)
    bad_aux = Witness(FinSet(2), w.xi1, w.xi2, w.j)
    assert not verify_witness(SET_BIJ_THEORY, MERGE, POINT, bad_aux)
    not_free = Witness(w.Z, w.xi1, FinFun(FinSet(2), FinSet(2), (0, 0)), w.j)
    assert not verify_witness(SET_BIJ_THEORY, MERGE, POINT, not_free)
    wrong_eq = Witness(w.Z, w.xi1, FinFun(FinSet(2), FinSet(2), (0, 1)), w.j)
    assert not verify_witness(SET_BIJ_THEORY, MERGE, POINT, wrong_eq)


# -- preorder tables ---------------------------------------------------------


def test_preorder_table_matches_decide():
    table = preorder_table(SET_BIJ_THEORY, 2, SearchBounds(2, 4, 4))
    assert len(table) == 70
    for f, g in table:
        assert decide(TheoryVariant.SET_BIJ, f, g)


def test_preorder_table_size_one():
    assert len(preorder_table(SET_BIJ_THEORY, 1)) == 7
    # with injections free an unhit output is disposable, so all three
    # morphisms up to size 1 collapse into one class
    assert len(preorder_table(SET_INJ_THEORY, 1)) == 9


def test_preorder_table_raises_on_tight_bounds():
    # bounds that admit two legs of a composite conversion but not the composite
    with pytest.raises(RuntimeError, match="not transitive"):
        preorder_table(SET_BIJ_THEORY, 2, SearchBounds(1, 2, 1))


def test_preorder_lines_format():
    lines = preorder_lines(preorder_table(SET_BIJ_THEORY, 1))
    assert len(lines) == 7
    assert lines[0] == '{"dom":0,"cod":0,"map":[]} >= {"dom":0,"cod":0,"map":[]}'
    assert lines[-1] == '{"dom":1,"cod":1,"map":[0]} >= {"dom":1,"cod":1,"map":[0]}'
    assert lines == sorted(lines)


def test_tensor_compatibility_through_the_oracle():
    # conversions combine in parallel; check it on the oracle route at size 1
    funs = list(enumerate_all_functions(1))
    for variant in TheoryVariant:
        theory = theory_for(variant)
        pairs = [
            (f, g)
            for f in funs
            for g in funs
            if oracle_convertible(theory, f, g) is not None
        ]
        for f1, g1 in pairs:
            for f2, g2 in pairs:
                big_f, big_g = disjoint_union(f1, f2), disjoint_union(g1, g2)
                assert oracle_convertible(theory, big_f, big_g) is not None


# -- the relational theory ---------------------------------------------------


def test_relx_convert_closed_form():
    f = Relation.from_pairs(2, 2, [(0, 0), (0, 1), (1, 0)])
    g = Relation.from_pairs(1, 1, [])
    w = relx_convert(f, g)
    assert w.Z == FinSet(1)
    assert w.xi1 == Relation.from_pairs(0, 2, [])
    assert w.xi2 == Relation.from_pairs(2, 1, [(0, 0), (1, 0)])
    assert w.j == Relation.from_pairs(0, 1, [])
    assert verify_witness(REL_TIMES_THEORY, f, g, w)


def test_relx_convert_empty_codomains():
    nothing = Relation.from_pairs(0, 0, [])
    into_empty = Relation.from_pairs(2, 0, [])
    w = relx_convert(into_empty, nothing)
    assert verify_witness(REL_TIMES_THEORY, into_empty, nothing, w)
    # no constant map from a nonempty codomain into an empty one: the
    # all-empty witness Z = C = D = 0 converts instead
    unhit = Relation.from_pairs(0, 1, [])
    w = relx_convert(unhit, into_empty)
    assert w == Witness(FinSet(0), nothing, nothing, nothing)
    assert verify_witness(REL_TIMES_THEORY, unhit, into_empty, w)


def test_relx_convert_covers_every_eligible_pair():
    rels = list(all_relations(1))
    assert len(rels) == 5
    for f in rels:
        for g in rels:
            w = relx_convert(f, g)
            assert verify_witness(REL_TIMES_THEORY, f, g, w)


def test_relational_preorder_is_complete():
    rels = list(all_relations(1))
    table = preorder_table(REL_TIMES_THEORY, 1)
    assert len(table) == len(rels) ** 2 == 25
