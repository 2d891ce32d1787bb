"""Decision procedure, normal forms, and constructive witnesses."""

import hashlib
import json
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from pcdres import (
    REL_TIMES_THEORY,
    FinFun,
    FinSet,
    FormatError,
    NotConvertibleError,
    Profile,
    Relation,
    TheoryVariant,
    Witness,
    check_witness,
    compose,
    decide,
    disjoint_union,
    enumerate_all_functions,
    enumerate_bijections,
    enumerate_injections,
    equivalent,
    identity,
    normal_form,
    realize_profile,
    relx_convert,
    representative,
    theory_for,
    witness,
    witness_from_dict,
    witness_to_dict,
)
from pcdres import convert
from pcdres.convert import _converts, _dominates, _form
from pcdres.profiles import fiber_sizes, size_counts

BIJ = TheoryVariant.SET_BIJ
INJ = TheoryVariant.SET_INJ

# the running example: two points merged into one, versus a plain identity
MERGE = FinFun.from_map([0, 0], 1)
POINT = FinFun.from_map([0], 1)


def test_variant_plumbing():
    assert BIJ.excluded_indices == frozenset({1})
    assert INJ.excluded_indices == frozenset({0, 1})
    assert TheoryVariant("set-bij") is BIJ
    swap = FinFun.from_map([1, 0], 2)
    drop = FinFun.from_map([0], 2)
    assert BIJ.is_free(swap) and INJ.is_free(swap)
    assert not BIJ.is_free(drop) and INJ.is_free(drop)
    assert len(list(BIJ.free_morphisms(2, 2))) == 2
    assert len(list(INJ.free_morphisms(2, 3))) == 6


@pytest.mark.parametrize(
    "variant, enumerate_free",
    [(BIJ, enumerate_bijections), (INJ, enumerate_injections)],
    ids=["set-bij", "set-inj"],
)
def test_free_morphisms_match_enumeration(variant, enumerate_free):
    # cached per shape, but the same sequence whether sizes come as ints or sets
    for d in range(4):
        for c in range(4):
            expected = list(enumerate_free(d, c))
            assert list(variant.free_morphisms(d, c)) == expected
            assert list(variant.free_morphisms(FinSet(d), FinSet(c))) == expected
            assert list(variant.free_morphisms(FinSet(d), c)) == expected


def test_normal_form_examples():
    assert normal_form(BIJ, identity3 := FinFun.from_map([0, 1, 2], 3)) == Profile()
    assert normal_form(INJ, identity3) == Profile()
    assert normal_form(BIJ, MERGE) == Profile({2: 1})
    assert normal_form(INJ, MERGE) == Profile({2: 1})
    unhit = FinFun.from_map([], 1)
    assert normal_form(BIJ, unhit) == Profile({0: 1})
    assert normal_form(INJ, unhit) == Profile()


def test_decide_examples():
    for variant in (BIJ, INJ):
        assert decide(variant, MERGE, POINT)
        assert not decide(variant, POINT, MERGE)
        assert decide(variant, MERGE, MERGE)
    # unhit output matters with bijections free, not with injections free
    unhit = FinFun.from_map([], 1)
    empty = FinFun.from_map([], 0)
    assert not decide(BIJ, empty, unhit)
    assert decide(INJ, empty, unhit)


def test_dominates_is_pointwise_on_lists_of_any_length():
    assert _dominates([1], [1, 0, 0])  # trailing zeros of the longer side
    assert not _dominates([1], [1, 0, 1])
    assert _dominates([1, 0, 3, 0], [0, 0, 2])
    assert not _dominates([2, 0], [1, 5])  # lexicographic >= would say True
    assert _dominates([], []) and _dominates([0], [])


def dense_dominates(variant, a, b):
    """``_converts``'s definition: dominance of the two dense forms."""
    return _dominates(_form(variant, a.copy()), _form(variant, b.copy()))


def assert_converts_as_defined(variant, a, b):
    kept_a, kept_b = a.copy(), b.copy()
    assert _converts(variant, a, b) == dense_dominates(variant, a, b), (variant, a, b)
    assert (a, b) == (kept_a, kept_b)  # witness reads both lists again


def test_converts_matches_dense_forms_on_small_functions():
    counts = sorted({tuple(size_counts(f)) for f in enumerate_all_functions(4)})
    for variant in (BIJ, INJ):
        for a in counts:
            for b in counts:
                assert_converts_as_defined(variant, list(a), list(b))


@settings(max_examples=300)
@given(
    st.lists(st.integers(0, 6), max_size=12),
    st.lists(st.integers(0, 6), max_size=12),
)
def test_converts_matches_dense_forms_on_count_lists(a, b):
    # lists of unequal lengths, with and without trailing zeros
    for variant in (BIJ, INJ):
        assert_converts_as_defined(variant, a, b)


def test_converts_edge_cases():
    for variant in (BIJ, INJ):
        assert _converts(variant, [], [])
        assert _converts(variant, [1], [1, 0, 0])  # trailing zeros of the longer side
        assert not _converts(variant, [1], [1, 0, 1])
        assert not _converts(variant, [2, 0, 0], [1, 0, 5])  # lexicographic >= would say True
    assert _converts(BIJ, [3], [0, 2])  # index 1 is free
    assert not _converts(BIJ, [], [1])  # index 0 counts under set-bij ...
    assert _converts(INJ, [], [1])  # ... but not under set-inj
    # equal tails below the top, so only the top index refutes
    assert not _converts(INJ, [0, 0, 2, 0], [0, 0, 1, 1])
    assert not _converts(INJ, [0, 0, 3, 0], [0, 0, 2, 1])
    assert _converts(INJ, [0, 0, 1, 1], [0, 0, 2, 0])


def small_functions():
    """Functions of up to 30 points into codomains of up to 100 points."""
    return st.integers(0, 30).flatmap(
        lambda n: st.integers(1 if n else 0, 100).flatmap(
            lambda c: st.lists(st.integers(0, max(c - 1, 0)), min_size=n, max_size=n).map(
                lambda m: FinFun.from_map(m, c)
            )
        )
    )


@settings(max_examples=300)
@given(small_functions(), small_functions())
def test_decide_matches_profile_dominance(f, g):
    # covers both fiber-count regimes (cod > 2 dom counts hit points),
    # forms of unequal length and forms ending in zeros
    for variant in (BIJ, INJ):
        assert decide(variant, f, g) == (normal_form(variant, f) >= normal_form(variant, g))


def test_decide_and_witness_count_fibers_once_per_side(monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(f):
            calls.append((name, f.dom.size, f.cod.size))
            return fn(f)

        return wrapper

    monkeypatch.setattr(convert, "size_counts", counted("size_counts", convert.size_counts))
    monkeypatch.setattr(convert, "fiber_sizes", counted("fiber_sizes", convert.fiber_sizes))
    f = FinFun.from_map([0, 0, 1, 2], 4)
    g = FinFun.from_map([0, 1], 3)
    sparse = FinFun.from_map([0, 0, 1, 2], 9)  # cod > 2 * dom: counted from its hit points
    for variant in (BIJ, INJ):
        calls.clear()
        assert decide(variant, f, g)
        assert calls == [("size_counts", 4, 4), ("size_counts", 2, 3)]
        calls.clear()
        j = witness(variant, f, g).j
        # one pass per side serves the decision and the wiring; then the small junk j
        assert calls == [
            ("fiber_sizes", 4, 4),
            ("fiber_sizes", 2, 3),
            ("fiber_sizes", j.dom.size, j.cod.size),
        ]
        calls.clear()
        with pytest.raises(NotConvertibleError):
            witness(variant, g, f)
        assert calls == [("fiber_sizes", 2, 3), ("fiber_sizes", 4, 4)]
        calls.clear()
        j = witness(variant, sparse, g).j
        # the sparse side lists its fiber sizes only once the decision holds
        assert calls == [
            ("size_counts", 4, 9),
            ("fiber_sizes", 2, 3),
            ("fiber_sizes", 4, 9),
            ("fiber_sizes", j.dom.size, j.cod.size),
        ]
        calls.clear()
        with pytest.raises(NotConvertibleError):
            witness(variant, g, sparse)
        assert calls == [("fiber_sizes", 2, 3), ("size_counts", 4, 9)]


def test_bij_conversion_implies_inj_conversion():
    funs = list(enumerate_all_functions(2))
    for f in funs:
        for g in funs:
            if decide(BIJ, f, g):
                assert decide(INJ, f, g)


def test_equivalent():
    assert equivalent(BIJ, FinFun.from_map([0, 1], 2), POINT)
    assert equivalent(BIJ, FinFun.from_map([0, 0, 1], 2), FinFun.from_map([1, 1, 0], 2))
    assert not equivalent(BIJ, MERGE, POINT)
    assert equivalent(INJ, FinFun.from_map([], 1), FinFun.from_map([], 0))


def test_normal_form_is_additive():
    funs = list(enumerate_all_functions(3))
    for variant in (BIJ, INJ):
        forms = {f: normal_form(variant, f) for f in funs}
        for f in funs:
            for g in funs:
                assert normal_form(variant, disjoint_union(f, g)) == forms[f] + forms[g]


# -- representatives ---------------------------------------------------------


def test_representative_round_trip():
    witnessed = set()
    for variant in (BIJ, INJ):
        for f in enumerate_all_functions(3):
            form = normal_form(variant, f)
            if (variant, form) in witnessed:
                continue
            witnessed.add((variant, form))
            assert normal_form(variant, representative(variant, form)) == form


def test_representative_rejects_excluded_indices():
    with pytest.raises(ValueError, match="excluded indices \\[1\\]"):
        representative(BIJ, Profile({1: 1}))
    with pytest.raises(ValueError, match="excluded indices \\[0, 1\\]"):
        representative(INJ, Profile({0: 1, 1: 1}))


def test_representative_rejects_impossible_tails():
    # a point with 3 preimages is also a point with 2, so gamma cannot jump
    with pytest.raises(ValueError, match="non-increasing"):
        representative(INJ, Profile({2: 1, 3: 2}))
    with pytest.raises(ValueError, match="non-increasing"):
        representative(INJ, Profile({3: 1}))
    assert representative(INJ, Profile({2: 2, 3: 1})) == FinFun.from_map([0, 0, 1, 1, 1], 2)


# -- witnesses ---------------------------------------------------------------


def test_witness_bij_worked_example():
    w = witness(BIJ, MERGE, POINT)
    # one auxiliary point supplies the singleton fiber the target needs
    assert w == Witness(
        FinSet(1),
        FinFun(FinSet(3), FinSet(3), (2, 0, 1)),
        FinFun(FinSet(2), FinSet(2), (1, 0)),
        FinFun(FinSet(2), FinSet(1), (0, 0)),
    )
    assert check_witness(BIJ, MERGE, POINT, w)


def test_witness_inj_worked_example():
    w = witness(INJ, MERGE, POINT)
    # no padding needed: the target fiber embeds into the bigger one
    assert w == Witness(
        FinSet(0),
        FinFun(FinSet(1), FinSet(2), (0,)),
        FinFun(FinSet(1), FinSet(1), (0,)),
        FinFun(FinSet(0), FinSet(0), ()),
    )
    assert check_witness(INJ, MERGE, POINT, w)


def test_witness_inj_pads_missing_hit_outputs():
    # both outputs of the identity must be hit, but f only hits one point
    f = FinFun.from_map([0, 0], 2)
    g = FinFun.from_map([0, 1], 2)
    assert decide(INJ, f, g)
    w = witness(INJ, f, g)
    assert w == Witness(
        FinSet(1),
        FinFun(FinSet(2), FinSet(3), (0, 2)),
        FinFun(FinSet(3), FinSet(3), (0, 2, 1)),
        FinFun(FinSet(0), FinSet(1), ()),
    )
    assert check_witness(INJ, f, g, w)


def test_witness_identity_pair():
    for variant in (BIJ, INJ):
        f = FinFun.from_map([0, 2, 2], 3)
        w = witness(variant, f, f)
        assert w.Z == FinSet(0)
        assert check_witness(variant, f, f, w)


def test_witness_raises_when_not_convertible():
    for variant in (BIJ, INJ):
        with pytest.raises(NotConvertibleError):
            witness(variant, POINT, MERGE)


def test_not_convertible_message_names_sizes_and_variant():
    g = FinFun.from_map([0, 0, 1], 2)
    for variant in (BIJ, INJ):
        with pytest.raises(NotConvertibleError) as info:
            witness(variant, POINT, g)
        message = str(info.value)
        assert "f (1 -> 1)" in message and "g (3 -> 2)" in message
        assert variant.value in message
        assert "[0, 0, 1]" not in message


# pairs whose fibers tie in size, so the witness depends on tie-breaking
# (lowest index first); the expected maps are the ones witnesses have always had
TIED = [
    (
        BIJ,
        FinFun.from_map([0, 0, 1, 1, 2, 3], 5),
        FinFun.from_map([1, 1, 0, 2], 4),
        Witness(
            FinSet(0),
            FinFun.from_map([0, 1, 4, 5, 2, 3], 6),
            FinFun.from_map([1, 4, 0, 2, 3], 5),
            FinFun.from_map([0, 0], 1),
        ),
    ),
    (
        INJ,
        FinFun.from_map([0, 0, 1, 1, 2, 3], 5),
        FinFun.from_map([1, 1, 0, 2], 4),
        Witness(
            FinSet(0),
            FinFun.from_map([0, 1, 2, 4], 6),
            FinFun.from_map([1, 0, 2, 3, 4], 5),
            FinFun.from_map([], 1),
        ),
    ),
    (
        INJ,
        FinFun.from_map([2, 2, 0, 0, 1, 3, 3], 5),
        FinFun.from_map([1, 0, 1, 0, 2], 4),
        Witness(
            FinSet(0),
            FinFun.from_map([0, 2, 1, 3, 5], 7),
            FinFun.from_map([0, 3, 1, 2, 4], 5),
            FinFun.from_map([], 1),
        ),
    ),
    (
        BIJ,
        FinFun.from_map([1, 0, 1, 0, 2], 3),
        FinFun.from_map([0, 0, 1, 2, 2, 3], 4),
        Witness(
            FinSet(1),
            FinFun.from_map([1, 3, 4, 0, 2, 5], 6),
            FinFun.from_map([0, 2, 1, 3], 4),
            FinFun.from_map([], 0),
        ),
    ),
]


@pytest.mark.parametrize("variant, f, g, expected", TIED)
def test_witness_breaks_fiber_ties_by_lowest_index(variant, f, g, expected):
    assert witness(variant, f, g) == expected
    assert check_witness(variant, f, g, expected)


def test_witness_sound_exhaustively():
    funs = list(enumerate_all_functions(2))
    for variant in (BIJ, INJ):
        produced = 0
        for f in funs:
            for g in funs:
                if not decide(variant, f, g):
                    continue
                w = witness(variant, f, g)
                assert variant.is_free(w.xi1) and variant.is_free(w.xi2)
                assert check_witness(variant, f, g, w)
                produced += 1
        assert produced == {BIJ: 70, INJ: 97}[variant]


def test_check_witness_rejects_tampering():
    w = witness(BIJ, MERGE, POINT)
    # swapping the matching breaks the equation but keeps everything free
    broken = Witness(w.Z, w.xi1, FinFun(FinSet(2), FinSet(2), (0, 1)), w.j)
    assert not check_witness(BIJ, MERGE, POINT, broken)
    # wrong auxiliary size breaks the boundary check
    assert not check_witness(BIJ, MERGE, POINT, Witness(FinSet(2), w.xi1, w.xi2, w.j))
    # non-free wiring is rejected even if the equation would hold
    merged_wiring = Witness(w.Z, w.xi1, FinFun(FinSet(2), FinSet(2), (0, 0)), w.j)
    assert not check_witness(BIJ, MERGE, POINT, merged_wiring)
    # relational parts do not typecheck in the function theories
    rel = Relation.from_pairs(0, 0, [])
    assert not check_witness(BIJ, MERGE, POINT, Witness(w.Z, w.xi1, w.xi2, rel))


def functions(min_dom=10, max_dom=200):
    """Random functions on ``min_dom`` to ``max_dom`` points."""
    return st.integers(min_dom, max_dom).flatmap(
        lambda n: st.integers(1, max(n, 1)).flatmap(
            lambda c: st.lists(st.integers(0, c - 1), min_size=n, max_size=n).map(
                lambda m: FinFun.from_map(m, c)
            )
        )
    )


def permutations(n):
    return st.permutations(range(n)).map(lambda p: FinFun.from_map(p, n))


@st.composite
def convertible_pairs(draw):
    """``(f, g)`` where ``f`` is ``g`` beside a random block, relabelled by bijections."""
    g = draw(functions())
    joined = disjoint_union(g, draw(functions(min_dom=0)))
    into = draw(permutations(joined.dom.size))
    out = draw(permutations(joined.cod.size))
    return compose(out, compose(joined, into)), g


@settings(max_examples=40)
@given(functions(), functions())
def test_witness_exactly_when_decide_on_random_functions(f, g):
    for variant in (BIJ, INJ):
        if decide(variant, f, g):
            assert check_witness(variant, f, g, witness(variant, f, g))
        else:
            with pytest.raises(NotConvertibleError):
                witness(variant, f, g)


@settings(max_examples=40)
@given(convertible_pairs())
def test_witness_sound_on_random_functions(pair):
    f, g = pair
    for variant in (BIJ, INJ):
        assert decide(variant, f, g)
        assert check_witness(variant, f, g, witness(variant, f, g))


def _counting_sort_witness(variant, f, g):
    """A reference copy of the witness construction with counting-sort wiring.

    Codomain points are bucketed by fiber size (ties by lowest index) and
    paired bucket by bucket; each input of ``g + j`` takes the least unused
    preimage in its partner fiber of ``f + 1_Z``.
    """
    f_sizes, g_sizes = fiber_sizes(f), fiber_sizes(g)
    if variant is BIJ:
        phi_f, phi_g = Counter(f_sizes), Counter(g_sizes)
        surplus = {i: phi_f[i] - phi_g[i] for i in set(phi_f) | set(phi_g)}
        z = max(0, -surplus.get(1, 0))
        if z:
            surplus[1] = 0
        j = realize_profile(Profile(surplus))
    else:
        hit_f = len(f_sizes) - f_sizes.count(0)
        hit_g = len(g_sizes) - g_sizes.count(0)
        z = max(0, g.cod.size - f.cod.size, hit_g - hit_f)
        j = FinFun(FinSet(0), FinSet(f.cod.size + z - g.cod.size), [])
    F, G = disjoint_union(f, identity(z)), disjoint_union(g, j)

    def by_size(sizes):
        buckets = [[] for _ in range(max(sizes, default=0) + 1)]
        for y, size in enumerate(sizes):
            buckets[size].append(y)
        if variant is INJ:
            buckets.reverse()
        return [y for bucket in buckets for y in bucket]

    xi2_map = [0] * F.cod.size
    for y, b in zip(by_size(f_sizes + [1] * z), by_size(g_sizes + fiber_sizes(j))):
        xi2_map[y] = b
    partner = {b: y for y, b in enumerate(xi2_map)}
    preimages = [[] for _ in range(F.cod.size)]
    for x, y in enumerate(F.map):
        preimages[y].append(x)
    used = [0] * F.cod.size
    xi1_map = []
    for b in G.map:
        y = partner[b]
        xi1_map.append(preimages[y][used[y]])
        used[y] += 1
    return Witness(
        FinSet(z), FinFun(G.dom, F.dom, xi1_map), FinFun(F.cod, G.cod, xi2_map), j
    )


@settings(max_examples=60)
@given(st.one_of(convertible_pairs(), st.tuples(functions(min_dom=0), functions(min_dom=0))))
def test_witness_matches_counting_sort_reference(pair):
    f, g = pair
    for variant in (BIJ, INJ):
        if decide(variant, f, g):
            assert witness(variant, f, g) == _counting_sort_witness(variant, f, g)


def _surplus_pair(seed, n):
    """``g`` random on ``n`` points; ``f`` is ``g`` plus a surplus block, conjugated.

    The surplus block maps ``n // 4`` inputs at random onto as many fresh
    outputs; random bijections then relabel ``f``'s domain and codomain.
    """
    rng = random.Random(seed)
    s = n // 4
    gmap = [rng.randrange(n) for _ in range(n)]
    joined = gmap + [n + rng.randrange(s) for _ in range(s)]
    into, out = list(range(n + s)), list(range(n + s))
    rng.shuffle(into)
    rng.shuffle(out)
    fmap = [0] * (n + s)
    for x, y in enumerate(joined):
        fmap[into[x]] = out[y]
    return FinFun.from_map(fmap, n + s), FinFun.from_map(gmap, n)


@pytest.mark.parametrize(
    "variant, digest",
    [
        (BIJ, "3e3f11f9e336d1ef0816cae52b0e6ab5e029be52b31a75546741965bd62f530b"),
        (INJ, "ac11cdb0876b29112d9d05834ebac363710321e7a7c50fbe57d2734787e60569"),
    ],
)
def test_witness_bytes_are_pinned_at_scale(variant, digest):
    # a change of wiring order that still replays would change these bytes
    f, g = _surplus_pair(20, 2000)
    w = witness(variant, f, g)
    assert check_witness(variant, f, g, w)
    encoded = json.dumps(witness_to_dict(w), separators=(",", ":")).encode()
    assert hashlib.sha256(encoded).hexdigest() == digest


def _swap(m, a, b):
    entries = list(m.map)
    entries[a], entries[b] = entries[b], entries[a]
    return FinFun(m.dom, m.cod, entries)


@settings(max_examples=40)
@given(convertible_pairs(), st.data())
def test_tampered_witnesses_rejected_on_random_functions(pair, data):
    f, g = pair
    for variant in (BIJ, INJ):
        w = witness(variant, f, g)
        padded = disjoint_union(f, identity(w.Z)).map
        # input 0 passes through output y of f + 1_Z; sending y where another
        # output went keeps xi2 free but moves input 0 off g's answer
        y = padded[w.xi1.map[0]]
        assume(w.xi2.dom.size > 1)
        other = data.draw(st.integers(0, w.xi2.dom.size - 1).filter(lambda t: t != y))
        moved = Witness(w.Z, w.xi1, _swap(w.xi2, y, other), w.j)
        assert not check_witness(variant, f, g, moved)
        # two inputs routed into different fibers, exchanged
        apart = [a for a in range(w.xi1.dom.size) if padded[w.xi1.map[a]] != y]
        if apart:
            crossed = Witness(w.Z, _swap(w.xi1, 0, apart[0]), w.xi2, w.j)
            assert not check_witness(variant, f, g, crossed)
        assert not check_witness(variant, f, g, Witness(FinSet(w.Z.size + 1), w.xi1, w.xi2, w.j))


def _tampered(w):
    """``w`` with two outputs of ``xi2`` exchanged, or with ``Z`` one larger."""
    if w.xi2.dom.size < 2:
        return Witness(FinSet(w.Z.size + 1), w.xi1, w.xi2, w.j)
    return Witness(w.Z, w.xi1, _swap(w.xi2, 0, w.xi2.dom.size - 1), w.j)


def test_check_witness_agrees_between_variant_and_oracle_theory():
    funs = list(enumerate_all_functions(2))
    for variant in (BIJ, INJ):
        theory = theory_for(variant)
        for f in funs:
            for g in funs:
                if not decide(variant, f, g):
                    continue
                w = witness(variant, f, g)
                assert check_witness(variant, f, g, w)
                assert check_witness(theory, f, g, w)
                bad = _tampered(w)
                assert check_witness(variant, f, g, bad) == check_witness(theory, f, g, bad)


def test_check_witness_in_the_relational_theory():
    f = Relation.from_pairs(2, 2, [(0, 0), (0, 1)])
    g = Relation.from_pairs(1, 1, [])
    w = relx_convert(f, g)
    assert check_witness(REL_TIMES_THEORY, f, g, w)
    # function parts are the wrong morphism kind here: rejected, not raised
    set_w = witness(BIJ, MERGE, POINT)
    assert not check_witness(REL_TIMES_THEORY, f, g, set_w)
    assert not check_witness(REL_TIMES_THEORY, f, g, Witness(w.Z, w.xi1, w.xi2, MERGE))
    # xi2 no longer total on cod(f): not a function graph
    partial = Relation.from_pairs(2, 1, [(0, 0)])
    assert not check_witness(REL_TIMES_THEORY, f, g, Witness(w.Z, w.xi1, partial, w.j))
    assert not check_witness(REL_TIMES_THEORY, f, g, Witness(FinSet(2), w.xi1, w.xi2, w.j))


def test_free_classes_nest():
    # bijective wirings are injective, so a bij witness also passes the inj check
    w = witness(BIJ, MERGE, POINT)
    assert check_witness(INJ, MERGE, POINT, w)
    # the converse fails: the inj witness for the same pair is not surjective
    w = witness(INJ, MERGE, POINT)
    assert not check_witness(BIJ, MERGE, POINT, w)


# -- wire format -------------------------------------------------------------


def test_witness_dict_round_trip():
    w = witness(BIJ, MERGE, POINT)
    data = witness_to_dict(w)
    assert data["Z"] == 1
    assert data["xi1"] == {"dom": 3, "cod": 3, "map": [2, 0, 1]}
    assert witness_from_dict(data) == w


def test_witness_dict_relational_round_trip():
    z = FinSet(1)
    xi1 = Relation.from_pairs(0, 2, [])
    xi2 = Relation.from_pairs(2, 1, [(0, 0), (1, 0)])
    j = Relation.from_pairs(0, 1, [])
    w = Witness(z, xi1, xi2, j)
    assert REL_TIMES_THEORY.witness_from_dict(witness_to_dict(w)) == w


def test_witness_dict_errors():
    with pytest.raises(FormatError, match="missing field 'xi2'"):
        witness_from_dict({"Z": 0, "xi1": {}, "j": {}})
    with pytest.raises(FormatError, match="field 'Z' must be a non-negative integer"):
        witness_from_dict({"Z": -1, "xi1": {}, "xi2": {}, "j": {}})
    with pytest.raises(FormatError, match="field 'xi1': missing field 'dom'"):
        witness_from_dict({"Z": 0, "xi1": {}, "xi2": {}, "j": {}})
