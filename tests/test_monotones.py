"""Screening additive measures and validating complete families."""

import hashlib
import itertools
import json
import math
import tracemalloc

import pytest

from pcdres import (
    BUILTIN_MEASURES,
    NEGATIVE_CONTROLS,
    CandidateMeasure,
    FinFun,
    MeasureRejected,
    Profile,
    TheoryVariant,
    check_complete_family,
    check_measure,
    compose,
    decide,
    default_family,
    disjoint_union,
    enumerate_all_functions,
    finfun_to_dict,
    identity,
    induce_monotone,
    monotones,
    normal_form,
    phi_profile,
)

BIJ = TheoryVariant.SET_BIJ
INJ = TheoryVariant.SET_INJ

neg_phi_0 = CandidateMeasure("neg_phi_0", lambda f: -BUILTIN_MEASURES["phi_0"](f))


def test_builtin_registry():
    assert len(BUILTIN_MEASURES) == 20  # phi_0..8, gamma_0..8, two sizes
    assert BUILTIN_MEASURES["phi_2"](FinFun.from_map([0, 0], 1)) == 1.0
    assert BUILTIN_MEASURES["gamma_1"](FinFun.from_map([0, 0], 1)) == 1.0
    assert BUILTIN_MEASURES["dom_size"](identity(3)) == 3.0
    assert set(NEGATIVE_CONTROLS) <= set(BUILTIN_MEASURES)


def test_phi_2_passes_screening():
    report = check_measure(BIJ, BUILTIN_MEASURES["phi_2"], 3)
    assert report.passed
    assert report.render().splitlines()[0] == "measure phi_2 [set-bij] size limit 3: PASS"


def test_phi_1_fails_the_unit_condition():
    report = check_measure(BIJ, BUILTIN_MEASURES["phi_1"], 2)
    assert not report.passed
    assert report.additivity.passed
    assert not report.unit.passed
    assert report.unit.counterexample == (identity(1),)
    assert "mu = 1.0 on the identity of size 1" in report.unit.note
    assert report.monotonicity.passed


def test_gamma_0_fails_monotonicity_under_injections():
    report = check_measure(INJ, BUILTIN_MEASURES["gamma_0"], 2)
    assert not report.unit.passed
    assert not report.monotonicity.passed
    # adjoining a fresh unhit output is free and raises the count
    assert report.monotonicity.counterexample == (
        FinFun.from_map([], 0),
        FinFun.from_map([], 1),
    )
    assert report.monotonicity.note == "post-composition raises mu from 0.0 to 1.0"


def test_negative_controls_fail_under_both_variants():
    for name in NEGATIVE_CONTROLS:
        for variant in (BIJ, INJ):
            assert not check_measure(variant, BUILTIN_MEASURES[name], 2).passed


def test_phi_2_is_variant_sensitive():
    # with injections free a large fiber may be cut down to size exactly 2,
    # which needs a 3-fiber and so only shows at size limit 3
    assert check_measure(INJ, BUILTIN_MEASURES["phi_2"], 2).passed
    report = check_measure(INJ, BUILTIN_MEASURES["phi_2"], 3)
    assert not report.passed
    assert report.monotonicity.counterexample == (
        FinFun.from_map([0, 0, 0], 1),
        FinFun.from_map([0, 1], 3),
    )
    assert report.monotonicity.note.startswith("pre-composition raises mu")


def test_additivity_failure_is_reported():
    squared = CandidateMeasure("squared", lambda f: float(f.dom.size**2))
    report = check_measure(BIJ, squared, 1)
    assert not report.additivity.passed
    assert report.additivity.counterexample == (identity(1), identity(1))
    assert "mu(f+g) = 4.0 but mu(f) + mu(g) = 2.0" in report.additivity.note


def test_tolerance_semantics():
    noisy = CandidateMeasure("noisy", lambda f: phi_profile(f)[2] + 1e-12)
    assert check_measure(BIJ, noisy, 2).passed  # noise below default tolerance
    assert not check_measure(BIJ, noisy, 2, tolerance=1e-15).passed
    loud = CandidateMeasure("loud", lambda f: phi_profile(f)[2] + 1e-6)
    report = check_measure(BIJ, loud, 2)
    assert not report.unit.passed


@pytest.mark.parametrize(
    "tolerance", [-1.0, -1e-12, math.nan, math.inf, True, False, "1e-9", None, 1j]
)
@pytest.mark.parametrize(
    "check",
    [
        lambda t: check_measure(BIJ, BUILTIN_MEASURES["phi_2"], 2, tolerance=t),
        lambda t: induce_monotone(BIJ, BUILTIN_MEASURES["phi_2"], 2, tolerance=t),
        lambda t: check_complete_family(BIJ, [], 2, tolerance=t),
    ],
    ids=["check_measure", "induce_monotone", "check_complete_family"],
)
def test_tolerance_must_be_a_finite_non_negative_number(check, tolerance):
    # a negative tolerance would fail every condition of a monotone, and a
    # nan one everything, with no word on why
    with pytest.raises(ValueError, match="tolerance"):
        check(tolerance)


@pytest.mark.parametrize("size_limit", [-1, -5, True, False, 1.5, 3.0, "3", None])
@pytest.mark.parametrize(
    "check",
    [
        lambda n: check_measure(BIJ, BUILTIN_MEASURES["phi_1"], n),
        lambda n: induce_monotone(BIJ, BUILTIN_MEASURES["phi_2"], n),
        lambda n: check_complete_family(BIJ, default_family(BIJ), n),
        lambda n: check_complete_family(BIJ, [], n),
    ],
    ids=["check_measure", "induce_monotone", "check_complete_family", "empty_family"],
)
def test_size_limit_must_be_a_non_negative_int(check, size_limit):
    # a negative size limit screens no process, so even the negative
    # control phi_1 would pass; True would screen as size limit 1
    with pytest.raises(ValueError, match="size limit"):
        check(size_limit)


def test_size_limit_zero_is_accepted():
    assert check_measure(BIJ, BUILTIN_MEASURES["phi_2"], 0).passed
    assert check_complete_family(BIJ, [], 0).size_limit == 0


def test_zero_and_integer_tolerances_are_accepted():
    assert check_measure(BIJ, BUILTIN_MEASURES["phi_2"], 2, tolerance=0).passed
    assert check_measure(BIJ, BUILTIN_MEASURES["phi_2"], 2, tolerance=1).passed
    assert check_complete_family(BIJ, default_family(BIJ), 2, tolerance=0.0).passed


def test_induced_monotone_values():
    M = induce_monotone(BIJ, BUILTIN_MEASURES["phi_2"], 2)
    assert M(Profile()) == 0.0
    assert M(Profile({2: 1})) == 1.0
    assert M(Profile({0: 2, 2: 3})) == 3.0
    N = induce_monotone(INJ, BUILTIN_MEASURES["gamma_3"], 2)
    assert N(Profile({2: 2, 3: 1})) == 1.0


def test_induced_monotone_is_additive_on_forms():
    M = induce_monotone(BIJ, BUILTIN_MEASURES["phi_2"], 2)
    forms = [Profile(), Profile({2: 1}), Profile({0: 1}), Profile({0: 2, 2: 2})]
    for p in forms:
        for q in forms:
            assert M(p + q) == M(p) + M(q)


def test_induce_rejects_failing_measures():
    with pytest.raises(MeasureRejected) as exc:
        induce_monotone(BIJ, BUILTIN_MEASURES["phi_1"], 2)
    assert exc.value.report is not None
    assert not exc.value.report.unit.passed


# -- families ----------------------------------------------------------------


def test_default_families_are_complete():
    report = check_complete_family(BIJ, default_family(BIJ), 3)
    assert report.passed
    assert report.measures == ("phi_0", "phi_2", "phi_3", "phi_4")
    assert report.render() == "family {phi_0, phi_2, phi_3, phi_4} [set-bij] size limit 3: PASS"
    report = check_complete_family(INJ, default_family(INJ), 3)
    assert report.passed
    assert report.measures == ("gamma_2", "gamma_3", "gamma_4")


def test_single_member_families_are_incomplete():
    report = check_complete_family(BIJ, [BUILTIN_MEASURES["phi_2"]], 3)
    assert not report.passed
    # phi_2 alone cannot see the unhit output that blocks this conversion
    assert report.counterexample == (FinFun.from_map([], 0), FinFun.from_map([], 1))
    assert report.note == "all measures dominate but f does not convert to g"

    report = check_complete_family(INJ, [BUILTIN_MEASURES["gamma_2"]], 3)
    assert not report.passed
    # gamma_2 alone cannot see the 3-fiber the target needs
    assert report.counterexample == (
        FinFun.from_map([0, 0], 1),
        FinFun.from_map([0, 0, 0], 1),
    )


def test_family_completeness_depends_on_the_size_limit():
    # at sizes <= 2 no 3-fiber exists, so gamma_2 alone is already complete
    assert check_complete_family(INJ, [BUILTIN_MEASURES["gamma_2"]], 2).passed


def test_family_members_are_screened_first():
    with pytest.raises(MeasureRejected, match="family member phi_1 fails screening"):
        check_complete_family(BIJ, [BUILTIN_MEASURES["phi_1"]], 2)
    with pytest.raises(MeasureRejected):
        check_complete_family(
            BIJ, [BUILTIN_MEASURES["phi_2"], BUILTIN_MEASURES["dom_size"]], 2
        )
    with pytest.raises(MeasureRejected, match="family member neg_phi_0 fails screening"):
        check_complete_family(BIJ, [neg_phi_0], 2)


nan_measure = CandidateMeasure("nan", lambda f: math.nan)


def test_nan_measure_fails_every_condition():
    report = check_measure(BIJ, nan_measure, 2)
    conditions = (report.additivity, report.unit, report.monotonicity, report.nonnegativity)
    assert not report.passed
    assert all(not c.passed and c.counterexample for c in conditions)
    assert report.nonnegativity.note == "mu = nan is not a number"


def test_family_with_a_nan_member_is_rejected():
    family = default_family(BIJ) + (nan_measure,)
    with pytest.raises(MeasureRejected, match="family member nan fails screening"):
        check_complete_family(BIJ, family, 2)


def test_family_report_render_shows_counterexample():
    report = check_complete_family(BIJ, [BUILTIN_MEASURES["phi_2"]], 2)
    rendered = report.render()
    assert rendered.splitlines()[0] == "family {phi_2} [set-bij] size limit 2: FAIL"
    assert '{"dom":0,"cod":0,"map":[]} vs {"dom":0,"cod":1,"map":[]}' in rendered


# -- the screen against its definition ----------------------------------------


def test_negative_measure_fails_only_non_negativity():
    # -phi_0 is additive, vanishes on identities and never rises under free
    # wiring, yet 0 -> 1 converts to the empty map by discarding and -phi_0
    # rises from -1 to 0 along that conversion
    for variant in (BIJ, INJ):
        report = check_measure(variant, neg_phi_0, 1)
        assert not report.passed
        assert report.additivity.passed and report.unit.passed
        assert report.monotonicity.passed
        assert not report.nonnegativity.passed
        assert report.nonnegativity.counterexample == (FinFun.from_map([], 1),)
        assert report.nonnegativity.note == "mu = -1.0 is negative"
        assert report.render().splitlines()[-1] == (
            '  non-negativity: FAIL mu = -1.0 is negative [{"dom":0,"cod":1,"map":[]}]'
        )


def _fmt(f):
    return json.dumps(finfun_to_dict(f), separators=(",", ":"))


def _reference_condition(failure):
    if failure is None:
        return "pass"
    note, shown = failure
    return f"FAIL {note} [{' '.join(_fmt(m) for m in shown)}]"


def _reference_screen(variant, mu, size_limit, tolerance=1e-9):
    """The three-condition screen as first written, re-evaluating ``mu`` freely.

    Returns the rendered report without the non-negativity line.
    """
    funs = list(enumerate_all_functions(size_limit))
    additivity = unit = monotonicity = None
    for f, g in itertools.product(funs, funs):
        lhs = mu(disjoint_union(f, g))
        rhs = mu(f) + mu(g)
        if abs(lhs - rhs) > tolerance:
            additivity = (f"mu(f+g) = {lhs} but mu(f) + mu(g) = {rhs}", (f, g))
            break
    for z in range(size_limit + 1):
        value = mu(identity(z))
        if abs(value) > tolerance:
            unit = (f"mu = {value} on the identity of size {z}", (identity(z),))
            break

    def first_rise():
        for f in funs:
            base = mu(f)
            for other in range(size_limit + 1):
                for xi in variant.free_morphisms(f.cod, other):
                    value = mu(compose(xi, f))
                    if base < value - tolerance:
                        return (f"post-composition raises mu from {base} to {value}", (f, xi))
                for xi in variant.free_morphisms(other, f.dom):
                    value = mu(compose(f, xi))
                    if base < value - tolerance:
                        return (f"pre-composition raises mu from {base} to {value}", (f, xi))
        return None

    monotonicity = first_rise()
    passed = additivity is None and unit is None and monotonicity is None
    return "\n".join(
        [
            f"measure {mu.name} [{variant.value}] size limit {size_limit}: "
            f"{'PASS' if passed else 'FAIL'}",
            f"  additivity: {_reference_condition(additivity)}",
            f"  unit: {_reference_condition(unit)}",
            f"  free monotonicity: {_reference_condition(monotonicity)}",
        ]
    )


SCREENED = [*BUILTIN_MEASURES.values()] + [
    CandidateMeasure("squared", lambda f: float(f.dom.size**2)),
    CandidateMeasure("noisy", lambda f: phi_profile(f)[2] + 1e-12),
]


@pytest.mark.parametrize("variant", [BIJ, INJ], ids=lambda v: v.value)
@pytest.mark.parametrize("mu", SCREENED, ids=lambda mu: mu.name)
def test_screen_matches_reference(variant, mu):
    lines = check_measure(variant, mu, 2).render().splitlines()
    assert lines[-1] == "  non-negativity: pass"
    assert "\n".join(lines[:-1]) == _reference_screen(variant, mu, 2)


@pytest.mark.parametrize("variant", [BIJ, INJ], ids=lambda v: v.value)
def test_family_check_matches_decide(variant):
    # every pair where joint dominance and decide disagree, in enumeration order
    funs = list(enumerate_all_functions(3))
    for family in [default_family(variant)] + [[mu] for mu in default_family(variant)]:
        report = check_complete_family(variant, family, 3)
        mismatch = next(
            (
                (f, g)
                for f, g in itertools.product(funs, funs)
                if decide(variant, f, g) != all(mu(f) >= mu(g) for mu in family)
            ),
            None,
        )
        assert report.passed == (mismatch is None)
        assert report.counterexample == mismatch


def _reference_family(variant, family, size_limit):
    """The family check on sparse ``Profile`` normal forms compared with ``>=``."""
    for mu in family:
        if not check_measure(variant, mu, size_limit).passed:
            return f"family member {mu.name} fails screening"
    funs = list(enumerate_all_functions(size_limit))
    rows = [(f, normal_form(variant, f), [mu(f) for mu in family]) for f in funs]
    for (f, ff, vf), (g, fg, vg) in itertools.product(rows, repeat=2):
        dominates = all(a >= b - monotones.TOLERANCE for a, b in zip(vf, vg))
        if ff >= fg and not dominates:
            drop = next(mu.name for mu, a, b in zip(family, vf, vg) if a < b - monotones.TOLERANCE)
            return False, (f, g), f"{drop} decreases along a conversion"
        if dominates and not ff >= fg:
            return False, (f, g), "all measures dominate but f does not convert to g"
    return True, None, ""


@pytest.mark.parametrize("variant", [BIJ, INJ], ids=lambda v: v.value)
def test_family_check_matches_profile_reference(variant, monkeypatch):
    screened = {}

    def screen_once(variant, mu, size_limit, tolerance=monotones.TOLERANCE):
        key = (variant, mu.name, size_limit, tolerance)
        if key not in screened:
            screened[key] = check_measure(variant, mu, size_limit, tolerance)
        return screened[key]

    monkeypatch.setattr(monotones, "check_measure", screen_once)
    families = [default_family(v) for v in (BIJ, INJ)] + [[]]
    families += [[mu] for mu in BUILTIN_MEASURES.values()]
    families += [list(pair) for pair in itertools.combinations(BUILTIN_MEASURES.values(), 2)]
    references = [_reference_family(variant, family, 3) for family in families]
    for kept_unions in (monotones._KEPT_UNIONS, 0):  # kept, then streamed processes
        monkeypatch.setattr(monotones, "_KEPT_UNIONS", kept_unions)
        for family, expected in zip(families, references):
            try:
                report = check_complete_family(variant, family, 3)
            except MeasureRejected as exc:
                assert str(exc) == expected
            else:
                assert (report.passed, report.counterexample, report.note) == expected


def test_measure_is_evaluated_once_per_process(monkeypatch):
    calls = []

    def counted(f):
        calls.append(f)
        return float(phi_profile(f)[3])

    mu = CandidateMeasure("counted_phi_3", counted)
    n = len(list(enumerate_all_functions(3)))
    for variant in (BIJ, INJ):
        calls.clear()
        assert check_measure(variant, mu, 3).passed
        # once per process, once per disjoint union of two; the parent
        # screen made 3 n^2 additivity calls (10,800) plus the rest
        assert len(calls) == n + n * n == 60 + 3600

    forms = []
    dense_form = monotones._dense_form

    def counted_form(variant, f):
        forms.append(f)
        return dense_form(variant, f)

    monkeypatch.setattr(monotones, "_dense_form", counted_form)
    for variant in (BIJ, INJ):
        calls.clear()
        forms.clear()
        check_complete_family(variant, [mu], 3)
        # the screen, then one value and one normal form per process
        assert len(calls) == n + n * n + n
        assert len(forms) == n


@pytest.mark.parametrize("name, expected", [("phi_0", 999999999.0), ("gamma_0", 1e9)])
def test_measures_cost_memory_in_domain(name, expected):
    # one hit point in a codomain of 10^9: counted from the hit points
    f = FinFun.from_map([0], 10**9)
    tracemalloc.start()
    try:
        value = BUILTIN_MEASURES[name](f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == expected
    assert peak < 2 * 2**20


# the registry's former definition of each count measure:
# float(sum(size_counts(f)[window]))
WINDOWS = {f"phi_{i}": slice(i, i + 1) for i in range(9)} | {
    f"gamma_{i}": slice(i, None) for i in range(9)
}


def _by_window(f):
    """``{name: value}`` of every built-in measure on ``f``, as the registry defined it."""
    counts = monotones.size_counts(f)
    values = {name: float(sum(counts[window])) for name, window in WINDOWS.items()}
    return values | {"dom_size": float(f.dom.size), "cod_size": float(f.cod.size)}


def test_builtin_measures_keep_their_window_values_bit_for_bit():
    kept = monotones._kept_processes(3) + monotones._kept_unions(3)
    fresh = [FinFun.from_map(f.map, f.cod.size) for f in kept]
    assert all(f._counts is not None for f in kept) and all(f._counts is None for f in fresh)
    # a count past 2**53, where a float sum of the tail would round: an
    # unhit codomain of 2**53 + 1 points, and fibers of sizes 1, 2 and 3
    wide = FinFun.from_map([0, 1, 1, 2, 2, 2], 2**53 + 4)
    tail = monotones.size_counts(wide)
    assert sum(tail, 0.0) != float(sum(tail))
    funs = [
        *enumerate_all_functions(4), *kept, *fresh, FinFun.from_map([0], 10**9), wide
    ]
    assert len(BUILTIN_MEASURES) == 20
    for f in funs:
        expected = _by_window(f)
        assert expected.keys() == BUILTIN_MEASURES.keys()
        for name, mu in BUILTIN_MEASURES.items():
            value = mu(f)
            assert type(value) is float and value.hex() == expected[name].hex(), (name, f)


# sees the order of the blocks in a union, which no fiber count does
first_image = CandidateMeasure("first_image", lambda f: float(f.map[0]) if f.map else 0.0)
# inf == inf, yet every union of a non-empty map must fail additivity
inf_measure = CandidateMeasure("inf", lambda f: math.inf if f.map else 0.0)
# never equal to its pairwise sum, always within the default tolerance of it
near_tolerance = CandidateMeasure("near_tolerance", lambda f: phi_profile(f)[2] + 9e-10)


def _screens():
    """Every render of the screen and the family check at size limits 0-3.

    Each screen evaluates its measure once per process and then once per
    disjoint union of two, up to the first that fails additivity; the
    number of evaluations is part of what is returned.
    """
    out = []
    for size_limit in range(4):
        n = len(list(enumerate_all_functions(size_limit)))
        for variant in (BIJ, INJ):
            for mu in SCREENED + [neg_phi_0, nan_measure, first_image, inf_measure, near_tolerance]:
                calls = []
                counted = CandidateMeasure(mu.name, lambda f, fn=mu.fn: calls.append(f) or fn(f))
                report = check_measure(variant, counted, size_limit)
                if report.additivity.passed:
                    assert len(calls) == n + n * n
                out.append(f"{report.render()}\n  evaluations: {len(calls)}")
            family = default_family(variant)
            for members in [family] + [(mu,) for mu in family]:
                try:
                    out.append(check_complete_family(variant, members, size_limit).render())
                except MeasureRejected as exc:
                    out.append(str(exc))
    return out


KEPT_TABLES = (monotones._kept_processes, monotones._kept_unions, monotones._kept_wirings)


def _clear_kept_tables():
    for table in KEPT_TABLES:
        table.cache_clear()


def _kept_table_counts():
    return [table.cache_info().currsize for table in KEPT_TABLES]


# SHA-256 of the newline-joined _screens(), as the plain pairwise screen and
# family check render them
SCREENS_SHA256 = "545bd79bd470a84fdbf1514a74c88c861f0fa2f4260008f6ab7757d97c989b3f"


def test_kept_and_streamed_unions_screen_alike(monkeypatch):
    _clear_kept_tables()
    kept = _screens()
    # processes and unions per size limit 0-3, wirings per variant too
    assert _kept_table_counts() == [4, 4, 8]
    _clear_kept_tables()
    with monkeypatch.context() as m:
        m.setattr(monotones, "_KEPT_UNIONS", 0)
        streamed = _screens()
    assert _kept_table_counts() == [0, 0, 0]
    assert streamed == kept
    # a change that alters both paths alike shows here
    assert hashlib.sha256("\n".join(kept).encode()).hexdigest() == SCREENS_SHA256


def test_kept_unions_stay_bounded(monkeypatch):
    _clear_kept_tables()
    with monkeypatch.context() as m:
        m.setattr(monotones, "_KEPT_UNIONS", 3599)
        for variant in (BIJ, INJ):
            check_measure(variant, BUILTIN_MEASURES["phi_2"], 3)
    assert _kept_table_counts() == [0, 0, 0]

    tracemalloc.start()
    try:
        tables = (
            monotones._kept_processes(3),
            monotones._kept_unions(3),
            monotones._kept_wirings(BIJ, 3),
            monotones._kept_wirings(INJ, 3),
        )
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    processes, unions = tables[:2]
    assert type(unions) is tuple and len(processes) == 60 and len(unions) == 60 * 60
    # the counts are part of what is held
    assert all(f._counts is not None for f in processes + unions)
    assert held < 2**20


def test_streamed_unions_count_fibers_once_per_pair_of_part_counts(monkeypatch):
    size_counts = monotones.size_counts
    counted = []

    def counting(f):
        counted.append(f)
        return size_counts(f)

    shapes = {tuple(size_counts(f)) for f in enumerate_all_functions(3)}
    _clear_kept_tables()
    monkeypatch.setattr(monotones, "_KEPT_UNIONS", 0)
    monkeypatch.setattr(monotones, "size_counts", counting)
    for variant in (BIJ, INJ):
        counted.clear()
        assert check_measure(variant, BUILTIN_MEASURES["phi_2"], 3).additivity.passed
        # once per process, then once per pair of part counts, not per union
        assert len(counted) == 60 + len(shapes) ** 2 < 60 + 60 * 60
    assert _kept_table_counts() == [0, 0, 0]

    funs = monotones._processes(3)
    unions = list(monotones._unions(funs))
    assert unions == list(itertools.starmap(disjoint_union, itertools.product(funs, repeat=2)))
    assert all(u._counts == tuple(size_counts(u)) for u in unions)


def test_a_raising_measure_leaves_the_kept_unions_intact():
    def explodes(f):
        if f.dom.size == 5:
            raise ArithmeticError("no value on 5 points")
        return float(f.dom.size)

    def renders():
        return [check_measure(v, mu, 3).render() for v in (BIJ, INJ) for mu in SCREENED]

    _clear_kept_tables()
    with pytest.raises(ArithmeticError, match="no value on 5 points"):
        check_measure(BIJ, CandidateMeasure("explodes", explodes), 3)
    after = renders()
    _clear_kept_tables()
    assert after == renders()
