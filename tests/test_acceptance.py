"""Acceptance gate: every headline guarantee, run end to end at full size.

Each test prints one ``[criterion N] name: PASS/FAIL (x.x s, n cases)`` line
with the seconds the criterion took and the number of cases it checked.  The file also runs standalone:

    python3 tests/test_acceptance.py

which runs every criterion even after one fails, prints each verdict line
(and the traceback of each failure on stderr), and exits 1 if any failed.
"""

import itertools
import sys
import time
import traceback

from pcdres import (
    BUILTIN_MEASURES,
    NEGATIVE_CONTROLS,
    CandidateMeasure,
    Profile,
    Relation,
    SearchBounds,
    TheoryVariant,
    check_complete_family,
    check_measure,
    check_witness,
    compose,
    decide,
    default_family,
    disjoint_union,
    enumerate_all_functions,
    enumerate_bijections,
    gamma_profile,
    identity,
    normal_form,
    oracle_convertible,
    phi_profile,
    preorder_table,
    realize_profile,
    relx_convert,
    theory_for,
    witness,
)
from pcdres import check_witness as verify_witness
from pcdres.oracle import REL_TIMES_THEORY

BIJ = TheoryVariant.SET_BIJ
INJ = TheoryVariant.SET_INJ

ORACLE_BOUNDS = SearchBounds(3, 6, 6)
TOL = 1e-9

# pairs with decide = true among all function pairs at sizes <= 3
TRUE_PAIRS = {BIJ: 1727, INJ: 2556}

NEG_PHI_0 = CandidateMeasure("neg_phi_0", lambda f: -BUILTIN_MEASURES["phi_0"](f))


def _verdict(number: int, name: str, failures: list, started: float, cases: int) -> None:
    ok = not failures
    seconds = time.perf_counter() - started
    print(
        f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'} "
        f"({seconds:.1f} s, {cases} cases)"
    )
    if not ok:  # not an assert, which python -O would drop from the standalone run
        raise AssertionError(f"criterion {number} ({name}): first failure: {failures[0]!r}")


def _relations(max_size):
    for d in range(max_size + 1):
        for c in range(max_size + 1):
            for bits in itertools.product((False, True), repeat=d * c):
                yield Relation.from_pairs(d, c, [divmod(k, c) for k, hit in enumerate(bits) if hit])


def _oracle_agreement(number: int, variant: TheoryVariant) -> None:
    started = time.perf_counter()
    theory = theory_for(variant)
    funs = list(enumerate_all_functions(3))
    failures = []
    found = 0
    for f in funs:
        for g in funs:
            expected = decide(variant, f, g)
            w = oracle_convertible(theory, f, g, ORACLE_BOUNDS)
            if (w is not None) != expected:
                failures.append((f, g, expected))
            elif w is not None:
                # count a witness only once the equation replays
                if check_witness(theory, f, g, w):
                    found += 1
                else:
                    failures.append((f, g, "oracle witness fails replay"))
    if found != TRUE_PAIRS[variant]:
        failures.append(f"expected {TRUE_PAIRS[variant]} convertible pairs, found {found}")
    _verdict(number, f"oracle agreement ({variant.value})", failures, started, len(funs) ** 2)


def test_criterion_1_oracle_agreement_set_bij():
    _oracle_agreement(1, BIJ)


def test_criterion_2_oracle_agreement_set_inj():
    _oracle_agreement(2, INJ)


def test_criterion_3_witness_soundness():
    started = time.perf_counter()
    funs = list(enumerate_all_functions(3))
    failures = []
    cases = 0
    for variant in (BIJ, INJ):
        produced = 0
        for f in funs:
            for g in funs:
                if not decide(variant, f, g):
                    continue
                cases += 1
                w = witness(variant, f, g)
                if not (variant.is_free(w.xi1) and variant.is_free(w.xi2)):
                    failures.append((variant, f, g, "wiring not free"))
                elif not check_witness(variant, f, g, w):
                    failures.append((variant, f, g, "equation fails"))
                else:
                    produced += 1
        if produced != TRUE_PAIRS[variant]:
            failures.append((variant, "count", produced))
    _verdict(3, "witness soundness", failures, started, cases)


def test_criterion_4_ordered_monoid_isomorphism():
    started = time.perf_counter()
    funs = list(enumerate_all_functions(4))
    failures = []
    for variant in (BIJ, INJ):
        forms = {f: normal_form(variant, f) for f in funs}
        # decide compares dense count lists and never builds a Profile, so
        # the order half checks it against Profile dominance on every pair
        for f in funs:
            for g in funs:
                if normal_form(variant, disjoint_union(f, g)) != forms[f] + forms[g]:
                    failures.append((variant, f, g, "not a monoid map"))
                if decide(variant, f, g) != (forms[f] >= forms[g]):
                    failures.append((variant, f, g, "order mismatch"))
    _verdict(4, "ordered-monoid isomorphism", failures, started, 2 * len(funs) ** 2)


def test_criterion_5_non_negativity():
    started = time.perf_counter()
    failures = []
    cases = 0
    for variant in (BIJ, INJ):
        for f in enumerate_all_functions(4):
            for z in range(5):
                cases += 1
                if not decide(variant, f, identity(z)):
                    failures.append((variant, f, z))
    _verdict(5, "non-negativity", failures, started, cases)


def test_criterion_6_relational_triviality():
    started = time.perf_counter()
    rels = list(_relations(2))
    failures = []
    checked = 0
    cases = 0
    for f in rels:
        for g in rels:
            if g.cod.size == 0 and f.cod.size > 0:
                continue
            cases += 1
            w = relx_convert(f, g)
            if not verify_witness(REL_TIMES_THEORY, f, g, w):
                failures.append((f, g))
            else:
                checked += 1
    if checked != 877:
        failures.append(f"expected 877 closed-form witnesses, got {checked}")
    table = preorder_table(REL_TIMES_THEORY, 2)
    if len(table) != len(rels) ** 2:
        failures.append(f"table has {len(table)} of {len(rels) ** 2} pairs")
    _verdict(6, "relational triviality", failures, started, cases)


def _class_route_passes(variant, mu, funs) -> bool:
    """Independent reading of a measure as a map on conversion classes.

    Well defined (constant on each class), additive on representatives, and
    order preserving along every decided conversion.
    """
    forms = [normal_form(variant, f) for f in funs]
    values = [mu(f) for f in funs]
    first: dict = {}
    for form, value in zip(forms, values):
        if form in first and abs(first[form] - value) > TOL:
            return False
        first.setdefault(form, value)
    for (f, vf), (g, vg) in itertools.product(zip(funs, values), repeat=2):
        if abs(mu(disjoint_union(f, g)) - (vf + vg)) > TOL:
            return False
    for (f, vf), (g, vg) in itertools.product(zip(funs, values), repeat=2):
        if decide(variant, f, g) and vf < vg - TOL:
            return False
    return True


def test_criterion_7_measure_screen_equivalence():
    started = time.perf_counter()
    funs = list(enumerate_all_functions(3))
    failures = []
    cases = 0
    for variant in (BIJ, INJ):
        for name, mu in sorted(BUILTIN_MEASURES.items()):
            cases += 1
            screened = check_measure(variant, mu, 3, TOL).passed
            induced = _class_route_passes(variant, mu, funs)
            if screened != induced:
                failures.append((variant, name, screened, induced))
    for name in NEGATIVE_CONTROLS:
        for variant in (BIJ, INJ):
            cases += 1
            report = check_measure(variant, BUILTIN_MEASURES[name], 3, TOL)
            if report.passed:
                failures.append((variant, name, "control passed"))
                continue
            conditions = (report.additivity, report.unit, report.monotonicity)
            if not any(not c.passed and c.counterexample for c in conditions):
                failures.append((variant, name, "no concrete counterexample"))
    # additive, zero on identities and never raised by free wiring, but
    # negative: only the non-negativity condition can reject it
    for variant in (BIJ, INJ):
        cases += 1
        report = check_measure(variant, NEG_PHI_0, 3, TOL)
        if report.passed or not report.nonnegativity.counterexample:
            failures.append((variant, NEG_PHI_0.name, "screen missed a negative measure"))
        if _class_route_passes(variant, NEG_PHI_0, funs):
            failures.append((variant, NEG_PHI_0.name, "class route missed it"))
    _verdict(7, "measure screen equivalence", failures, started, cases)


def test_criterion_8_complete_families():
    started = time.perf_counter()
    failures = []
    cases = 0
    for variant in (BIJ, INJ):
        family = default_family(variant)
        cases += 1 + len(family)
        if not check_complete_family(variant, family, 3, TOL).passed:
            failures.append((variant, "default family rejected"))
        for member in family:
            report = check_complete_family(variant, [member], 3, TOL)
            if report.passed:
                failures.append((variant, member.name, "singleton complete"))
            elif report.counterexample is None:
                failures.append((variant, member.name, "no counterexample emitted"))
    _verdict(8, "complete families", failures, started, cases)


def test_criterion_9_profile_algebra():
    started = time.perf_counter()
    failures = []
    cases = 0
    for f in enumerate_all_functions(5):
        cases += 1
        phi, gamma = phi_profile(f), gamma_profile(f)
        if sum(i * n for i, n in phi.items()) != f.dom.size:
            failures.append((f, "mass"))
        if sum(n for _, n in phi.items()) != f.cod.size:
            failures.append((f, "count"))
        top = max(phi.support, default=-1)
        for i in range(top + 2):
            if gamma[i] != sum(phi[k] for k in range(i, top + 1)):
                failures.append((f, "tail", i))
                break
    for f in enumerate_all_functions(3):
        for pre in enumerate_bijections(f.dom, f.dom):
            for post in enumerate_bijections(f.cod, f.cod):
                cases += 1
                conjugated = compose(post, compose(f, pre))
                if phi_profile(conjugated) != phi_profile(f):
                    failures.append((f, pre, post, "phi invariance"))
                if gamma_profile(conjugated) != gamma_profile(f):
                    failures.append((f, pre, post, "gamma invariance"))
    for counts in itertools.product(range(4), repeat=5):
        cases += 1
        p = Profile(dict(enumerate(counts)))
        if phi_profile(realize_profile(p)) != p:
            failures.append((p, "realize round trip"))
    _verdict(9, "profile algebra", failures, started, cases)


def _run_all() -> int:
    """Run every criterion, reporting each failure instead of stopping at it."""
    failed = 0
    for fn in sorted(
        (v for k, v in globals().items() if k.startswith("test_criterion_")),
        key=lambda fn: fn.__name__,
    ):
        try:
            fn()
        except AssertionError:  # _verdict has printed the FAIL line
            failed += 1
            traceback.print_exc()
        except Exception as exc:  # the criterion crashed before its verdict
            failed += 1
            number = fn.__name__.split("_")[2]
            print(f"[criterion {number}] {fn.__name__}: FAIL (raised {type(exc).__name__})")
            traceback.print_exc()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(_run_all())
