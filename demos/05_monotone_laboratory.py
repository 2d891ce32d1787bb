"""Screening candidate measures and hunting complete families.

An additive monotone must add up over disjoint union, vanish on identities,
never be negative (every process can be discarded down to nothing), and
never increase under free pre- or post-processing.  The lab screens
candidates exhaustively at small sizes, evaluating each candidate once per
enumerated process, promotes survivors to functions on normal forms, and
tests whether a family jointly decides the order.  Failures always come with
a concrete counterexample.
"""

from pcdres import (
    BUILTIN_MEASURES,
    CandidateMeasure,
    MeasureRejected,
    Profile,
    TheoryVariant,
    check_complete_family,
    check_measure,
    default_family,
    induce_monotone,
)

BIJ, INJ = TheoryVariant.SET_BIJ, TheoryVariant.SET_INJ

print("== a good measure ==")
print(check_measure(BIJ, BUILTIN_MEASURES["phi_2"], 3).render())

print()
print("== two bad ones ==")
print(check_measure(BIJ, BUILTIN_MEASURES["phi_1"], 2).render())
print()
print(check_measure(INJ, BUILTIN_MEASURES["gamma_0"], 2).render())

print()
print("== home-made candidates are welcome ==")
collisions = CandidateMeasure(
    "collisions", lambda f: float(f.dom.size - len(set(f.map)))
)
print(check_measure(BIJ, collisions, 3).render())
print()
print("a negative candidate passes every wiring test but not non-negativity:")
debt = CandidateMeasure("debt", lambda f: -BUILTIN_MEASURES["phi_0"](f))
print(check_measure(BIJ, debt, 2).render())

print()
print("== induced monotones on normal forms ==")
M = induce_monotone(BIJ, BUILTIN_MEASURES["phi_2"], 3)
for form in (Profile(), Profile({2: 1}), Profile({0: 1, 2: 2})):
    print(f"  M{tuple(form.items())} = {M(form)}")

print()
print("== family completeness ==")
print(check_complete_family(BIJ, default_family(BIJ), 3).render())
print(check_complete_family(INJ, default_family(INJ), 3).render())
print()
print("drop all but one member and completeness breaks:")
print(check_complete_family(INJ, [BUILTIN_MEASURES["gamma_2"]], 3).render())
print()
try:
    check_complete_family(BIJ, [BUILTIN_MEASURES["dom_size"]], 2)
except MeasureRejected as exc:
    print("screened out up front:", exc)
