"""Screening candidate resource measures by exhaustive small-instance search.

An additive monotone is a real-valued function on processes that is
additive under disjoint union and never increases along a conversion.  An
additive ``mu`` is an additive monotone exactly when it also

* vanishes on identities,
* is non-negative, and
* never increases under free pre- or post-composition.

These conditions are necessary: an identity and the empty map convert to
each other, and additivity gives the empty map the value 0; every process
converts to the empty map by discarding all of it as junk; and a free
wiring of ``f`` is a conversion from ``f``.  They are sufficient: from
``xi2 . (f + 1_Z) . xi1 = g + j`` they give
``mu(g) <= mu(g + j) <= mu(f + 1_Z) = mu(f)``.

:func:`check_measure` tests the four conditions over every process up to a
size limit and reports the first counterexample for each failing one; each
test is phrased so that a value that is not a number fails it.  It
evaluates ``mu`` once per enumerated process and once per disjoint union of
two of them.  Most of the screen's work does not depend on ``mu``: the
processes, their unions, the fiber counts the built-in measures read, and
which process each free wiring of a process gives.  The processes and
unions always carry their counts in ``FinFun``'s private memo slot, and a
union's counts are counted once per pair of its parts' counts.  Up to size
limit 3 the first screen builds these tables and later screens reuse them,
with the wirings kept as rows of process indices, so the monotonicity test
compares two stored values per wiring.  Above size limit 3 each screen
builds its own, the unions and wirings one at a time, because size limit 4
already has 249,001 unions.  A union whose value equals the sum of its
parts' values exactly passes additivity without the tolerance arithmetic;
that shortcut is taken only when every value is a float and no such sum
can be infinite, since ``inf == inf`` though ``inf - inf`` fails the
tolerance test.
:func:`induce_monotone` packages a passing measure as a function of normal
forms; :func:`check_complete_family` tests whether a family of passing
measures jointly characterizes convertibility, comparing classes of
processes with equal dense normal forms and equal values rather than pairs
of processes.  All three reject a tolerance that is not a finite
non-negative number, and a size limit that is not a non-negative ``int``,
with :class:`ValueError`.

The built-in registry carries the multiplicity and tail counts ``phi_i`` and
``gamma_i`` for ``i <= 8`` together with deliberate non-monotones (``phi_1``,
``gamma_0``, ``gamma_1``, domain size, codomain size) that the checks are
expected to reject.  ``phi_i`` reads the fiber counts at index ``i`` and
``gamma_i`` sums them from ``i`` on as integers; each converts to a float
once, is 0.0 past the largest fiber, and reads the memo where a process has
one.  So each value equals ``float(sum(size_counts(f)[window]))`` for the
window ``i:i+1`` or ``i:``, bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

from .convert import TheoryVariant, _dense_form, _dominates, normal_form, representative
from .finset import (
    FinFun,
    _compact_json,
    _set_fun_counts,
    compose,
    disjoint_union,
    enumerate_all_functions,
    identity,
)
from .profiles import Profile, size_counts

TOLERANCE = 1e-9


def _check_tolerance(tolerance: float) -> None:
    """Reject a ``tolerance`` that is not a finite non-negative real number.

    A negative or nan tolerance would fail every condition, and the screens'
    exact-equality shortcut passes values a negative tolerance would fail.
    """
    if (
        isinstance(tolerance, bool)
        or not isinstance(tolerance, numbers.Real)
        or not 0 <= tolerance < math.inf
    ):
        raise ValueError(f"tolerance must be a finite non-negative number, not {tolerance!r}")


def _check_size_limit(size_limit: int) -> None:
    """Reject a ``size_limit`` that is not a non-negative ``int`` (bools excluded).

    A negative one would screen no process and pass, ``True`` would screen
    as 1, and a float would fail deep in the enumeration.
    """
    if isinstance(size_limit, bool) or not isinstance(size_limit, int) or size_limit < 0:
        raise ValueError(f"size limit must be a non-negative integer, not {size_limit!r}")


@dataclass(frozen=True)
class CandidateMeasure:
    """A named real-valued function on processes.

    The screens and the family check call ``fn`` directly, once per value;
    calling the measure itself is for other callers.
    """

    name: str
    fn: Callable[[FinFun], float]

    def __call__(self, f: FinFun) -> float:
        return self.fn(f)


class MeasureRejected(ValueError):
    """A measure failed screening; carries the offending report when available."""

    def __init__(self, message: str, report: CheckReport | None = None) -> None:
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class ConditionResult:
    passed: bool
    counterexample: tuple[FinFun, ...] = ()
    note: str = ""

    def render(self) -> str:
        if self.passed:
            return "pass"
        shown = " ".join(map(_compact_json, self.counterexample))
        return f"FAIL {self.note} [{shown}]"


@dataclass(frozen=True)
class CheckReport:
    """Outcome of the four-condition screen for one measure."""

    measure: str
    variant: TheoryVariant
    size_limit: int
    additivity: ConditionResult
    unit: ConditionResult
    monotonicity: ConditionResult
    nonnegativity: ConditionResult

    @property
    def passed(self) -> bool:
        return (
            self.additivity.passed
            and self.unit.passed
            and self.monotonicity.passed
            and self.nonnegativity.passed
        )

    def render(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return "\n".join(
            [
                f"measure {self.measure} [{self.variant.value}] "
                f"size limit {self.size_limit}: {verdict}",
                f"  additivity: {self.additivity.render()}",
                f"  unit: {self.unit.render()}",
                f"  free monotonicity: {self.monotonicity.render()}",
                f"  non-negativity: {self.nonnegativity.render()}",
            ]
        )


# The screen keeps its tables for a size limit while the ordered pairs of
# enumerated processes number at most this: size limit 3 has 3,600 (about
# 0.85 MiB with the counts and both variants' wirings), size limit 4 has
# 249,001 (tens of MiB), so size limits above 3 stream them.
_KEPT_UNIONS = 1 << 16


def _keeps_tables(size_limit: int) -> bool:
    """Whether screens at ``size_limit`` keep their processes, unions and wirings."""
    processes = sum(c**d for d in range(size_limit + 1) for c in range(size_limit + 1))
    return processes * processes <= _KEPT_UNIONS


def _processes(size_limit: int) -> tuple[FinFun, ...]:
    """The processes up to ``size_limit`` in enumeration order, with their counts."""
    funs = tuple(enumerate_all_functions(size_limit))
    for f in funs:
        _set_fun_counts(f, tuple(size_counts(f)))
    return funs


# the processes kept for the run where :func:`_keeps_tables` holds
_kept_processes = functools.lru_cache(maxsize=None)(_processes)


def _screened_processes(size_limit: int) -> tuple[FinFun, ...]:
    """The processes every screen and family check reads: kept up to size limit 3."""
    if _keeps_tables(size_limit):
        return _kept_processes(size_limit)
    return _processes(size_limit)


def _unions(funs: tuple[FinFun, ...]) -> Iterator[FinFun]:
    """``f + g`` for each ordered pair of ``funs``, in product order, with its counts.

    The counts of ``f + g`` depend only on those of ``f`` and ``g``, so each
    pair of those is counted once and its unions share the tuple.
    """
    counted: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[int, ...]] = {}
    for f, g in itertools.product(funs, repeat=2):
        union = disjoint_union(f, g)
        key = f._counts, g._counts
        counts = counted.get(key)
        if counts is None:
            counts = counted[key] = tuple(size_counts(union))
        _set_fun_counts(union, counts)
        yield union


@functools.lru_cache(maxsize=None)
def _kept_unions(size_limit: int) -> tuple[FinFun, ...]:
    """The :func:`_unions` of the kept processes up to ``size_limit``."""
    return tuple(_unions(_kept_processes(size_limit)))


# (i, xi, k, side): the free wiring xi of process i gives process k
_Wiring = tuple[int, FinFun, int, str]


def _free_wirings(
    variant: TheoryVariant, funs: tuple[FinFun, ...], size_limit: int
) -> Iterator[_Wiring]:
    """A row per free post- and then pre-composite of each of ``funs``, per size.

    ``funs`` are all the processes up to ``size_limit``, so every composite
    is one of them.
    """
    index = {f: k for k, f in enumerate(funs)}
    for i, f in enumerate(funs):
        for other in range(size_limit + 1):
            for xi in variant.free_morphisms(f.cod, other):
                yield i, xi, index[compose(xi, f)], "post"
            for xi in variant.free_morphisms(other, f.dom):
                yield i, xi, index[compose(f, xi)], "pre"


@functools.lru_cache(maxsize=None)
def _kept_wirings(variant: TheoryVariant, size_limit: int) -> tuple[_Wiring, ...]:
    """The rows of :func:`_free_wirings` on the kept processes."""
    return tuple(_free_wirings(variant, _kept_processes(size_limit), size_limit))


def _check_additivity(
    fn: Callable[[FinFun], float],
    funs: tuple[FinFun, ...],
    values: list[float],
    unions: Iterable[FinFun],
    tolerance: float,
) -> ConditionResult:
    sums = itertools.starmap(operator.add, itertools.product(values, repeat=2))
    # A union whose value equals its sum passes without the tolerance test.
    # That holds only for finite float sums: inf == inf, but inf - inf is nan,
    # which fails the test.  No sum of two floats exceeds twice the largest
    # magnitude, and a nan sum equals nothing, so one bound covers them all.
    exact = all(type(value) is float for value in values) and math.isfinite(
        2 * max(map(abs, values), default=0.0)
    )
    k = 0
    for lhs, rhs in zip(map(fn, unions), sums):
        if (lhs != rhs or not exact) and not abs(lhs - rhs) <= tolerance:
            i, j = divmod(k, len(funs))
            return ConditionResult(
                False, (funs[i], funs[j]), f"mu(f+g) = {lhs} but mu(f) + mu(g) = {rhs}"
            )
        k += 1
    return ConditionResult(True)


def _check_unit(
    value_of: dict[FinFun, float], size_limit: int, tolerance: float
) -> ConditionResult:
    for z in range(size_limit + 1):
        value = value_of[identity(z)]
        if not abs(value) <= tolerance:
            return ConditionResult(
                False, (identity(z),), f"mu = {value} on the identity of size {z}"
            )
    return ConditionResult(True)


def _check_monotonicity(
    funs: tuple[FinFun, ...],
    values: list[float],
    wirings: Iterable[_Wiring],
    tolerance: float,
) -> ConditionResult:
    for i, xi, k, side in wirings:
        base, value = values[i], values[k]
        if not value - tolerance <= base:
            return ConditionResult(
                False, (funs[i], xi), f"{side}-composition raises mu from {base} to {value}"
            )
    return ConditionResult(True)


def _check_nonnegativity(
    funs: tuple[FinFun, ...], values: list[float], tolerance: float
) -> ConditionResult:
    for f, value in zip(funs, values):
        if not value >= -tolerance:
            problem = "is negative" if value < 0 else "is not a number"
            return ConditionResult(False, (f,), f"mu = {value} {problem}")
    return ConditionResult(True)


def check_measure(
    variant: TheoryVariant,
    mu: CandidateMeasure,
    size_limit: int,
    tolerance: float = TOLERANCE,
) -> CheckReport:
    """Screen ``mu`` exhaustively over processes with sizes up to ``size_limit``.

    ``mu`` is evaluated once per enumerated process and once per disjoint
    union of two.  Identities and free wirings of enumerated processes stay
    within the size limit, so the other conditions look their values up.
    The processes and their unions carry their fiber counts, memoized for
    the built-in count measures.  What does not depend on ``mu`` is built
    once per size limit, and once per variant for the wirings, and kept for
    the rest of the run at size limits up to 3: the processes, their unions
    and each free wiring as a row of process indices.  Above that each
    screen builds them one at a time, and the streamed unions carry their
    counts too.

    A union whose value equals the sum of its parts' values passes
    additivity on that one comparison when all the values are floats and no
    such sum can be infinite; every other union takes the tolerance test.
    ``tolerance`` must be a finite non-negative number, or
    :class:`ValueError` is raised, as it is for a ``size_limit`` that is
    not a non-negative ``int``.
    """
    _check_size_limit(size_limit)
    _check_tolerance(tolerance)
    funs = _screened_processes(size_limit)
    if _keeps_tables(size_limit):
        unions = _kept_unions(size_limit)
        wirings = _kept_wirings(variant, size_limit)
    else:
        unions = _unions(funs)
        wirings = _free_wirings(variant, funs, size_limit)
    values = list(map(mu.fn, funs))
    return CheckReport(
        measure=mu.name,
        variant=variant,
        size_limit=size_limit,
        additivity=_check_additivity(mu.fn, funs, values, unions, tolerance),
        unit=_check_unit(dict(zip(funs, values)), size_limit, tolerance),
        monotonicity=_check_monotonicity(funs, values, wirings, tolerance),
        nonnegativity=_check_nonnegativity(funs, values, tolerance),
    )


@dataclass(frozen=True)
class InducedMonotone:
    """A passing measure read as a function of normal forms."""

    variant: TheoryVariant
    measure: CandidateMeasure

    def __call__(self, form: Profile) -> float:
        return self.measure(representative(self.variant, form))


def induce_monotone(
    variant: TheoryVariant,
    mu: CandidateMeasure,
    size_limit: int,
    tolerance: float = TOLERANCE,
) -> InducedMonotone:
    """Package ``mu`` as a monotone on normal forms, verifying it is well defined.

    The screen must pass at ``size_limit``, and ``mu`` must be constant on
    every enumerated class (equal normal forms); either failure raises
    :class:`MeasureRejected`.  The screen rejects a ``tolerance`` that is
    not a finite non-negative number, and a ``size_limit`` that is not a
    non-negative ``int``, with :class:`ValueError`.
    """
    report = check_measure(variant, mu, size_limit, tolerance)
    if not report.passed:
        raise MeasureRejected(f"measure {mu.name} fails screening", report)
    classes: dict[Profile, tuple[FinFun, float]] = {}
    for f in _screened_processes(size_limit):
        form = normal_form(variant, f)
        value = mu.fn(f)
        if form in classes:
            first, base = classes[form]
            if abs(value - base) > tolerance:
                raise MeasureRejected(
                    f"measure {mu.name} is not well defined on classes: "
                    f"mu = {base} on {_compact_json(first)} but {value} on {_compact_json(f)}",
                    report,
                )
        else:
            classes[form] = (f, value)
    return InducedMonotone(variant, mu)


@dataclass(frozen=True)
class FamilyReport:
    """Outcome of a completeness check for a family of measures."""

    variant: TheoryVariant
    size_limit: int
    measures: tuple[str, ...]
    passed: bool
    counterexample: tuple[FinFun, FinFun] | None = None
    note: str = ""

    def render(self) -> str:
        head = (
            f"family {{{', '.join(self.measures)}}} [{self.variant.value}] "
            f"size limit {self.size_limit}: {'PASS' if self.passed else 'FAIL'}"
        )
        if self.passed:
            return head
        f, g = self.counterexample
        return f"{head}\n  {self.note} [{_compact_json(f)} vs {_compact_json(g)}]"


def check_complete_family(
    variant: TheoryVariant,
    measures: Iterable[CandidateMeasure],
    size_limit: int,
    tolerance: float = TOLERANCE,
) -> FamilyReport:
    """Test whether joint dominance of the measures coincides with ``decide``.

    Each enumerated function's dense normal form and values are computed
    once.  Functions with equal forms and equal values form a class, since
    both ``decide`` and joint dominance see nothing else, and each ordered
    pair of classes is compared once: the dense forms with ``_dominates``,
    which ``tests/test_convert.py`` pins equal to the count-level test
    :func:`decide` applies.  Classes are taken in the order of their first
    members, so the first failing pair of classes gives the first failing
    pair of functions in enumeration order, and that pair is the
    counterexample.

    Every member must individually pass :func:`check_measure` on every call;
    a member that does not is rejected up front rather than reported as
    incompleteness.  ``tolerance`` must be a finite non-negative number and
    ``size_limit`` a non-negative ``int``, or :class:`ValueError` is raised.
    """
    _check_size_limit(size_limit)
    _check_tolerance(tolerance)
    measures = tuple(measures)
    for mu in measures:
        report = check_measure(variant, mu, size_limit, tolerance)
        if not report.passed:
            raise MeasureRejected(
                f"family member {mu.name} fails screening", report
            )
    names = tuple(mu.name for mu in measures)
    funs = _screened_processes(size_limit)
    forms = [_dense_form(variant, f) for f in funs]
    values = [tuple(mu.fn(f) for mu in measures) for f in funs]
    first: dict[tuple[tuple[int, ...], tuple[float, ...]], FinFun] = {}
    for f, form, vf in zip(funs, forms, values):
        first.setdefault((tuple(form), vf), f)
    rows = [(f, form, vf, tuple(b - tolerance for b in vf)) for (form, vf), f in first.items()]
    for (f, ff, vf, _), (g, fg, _, lg) in itertools.product(rows, repeat=2):
        dominates = all(map(operator.ge, vf, lg))
        if _dominates(ff, fg) == dominates:
            continue
        if dominates:
            note = "all measures dominate but f does not convert to g"
        else:
            drop = next(name for name, a, b in zip(names, vf, lg) if not a >= b)
            note = f"{drop} decreases along a conversion"
        return FamilyReport(variant, size_limit, names, False, (f, g), note)
    return FamilyReport(variant, size_limit, names, True)


def _phi(i: int) -> CandidateMeasure:
    """``phi_i``: the codomain points with exactly ``i`` preimages, 0.0 past the largest fiber.

    The counts are read from the memo where the screen set one, and
    counted afresh on any other function.
    """

    def fn(f: FinFun) -> float:
        counts = f._counts
        if counts is None:
            counts = size_counts(f)
        return float(counts[i]) if i < len(counts) else 0.0

    return CandidateMeasure(f"phi_{i}", fn)


def _gamma(i: int) -> CandidateMeasure:
    """``gamma_i``: the codomain points with at least ``i`` preimages, read as :func:`_phi` reads.

    The tail is summed as integers and converted once, so the value is
    the float nearest the count however large the codomain; a float sum
    would round each partial sum past 2**53.  Past the largest fiber the
    tail is empty and the sum is skipped.
    """

    def fn(f: FinFun) -> float:
        counts = f._counts
        if counts is None:
            counts = size_counts(f)
        return float(sum(counts[i:])) if i < len(counts) else 0.0

    return CandidateMeasure(f"gamma_{i}", fn)


def _registry() -> dict[str, CandidateMeasure]:
    reg = {}
    for i in range(9):
        reg[f"phi_{i}"] = _phi(i)
        reg[f"gamma_{i}"] = _gamma(i)
    reg["dom_size"] = CandidateMeasure("dom_size", lambda f: float(f.dom.size))
    reg["cod_size"] = CandidateMeasure("cod_size", lambda f: float(f.cod.size))
    return reg


BUILTIN_MEASURES: dict[str, CandidateMeasure] = _registry()

# these are expected to fail screening; tests use them as controls
NEGATIVE_CONTROLS: tuple[str, ...] = (
    "phi_1",
    "gamma_0",
    "gamma_1",
    "dom_size",
    "cod_size",
)


def default_family(variant: TheoryVariant) -> tuple[CandidateMeasure, ...]:
    """The canonical complete family for small-instance checks."""
    if variant is TheoryVariant.SET_BIJ:
        names = ("phi_0", "phi_2", "phi_3", "phi_4")
    else:
        names = ("gamma_2", "gamma_3", "gamma_4")
    return tuple(BUILTIN_MEASURES[name] for name in names)
