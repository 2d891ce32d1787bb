"""Command-line front end.

Verbs mirror the library: ``profile``, ``decide``, ``witness``,
``check-witness``, ``equiv``, ``oracle``, ``preorder-table``,
``monotone-check``, ``family-check``.  Morphisms are JSON files, or JSON
literals when ``--inline`` is given.

Exit codes: 0 success or a positive decision, 1 a negative decision,
2 no witness, 64 malformed input (the diagnostic names the offending
field), 65 violated precondition or a ``witness``, ``oracle`` or
``preorder-table`` request over its budget of points, 70 internal error (an
unexpected exception, reported as one ``error: internal:`` line on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .convert import (
    NotConvertibleError,
    TheoryVariant,
    check_witness,
    decide,
    normal_form,
    witness_to_dict,
)
from .finset import FormatError, _compact_json, finfun_from_dict
from .monotones import (
    BUILTIN_MEASURES,
    MeasureRejected,
    check_complete_family,
    check_measure,
    default_family,
)
from .oracle import (
    THEORIES,
    SearchBounds,
    default_bounds,
    oracle_convertible,
    preorder_lines,
    preorder_table,
)
from .profiles import gamma_profile, phi_profile, profile_to_dict

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_NO_WITNESS = 2
EXIT_PARSE = 64
EXIT_PRECONDITION = 65
EXIT_INTERNAL = 70

# The most codomain points, f's and g's together, that ``witness`` will
# list; a witness's size and its construction's memory grow with them.
# ``oracle`` and ``preorder-table`` count their three search bounds too.
WITNESS_BUDGET = 10**7


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2, taken here
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _nonneg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _check_budget(count: int, subject: str, unit: str) -> None:
    """Refuse, with exit 65, a request that would list more than ``WITNESS_BUDGET`` points."""
    if count > WITNESS_BUDGET:
        raise ValueError(
            f"{subject} would list {count} {unit}, over the budget of {WITNESS_BUDGET}"
        )


def _load_json(arg: str, inline: bool):
    if inline:
        text, where = arg, "inline argument"
    else:
        where = arg
        try:
            text = Path(arg).read_bytes()  # json.loads detects the UTF-8/16/32 encoding
        except OSError as exc:
            raise FormatError(f"cannot read {arg}: {exc.strerror or exc}") from None
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer literal too long
        raise FormatError(f"invalid JSON in {where}: {exc}") from None
    except RecursionError:
        raise FormatError(f"JSON nested too deeply in {where}") from None


def _load_pair(args, theory) -> list:
    """The ``f`` and ``g`` arguments, decoded as morphisms of ``theory``."""
    return [theory.morphism_from_dict(_load_json(a, args.inline)) for a in (args.f, args.g)]


def _cmd_profile(args) -> int:
    f = finfun_from_dict(_load_json(args.morphism, args.inline))
    print("phi " + _compact_json(profile_to_dict(phi_profile(f))))
    print("gamma " + _compact_json(profile_to_dict(gamma_profile(f))))
    return EXIT_TRUE


def _cmd_decide(args) -> int:
    variant = THEORIES[args.variant]
    f, g = _load_pair(args, variant)
    if decide(variant, f, g):
        print("convertible")
        return EXIT_TRUE
    print("not convertible")
    return EXIT_FALSE


def _cmd_witness(args) -> int:
    theory = THEORIES[args.variant]
    f, g = _load_pair(args, theory)
    points = f.cod.size + g.cod.size
    try:
        # a negative decision costs memory in dom only, so it is given at any size
        if points > WITNESS_BUDGET and isinstance(theory, TheoryVariant):
            if not decide(theory, f, g):
                raise NotConvertibleError
        _check_budget(points, "a witness", "codomain points")
        w = theory.witness(f, g)
    except NotConvertibleError:
        print("no witness: f does not convert to g", file=sys.stderr)
        return EXIT_NO_WITNESS
    print(_compact_json(witness_to_dict(w)))
    return EXIT_TRUE


def _cmd_check_witness(args) -> int:
    theory = THEORIES[args.variant]
    f, g = _load_pair(args, theory)
    w = theory.witness_from_dict(_load_json(args.w, args.inline))
    ok = check_witness(theory, f, g, w)
    print("valid" if ok else "invalid")
    return EXIT_TRUE if ok else EXIT_FALSE


def _cmd_equiv(args) -> int:
    variant = THEORIES[args.variant]
    f, g = _load_pair(args, variant)
    form = normal_form(variant, f)
    if form == normal_form(variant, g):
        print(_compact_json(profile_to_dict(form)))
        return EXIT_TRUE
    print("inequivalent")
    return EXIT_FALSE


def _bounds_from_args(args, fallback: SearchBounds, codomains: int) -> SearchBounds:
    """The search bounds, refused when they and the ``codomains`` points exceed the budget.

    The search builds one junk object per ``C`` size and lists the points of
    ``cod(f) + Z`` and ``cod(g) + D``.
    """
    bounds = SearchBounds(
        fallback.max_z if args.max_z is None else args.max_z,
        fallback.max_c if args.max_c is None else args.max_c,
        fallback.max_d if args.max_d is None else args.max_d,
    )
    count = codomains + bounds.max_z + bounds.max_c + bounds.max_d
    _check_budget(count, "the search", "codomain points and bound sizes")
    return bounds


def _cmd_oracle(args) -> int:
    theory = THEORIES[args.variant]
    f, g = _load_pair(args, theory)
    bounds = _bounds_from_args(args, default_bounds(f, g), f.cod.size + g.cod.size)
    w = oracle_convertible(theory, f, g, bounds)
    if w is None:
        print("no witness within bounds")
        return EXIT_NO_WITNESS
    print(_compact_json(witness_to_dict(w)))
    return EXIT_TRUE


def _cmd_preorder_table(args) -> int:
    theory = THEORIES[args.variant]
    limit = args.size_limit
    fallback = SearchBounds(max(3, limit), 4 * limit, 4 * limit)
    table = preorder_table(theory, limit, _bounds_from_args(args, fallback, 2 * limit))
    for line in preorder_lines(table):
        print(line)
    return EXIT_TRUE


def _cmd_monotone_check(args) -> int:
    variant = THEORIES[args.variant]
    names = args.measure or sorted(BUILTIN_MEASURES)
    ok = True
    for index, name in enumerate(names):
        report = check_measure(variant, BUILTIN_MEASURES[name], args.size_limit)
        if index:
            print()
        print(report.render())
        ok = ok and report.passed
    return EXIT_TRUE if ok else EXIT_FALSE


def _cmd_family_check(args) -> int:
    variant = THEORIES[args.variant]
    if args.measure:
        family = tuple(BUILTIN_MEASURES[name] for name in args.measure)
    else:
        family = default_family(variant)
    try:
        report = check_complete_family(variant, family, args.size_limit)
    except MeasureRejected as exc:
        # the failing member's screen carries the counterexample
        print(f"error: {exc}\n{exc.report.render()}", file=sys.stderr)
        return EXIT_PRECONDITION
    print(report.render())
    return EXIT_TRUE if report.passed else EXIT_FALSE


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built on the first call and kept for the process.

    Each verb names its handler, which :func:`main` looks up when it runs.
    """
    parser = _Parser(prog="pcdres", description=__doc__.split("\n", 1)[0])
    subs = parser.add_subparsers(dest="command", required=True)

    inline = _Parser(add_help=False)
    inline.add_argument(
        "--inline",
        action="store_true",
        help="treat morphism arguments as JSON text rather than file paths",
    )

    set_variant = _Parser(add_help=False)
    set_variant.add_argument(
        "--variant", required=True, choices=[v.value for v in TheoryVariant]
    )
    any_variant = _Parser(add_help=False)
    any_variant.add_argument("--variant", required=True, choices=list(THEORIES))

    bounds = _Parser(add_help=False)
    for flag in ("--max-z", "--max-c", "--max-d"):
        bounds.add_argument(flag, type=_nonneg, default=None)

    limit = _Parser(add_help=False)
    limit.add_argument("--size-limit", type=_nonneg, default=2)

    pair = _Parser(add_help=False)
    pair.add_argument("f")
    pair.add_argument("g")

    measures = _Parser(add_help=False)
    measures.add_argument(
        "--measure", action="append", choices=sorted(BUILTIN_MEASURES), default=None
    )

    # name, parent parsers, help, handler
    verbs = (
        ("profile", [inline], "print fiber profiles", _cmd_profile),
        ("decide", [set_variant, inline, pair], "decide convertibility", _cmd_decide),
        ("witness", [any_variant, inline, pair], "synthesize a conversion witness", _cmd_witness),
        ("check-witness", [any_variant, inline, pair], "verify a witness", _cmd_check_witness),
        ("equiv", [set_variant, inline, pair], "test equivalence, print normal form", _cmd_equiv),
        ("oracle", [any_variant, inline, bounds, pair], "search for a witness by brute force",
         _cmd_oracle),
        ("preorder-table", [any_variant, bounds, limit],
         "print all oracle-confirmed conversions up to a size limit", _cmd_preorder_table),
        ("monotone-check", [set_variant, limit, measures], "screen built-in measures",
         _cmd_monotone_check),
        ("family-check", [set_variant, limit, measures],
         "check a family of measures for completeness", _cmd_family_check),
    )
    for name, parents, text, handler in verbs:
        subs.add_parser(name, parents=parents, help=text).set_defaults(handler=handler.__name__)
    subs.choices["profile"].add_argument("morphism")
    subs.choices["check-witness"].add_argument("w")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return globals()[args.handler](args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
