"""Command-line front end.

Verbs mirror the library: ``profile``, ``decide``, ``witness``,
``check-witness``, ``equiv``, ``oracle``, ``preorder-table``,
``monotone-check``, ``family-check``.  Morphisms are JSON files, or JSON
literals when ``--inline`` is given.

Exit codes: 0 success or a positive decision, 1 a negative decision,
2 no witness, 64 malformed input (the diagnostic names the offending
field), 65 violated precondition.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .convert import (
    NotConvertibleError,
    TheoryVariant,
    check_witness,
    decide,
    equivalent,
    normal_form,
    witness_to_dict,
)
from .finset import FormatError, finfun_from_dict
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


def _compact(data: dict) -> str:
    return json.dumps(data, separators=(",", ":"))


def _load_json(arg: str, inline: bool):
    if inline:
        text, where = arg, "inline argument"
    else:
        where = arg
        try:
            text = Path(arg).read_text()
        except OSError as exc:
            raise FormatError(f"cannot read {arg}: {exc.strerror or exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON in {where}: {exc}") from None
    except RecursionError:
        raise FormatError(f"JSON nested too deeply in {where}") from None


def _load_pair(args, theory) -> list:
    """The ``f`` and ``g`` arguments, decoded as morphisms of ``theory``."""
    return [theory.morphism_from_dict(_load_json(a, args.inline)) for a in (args.f, args.g)]


def _cmd_profile(args) -> int:
    f = finfun_from_dict(_load_json(args.morphism, args.inline))
    print("phi " + _compact(profile_to_dict(phi_profile(f))))
    print("gamma " + _compact(profile_to_dict(gamma_profile(f))))
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
    try:
        w = theory.witness(f, g)
    except NotConvertibleError:
        print("no witness: f does not convert to g", file=sys.stderr)
        return EXIT_NO_WITNESS
    print(_compact(witness_to_dict(w)))
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
    if equivalent(variant, f, g):
        print(_compact(profile_to_dict(normal_form(variant, f))))
        return EXIT_TRUE
    print("inequivalent")
    return EXIT_FALSE


def _bounds_from_args(args, fallback: SearchBounds) -> SearchBounds:
    return SearchBounds(
        fallback.max_z if args.max_z is None else args.max_z,
        fallback.max_c if args.max_c is None else args.max_c,
        fallback.max_d if args.max_d is None else args.max_d,
    )


def _cmd_oracle(args) -> int:
    theory = THEORIES[args.variant]
    f, g = _load_pair(args, theory)
    bounds = _bounds_from_args(args, default_bounds(f, g))
    w = oracle_convertible(theory, f, g, bounds)
    if w is None:
        print("no witness within bounds")
        return EXIT_NO_WITNESS
    print(_compact(witness_to_dict(w)))
    return EXIT_TRUE


def _cmd_preorder_table(args) -> int:
    theory = THEORIES[args.variant]
    limit = args.size_limit
    fallback = SearchBounds(max(3, limit), 4 * limit, 4 * limit)
    table = preorder_table(theory, limit, _bounds_from_args(args, fallback))
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
    report = check_complete_family(variant, family, args.size_limit)
    print(report.render())
    return EXIT_TRUE if report.passed else EXIT_FALSE


def _build_parser() -> _Parser:
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

    sub = subs.add_parser("profile", parents=[inline], help="print fiber profiles")
    sub.add_argument("morphism")
    sub.set_defaults(handler=_cmd_profile)

    sub = subs.add_parser(
        "decide", parents=[set_variant, inline], help="decide convertibility"
    )
    sub.add_argument("f")
    sub.add_argument("g")
    sub.set_defaults(handler=_cmd_decide)

    sub = subs.add_parser(
        "witness", parents=[any_variant, inline], help="synthesize a conversion witness"
    )
    sub.add_argument("f")
    sub.add_argument("g")
    sub.set_defaults(handler=_cmd_witness)

    sub = subs.add_parser(
        "check-witness", parents=[any_variant, inline], help="verify a witness"
    )
    sub.add_argument("f")
    sub.add_argument("g")
    sub.add_argument("w")
    sub.set_defaults(handler=_cmd_check_witness)

    sub = subs.add_parser(
        "equiv", parents=[set_variant, inline], help="test equivalence, print normal form"
    )
    sub.add_argument("f")
    sub.add_argument("g")
    sub.set_defaults(handler=_cmd_equiv)

    sub = subs.add_parser(
        "oracle",
        parents=[any_variant, inline, bounds],
        help="search for a witness by brute force",
    )
    sub.add_argument("f")
    sub.add_argument("g")
    sub.set_defaults(handler=_cmd_oracle)

    sub = subs.add_parser(
        "preorder-table",
        parents=[any_variant, bounds, limit],
        help="print all oracle-confirmed conversions up to a size limit",
    )
    sub.set_defaults(handler=_cmd_preorder_table)

    sub = subs.add_parser(
        "monotone-check",
        parents=[set_variant, limit],
        help="screen built-in measures",
    )
    sub.add_argument(
        "--measure", action="append", choices=sorted(BUILTIN_MEASURES), default=None
    )
    sub.set_defaults(handler=_cmd_monotone_check)

    sub = subs.add_parser(
        "family-check",
        parents=[set_variant, limit],
        help="check a family of measures for completeness",
    )
    sub.add_argument(
        "--measure", action="append", choices=sorted(BUILTIN_MEASURES), default=None
    )
    sub.set_defaults(handler=_cmd_family_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MeasureRejected as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
