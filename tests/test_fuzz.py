"""Fuzzing the input boundary: every input either works or is refused cleanly.

Grammar-generated argv for every verb, with well-formed or malformed inline
JSON for each variant, small size limits and small search bounds, must end
in exit 0, 1, 2, 64 or 65: never in exit 70 (an internal error) or an
uncaught exception.  Arbitrary JSON values given to the wire decoders must
decode or raise ``FormatError``.
"""

import argparse
import contextlib
import io
import itertools
import json

from hypothesis import given, settings, strategies as st

from pcdres import (
    FormatError,
    NotConvertibleError,
    finfun_from_dict,
    profile_from_dict,
    relation_from_dict,
    witness_from_dict,
    witness_to_dict,
)
from pcdres.cli import THEORIES, _build_parser, main

FIELDS = ("dom", "cod", "map", "pairs", "Z", "xi1", "xi2", "j", "profile")
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 4),
    st.integers(),
    st.floats(),
    st.text(max_size=3),
    st.sampled_from(FIELDS + ("0", "2", "-1", "01", "1.5")),
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=2), inner, max_size=5),
    max_leaves=12,
)

SET_VARIANTS = ("set-bij", "set-inj")
ALL_VARIANTS = SET_VARIANTS + ("rel-times",)
# verb: (its variants, or () for none; its option groups; its positionals)
VERBS = {
    "profile": ((), ("inline",), ("morphism",)),
    "decide": (SET_VARIANTS, ("inline",), ("f", "g")),
    "witness": (ALL_VARIANTS, ("inline",), ("f", "g")),
    "check-witness": (ALL_VARIANTS, ("inline",), ("f", "g", "w")),
    "equiv": (SET_VARIANTS, ("inline",), ("f", "g")),
    "oracle": (ALL_VARIANTS, ("inline", "bounds"), ("f", "g")),
    "preorder-table": (ALL_VARIANTS, ("bounds", "limit"), ()),
    "monotone-check": (SET_VARIANTS, ("limit", "measure"), ()),
    "family-check": (SET_VARIANTS, ("limit", "measure"), ()),
}


@st.composite
def morphism_dicts(draw, variant):
    """A well-formed morphism of ``variant`` with every size at most 2."""
    dom, cod = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    if variant == "rel-times":
        cells = list(itertools.product(range(dom), range(cod)))
        pairs = draw(st.lists(st.sampled_from(cells), unique=True) if cells else st.just([]))
        return {"dom": dom, "cod": cod, "pairs": [list(p) for p in pairs]}
    if cod == 0:
        return {"dom": 0, "cod": 0, "map": []}
    entries = draw(st.lists(st.integers(0, cod - 1), min_size=dom, max_size=dom))
    return {"dom": dom, "cod": cod, "map": entries}


@st.composite
def malformed(draw, good):
    """``good`` with one field replaced, dropped or added, or some other JSON value."""
    how = draw(st.sampled_from(["replace", "drop", "add", "other"]))
    if how == "other":
        return draw(JSON_VALUES)
    bad = dict(good)
    field = draw(st.sampled_from(sorted(good)))
    if how == "replace":
        bad[field] = draw(JSON_VALUES)
    elif how == "drop":
        del bad[field]
    else:
        bad[draw(st.text(max_size=3))] = draw(JSON_VALUES)
    return bad


NOT_JSON = st.text(max_size=6) | st.sampled_from(["", "{", "1e999", '{"dom":1', "9" * 5000])


@st.composite
def json_texts(draw, good):
    """``good`` as JSON text six times in seven, else malformed or not JSON."""
    if draw(st.integers(0, 6)):
        return json.dumps(good)
    return draw(malformed(good).map(json.dumps) | NOT_JSON)


@st.composite
def witness_dicts(draw, variant, f, g):
    """The witness for ``f`` and ``g`` if they convert, perhaps with one part replaced."""
    theory = THEORIES[variant]
    try:
        w = witness_to_dict(theory.witness(*map(theory.morphism_from_dict, (f, g))))
    except (FormatError, NotConvertibleError):
        part = morphism_dicts(variant)
        w = {"Z": draw(st.integers(0, 2)), "xi1": draw(part), "xi2": draw(part), "j": draw(part)}
    if draw(st.booleans()):
        w[draw(st.sampled_from(["xi1", "xi2", "j"]))] = draw(morphism_dicts(variant))
    return w


JUNK = st.sampled_from(["", "-1", "x", "rel-times", "set-surj", "--bogus", "--help", "--inline"])


@st.composite
def argvs(draw):
    """A well-formed command line, then perhaps one token replaced, dropped or added."""
    verb = draw(st.sampled_from(list(VERBS)))
    variants, groups, positionals = VERBS[verb]
    variant = draw(st.sampled_from(variants or ("set-bij",)))
    argv = [verb] + (["--variant", variant] if variants else [])
    if "inline" in groups:
        argv.append("--inline")
    if "bounds" in groups:
        for flag in ("--max-z", "--max-c", "--max-d"):
            argv += [flag, str(draw(st.integers(0, 2)))]
    if "limit" in groups:
        argv += ["--size-limit", str(draw(st.integers(0, 1)))]
    if "measure" in groups:
        for name in draw(st.lists(st.sampled_from(["phi_0", "phi_1", "gamma_2"]), max_size=2)):
            argv += ["--measure", name]
    decoded = {}
    for name in positionals:
        if name == "w":
            good = draw(witness_dicts(variant, decoded["f"], decoded["g"]))
        else:
            good = draw(morphism_dicts(variant))
        text = draw(json_texts(good))
        decoded[name] = good if text == json.dumps(good) else None
        argv.append(text)
    edit = draw(st.sampled_from(["none"] * 3 + ["replace", "drop", "insert"]))
    if edit == "insert":
        argv.insert(draw(st.integers(1, len(argv))), draw(JUNK))
    elif edit != "none":
        i = draw(st.integers(1, len(argv) - 1))
        if edit == "drop":
            del argv[i]
        else:
            argv[i] = draw(JUNK)
    return argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def test_grammar_covers_every_verb():
    parser = _build_parser()
    (subcommands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(VERBS) == list(subcommands.choices)


@settings(max_examples=200, deadline=None)
@given(argvs())
def test_cli_never_exits_internal(argv):
    code, err = run(argv)
    assert code in (0, 1, 2, 64, 65), (code, err)
    assert "internal" not in err


DECODERS = (
    finfun_from_dict,
    relation_from_dict,
    profile_from_dict,
    witness_from_dict,
    THEORIES["rel-times"].witness_from_dict,
)
PROFILES = st.dictionaries(
    st.sampled_from(FIELDS),
    st.dictionaries(st.text("0129٣ -", max_size=3), SCALARS, max_size=3) | JSON_VALUES,
    max_size=2,
)
WITNESSES = st.fixed_dictionaries(
    {"Z": st.integers(0, 2) | SCALARS},
    optional={part: morphism_dicts("set-bij") | morphism_dicts("rel-times") | JSON_VALUES
              for part in ("xi1", "xi2", "j")},
)
WIRE_VALUES = st.one_of(
    JSON_VALUES,
    morphism_dicts("set-bij"),
    morphism_dicts("rel-times"),
    morphism_dicts("set-bij").flatmap(malformed),
    morphism_dicts("rel-times").flatmap(malformed),
    PROFILES,
    WITNESSES,
)


@settings(max_examples=300, deadline=None)
@given(WIRE_VALUES)
def test_decoders_decode_or_raise_format_error(data):
    for decode in DECODERS:
        try:
            decode(data)
        except FormatError:
            pass
