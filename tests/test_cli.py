"""End-to-end checks of the command-line verbs, run in process.

Each test drives ``main`` with an argv list and inspects exit code, stdout,
and stderr.  One subprocess smoke test covers the module entry point.
"""

import argparse
import dataclasses
import json
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from pcdres import FinFun, FinSet, Relation, cli, convert, relation_from_dict
from pcdres.cli import main
from pcdres.convert import check_witness, normal_form, witness_to_dict

MERGE = '{"dom":2,"cod":1,"map":[0,0]}'
POINT = '{"dom":1,"cod":1,"map":[0]}'
MERGE_WITNESS = (
    '{"Z":1,"xi1":{"dom":3,"cod":3,"map":[2,0,1]},'
    '"xi2":{"dom":2,"cod":2,"map":[1,0]},"j":{"dom":2,"cod":1,"map":[0,0]}}'
)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_profile(capsys):
    code, out, err = run(capsys, "profile", "--inline", '{"dom":3,"cod":2,"map":[0,0,1]}')
    assert code == 0 and err == ""
    assert out.splitlines() == [
        'phi {"profile":{"1":1,"2":1}}',
        'gamma {"profile":{"0":2,"1":2,"2":1}}',
    ]


def test_decide_exit_codes(capsys):
    code, out, _ = run(capsys, "decide", "--variant", "set-bij", "--inline", MERGE, POINT)
    assert (code, out) == (0, "convertible\n")
    code, out, _ = run(capsys, "decide", "--variant", "set-bij", "--inline", POINT, MERGE)
    assert (code, out) == (1, "not convertible\n")


def test_witness_output_is_stable(capsys):
    code, out, _ = run(capsys, "witness", "--variant", "set-bij", "--inline", MERGE, POINT)
    assert code == 0
    assert out.strip() == MERGE_WITNESS


def test_witness_failure_goes_to_stderr(capsys):
    code, out, err = run(capsys, "witness", "--variant", "set-inj", "--inline", POINT, MERGE)
    assert code == 2
    assert out == ""
    assert "no witness" in err


def test_witness_pipes_into_check_witness(capsys, tmp_path):
    f_path = tmp_path / "f.json"
    g_path = tmp_path / "g.json"
    w_path = tmp_path / "w.json"
    f_path.write_text(MERGE)
    g_path.write_text(POINT)

    code, out, _ = run(capsys, "witness", "--variant", "set-bij", str(f_path), str(g_path))
    assert code == 0
    w_path.write_text(out)

    code, out, _ = run(
        capsys, "check-witness", "--variant", "set-bij", str(f_path), str(g_path), str(w_path)
    )
    assert (code, out) == (0, "valid\n")

    tampered = json.loads(w_path.read_text())
    tampered["xi2"]["map"] = [0, 1]
    w_path.write_text(json.dumps(tampered))
    code, out, _ = run(
        capsys, "check-witness", "--variant", "set-bij", str(f_path), str(g_path), str(w_path)
    )
    assert (code, out) == (1, "invalid\n")


def test_equiv(capsys):
    code, out, _ = run(
        capsys, "equiv", "--variant", "set-bij", "--inline",
        '{"dom":2,"cod":2,"map":[0,1]}', POINT,
    )
    assert (code, out) == (0, '{"profile":{}}\n')
    code, out, _ = run(capsys, "equiv", "--variant", "set-bij", "--inline", MERGE, POINT)
    assert (code, out) == (1, "inequivalent\n")


def test_equiv_builds_one_normal_form_per_side(capsys, monkeypatch):
    calls = []

    def counted(variant, f):
        calls.append(f)
        return normal_form(variant, f)

    # the library's ``equivalent`` reads the convert module's name, the CLI its own
    monkeypatch.setattr(convert, "normal_form", counted)
    monkeypatch.setattr(cli, "normal_form", counted)
    code, out, _ = run(capsys, "equiv", "--variant", "set-bij", "--inline", MERGE, MERGE)
    assert (code, out) == (0, '{"profile":{"2":1}}\n')
    assert len(calls) == 2


def test_oracle_finds_and_misses(capsys):
    code, out, _ = run(capsys, "oracle", "--variant", "set-bij", "--inline", MERGE, POINT)
    assert code == 0
    assert out.strip() == MERGE_WITNESS
    code, out, _ = run(
        capsys, "oracle", "--variant", "set-bij", "--inline", "--max-z", "0", MERGE, POINT
    )
    assert (code, out) == (2, "no witness within bounds\n")


def test_oracle_relational(capsys):
    code, out, _ = run(
        capsys, "oracle", "--variant", "rel-times", "--inline",
        '{"dom":1,"cod":1,"pairs":[[0,0]]}', '{"dom":1,"cod":1,"pairs":[]}',
    )
    assert code == 0
    assert json.loads(out)["Z"] == 0  # degenerate all-empty witness comes first


def test_witness_relational_round_trip(capsys, tmp_path):
    f_text = '{"dom":2,"cod":2,"pairs":[[0,0],[0,1]]}'
    g_text = '{"dom":1,"cod":1,"pairs":[]}'
    code, out, _ = run(capsys, "witness", "--variant", "rel-times", "--inline", f_text, g_text)
    assert code == 0
    assert out.strip() == (
        '{"Z":1,"xi1":{"dom":0,"cod":2,"pairs":[]},'
        '"xi2":{"dom":2,"cod":1,"pairs":[[0,0],[1,0]]},"j":{"dom":0,"cod":1,"pairs":[]}}'
    )
    w_path = tmp_path / "w.json"
    w_path.write_text(out)
    f_path = tmp_path / "f.json"
    f_path.write_text(f_text)
    g_path = tmp_path / "g.json"
    g_path.write_text(g_text)
    code, out, _ = run(
        capsys, "check-witness", "--variant", "rel-times",
        str(f_path), str(g_path), str(w_path),
    )
    assert (code, out) == (0, "valid\n")


def test_witness_relational_precondition(capsys):
    # no constant map cod(f) -> cod(g) exists; the all-empty witness still converts
    f_text, g_text = '{"dom":0,"cod":1,"pairs":[]}', '{"dom":2,"cod":0,"pairs":[]}'
    code, out, err = run(capsys, "witness", "--variant", "rel-times", "--inline", f_text, g_text)
    empty = '{"dom":0,"cod":0,"pairs":[]}'
    assert (code, out, err) == (0, f'{{"Z":0,"xi1":{empty},"xi2":{empty},"j":{empty}}}\n', "")
    code, out, _ = run(
        capsys, "check-witness", "--variant", "rel-times", "--inline", f_text, g_text, out
    )
    assert (code, out) == (0, "valid\n")


def test_preorder_table(capsys):
    code, out, _ = run(capsys, "preorder-table", "--variant", "set-bij", "--size-limit", "1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7
    assert lines[0] == '{"dom":0,"cod":0,"map":[]} >= {"dom":0,"cod":0,"map":[]}'
    code, out, _ = run(capsys, "preorder-table", "--variant", "rel-times", "--size-limit", "1")
    assert code == 0
    assert len(out.splitlines()) == 25


def test_monotone_check(capsys):
    code, out, _ = run(
        capsys, "monotone-check", "--variant", "set-bij", "--size-limit", "2",
        "--measure", "phi_2",
    )
    assert code == 0
    assert out.startswith("measure phi_2 [set-bij] size limit 2: PASS")
    code, out, _ = run(
        capsys, "monotone-check", "--variant", "set-bij", "--size-limit", "2",
        "--measure", "phi_2", "--measure", "phi_1",
    )
    assert code == 1
    assert "\n\nmeasure phi_1" in out  # blank line between reports


def test_family_check(capsys):
    code, out, _ = run(capsys, "family-check", "--variant", "set-inj", "--size-limit", "2")
    assert code == 0
    assert out == "family {gamma_2, gamma_3, gamma_4} [set-inj] size limit 2: PASS\n"
    code, out, _ = run(
        capsys, "family-check", "--variant", "set-inj", "--size-limit", "3",
        "--measure", "gamma_2",
    )
    assert code == 1
    assert "FAIL" in out
    code, out, err = run(
        capsys, "family-check", "--variant", "set-bij", "--size-limit", "2",
        "--measure", "phi_1",
    )
    assert (code, out) == (65, "")
    # the error line, then the failing member's screen with its counterexample
    assert err.splitlines()[:2] == [
        "error: family member phi_1 fails screening",
        "measure phi_1 [set-bij] size limit 2: FAIL",
    ]
    assert f"  unit: FAIL mu = 1.0 on the identity of size 1 [{POINT}]\n" in err


def test_usage_errors_exit_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decide", "--variant", "set-sur", "--inline", MERGE, POINT])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["no-such-verb"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--variant", "set-bij", "--max-z", "-1", "--inline", MERGE, POINT])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--variant", "set-bij", "--max-z", "abc", "--inline", MERGE, POINT])
    assert exc.value.code == 64
    _, err = capsys.readouterr()
    assert err.endswith("pcdres oracle: error: argument --max-z: 'abc' is not an integer\n")


def test_malformed_input_exit_64(capsys):
    code, _, err = run(capsys, "profile", "--inline", "{not json")
    assert code == 64
    assert "invalid JSON" in err
    code, _, err = run(capsys, "profile", "/no/such/file.json")
    assert code == 64
    assert "cannot read" in err
    code, _, err = run(capsys, "profile", "--inline", '{"dom":1,"cod":1,"map":[2]}')
    assert code == 64
    assert "field 'map[0]' must be an integer in [0, 1)" in err


def test_deeply_nested_json_exit_64(capsys, tmp_path):
    deep = "[" * 100000
    code, out, err = run(capsys, "decide", "--variant", "set-bij", "--inline", deep, POINT)
    assert (code, out) == (64, "")
    assert "nested too deeply in inline argument" in err
    path = tmp_path / "deep.json"
    path.write_text(deep)
    code, out, err = run(capsys, "profile", str(path))
    assert (code, out) == (64, "")
    assert f"nested too deeply in {path}" in err


@pytest.mark.parametrize("content", [b"\xff", b"\xff\xfe"], ids=["invalid-utf8", "utf16-bom"])
@pytest.mark.parametrize("verb", ["profile", "decide"])
def test_undecodable_file_exit_64(capsys, tmp_path, content, verb):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    args = [str(path)] if verb == "profile" else ["--variant", "set-bij", str(path), str(path)]
    code, out, err = run(capsys, verb, *args)
    assert (code, out) == (64, "")
    assert err.startswith(f"error: invalid JSON in {path}: ")


def test_utf16_file_is_read(capsys, tmp_path):
    path = tmp_path / "point.json"
    path.write_text(POINT, encoding="utf-16")
    code, out, err = run(capsys, "decide", "--variant", "set-bij", str(path), str(path))
    assert (code, out, err) == (0, "convertible\n", "")


def test_oversized_json_integer_exit_64(capsys):
    huge = '{"dom":1,"cod":' + "9" * 5000 + ',"map":[0]}'
    code, out, err = run(capsys, "decide", "--variant", "set-bij", "--inline", huge, POINT)
    assert (code, out) == (64, "")
    assert err.startswith("error: invalid JSON in inline argument: ")


def test_check_witness_relational_rejects_tampering(capsys):
    f_text = '{"dom":2,"cod":2,"pairs":[[0,0],[0,1]]}'
    g_text = '{"dom":1,"cod":1,"pairs":[]}'
    _, out, _ = run(capsys, "witness", "--variant", "rel-times", "--inline", f_text, g_text)
    w = json.loads(out)
    w["xi2"]["pairs"] = w["xi2"]["pairs"][:1]  # output 1 of f no longer discarded
    code, out, _ = run(
        capsys, "check-witness", "--variant", "rel-times", "--inline",
        f_text, g_text, json.dumps(w),
    )
    assert (code, out) == (1, "invalid\n")


def test_unknown_field_exit_64(capsys):
    code, out, err = run(
        capsys, "decide", "--variant", "set-bij", "--inline",
        '{"dom":1,"cod":1,"map":[0],"extra":1}', POINT,
    )
    assert (code, out) == (64, "")
    assert "unknown field 'extra'" in err


def test_preorder_table_too_tight_bounds_exit_65(capsys):
    code, out, err = run(
        capsys, "preorder-table", "--variant", "set-bij", "--size-limit", "2",
        "--max-z", "0", "--max-c", "0", "--max-d", "1",
    )
    assert (code, out) == (65, "")
    assert err.startswith("error: preorder table is not") and err.endswith("; widen bounds\n")


def test_unexpected_exception_exits_70(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_decide", broken)
    code, out, err = run(capsys, "decide", "--variant", "set-bij", "--inline", MERGE, POINT)
    # one diagnostic line and no traceback; exit 1 would read as "not convertible"
    assert (code, out, err) == (70, "", "error: internal: RuntimeError: boom\n")


def test_check_witness_relational_huge_empty_z(capsys):
    # nothing bounds Z when f has no pairs; the replay must not build 1_Z
    empty = '{"dom":0,"cod":0,"pairs":[]}'
    w = f'{{"Z":{10**9},"xi1":{empty},"xi2":{empty},"j":{empty}}}'
    code, out, _ = run(
        capsys, "check-witness", "--variant", "rel-times", "--inline", empty, empty, w
    )
    assert (code, out) == (0, "valid\n")


def test_large_sparse_relation_memory(capsys):
    # a relation costs memory in its pairs, not in dom x cod
    text = '{"dom":3000,"cod":3000,"pairs":[[0,0]]}'
    data = json.loads(text)
    tracemalloc.start()
    try:
        relation_from_dict(data)
        _, decode_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        code, _, _ = run(capsys, "witness", "--variant", "rel-times", "--inline", text, text)
        _, witness_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert decode_peak < 5 * 2**20
    assert witness_peak < 5 * 2**20


HUGE_COD = '{"dom":1,"cod":1000000000,"map":[0]}'


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["profile", "--inline", HUGE_COD],
            'phi {"profile":{"0":999999999,"1":1}}\n'
            'gamma {"profile":{"0":1000000000,"1":1}}\n',
        ),
        (["decide", "--variant", "set-bij", "--inline", HUGE_COD, HUGE_COD], "convertible\n"),
        (
            ["decide", "--variant", "set-inj", "--inline", HUGE_COD, '{"dom":0,"cod":0,"map":[]}'],
            "convertible\n",
        ),
        (
            ["equiv", "--variant", "set-bij", "--inline", HUGE_COD, HUGE_COD],
            '{"profile":{"0":999999999}}\n',
        ),
        (["equiv", "--variant", "set-inj", "--inline", HUGE_COD, HUGE_COD], '{"profile":{}}\n'),
    ],
    ids=["profile", "decide-bij", "decide-inj", "equiv-bij", "equiv-inj"],
)
def test_huge_codomain_costs_memory_in_domain(capsys, argv, expected):
    # a huge codomain is counted from its hit points, never with a list as long as cod
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (0, expected, "")
    assert peak < 2 * 2**20


@pytest.mark.parametrize("variant", ["set-bij", "set-inj"])
def test_negative_witness_on_huge_codomain_is_cheap(capsys, variant):
    # witness refuses through decide before it lists the fiber sizes of cod
    merge = '{"dom":2,"cod":1000000000,"map":[0,0]}'
    tracemalloc.start()
    try:
        code, out, err = run(
            capsys, "witness", "--variant", variant, "--inline", '{"dom":0,"cod":0,"map":[]}', merge
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (2, "", "no witness: f does not convert to g\n")
    assert peak < 2 * 2**20


HUGE_REL = '{"dom":1,"cod":1000000000,"pairs":[[0,0]]}'


@pytest.mark.parametrize(
    "variant, morphism",
    [("set-bij", HUGE_COD), ("set-inj", HUGE_COD), ("rel-times", HUGE_REL)],
)
def test_witness_over_budget_exits_65(capsys, variant, morphism):
    # a convertible pair whose witness would list 2 * 10^9 codomain points
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "witness", "--variant", variant, "--inline", morphism, morphism)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (65, "")
    assert err == (
        "error: a witness would list 2000000000 codomain points, over the budget of 10000000\n"
    )
    assert peak < 2 * 2**20


def test_witness_budget_counts_both_codomains(capsys, monkeypatch):
    # MERGE and POINT have one codomain point each
    monkeypatch.setattr(cli, "WITNESS_BUDGET", 2)
    code, out, _ = run(capsys, "witness", "--variant", "set-bij", "--inline", MERGE, POINT)
    assert (code, out.strip()) == (0, MERGE_WITNESS)
    monkeypatch.setattr(cli, "WITNESS_BUDGET", 1)
    code, out, err = run(capsys, "witness", "--variant", "set-bij", "--inline", MERGE, POINT)
    assert (code, out) == (65, "")
    assert err == "error: a witness would list 2 codomain points, over the budget of 1\n"
    # a negative decision is still answered above the budget
    code, out, err = run(capsys, "witness", "--variant", "set-bij", "--inline", POINT, MERGE)
    assert (code, out, err) == (2, "", "no witness: f does not convert to g\n")


EMPTY = '{"dom":0,"cod":0,"map":[]}'


@pytest.mark.parametrize(
    "argv, count",
    [
        (["oracle", "--variant", "set-bij", "--inline", HUGE_COD, EMPTY], 3000000005),
        (
            ["oracle", "--variant", "set-bij", "--max-c", "1000000000", "--inline", POINT, POINT],
            1000000009,
        ),
        (
            [
                "preorder-table", "--variant", "set-bij", "--size-limit", "0",
                "--max-c", "1000000000",
            ],
            1000000003,
        ),
    ],
    ids=["oracle-huge-cod", "oracle-huge-max-c", "preorder-table-huge-max-c"],
)
def test_search_over_budget_exits_65(capsys, argv, count):
    # refused before the search builds one junk object per C size or lists cod(f) + Z
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (65, "")
    assert err == (
        f"error: the search would list {count} codomain points and bound sizes, "
        "over the budget of 10000000\n"
    )
    assert peak < 2 * 2**20


def test_search_budget_counts_codomains_and_bounds(capsys, monkeypatch):
    # MERGE -> POINT: two codomain points, default bounds (3, 5, 5)
    oracle = ["oracle", "--variant", "set-bij", "--inline", MERGE, POINT]
    monkeypatch.setattr(cli, "WITNESS_BUDGET", 15)
    assert run(capsys, *oracle)[0] == 0
    monkeypatch.setattr(cli, "WITNESS_BUDGET", 14)
    code, _, err = run(capsys, *oracle)
    assert code == 65 and "would list 15 codomain points" in err
    # preorder-table counts 2 * size limit, plus its default bounds (3, 4, 4) at size 1
    table = ["preorder-table", "--variant", "set-bij", "--size-limit", "1"]
    monkeypatch.setattr(cli, "WITNESS_BUDGET", 13)
    assert run(capsys, *table)[0] == 0
    monkeypatch.setattr(cli, "WITNESS_BUDGET", 12)
    code, _, err = run(capsys, *table)
    assert code == 65 and "would list 13 codomain points" in err


@pytest.mark.parametrize("variant", ["set-bij", "set-inj"])
@pytest.mark.parametrize("fmap", [list(range(1500)), [0] * 1500], ids=["identity", "constant"])
def test_oracle_scans_wirings_without_recursion_limit(capsys, variant, fmap):
    # the wiring scan goes as deep as dom(f); it must not meet the recursion limit
    f = json.dumps({"dom": len(fmap), "cod": max(fmap) + 1, "map": fmap})
    code, out, err = run(capsys, "oracle", "--variant", variant, "--inline", f, f)
    assert (code, err) == (0, "")
    code, out, _ = run(capsys, "check-witness", "--variant", variant, "--inline", f, f, out)
    assert (code, out) == (0, "valid\n")


SHAPE_PAIRS = {
    "set-bij": (MERGE, POINT),
    "set-inj": (MERGE, POINT),
    "rel-times": ('{"dom":2,"cod":1,"pairs":[[0,0],[1,0]]}', '{"dom":1,"cod":1,"pairs":[[0,0]]}'),
}


def _widen(m, side):
    """``m`` with one more point in its ``side``, "dom" or "cod".

    A new input goes to the least output ``m`` misses, else to 0, so that
    a free ``m`` stays free where it can.
    """
    dom = FinSet(m.dom.size + (side == "dom"))
    cod = FinSet(m.cod.size + (side == "cod"))
    hit = set(m.map) if isinstance(m, FinFun) else {y for _, y in m.graph}
    y = min(set(range(m.cod.size)) - hit, default=0)
    if isinstance(m, Relation):
        return Relation(dom, cod, m.graph | ({(m.dom.size, y)} if side == "dom" else set()))
    return FinFun(dom, cod, m.map + ((y,) if side == "dom" else ()))


@pytest.mark.parametrize(
    "part, side", [("xi1", "dom"), ("xi1", "cod"), ("xi2", "dom"), ("xi2", "cod")]
)
@pytest.mark.parametrize("variant", list(SHAPE_PAIRS))
def test_check_witness_rejects_one_widened_part(capsys, variant, part, side):
    theory = cli.THEORIES[variant]
    f_text, g_text = SHAPE_PAIRS[variant]
    f, g = (theory.morphism_from_dict(json.loads(t)) for t in (f_text, g_text))
    w = theory.witness(f, g)
    bad = dataclasses.replace(w, **{part: _widen(getattr(w, part), side)})
    assert check_witness(theory, f, g, w)
    assert check_witness(theory, f, g, bad) is False
    w_text = json.dumps(witness_to_dict(bad))
    code, out, err = run(
        capsys, "check-witness", "--variant", variant, "--inline", f_text, g_text, w_text
    )
    assert (code, out, err) == (1, "invalid\n", "")


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["check-witness", "--variant", "set-bij", "--inline", MERGE, POINT, "[]"],
            "expected a JSON object with fields 'Z', 'xi1', 'xi2', 'j'",
        ),
        (
            ["witness", "--variant", "rel-times", "--inline", "[]", "[]"],
            "expected a JSON object with fields 'dom', 'cod', 'pairs'",
        ),
    ],
    ids=["witness", "rel-morphism"],
)
def test_non_object_input_exit_64(capsys, argv, message):
    assert run(capsys, *argv) == (64, "", f"error: {message}\n")


MEASURE_CHOICES = (
    "{cod_size,dom_size,gamma_0,gamma_1,gamma_2,gamma_3,gamma_4,gamma_5,gamma_6,gamma_7,"
    "gamma_8,phi_0,phi_1,phi_2,phi_3,phi_4,phi_5,phi_6,phi_7,phi_8}"
)

# each verb's --help at 80 columns; shared parent parsers must keep every verb's text
HELP = {
    "profile": """\
usage: pcdres profile [-h] [--inline] morphism

positional arguments:
  morphism

options:
  -h, --help  show this help message and exit
  --inline    treat morphism arguments as JSON text rather than file paths
""",
    "decide": """\
usage: pcdres decide [-h] --variant {set-bij,set-inj} [--inline] f g

positional arguments:
  f
  g

options:
  -h, --help            show this help message and exit
  --variant {set-bij,set-inj}
  --inline              treat morphism arguments as JSON text rather than file
                        paths
""",
    "witness": """\
usage: pcdres witness [-h] --variant {set-bij,set-inj,rel-times} [--inline]
                      f g

positional arguments:
  f
  g

options:
  -h, --help            show this help message and exit
  --variant {set-bij,set-inj,rel-times}
  --inline              treat morphism arguments as JSON text rather than file
                        paths
""",
    "check-witness": """\
usage: pcdres check-witness [-h] --variant {set-bij,set-inj,rel-times}
                            [--inline]
                            f g w

positional arguments:
  f
  g
  w

options:
  -h, --help            show this help message and exit
  --variant {set-bij,set-inj,rel-times}
  --inline              treat morphism arguments as JSON text rather than file
                        paths
""",
    "equiv": """\
usage: pcdres equiv [-h] --variant {set-bij,set-inj} [--inline] f g

positional arguments:
  f
  g

options:
  -h, --help            show this help message and exit
  --variant {set-bij,set-inj}
  --inline              treat morphism arguments as JSON text rather than file
                        paths
""",
    "oracle": """\
usage: pcdres oracle [-h] --variant {set-bij,set-inj,rel-times} [--inline]
                     [--max-z MAX_Z] [--max-c MAX_C] [--max-d MAX_D]
                     f g

positional arguments:
  f
  g

options:
  -h, --help            show this help message and exit
  --variant {set-bij,set-inj,rel-times}
  --inline              treat morphism arguments as JSON text rather than file
                        paths
  --max-z MAX_Z
  --max-c MAX_C
  --max-d MAX_D
""",
    "preorder-table": """\
usage: pcdres preorder-table [-h] --variant {set-bij,set-inj,rel-times}
                             [--max-z MAX_Z] [--max-c MAX_C] [--max-d MAX_D]
                             [--size-limit SIZE_LIMIT]

options:
  -h, --help            show this help message and exit
  --variant {set-bij,set-inj,rel-times}
  --max-z MAX_Z
  --max-c MAX_C
  --max-d MAX_D
  --size-limit SIZE_LIMIT
""",
    "monotone-check": """\
usage: pcdres monotone-check [-h] --variant {set-bij,set-inj}
                             [--size-limit SIZE_LIMIT]
                             [--measure <measures>]

options:
  -h, --help            show this help message and exit
  --variant {set-bij,set-inj}
  --size-limit SIZE_LIMIT
  --measure <measures>
""",
    "family-check": """\
usage: pcdres family-check [-h] --variant {set-bij,set-inj}
                           [--size-limit SIZE_LIMIT]
                           [--measure <measures>]

options:
  -h, --help            show this help message and exit
  --variant {set-bij,set-inj}
  --size-limit SIZE_LIMIT
  --measure <measures>
""",
}


@pytest.mark.parametrize("verb", list(HELP))
def test_verb_help_is_unchanged(capsys, monkeypatch, verb):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([verb, "--help"])
    out, _ = capsys.readouterr()
    assert exc.value.code == 0
    expected = HELP[verb].replace("<measures>", MEASURE_CHOICES)
    assert out.replace("optional arguments:", "options:") == expected  # Python 3.10 header


def _named_verbs(text: str, start: str, end: str) -> list[str]:
    """The backquoted names between ``start`` and ``end`` in ``text``."""
    span = text[text.index(start) : text.index(end, text.index(start))]
    return re.findall(r"`+([a-z-]+)`+", span)


def test_verb_list_is_written_down_once():
    (subcommands,) = (
        a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    verbs = list(subcommands.choices)
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    assert _named_verbs(cli.__doc__, "Verbs mirror the library:", "Morphisms") == verbs
    assert _named_verbs(readme, "Verbs:", "Variants:") == verbs
    assert list(HELP) == verbs


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pcdres", "decide", "--variant", "set-inj",
         "--inline", MERGE, POINT],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "convertible\n"
