"""End-to-end checks of the command-line verbs, run in process.

Each test drives ``main`` with an argv list and inspects exit code, stdout,
and stderr.  One subprocess smoke test covers the module entry point.
"""

import json
import subprocess
import sys
import tracemalloc

import pytest

from pcdres import relation_from_dict
from pcdres.cli import main

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
    code, _, err = run(
        capsys, "family-check", "--variant", "set-bij", "--size-limit", "2",
        "--measure", "phi_1",
    )
    assert code == 65
    assert "fails screening" in err


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
    capsys.readouterr()


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


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pcdres", "decide", "--variant", "set-inj",
         "--inline", MERGE, POINT],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "convertible\n"
