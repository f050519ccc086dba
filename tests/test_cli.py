"""CLI surface: subcommands, formats, determinism, exit codes."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from unitary_lab import clear_caches, unitary
from unitary_lab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_groups_list_markdown(capsys):
    code, out, _ = run_cli(capsys, "groups", "list", "--max-order", "8")
    assert code == 0
    assert "dihedral:8" in out and "quaternion:8" in out
    assert "| 6 |" in out  # |G{2}| for D8


def test_groups_list_json(capsys):
    code, out, _ = run_cli(capsys, "groups", "list", "--max-order", "8", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    row = next(r for r in rows if r["name"] == "dihedral:8")
    assert row["order"] == 8 and row["order_two"] == 6


def test_compute_d8_gf2(capsys):
    code, out, _ = run_cli(capsys, "compute", "--group", "dihedral:8", "--field", "2^1")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["order"] == "64"
    assert payload[0]["theta"] == "1"
    assert payload[0]["cross_check"]["consistent"] is True


def test_compute_odd_formula(capsys):
    code, out, _ = run_cli(capsys, "compute", "--group", "cyclic:3", "--field", "3^1")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["order"] == "3"
    assert payload[0]["method"] == "formula"


def test_compute_oracle_q8_gf4(capsys):
    code, out, _ = run_cli(capsys, "compute", "--group", "quaternion:8",
                           "--field", "2^2", "--method", "oracle")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["order"] == "1024"  # 4 * 4^4
    assert payload[0]["method"] == "oracle"
    assert len(payload[0]["witnesses"]) == 8  # default --max-witnesses


def test_compute_json_is_byte_identical(capsys):
    args = ("compute", "--group", "quaternion:8", "--group", "cyclic:4",
            "--field", "2^1", "--field", "2^2")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_compute_formats_share_numeric_cells(capsys):
    base = ("compute", "--group", "dihedral:8", "--field", "2^1")
    _, out_json, _ = run_cli(capsys, *base)
    _, out_csv, _ = run_cli(capsys, *base, "--format", "csv")
    _, out_md, _ = run_cli(capsys, *base, "--format", "markdown")
    payload = json.loads(out_json)[0]
    csv_row = out_csv.splitlines()[1].split(",")
    assert csv_row[3] == payload["order"] and csv_row[4] == payload["theta"]
    md_row = [c.strip() for c in out_md.splitlines()[2].split("|")[1:-1]]
    assert md_row[3] == payload["order"] and md_row[4] == payload["theta"]


def test_compute_group_file(tmp_path, capsys):
    from unitary_lab.group_catalog import build
    d8 = build("dihedral:8")
    path = tmp_path / "d8.json"
    path.write_text(json.dumps({"id": "file-d8", "n": 8, "table": d8.table.tolist()}))
    code, out, _ = run_cli(capsys, "compute", "--group-file", str(path), "--field", "2^1")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["group"] == "file-d8"
    assert payload[0]["order"] == "64"


def test_compute_group_file_with_non_integer_entries_exits_one(tmp_path, capsys):
    for table in ([[0, 1], [1, 0.9]], [[0, 1], [1, "0"]], [[0, 1], [1, True]], [[0, 1], [1]]):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"id": "bad", "n": 2, "table": table}))
        code, out, err = run_cli(capsys, "compute", "--group-file", str(path), "--field", "2^1")
        assert (code, out, err) == (1, "", "error: table entries must be integers\n"), table


def test_compute_group_file_with_a_malformed_payload_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for text, message in (
            ("[[0, 1], [1, 0]]", 'top level must be an object with a "table" key, got list'),
            ('{"id": "c2", "n": 2}', 'no "table" key'),
            ("{table: [[0]]}", "not JSON (Expecting property name enclosed in double quotes: "
                               "line 1 column 2 (char 1))"),
            ('{"id": 5, "table": [[0, 1], [1, 0]]}', '"id" must be a string, got int'),
            ('{"id": null, "table": [[0, 1], [1, 0]]}', '"id" must be a string, got NoneType'),
            ('{"id": "c2", "n": true, "table": [[0, 1], [1, 0]]}',
             '"n" must be an integer, got bool'),
            ('{"id": "c2", "n": "2", "table": [[0, 1], [1, 0]]}',
             '"n" must be an integer, got str'),
            ('{"id": "c2", "n": 2.0, "table": [[0, 1], [1, 0]]}',
             '"n" must be an integer, got float')):
        path.write_text(text)
        code, out, err = run_cli(capsys, "compute", "--group-file", str(path), "--field", "2^1")
        assert (code, out, err) == (1, "", f"error: {path}: {message}\n"), text


def test_compute_multi_cell_output_is_sorted_by_group_then_field(capsys):
    clear_caches()
    _, forward, _ = run_cli(capsys, "compute", "--group", "cyclic:8", "--group", "dihedral:8",
                            "--field", "2^2", "--field", "2^1", "--format", "json")
    clear_caches()
    _, backward, _ = run_cli(capsys, "compute", "--group", "dihedral:8", "--group", "cyclic:8",
                             "--field", "2^1", "--field", "2^2", "--format", "json")
    assert forward == backward
    cells = [(row["group"], row["field"]) for row in json.loads(forward)]
    assert cells == [("cyclic:8", "2^1"), ("cyclic:8", "2^2"),
                     ("dihedral:8", "2^1"), ("dihedral:8", "2^2")]


def test_compute_refuses_a_repeated_field(capsys):
    for fields, literal in ((("2^1", "2^1"), "2^1"), (("2", "2^1"), "2^1"),
                            (("3^1", "3"), "3^1")):
        argv = [arg for f in fields for arg in ("--field", f)]
        code, out, err = run_cli(capsys, "compute", "--group", "cyclic:4", *argv)
        assert (code, out, err) == (1, "", f"error: field {literal} given twice\n"), fields


def test_theta_table_refuses_a_repeated_field(capsys):
    for fields in (("2^1", "2^1"), ("2^1", "2^2", "2")):
        argv = [arg for f in fields for arg in ("--field", f)]
        for fmt in ("json", "markdown"):
            code, out, err = run_cli(capsys, "theta-table", "--max-order", "4", *argv,
                                     "--format", fmt)
            assert (code, out, err) == (1, "", "error: field 2^1 given twice\n"), fields


def test_compute_usage_errors(capsys):
    code, _, err = run_cli(capsys, "compute", "--field", "2^1")
    assert code == 1 and "no group" in err
    code, _, err = run_cli(capsys, "compute", "--group", "dihedral:8")
    assert code == 1 and "no field" in err
    code, _, err = run_cli(capsys, "compute", "--group", "dihedral:8",
                           "--field", "2^1", "--method", "formula")
    assert code == 1


def test_nonpositive_caps_exit_one(capsys):
    for argv in (("compute", "--group", "cyclic:4", "--field", "2^1", "--search-cap", "0"),
                 ("compute", "--group", "cyclic:4", "--field", "2^1", "--max-witnesses", "-1"),
                 ("groups", "list", "--max-order", "0")):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1 and "caps must be positive" in err, argv


def test_max_witnesses_is_an_oracle_option_only(capsys):
    base = ("compute", "--group", "cyclic:4", "--field", "2^2")  # |V| = 32
    for method in ("auto", "formula", "recursive"):
        code, out, err = run_cli(capsys, *base, "--method", method, "--max-witnesses", "3")
        assert (code, out) == (1, "") and "--max-witnesses applies to --method oracle only" in err
    code, out, _ = run_cli(capsys, *base, "--method", "oracle", "--max-witnesses", "3")
    assert code == 0 and len(json.loads(out)[0]["witnesses"]) == 3
    code, out, _ = run_cli(capsys, *base, "--method", "oracle")
    payload = json.loads(out)[0]
    assert code == 0 and payload["order"] == "32" and len(payload["witnesses"]) == 8


def test_seed_is_a_verify_option_only(capsys):
    code, _, _ = run_cli(capsys, "compute", "--group", "cyclic:4", "--field", "2^1", "--seed", "1")
    assert code == 1
    code, _, _ = run_cli(capsys, "theta-table", "--seed", "1")
    assert code == 1
    code, _, err = run_cli(capsys, "verify", "--suite", "thm1", "--seed", "1")
    assert code == 1 and "cayley suite only" in err
    code, out, _ = run_cli(capsys, "verify", "--suite", "cayley", "--seed", "1")
    assert code == 0 and "[FAIL]" not in out


def test_compute_unknown_group_exits_one(capsys):
    code, _, err = run_cli(capsys, "compute", "--group", "nope:1", "--field", "2^1")
    assert code == 1 and "nope:1" in err


def test_compute_timings_flag(capsys):
    base = ("compute", "--group", "cyclic:4", "--field", "2^1")
    _, out_plain, _ = run_cli(capsys, *base)
    _, out_timed, _ = run_cli(capsys, *base, "--timings")
    assert "elapsed_s" not in out_plain
    assert "elapsed_s" in out_timed


def test_timings_is_a_json_option_only(capsys):
    base = ("compute", "--group", "cyclic:4", "--field", "2^1", "--timings")
    for fmt in ("csv", "markdown"):
        code, out, err = run_cli(capsys, *base, "--format", fmt)
        assert (code, out) == (1, "") and "--timings applies to --format json only" in err


def test_theta_table_markdown(capsys):
    code, out, _ = run_cli(capsys, "theta-table", "--max-order", "8",
                           "--field", "2^1", "--field", "2^2")
    assert code == 0
    lines = out.splitlines()
    d8 = next(line for line in lines if "dihedral:8" in line)
    cells = [c.strip() for c in d8.split("|")[1:-1]]
    assert cells[2] == "1" and cells[3] == "1"
    assert cells[-1] == "True"  # theta agrees across the two fields


def test_theta_table_json_large_rows_render_unavailable(capsys):
    # Q16 over GF(16) may need 16^5 orbit points times the generators of V(F D8),
    # past the default cap, so that cell is refused; over GF(2) it is 4
    code, out, _ = run_cli(capsys, "theta-table", "--max-order", "16",
                           "--field", "2^1", "--field", "2^4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    q16 = next(r for r in payload["rows"] if r["group"] == "quaternion:16")
    assert q16["cells"]["2^1"] == "4"
    assert "(S_H coset orbit over quaternion:16)" in q16["cells"]["2^4"]["unavailable"]
    assert q16["theta_agrees"] is None


def test_theta_table_rejects_odd_fields(capsys):
    code, _, err = run_cli(capsys, "theta-table", "--field", "3^1")
    assert code == 1 and "characteristic-two" in err


def test_verify_suite_cayley(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "cayley")
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out


GOLDEN = Path(__file__).parent / "golden"

# (file under tests/golden holding the stdout, command line); every command exits 0
GOLDEN_CASES = [
    ("theta_table_64_gf2.json", "theta-table --max-order 64 --field 2^1 --format json"),
    ("theta_table_16_gf16.md", "theta-table --max-order 16 --field 2^4 --format markdown"),
    ("theta_table_8_gf128_gf256.json",
     "theta-table --max-order 8 --field 2^7 --field 2^8 --format json"),
    ("compute_multi_cell.csv",
     "compute --group dihedral:8 --group cyclic:8 --field 2^2 --field 2^1 --format csv"),
    ("compute_oracle_q8_gf8.json",
     "compute --group quaternion:8 --field 2^3 --method oracle --format json"),
    ("compute_oracle_c5_gf25.json",
     "compute --group cyclic:5 --field 5^2 --method oracle --format json"),
    ("compute_recursive_d16_gf8.json", "compute --group dihedral:16 --field 2^3 --method recursive"),
    ("groups_list_64.json", "groups list --max-order 64 --format json"),
    ("verify_cayley_seed3.txt", "verify --suite cayley --seed 3"),
    ("verify_bounds.txt", "verify --suite bounds"),
]


@pytest.mark.parametrize("name, command", GOLDEN_CASES, ids=[name for name, _ in GOLDEN_CASES])
def test_output_matches_golden_file(capsys, name, command):
    clear_caches()
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert out.encode() == (GOLDEN / name).read_bytes()


def test_verify_takes_no_search_cap(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "thm1", "--search-cap", "5")
    assert (code, out) == (1, "") and "unrecognized arguments: --search-cap 5" in err


def test_verify_unknown_suite_usage_error(capsys):
    code, _, _ = run_cli(capsys, "verify", "--suite", "nope")
    assert code == 1


def test_internal_inconsistency_over_gf11_exits_two(capsys, monkeypatch):
    # an oracle certificate failure names its element in the dotted literal form for p > 10
    monkeypatch.setattr(unitary, "keys_contain", lambda keys, queries: np.zeros(queries.shape, bool))
    code, _, err = run_cli(capsys, "compute", "--group", "cyclic:1", "--field", "11^2",
                           "--method", "oracle")
    assert code == 2
    assert "misses the identity (cyclic:1 over 11^2, element 1.0*g0)" in err


def test_non_integral_theta_exits_two(capsys, monkeypatch):
    # an order |F|^((|G|+|G{2}|)/2 - 1) does not divide fails compute, as it fails theta-table
    orbit_of = unitary._coset_orbit

    def forged_orbit(group, *args):  # D8 itself, not the levels below it
        orbit = orbit_of(group, *args)
        return dataclasses.replace(orbit, order=3) if group.n == 8 else orbit

    monkeypatch.setattr(unitary, "_coset_orbit", forged_orbit)
    for method in ("recursive", "auto"):
        clear_caches()
        code, out, err = run_cli(capsys, "compute", "--group", "dihedral:8", "--field", "2^1",
                                 "--method", method)
        assert (code, out) == (2, "")
        assert err == "internal inconsistency: non-integer theta 3/64 (dihedral:8 over 2^1, c = g2)\n"
    clear_caches()


def test_oracle_refuses_more_than_2_63_elements_before_its_scan(capsys):
    # 2^64 elements of F D64 cannot be uint64 keys, whatever the search cap allows
    code, out, err = run_cli(capsys, "compute", "--group", "dihedral:64", "--field", "2^1",
                             "--method", "oracle", "--search-cap", "100000000000000000000000")
    assert (code, out) == (1, "")
    assert err == ("error: search space of size 18446744073709551616 exceeds cap "
                   "9223372036854775808 (uint64 key packing)\n")
