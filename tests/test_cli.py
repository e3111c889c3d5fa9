"""CLI behaviour: schema-stable golden files, exit codes, determinism.

Set UPDATE_GOLDENS=1 to regenerate the golden files after an intentional
schema change.
"""

import contextlib
import functools
import io
import json
import os
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milnorhodge.arrangement import boolean_arrangement
from milnorhodge.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def check_golden(name: str, text: str) -> None:
    path = GOLDEN / name
    if os.environ.get("UPDATE_GOLDENS"):
        path.write_text(text)
    assert path.read_text() == text


# ---------------------------------------------------------------------------
# golden outputs


def test_golden_local_hodge(capsys):
    code, out = run_cli(capsys, "local-hodge", "--k", "3", "--d", "9")
    assert code == 0
    check_golden("local_hodge_3_9.json", out)


def test_golden_fermat(capsys):
    code, out = run_cli(capsys, "fermat", "--d", "9")
    assert code == 0
    check_golden("fermat_9.json", out)


def test_golden_spectrum_ceva(capsys):
    code, out = run_cli(capsys, "spectrum", "--arrangement", str(DATA / "ceva.txt"))
    assert code == 0
    check_golden("spectrum_ceva.json", out)
    payload = json.loads(out)
    assert {"a": "1", "m": 16} in payload["entries"]
    assert {"a": "4/3", "m": -2} in payload["entries"]


def test_golden_combinatorics_boolean(capsys):
    code, out = run_cli(capsys, "combinatorics", "--arrangement", str(DATA / "boolean.txt"))
    assert code == 0
    check_golden("combinatorics_boolean.json", out)


def test_golden_h2f_ceva(capsys):
    code, out = run_cli(
        capsys,
        "h2f",
        "--arrangement", str(DATA / "ceva.txt"),
        "--h3x", str(DATA / "ceva_h3x.json"),
    )
    assert code == 0
    check_golden("h2f_ceva.json", out)


def test_golden_count_boolean_fiber(capsys):
    code, out = run_cli(
        capsys,
        "count",
        "--arrangement", str(DATA / "boolean.txt"),
        "--target", "fiber",
        "--primes", "7,13,19,31",
    )
    assert code == 0
    check_golden("count_boolean_fiber.json", out)


def test_golden_hodge_from_counts_boolean(capsys):
    code, out = run_cli(
        capsys,
        "hodge-from-counts",
        "--arrangement", str(DATA / "boolean.txt"),
        "--target", "fiber",
        "--primes", "7,13,19,31",
    )
    assert code == 0
    check_golden("hodge_from_counts_boolean.json", out)
    payload = json.loads(out)
    assert payload["epoly"]["entries"] == [
        {"p": 0, "q": 0, "mult": [1, 0, 0]},
        {"p": 1, "q": 1, "mult": [-2, 0, 0]},
        {"p": 2, "q": 2, "mult": [1, 0, 0]},
    ]


def test_golden_hodge_from_counts_ceva(capsys):
    code, out = run_cli(
        capsys,
        "hodge-from-counts",
        "--arrangement", str(DATA / "ceva.txt"),
        "--target", "fiber",
        "--primes", "19,37,73,109,127",
    )
    assert code == 0
    check_golden("hodge_from_counts_ceva_fiber.json", out)


def test_golden_check_boolean(capsys):
    code, out = run_cli(capsys, "check", "--arrangement", str(DATA / "boolean.txt"))
    assert code == 0
    check_golden("check_boolean.json", out)


def test_golden_count_complement(capsys):
    code, out = run_cli(
        capsys,
        "count",
        "--arrangement", str(DATA / "generic3.txt"),
        "--target", "complement",
        "--primes", "7,13,19,31,37",
    )
    assert code == 0
    check_golden("count_generic3_complement.json", out)


# ---------------------------------------------------------------------------
# exit codes and error objects


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["local-hodge", "--bogus"])
    assert err.value.code == 2


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_domain_error_exits_1(capsys):
    code, out = run_cli(capsys, "local-hodge", "--k", "1", "--d", "3")
    assert code == 1
    assert json.loads(out) == {
        "error": "invalid_singularity",
        "message": "need 2 <= k <= d, got k=1, d=3",
    }


def test_duplicate_line_error_code(capsys):
    code, out = run_cli(capsys, "spectrum", "--arrangement", str(DATA / "duplicate.txt"))
    assert code == 1
    assert json.loads(out)["error"] == "duplicate_line"


def test_parse_error_code(capsys):
    code, out = run_cli(capsys, "spectrum", "--arrangement", str(DATA / "badline.txt"))
    assert code == 1
    assert json.loads(out)["error"] == "parse_error"


@pytest.mark.parametrize(
    "text, code, message",
    [
        ("0 0 0\n", "zero_form", "all three coefficients vanish"),
        ("1 0 0\n2 0 0\n", "duplicate_line", "line (1, 0, 0) appears twice after canonicalization"),
        ("1 0\n", "parse_error", "expected three integers, got '1 0'"),
        ("1 0 x\n", "parse_error", "non-integer coefficient in '1 0 x'"),
        # int() takes these three; the file format takes ASCII [+-]?[0-9]+ only
        ("1 1_0 1\n", "parse_error", "non-integer coefficient in '1 1_0 1'"),
        ("1 \u0663 1\n", "parse_error", "non-integer coefficient in '1 \u0663 1'"),
        ("1 -\uff11 1\n", "parse_error", "non-integer coefficient in '1 -\uff11 1'"),
        ("", "parse_error", "no lines found"),
        ("# only a comment\n", "parse_error", "no lines found"),
        ("builtin: nosuch\n", "parse_error", "unknown builtin arrangement 'nosuch'"),
        ("1 0 0\nbuiltin: ceva\n", "parse_error", "builtin directive must be the only content"),
        ("builtin: ceva\n1 0 0\n", "parse_error", "builtin directive must be the only content"),
        # at most 2000 digits; int() itself refuses more than 4300
        (f"{'1' * 2001} 0 1\n", "parse_error", "coefficient of 2001 characters; at most 2000 digits"),
        (f"{'1' * 4400} 0 1\n", "parse_error", "coefficient of 4400 characters; at most 2000 digits"),
    ],
    ids=["zero", "duplicate", "two-numbers", "non-integer", "underscore", "arabic-indic-digit",
         "fullwidth-digit", "empty", "comment-only", "unknown-builtin", "lines-then-builtin",
         "builtin-then-lines", "2001-digits", "4400-digits"],
)
def test_arrangement_file_with_one_fault(capsys, tmp_path, text, code, message):
    path = tmp_path / "arrangement.txt"
    path.write_text(text, encoding="utf-8")
    rc, out = run_cli(capsys, "spectrum", "--arrangement", str(path))
    assert rc == 1
    assert json.loads(out) == {"error": code, "message": message}


def test_missing_file_exits_1(capsys):
    code, out = run_cli(capsys, "spectrum", "--arrangement", "no_such_file.txt")
    assert code == 1
    assert json.loads(out)["error"] == "file_not_found"


def test_non_utf8_arrangement_is_parse_error(capsys, tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"# caf\xe9\n1 0 0\n")
    code, out = run_cli(capsys, "spectrum", "--arrangement", str(path))
    assert code == 1
    assert json.loads(out)["error"] == "parse_error"


def test_directory_as_arrangement_exits_1(capsys, tmp_path):
    code, out = run_cli(capsys, "spectrum", "--arrangement", str(tmp_path))
    assert code == 1
    assert json.loads(out)["error"] == "unreadable_file"


def test_malformed_h3_json_is_parse_error(capsys, tmp_path):
    path = tmp_path / "h3.json"
    path.write_text('{"d": 9, "entries": [')
    code, out = run_cli(capsys, "h2f", "--arrangement", str(DATA / "ceva.txt"), "--h3x", str(path))
    assert code == 1
    assert json.loads(out)["error"] == "parse_error"


def test_h3_json_without_entries_is_parse_error(capsys, tmp_path):
    path = tmp_path / "h3.json"
    path.write_text('{"d": 9}')
    code, out = run_cli(capsys, "h2f", "--arrangement", str(DATA / "ceva.txt"), "--h3x", str(path))
    assert code == 1
    assert json.loads(out)["error"] == "parse_error"


def _ceva_h3_with(tmp_path, edit) -> Path:
    data = json.loads((DATA / "ceva_h3x.json").read_text())
    edit(data)
    path = tmp_path / "h3.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize(
    "edit",
    [
        lambda data: data["entries"][0]["mult"].__setitem__(3, 2.7),
        lambda data: data.update(d=9.0),
    ],
    ids=["float-mult", "float-d"],
)
def test_h3_json_with_non_integer_values_is_parse_error(capsys, tmp_path, edit):
    # int() would truncate 2.7 to 2 and accept 9.0, and h2f would then pass
    path = _ceva_h3_with(tmp_path, edit)
    code, out = run_cli(capsys, "h2f", "--arrangement", str(DATA / "ceva.txt"), "--h3x", str(path))
    assert code == 1
    assert json.loads(out)["error"] == "parse_error"


@pytest.mark.parametrize(
    "edit",
    [
        lambda data: data["entries"][0]["mult"].append(0),
        lambda data: data.update(d=0),
    ],
    ids=["mult-length", "zero-d"],
)
def test_h3_json_that_is_no_table_is_parse_error(capsys, tmp_path, edit):
    path = _ceva_h3_with(tmp_path, edit)
    code, out = run_cli(capsys, "h2f", "--arrangement", str(DATA / "ceva.txt"), "--h3x", str(path))
    assert code == 1
    assert json.loads(out)["error"] == "parse_error"


def test_h3_table_of_the_wrong_shape_is_error(capsys, tmp_path):
    # a well-formed table, but H3 has no (2, 0) part
    path = _ceva_h3_with(tmp_path, lambda data: data["entries"][0].update(p=2, q=0))
    code, out = run_cli(capsys, "h2f", "--arrangement", str(DATA / "ceva.txt"), "--h3x", str(path))
    assert code == 1
    assert json.loads(out) == {"error": "error", "message": "H3 data must be supported on (2,1) and (1,2)"}


def test_h3_degree_mismatch_is_json_error(capsys):
    h3 = str(DATA / "ceva_h3x.json")  # d = 9 against the boolean arrangement's 3
    code, out = run_cli(capsys, "h2f", "--arrangement", str(DATA / "boolean.txt"), "--h3x", h3)
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "error"
    assert "differs from arrangement degree" in payload["message"]


def test_check_h3_degree_mismatch_fails_assembly_check(capsys):
    h3 = str(DATA / "ceva_h3x.json")
    code, out = run_cli(capsys, "check", "--arrangement", str(DATA / "boolean.txt"), "--h3x", h3)
    assert code == 1
    failed = _failed_details(out)
    assert failed["assembly"].startswith("error: H3 data modulus 9 differs")


def test_repeated_prime_is_bad_prime(capsys):
    code, out = run_cli(
        capsys,
        "count",
        "--arrangement", str(DATA / "boolean.txt"),
        "--target", "fiber",
        "--primes", "7,7,13,19",
    )
    assert code == 1
    assert json.loads(out)["error"] == "bad_prime"


def test_bad_prime_error(capsys):
    code, out = run_cli(
        capsys,
        "count",
        "--arrangement", str(DATA / "boolean.txt"),
        "--target", "fiber",
        "--primes", "5,7,13,19",
    )
    assert code == 1
    assert json.loads(out)["error"] == "bad_prime"


def test_bad_reduction_prime_is_bad_prime(capsys):
    # x, y, x + y + 7z are concurrent modulo 7
    code, out = run_cli(
        capsys,
        "count",
        "--arrangement", str(DATA / "degenerate7.txt"),
        "--target", "complement",
        "--primes", "7,13,19,31,37",
    )
    assert code == 1
    assert json.loads(out)["error"] == "bad_prime"


@pytest.mark.parametrize("command", ["count", "hodge-from-counts"])
@pytest.mark.parametrize(
    "primes, code, message",
    [
        ("10009", "not_enough_primes", "twist 0: need at least 4 primes, got 1"),
        ("7,13,7,19", "bad_prime", "twist 0: a prime is repeated in [7, 13, 7, 19]"),
        ("7,13,19,31,5", "bad_prime", "5 is not 1 modulo 3"),
        ("4,7,7", "bad_prime", "4 is not prime"),
        ("", "not_enough_primes", "twist 0: need at least 4 primes, got 0"),
    ],
    ids=["one-prime", "repeated", "residue", "not-prime", "empty"],
)
def test_count_request_is_checked_before_counting(capsys, monkeypatch, command, primes, code, message):
    from milnorhodge import pointcount

    def no_counting(arr, q):
        raise AssertionError(f"counted at {q} before the request was checked")

    monkeypatch.setattr(pointcount, "count_classes", no_counting)
    argv = [command, "--arrangement", str(DATA / "boolean.txt"), "--target", "fiber", "--primes", primes]
    rc, out = run_cli(capsys, *argv)
    assert rc == 1
    assert json.loads(out) == {"error": code, "message": message}


@pytest.mark.parametrize(
    "primes, message",
    [("7,13,8", "8 is not 1 modulo 3"), ("7,7", "a prime is repeated in [7, 7]")],
    ids=["residue", "repeated"],
)
def test_check_primes_are_checked_before_counting(capsys, monkeypatch, primes, message):
    from milnorhodge import pointcount

    def no_counting(arr, q):
        raise AssertionError(f"counted at {q} before the primes were checked")

    monkeypatch.setattr(pointcount, "count_classes", no_counting)
    monkeypatch.setattr(pointcount, "brute_force_count", no_counting)
    rc, out = run_cli(capsys, "check", "--arrangement", str(DATA / "boolean.txt"), "--primes", primes)
    assert rc == 1
    assert json.loads(out) == {"error": "bad_prime", "message": message}


@pytest.mark.parametrize("primes", ["7,,13,19,31", "7,13,19,31,", ",7,13,19,31", "7, ,13,19,31"])
def test_empty_prime_list_item_is_rejected(capsys, primes):
    argv = ["count", "--arrangement", str(DATA / "boolean.txt"), "--target", "fiber", "--primes", primes]
    rc, out = run_cli(capsys, *argv)
    assert rc == 1
    assert json.loads(out) == {"error": "error", "message": f"bad prime list {primes!r}"}


@pytest.mark.parametrize(
    "primes",
    ["7,1_3,19,31", "7,\u0661\u0663,19,31", "7 13 19 \uff13\uff11", pytest.param("7," + "1" * 4400, id="4400-digits")],
)
def test_primes_are_ascii_decimal_integers(capsys, primes):
    argv = ["count", "--arrangement", str(DATA / "boolean.txt"), "--target", "fiber", "--primes", primes]
    rc, out = run_cli(capsys, *argv)
    assert rc == 1
    assert json.loads(out) == {"error": "error", "message": f"bad prime list {primes!r}"}


def test_prime_list_separators_are_commas_or_spaces(capsys):
    outputs = set()
    for primes in ("7,13,19,31", "7, 13, 19, 31", "7 13 19 31"):
        argv = ["count", "--arrangement", str(DATA / "boolean.txt"), "--target", "fiber", "--primes", primes]
        rc, out = run_cli(capsys, *argv)
        assert rc == 0
        outputs.add(out)
    assert len(outputs) == 1


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_thread_count_below_one_is_usage_error(capsys, threads):
    argv = ["count", "--arrangement", str(DATA / "boolean.txt"), "--target", "fiber",
            "--primes", "7,13,19,31", "--threads", threads]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--threads must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["local-hodge", "--k", "\u0663", "--d", "9"], "--k"),
        (["local-hodge", "--k", "3", "--d", "1_0"], "--d"),
        (["count", "--arrangement", str(DATA / "boolean.txt"), "--target", "fiber",
          "--primes", "7,13,19,31", "--threads", "\u0662"], "--threads"),
        (["check", "--arrangement", str(DATA / "boolean.txt"), "--seed", "\u0663"], "--seed"),
        (["local-hodge", "--k", "1" * 2001, "--d", "9"], "--k"),
    ],
    ids=["k", "d", "threads", "seed", "k-2001-digits"],
)
def test_integer_options_are_ascii_decimal(capsys, argv, bad):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {bad}: invalid integer" in captured.err


# ---------------------------------------------------------------------------
# oversized input: integers of at most 2000 digits, so that every printed integer stays printable


def test_combinatorics_prints_points_of_the_longest_coefficients(capsys, tmp_path):
    # the lines (c, 1, 0) and (1, c, 1) meet at (1, -c, c^2 - 1)
    path = tmp_path / "arrangement.txt"
    c = 10**2000 - 1
    path.write_text(f"{c} 1 0\n1 {c} 1\n")
    rc, out = run_cli(capsys, "combinatorics", "--arrangement", str(path))
    assert rc == 0
    assert json.loads(out)["points"][0]["point"] == [1, -c, c * c - 1]  # 4000 digits
    path.write_text(f"{'7' * 3000} 1 0\n1 {'7' * 3000} 1\n")
    rc, out = run_cli(capsys, "combinatorics", "--arrangement", str(path))
    assert rc == 1
    assert json.loads(out)["error"] == "parse_error"


def test_deeply_nested_h3_json_is_parse_error(capsys, tmp_path):
    path = tmp_path / "h3.json"
    path.write_text("[" * 200_000)
    rc, out = run_cli(capsys, "h2f", "--arrangement", str(DATA / "ceva.txt"), "--h3x", str(path))
    assert rc == 1
    assert json.loads(out) == {"error": "parse_error", "message": f"{path} nests too deeply to read"}


# ---------------------------------------------------------------------------
# determinism


def test_thread_count_does_not_change_bytes(capsys):
    argv = [
        "count",
        "--arrangement", str(DATA / "ceva.txt"),
        "--target", "fiber",
        "--primes", "19,37,73",
    ]
    _, one = run_cli(capsys, *argv, "--threads", "1")
    _, eight = run_cli(capsys, *argv, "--threads", "8")
    assert one == eight


def test_repeated_runs_identical(capsys):
    argv = ["spectrum", "--arrangement", str(DATA / "ceva.txt")]
    _, first = run_cli(capsys, *argv)
    _, second = run_cli(capsys, *argv)
    assert first == second


def test_environment_knobs_are_ignored(capsys, monkeypatch):
    count = ["count", "--arrangement", str(DATA / "boolean.txt"), "--target", "fiber", "--primes", "7,13,19,31"]
    check = ["check", "--arrangement", str(DATA / "boolean.txt")]  # picks primes with good_primes
    for argv in (count, check):
        monkeypatch.delenv("MILNORHODGE_THREADS", raising=False)
        monkeypatch.delenv("MILNORHODGE_PRIME_BOUND", raising=False)
        _, plain = run_cli(capsys, *argv)
        monkeypatch.setenv("MILNORHODGE_THREADS", "x")
        monkeypatch.setenv("MILNORHODGE_PRIME_BOUND", "x")
        code, enved = run_cli(capsys, *argv)
        assert code == 0
        assert enved == plain


# ---------------------------------------------------------------------------
# the check command


def test_check_boolean_passes(capsys):
    code, out = run_cli(capsys, "check", "--arrangement", str(DATA / "boolean.txt"))
    payload = json.loads(out)
    assert code == 0 and payload["all_pass"]
    names = {c["name"] for c in payload["checks"]}
    assert {"count_oracle_q7", "count_oracle_q13", "complement_charpoly_q7"} <= names


def test_check_ceva_with_h3_passes(capsys):
    code, out = run_cli(
        capsys,
        "check",
        "--arrangement", str(DATA / "ceva.txt"),
        "--h3x", str(DATA / "ceva_h3x.json"),
        "--primes", "19",
    )
    payload = json.loads(out)
    assert code == 0 and payload["all_pass"]
    names = {c["name"] for c in payload["checks"]}
    assert "link_localization_identity" in names
    assert "euler_characteristic_identity" in names


def test_check_corrupted_h3_fails_named_check(capsys):
    code, out = run_cli(
        capsys,
        "check",
        "--arrangement", str(DATA / "ceva.txt"),
        "--h3x", str(DATA / "ceva_h3x_corrupt.json"),
        "--primes", "19",
    )
    payload = json.loads(out)
    assert code == 1 and not payload["all_pass"]
    failed = {c["name"] for c in payload["checks"] if not c["pass"]}
    assert failed == {"conjugation_symmetry", "euler_characteristic_identity", "link_localization_identity"}


def _failed_details(out: str) -> dict[str, str]:
    return {c["name"]: c["detail"] for c in json.loads(out)["checks"] if not c["pass"]}


def test_check_reports_local_dimension_law_numbers(capsys, monkeypatch):
    from milnorhodge import assembly
    from milnorhodge.localhodge import LocalHodgeTable
    from milnorhodge.repring import HodgeTable, ReprClass

    real = assembly.local_hodge_table

    def one_short(sing):
        table = real(sing).table
        key = table.support()[0]
        return LocalHodgeTable(sing, table - HodgeTable(sing.d, {key: ReprClass.trivial(sing.d)}))

    monkeypatch.setattr(assembly, "local_hodge_table", one_short)
    code, out = run_cli(capsys, "check", "--arrangement", str(DATA / "boolean.txt"))
    assert code == 1
    # boolean: double points of a 3-line arrangement, Milnor number (2-1)^2 (3-1) = 2
    assert _failed_details(out) == {"local_dimension_law_k2": "table total 1 vs Milnor number 2"}


def test_check_reports_both_censuses_when_they_differ(capsys, monkeypatch):
    from milnorhodge import assembly

    # the point census of a pencil of three lines against the boolean arrangement's groups
    monkeypatch.setattr(assembly, "intersection_data", lambda arr: {(0, 0, 1): frozenset({0, 1, 2})})
    code, out = run_cli(capsys, "check", "--arrangement", str(DATA / "boolean.txt"))
    assert code == 1
    assert _failed_details(out) == {"weak_data_pair_count": "groups {2: 3} vs points {3: 1}"}
    code, text = run_cli(capsys, "check", "--arrangement", str(DATA / "boolean.txt"), "--pretty")
    assert "FAIL  weak_data_pair_count  (groups {2: 3} vs points {3: 1})" in text.splitlines()


def test_check_reports_first_differing_count(capsys, monkeypatch):
    from milnorhodge import pointcount

    real = pointcount.brute_force_count

    def one_point_moved(arr, q):
        t = real(arr, q)
        counts = list(t.class_counts)
        counts[1] += 1
        counts[2] -= 1
        return pointcount.CountTable(t.q, t.g, t.d, tuple(counts), t.zero_count)

    monkeypatch.setattr(pointcount, "brute_force_count", one_point_moved)
    code, out = run_cli(capsys, "check", "--arrangement", str(DATA / "boolean.txt"))
    assert code == 1
    fast = pointcount.count_classes(boolean_arrangement(), 7).class_counts[1]
    details = _failed_details(out)
    assert details["count_oracle_q7"] == f"class_counts[1]: fast {fast} vs brute force {fast + 1}"
    assert set(details) == {"count_oracle_q7", "count_oracle_q13"}


def test_golden_files_match_the_benchmark_copies():
    # the cli-cold benchmark workload checks stdout against bench/golden
    bench = Path(__file__).parent.parent / "bench" / "golden"
    names = sorted(p.name for p in GOLDEN.iterdir())
    assert names
    for name in names:
        assert (bench / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_pretty_mode_is_human_readable(capsys):
    code, out = run_cli(capsys, "spectrum", "--arrangement", str(DATA / "ceva.txt"), "--pretty")
    assert code == 0
    assert out.startswith("spectrum, d=9")


PRETTY_CASES = [
    (["local-hodge", "--k", "3", "--d", "9"], "local Hodge table for k=3, d=9 (dim 32)", ["table"]),
    (["fermat", "--d", "9"], "Fermat surface primitive H2, degree 9", ["table"]),
    (["spectrum", "--arrangement", str(DATA / "ceva.txt")], "spectrum, d=9, chi(F)=81", []),
    (
        ["combinatorics", "--arrangement", str(DATA / "boolean.txt")],
        "arrangement d=3: {2: 3} multiple points",
        [],
    ),
    (
        ["h2f", "--arrangement", str(DATA / "ceva.txt"), "--h3x", str(DATA / "ceva_h3x.json")],
        "H1(F), nontrivial characters:",
        ["H1F", "H2F"],
    ),
    (
        ["count", "--arrangement", str(DATA / "boolean.txt"), "--target", "fiber", "--primes", "7,13,19,31"],
        "counted fiber at primes [7, 13, 19, 31]: fit is polynomial",
        [],
    ),
    (
        ["hodge-from-counts", "--arrangement", str(DATA / "boolean.txt"), "--target", "fiber",
         "--primes", "7,13,19,31"],
        "extracted diagonal Hodge-Deligne polynomial",
        [],
    ),
    (
        ["check", "--arrangement", str(DATA / "boolean.txt")],
        "PASS  weak_data_pair_count  (census covers every line pair)",
        [],
    ),
]


def _pretty_row(entry: dict) -> tuple[str, ...]:
    chars = ", ".join(f"{k}:{m}" for k, m in enumerate(entry["mult"]) if m)
    return str(entry["p"]), str(entry["q"]), str(sum(entry["mult"])), chars


@pytest.mark.parametrize("argv, first_line, tables", PRETTY_CASES, ids=[c[0][0] for c in PRETTY_CASES])
def test_pretty_mode_of_every_command(capsys, argv, first_line, tables):
    code, text = run_cli(capsys, *argv, "--pretty")
    assert code == 0
    assert text.splitlines()[0] == first_line
    # every printed (p,q) row, its dim and its characters come from the JSON tables of the same run
    _, out = run_cli(capsys, *argv)
    payload = json.loads(out)
    rows = re.findall(r"^  \((-?\d+),(-?\d+)\)  dim +(-?\d+)   (.*)$", text, re.M)
    expected = [_pretty_row(e) for name in tables for e in payload[name]["entries"]]
    assert rows == expected
    assert not tables or rows


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--arrangement", str(DATA / "ceva.txt"), "--threads", "2"],
        ["local-hodge", "--k", "3", "--d", "9", "--threads", "1"],
        ["check", "--arrangement", str(DATA / "boolean.txt"), "--threads", "2"],
        ["fermat", "--d", "9", "--seed", "3"],
        ["count", "--arrangement", str(DATA / "boolean.txt"), "--target", "fiber", "--primes", "7",
         "--seed", "3"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_options_go_only_to_commands_that_read_them(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_check_reads_seed(capsys, monkeypatch):
    from milnorhodge import assembly

    seeds = []
    real = assembly.random.Random
    monkeypatch.setattr(assembly.random, "Random", lambda seed: seeds.append(seed) or real(seed))
    code, out = run_cli(capsys, "check", "--arrangement", str(DATA / "boolean.txt"), "--seed", "3")
    assert code == 0 and seeds == [3]
    # the random sum-rule check reports no detail when it passes, so any seed gives the golden bytes
    assert out == (GOLDEN / "check_boolean.json").read_text()


# ---------------------------------------------------------------------------
# the CLI contract as a property: exit 0, 1 or 2, one JSON document, no traceback

_PRIMES_BELOW_60 = [q for q in range(2, 60) if all(q % f for f in range(2, q))]
# coefficients in [-4, 4], zero one time in three, so that lines meet in points of high multiplicity
_COEFFS = ["0", "0", "0", "0", "1", "-1", "2", "-2", "3", "-3", "4", "-4"]
_GARBAGE = ["x", "1.5", "0x7", "--", "#", "/", "builtin:", "\u00e9", "", "1 2", str(10**40), str(-(7**50)), "+3",
            "1_0", "\u0663", "1e3", "9" * 2001]
_SEPARATORS = ["\n", "/", " / ", "\n# note 1 2 3 / 4 5 6\n", "\n\n  "]
_BUILTINS = ["builtin: ceva\n", "builtin: nosuch\n", "builtin:\n", "builtin: ceva\nbuiltin: ceva\n",
             "1 0 0\nbuiltin: ceva\n", "# builtin: ceva\n1 0 0\n"]
_JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(-3, 12) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["d", "entries", "p", "q", "mult"]), inner, max_size=4),
    max_leaves=10,
)
_ints = st.integers(-3, 40).map(str)


@st.composite
def _arrangement_texts(draw) -> tuple[str, int]:
    """An arrangement file and its line count d.

    One time in eight a directive (d = 9); otherwise up to 8 forms, one byte per
    coefficient (a hypothesis list of forms costs about 2 ms per example), with
    one coefficient replaced by a garbage token one time in seven.
    """
    choice = draw(st.integers(0, 7))
    if choice == 0:
        return draw(st.sampled_from(_BUILTINS)), 9
    coeffs = [_COEFFS[b % 12] for b in draw(st.binary(min_size=3, max_size=24))]
    if choice == 1:
        coeffs[draw(st.integers(0, len(coeffs) - 1))] = draw(st.sampled_from(_GARBAGE))
    forms = [" ".join(coeffs[i : i + 3]) for i in range(0, len(coeffs) - 2, 3)]
    return draw(st.sampled_from(_SEPARATORS)).join(forms), len(forms)


@functools.cache
def _h3_text(d: int):
    """An H3 file: Ceva's, a table for degree d (often valid), a JSON tree, text or 200,000 open brackets."""
    entry = st.builds(
        lambda pq, mult: {"p": pq[0], "q": pq[1], "mult": mult},
        st.sampled_from([(2, 1), (1, 2), (2, 0)]),
        st.lists(st.integers(-2, 3), min_size=d, max_size=d),
    )
    table = st.fixed_dictionaries({"d": st.sampled_from([d, d, 0, 9]), "entries": st.lists(entry, max_size=2)})
    ceva = (DATA / "ceva_h3x.json").read_text()
    trees = _JSON_TREES.map(json.dumps)
    return st.one_of(st.just(ceva), table.map(json.dumps), trees, st.text(max_size=8), st.just("[" * 200_000))


@functools.cache
def _prime_list(d: int):
    """The first n primes = 1 mod d below 60 and up to two other numbers (one of 2001 digits), joined by commas
    or spaces."""
    good = [q for q in _PRIMES_BELOW_60 if (q - 1) % d == 0]
    return st.builds(
        lambda n, others, separator: separator.join(map(str, good[:n] + others)),
        st.integers(0, 6),
        st.sampled_from([(), (), (), (-3,), (0,), (1,), (4,), (9,), (25,), (59,), (7, 13), (13, 7), (10**2000,)])
        .map(list),
        st.sampled_from([",", " "]),
    )


def _draw_argv(data, command: str, files: Path) -> list[str]:
    """Draw the options of ``command``, writing the files it reads into ``files``."""
    if command == "local-hodge":  # k at most 8: the output lists (k - 1)^2 (d - 1) spectral numbers
        argv = ["--k", data.draw(st.integers(-3, 8).map(str)), "--d", data.draw(_ints)]
    elif command == "fermat":
        argv = ["--d", data.draw(_ints)]
    else:
        arrangement, h3x = files / "arrangement.txt", files / "h3x.json"
        text, d = data.draw(_arrangement_texts())
        arrangement.write_text(text, encoding="utf-8")
        argv = ["--arrangement", str(arrangement)]
        if command == "h2f" or command == "check" and data.draw(st.booleans()):
            h3x.write_text(data.draw(_h3_text(d)), encoding="utf-8")
            argv += ["--h3x", str(h3x)]
        if command in ("count", "hodge-from-counts"):
            argv += ["--target", data.draw(st.sampled_from(["fiber", "complement"]))]
            argv += ["--primes", data.draw(_prime_list(d))]
            if data.draw(st.booleans()):
                argv += ["--threads", data.draw(_ints)]
        if command == "check" and data.draw(st.booleans()):
            argv += ["--primes", data.draw(_prime_list(d))]
        if command == "check" and data.draw(st.booleans()):
            argv += ["--seed", data.draw(_ints)]
    return [command, *argv] + (["--pretty"] if data.draw(st.booleans()) else [])


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_contract")


@pytest.mark.parametrize(
    "family",
    [("combinatorics", "spectrum"), ("h2f", "check"), ("count", "hodge-from-counts"), ("local-hodge", "fermat")],
    ids="+".join,
)
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_cli_contract(contract_dir, family, data):
    argv = _draw_argv(data, data.draw(st.sampled_from(family)), contract_dir)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out, pretty = stdout.getvalue(), "--pretty" in argv
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""  # usage errors go to stderr
    elif code == 0:
        assert pretty or isinstance(json.loads(out), dict)
    elif argv[0] == "check" and not pretty and '"all_pass"' in out:
        assert json.loads(out)["all_pass"] is False  # a failed consistency check is a report, not an error
    elif not (argv[0] == "check" and pretty and out.endswith("SOME CHECKS FAILED\n")):
        payload = json.loads(out)
        assert list(payload) == ["error", "message"]
        assert all(isinstance(v, str) for v in payload.values())


def _src_env() -> dict[str, str]:
    """This environment with the checkout's src first on PYTHONPATH, never an installed copy."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def test_module_invocation_matches_golden():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "milnorhodge.cli", "fermat", "--d", "9"],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "fermat_9.json").read_text()


def test_a_prime_above_the_counting_bound_is_bad_at_once():
    # 2^61 - 1 is a prime = 1 (mod 3): trial division up to its square root never returned
    import subprocess
    import sys

    from milnorhodge.pointcount import MAX_PRIME

    primes = "2305843009213693951,7,13,19"
    argv = ["count", "--arrangement", str(DATA / "boolean.txt"), "--target", "complement", "--primes", primes]
    proc = subprocess.run(
        [sys.executable, "-m", "milnorhodge.cli", *argv], capture_output=True, text=True, env=_src_env(), timeout=10
    )
    assert proc.returncode == 1
    assert json.loads(proc.stdout) == {
        "error": "bad_prime",
        "message": f"{2**61 - 1} is above the counting bound {MAX_PRIME}",
    }


# the commands that never count points, each with its golden output
_WEAK_DATA_RUNS = [
    (["spectrum", "--arrangement", str(DATA / "ceva.txt")], "spectrum_ceva.json"),
    (["combinatorics", "--arrangement", str(DATA / "boolean.txt")], "combinatorics_boolean.json"),
    (
        ["h2f", "--arrangement", str(DATA / "ceva.txt"), "--h3x", str(DATA / "ceva_h3x.json")],
        "h2f_ceva.json",
    ),
    (["local-hodge", "--k", "3", "--d", "9"], "local_hodge_3_9.json"),
    (["fermat", "--d", "9"], "fermat_9.json"),
]


def test_weak_data_commands_do_not_import_numpy():
    # only point counting needs numpy; the other commands must not pay for its import
    import subprocess
    import sys

    script = "import sys\nfrom milnorhodge import cli\n"
    for argv, _ in _WEAK_DATA_RUNS:
        script += (
            f"assert cli.main({argv!r}) == 0\n"
            f"assert 'numpy' not in sys.modules, 'numpy was imported by {argv[0]}'\n"
        )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "".join((GOLDEN / name).read_text() for _, name in _WEAK_DATA_RUNS)
