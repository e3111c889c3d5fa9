"""Acceptance suite: one test per stated criterion, printed as PASS/FAIL lines.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the lines
also for passing criteria).
"""

import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import ceva_h3
from milnorhodge.arrangement import (
    boolean_arrangement,
    ceva_arrangement,
    parse_arrangement,
    random_rational_arrangement,
    weak_comb_data,
)
from milnorhodge.assembly import (
    SurfaceH3Data,
    assemble_all,
    fermat_surface_table,
    spectrum,
)
from milnorhodge.cli import main as cli_main
from milnorhodge.localhodge import OrdinarySing, local_hodge_table
from milnorhodge.pointcount import (
    brute_force_count,
    complement_count,
    count_classes,
    count_tables,
    fiber_fit,
    good_primes,
    hodge_from_counts,
    twisted_counts,
)
from milnorhodge.repring import HodgeTable, ReprClass

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def record(number: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {description}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_01_local_hodge_table_k3_d9():
    start = time.perf_counter()
    table = local_hodge_table(OrdinarySing(3, 9)).table
    elapsed = time.perf_counter() - start
    ok = (
        table.entry(2, 1) == ReprClass.character(9, 6)
        and table.entry(1, 2) == ReprClass.character(9, 3)
        and table.entry(2, 0) == ReprClass.character(9, 7) + ReprClass.character(9, 8)
        and all(table.entry(1, 1)[j] == 3 for j in (1, 2, 3, 6, 7, 8))
        and all(table.entry(1, 1)[j] == 4 for j in (4, 5))
        and table.specialize_weight()[3].dim() == 2
        and table.specialize_weight()[2].dim() == 30
        and table.total_dim() == 32
        and elapsed < 1.0
    )
    record(1, "local Hodge table (k=3, d=9) matches the reference exactly", ok,
           f"{elapsed:.3f}s")


def test_criterion_02_dimension_law():
    start = time.perf_counter()
    ok = all(
        local_hodge_table(OrdinarySing(k, d)).table.total_dim() == (k - 1) ** 2 * (d - 1)
        for d in range(2, 13)
        for k in range(2, d + 1)
    )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    record(2, "total local multiplicity is (k-1)^2 (d-1) for 2 <= k <= d <= 12", ok,
           f"{elapsed:.3f}s")


def test_criterion_03_fermat_tables():
    t9 = fermat_surface_table(9)
    ok = t9.entry(2, 0)[3] == 1 and t9.entry(2, 0)[8] == 21
    ok = ok and all(
        fermat_surface_table(d).entry(2, 0).dim() == math.comb(d - 1, 3)
        for d in range(3, 13)
    )
    record(3, "Fermat tables: binomial values and holomorphic totals", ok)


def test_criterion_04_ceva_spectrum_from_weak_data():
    spec = spectrum(weak_comb_data(ceva_arrangement()))
    ok = (
        spec.m(1) == 16
        and spec.m(2) == -8
        and spec.m(3) == 0
        and spec.m(Fraction(4, 3)) == -2
        and spec.total() == 80
        and spec.chi_fiber - 1 == 80
    )
    record(4, "Ceva spectrum: m_1=16, m_2=-8, m_3=0, m_{4/3}=-2, sum=80", ok)


def test_criterion_05_ceva_assembly_headline():
    report = assemble_all(weak_comb_data(ceva_arrangement()), ceva_h3())
    dims_ok = report.h1f.dim_of_character(3) == 2 and report.h1f.dim_of_character(6) == 2
    euler_ok = all(
        -report.h1f.dim_of_character(j) + report.h2f.dim_of_character(j) == 9
        for j in range(1, 9)
    )
    headline = report.h2f.entry(1, 2)[3]
    record(
        5,
        "Ceva assembly: h^{1,2}(H2(F), lam^3) = 10, dim H1(F) eigenspaces = 2, "
        "Euler identity = 9",
        dims_ok and euler_ok and headline == 10,
        f"computed h^(1,2)(H2F, lam^3) = {headline}; dims pass = {dims_ok}; "
        f"Euler pass = {euler_ok}",
    )


def test_criterion_06_weight_vanishing():
    fixtures = [(ceva_arrangement(), ceva_h3(m)) for m in (2, 3, 5, 8, 12)]
    fixtures.append((boolean_arrangement(), SurfaceH3Data.zero(3)))
    fixtures.append((parse_arrangement((DATA / "generic3.txt").read_text()), SurfaceH3Data.zero(3)))
    ok = True
    for arr, h3 in fixtures:
        report = assemble_all(weak_comb_data(arr), h3)
        ok = ok and all(p + q == 1 for (p, q) in report.h1f.support())
        ok = ok and all(p + q != 4 for (p, q) in report.h2f.support())
    record(6, "assembled H1(F) pure weight 1 and H2(F) free of weight 4", ok)


def test_criterion_07_point_count_oracle():
    start = time.perf_counter()
    generic3 = parse_arrangement((DATA / "generic3.txt").read_text())
    ok = True
    for arr in (boolean_arrangement(), generic3):
        for q in (7, 13, 19, 31):
            fast, slow = count_classes(arr, q), brute_force_count(arr, q)
            ok = ok and fast.class_counts == slow.class_counts
            ok = ok and fast.zero_count == slow.zero_count
    rng = random.Random(2024)
    for _ in range(10):
        arr = random_rational_arrangement(rng, rng.randint(3, 5))
        w = weak_comb_data(arr)
        for field in good_primes(arr, 3, min_q=arr.d + 2):
            table = count_classes(arr, field.p)
            ok = ok and complement_count(table) == w.charpoly_value(field.p)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    record(7, "stratified counts match brute force and the characteristic polynomial",
           ok, f"{elapsed:.1f}s")


def test_criterion_08_boolean_extraction():
    tables = count_tables(boolean_arrangement(), [7, 13, 19, 31])
    fit = fiber_fit(tables, 3)
    expected = (Fraction(1), Fraction(-2), Fraction(1))
    ok = fit.is_polynomial() and fit.per_twist == (expected,) * 3
    epoly = hodge_from_counts(fit, 3)
    triv = ReprClass.trivial(3)
    ok = ok and epoly == HodgeTable(3, {(2, 2): triv, (1, 1): -2 * triv, (0, 0): triv})
    record(8, "Boolean fiber counts fit (t-1)^2 per twist and extract (xy-1)^2", ok)


def test_criterion_09_ceva_verdict_recorded():
    start = time.perf_counter()
    primes = [f.p for f in good_primes(ceva_arrangement(), 5, min_q=19)]
    tables = count_tables(ceva_arrangement(), primes, threads=4)
    fit = fiber_fit(tables, 9)
    elapsed = time.perf_counter() - start
    golden = json.loads((GOLDEN / "hodge_from_counts_ceva_fiber.json").read_text())
    if fit.is_polynomial():
        verdict_matches = "epoly" in golden
        detail = "polynomial"
    else:
        verdict_matches = (
            golden.get("result") == "not_polynomial_count"
            and golden.get("witness") == fit.first_witness()
        )
        detail = f"not polynomial, witness {fit.first_witness()}"
    ok = elapsed < 60.0 and primes == [19, 37, 73, 109, 127] and verdict_matches
    record(9, "Ceva fiber counting gives a definite recorded verdict in time", ok,
           f"{detail}; {elapsed:.1f}s")


def _run_cli(capsys, *argv) -> str:
    code = cli_main(list(argv))
    assert code == 0
    return capsys.readouterr().out


def test_criterion_10_determinism(capsys):
    jobs = [
        ["count", "--arrangement", str(DATA / "boolean.txt"), "--target", "fiber",
         "--primes", "7,13,19,31"],
        ["count", "--arrangement", str(DATA / "generic3.txt"), "--target", "complement",
         "--primes", "7,13,19,31,37"],
        ["hodge-from-counts", "--arrangement", str(DATA / "ceva.txt"), "--target", "fiber",
         "--primes", "19,37,73,109,127"],
    ]
    ok = True
    for argv in jobs:
        one = _run_cli(capsys, *argv, "--threads", "1")
        eight = _run_cli(capsys, *argv, "--threads", "8")
        ok = ok and one == eight
    record(10, "byte-identical JSON with --threads 1 and --threads 8", ok)
