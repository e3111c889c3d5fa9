import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milnorhodge.arrangement import (
    LineArrangement,
    ProjLine,
    WeakCombData,
    boolean_arrangement,
    ceva_arrangement,
    epoly_V,
    intersection_data,
    parse_arrangement,
    random_rational_arrangement,
    weak_comb_data,
)
from milnorhodge.errors import DuplicateLine, ParseError, ZeroForm
from milnorhodge.repring import HodgeTable, ReprClass


# ---------------------------------------------------------------------------
# parsing and canonicalization


def test_parse_boolean():
    arr = parse_arrangement("1 0 0\n0 1 0\n0 0 1\n")
    assert arr.d == 3
    assert arr == boolean_arrangement()


def test_parse_supports_comments_and_slashes():
    arr = parse_arrangement("# triangle\n1 0 0 / 0 1 0\n0 0 1\n")
    assert arr == boolean_arrangement()


def test_parse_duplicate_after_canonicalization():
    with pytest.raises(DuplicateLine):
        parse_arrangement("1 0 0\n2 0 0\n")


def test_parse_zero_form():
    with pytest.raises(ZeroForm):
        parse_arrangement("1 0 0\n0 0 0\n")


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_arrangement("1 0\n")
    with pytest.raises(ParseError):
        parse_arrangement("1 0 x\n")
    with pytest.raises(ParseError):
        parse_arrangement("")
    with pytest.raises(ParseError):
        parse_arrangement("builtin: nosuch\n")
    with pytest.raises(ParseError):
        parse_arrangement("1 0 0\nbuiltin: ceva\n")


def test_parse_ceva_builtin():
    arr = parse_arrangement("builtin: ceva\n")
    assert arr == ceva_arrangement()
    assert arr.d == 9


def test_line_canonical_form():
    assert ProjLine.from_coeffs(-2, 4, -6) == ProjLine(1, -2, 3)
    assert ProjLine.from_coeffs(0, -3, -9) == ProjLine(0, 1, 3)


_coeff = st.integers(-9, 9)
_lines = st.tuples(_coeff, _coeff, _coeff).filter(any).map(lambda t: ProjLine.from_coeffs(*t))
# what may follow a written form: newlines, "/" separators and "#" comments
_separators = st.sampled_from(["\n", "/", " / ", "\n# note 1 2 3 / 4 5 6\n", "\n\n  # note\n"])


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(st.lists(_lines, min_size=1, max_size=8, unique=True), st.data())
def test_written_lines_parse_back(lines, data):
    arr = LineArrangement(tuple(lines))
    text = "# a written arrangement\n"
    for coeffs in arr.describe()["lines"]:
        text += " ".join(str(c) for c in coeffs) + data.draw(_separators)
    assert parse_arrangement(text) == arr


# ---------------------------------------------------------------------------
# intersection data


def test_boolean_intersections():
    pts = intersection_data(boolean_arrangement())
    assert len(pts) == 3
    assert all(p.multiplicity == 2 for p in pts)
    assert {p.point for p in pts} == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def _brute_force_pairwise(lines):
    """Independent oracle: solve each pair over Q and deduplicate."""
    found = {}
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            (a1, b1, c1), (a2, b2, c2) = lines[i].coeffs, lines[j].coeffs
            x = Fraction(b1 * c2 - c1 * b2)
            y = Fraction(c1 * a2 - a1 * c2)
            z = Fraction(a1 * b2 - b1 * a2)
            for lead in (x, y, z):
                if lead:
                    key = (x / lead, y / lead, z / lead)
                    break
            found.setdefault(key, set()).update((i, j))
    return found


def test_generic_four_lines_give_six_double_points(data_dir):
    arr = parse_arrangement((data_dir / "generic4.txt").read_text())
    pts = intersection_data(arr)
    oracle = _brute_force_pairwise(arr.lines)
    assert len(pts) == len(oracle) == 6
    assert all(p.multiplicity == 2 for p in pts)
    assert sorted(map(sorted, (p.incident for p in pts))) == sorted(
        map(sorted, oracle.values())
    )


def test_ceva_intersections():
    pts = intersection_data(ceva_arrangement())
    assert len(pts) == 12
    assert all(p.multiplicity == 3 for p in pts)
    # every incidence triple is distinct and covers all C(9,2) pairs once
    pairs = set()
    for p in pts:
        inc = sorted(p.incident)
        for i in range(3):
            for j in range(i + 1, 3):
                pair = (inc[i], inc[j])
                assert pair not in pairs
                pairs.add(pair)
    assert len(pairs) == math.comb(9, 2)


# ---------------------------------------------------------------------------
# weak combinatorial data


def test_weak_data_examples(generic3):
    assert weak_comb_data(ceva_arrangement()).counts == {3: 12}
    assert weak_comb_data(boolean_arrangement()).counts == {2: 3}
    assert weak_comb_data(generic3).counts == {2: 3}


def test_weak_data_generic_positions():
    rng = random.Random(3)
    for _ in range(20):
        arr = random_rational_arrangement(rng, rng.randint(2, 6))
        w = weak_comb_data(arr)
        assert sum(n * math.comb(k, 2) for k, n in w.m) == math.comb(arr.d, 2)


def test_weak_data_rejects_bad_census():
    with pytest.raises(ValueError):
        WeakCombData.make(3, {2: 2})  # covers 2 pairs, needs 3


# ---------------------------------------------------------------------------
# combinatorial invariants


def test_ceva_invariants():
    w = weak_comb_data(ceva_arrangement())
    assert (w.b1M, w.b2M, w.chiM, w.chiF) == (8, 16, 9, 81)
    assert w.charpoly == (1, -9, 24, -16)


def test_boolean_invariants():
    w = weak_comb_data(boolean_arrangement())
    assert (w.b1M, w.b2M, w.chiM, w.chiF) == (2, 1, 0, 0)
    assert w.charpoly == (1, -3, 3, -1)
    assert w.charpoly_value(7) == 6**3


def test_invariants_depend_only_on_weak_data(generic3):
    # the invariants are properties of WeakCombData, so equal weak data suffice
    assert weak_comb_data(generic3) == weak_comb_data(boolean_arrangement())


def test_charpoly_factors_for_ceva():
    w = weak_comb_data(ceva_arrangement())
    for t in range(-3, 10):
        assert w.charpoly_value(t) == (t - 1) * (t - 4) ** 2


# ---------------------------------------------------------------------------
# E-polynomial of the union


def test_epoly_V_ceva():
    t = epoly_V(weak_comb_data(ceva_arrangement()))
    assert t == HodgeTable(
        9, {(1, 1): ReprClass.trivial(9, 9), (0, 0): ReprClass.trivial(9, -15)}
    )


def test_epoly_V_single_line():
    arr = LineArrangement((ProjLine(1, 0, 0),))
    t = epoly_V(weak_comb_data(arr))
    assert t == HodgeTable(1, {(1, 1): ReprClass.trivial(1), (0, 0): ReprClass.trivial(1)})


def test_epoly_V_boolean():
    t = epoly_V(weak_comb_data(boolean_arrangement()))
    assert t == HodgeTable(3, {(1, 1): ReprClass.trivial(3, 3)})
