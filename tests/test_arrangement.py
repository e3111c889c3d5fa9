import inspect
import math
import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA, boolean_arrangement
from milnorhodge.arrangement import (
    CevaArrangement,
    LineArrangement,
    WeakCombData,
    _canonical_triple,
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


def test_parse_signed_ascii_integers_only():
    assert parse_arrangement("+2 0 -1\n0 +1 0\n").lines == ((2, 0, -1), (0, 1, 0))
    for token in ("1_0", "\u0663", "\uff11", "+-1", "0x1", "1.0", "+"):
        with pytest.raises(ParseError, match="non-integer coefficient"):
            parse_arrangement(f"1 {token} 0\n")


@pytest.mark.parametrize("space", ["\t", "\x1f", "\u3000", " \xa0 "], ids=["tab", "unit-sep", "ideographic", "nbsp"])
def test_parse_splits_forms_at_any_unicode_whitespace(space):
    # the one-pattern parse and the token diagnosis agree on what separates coefficients
    assert parse_arrangement(f"1{space}0{space}0\n0 1 0 / 0{space}0{space}1\n") == boolean_arrangement()
    with pytest.raises(ParseError, match="expected three integers"):
        parse_arrangement(f"1{space}0\n")


def test_parse_ceva_builtin():
    arr = parse_arrangement("builtin: ceva\n")
    assert arr == ceva_arrangement() == CevaArrangement()
    assert arr.d == 9
    for kind in (arr, boolean_arrangement()):  # one interface: d, forms_mod(q), describe()
        assert list(inspect.signature(kind.forms_mod).parameters) == ["q"]
        assert not hasattr(kind, "bad_modulus")
    assert arr.describe() == {"kind": "builtin", "builtin": "ceva", "d": 9}
    with pytest.raises(ParseError, match="unknown builtin arrangement 'nosuch'"):
        parse_arrangement("builtin: nosuch\n")
    with pytest.raises(ParseError, match="no lines found"):
        LineArrangement(())


def test_line_canonical_form():
    assert LineArrangement(((-2, 4, -6), (0, -3, -9))).lines == ((1, -2, 3), (0, 1, 3))


@pytest.mark.parametrize("coeff", [1.5, 2.0, Fraction(3, 1), "1"])
def test_non_integer_coefficients_raise_instead_of_truncating(coeff):
    with pytest.raises(TypeError):
        LineArrangement(((coeff, 0, 0), (0, 1, 0), (0, 0, 1)))


def test_integer_like_coefficients_become_python_ints():
    np = pytest.importorskip("numpy")
    arr = LineArrangement(((np.int64(-4), np.int64(2), True), (0, 1, 0)))
    assert arr.lines == ((4, -2, -1), (0, 1, 0))
    assert all(type(v) is int for line in arr.lines for v in line)


_coeff = st.integers(-9, 9)
_lines = st.tuples(_coeff, _coeff, _coeff).filter(any).map(lambda t: _canonical_triple(*t))
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
    assert all(len(lines) == 2 for lines in pts.values())
    assert set(pts) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def _brute_force_pairwise(lines):
    """Independent oracle: solve each pair over Q and deduplicate."""
    found = {}
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            (a1, b1, c1), (a2, b2, c2) = lines[i], lines[j]
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
    assert all(len(lines) == 2 for lines in pts.values())
    assert sorted(map(sorted, pts.values())) == sorted(
        map(sorted, oracle.values())
    )


def _scaled(point):
    lead = next(v for v in point if v)
    return tuple(Fraction(v, lead) for v in point)


_small = st.integers(-4, 4)
_small_lines = st.tuples(_small, _small, _small).filter(any).map(lambda t: _canonical_triple(*t))
# a pencil of lines through (0 : 0 : 1) plus a few other lines, most of them off its centre
_near_pencils = st.tuples(
    st.lists(_small, min_size=2, max_size=7, unique=True),
    st.lists(_small_lines, min_size=1, max_size=3),
).map(lambda t: list(dict.fromkeys([(1, k, 0) for k in t[0]] + t[1])))
# forms as written, not canonical: coefficients up to 10^40 (cross products near 10^80),
# and small forms scaled so that their first nonzero coefficient is negative
_huge = st.integers(-(10**40), 10**40)
_huge_forms = st.tuples(_huge, _huge, _huge).filter(any)
_negative_leading_forms = st.tuples(_small_lines, st.integers(-(10**40), -1)).map(
    lambda t: tuple(t[1] * v for v in t[0])
)


def _one_per_line(forms):
    """The forms minus those proportional to an earlier one."""
    first = {}
    for form in forms:
        first.setdefault(_canonical_triple(*form), form)
    return list(first.values())


_rational_forms = st.one_of(
    st.lists(_small_lines, min_size=2, max_size=10, unique=True),
    _near_pencils,
    st.lists(_huge_forms, min_size=2, max_size=10).map(_one_per_line),
    st.lists(_negative_leading_forms | _huge_forms, min_size=2, max_size=10).map(_one_per_line),
).filter(lambda forms: len(forms) >= 2)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_rational_forms)
def test_intersection_data_matches_the_rational_oracle(lines):
    arr = LineArrangement(tuple(lines))
    for line, form in zip(arr.lines, lines):  # content one, first nonzero positive, same line
        assert math.gcd(*line) == 1 and next(v for v in line if v) > 0
        assert _scaled(line) == _scaled(form)
    pts = intersection_data(arr)
    assert list(pts) == sorted(pts)
    assert {_scaled(pt): set(idx) for pt, idx in pts.items()} == _brute_force_pairwise(arr.lines)


def test_ceva_intersections():
    pts = intersection_data(ceva_arrangement())
    assert len(pts) == 12
    assert all(len(lines) == 3 for lines in pts.values())
    # every incidence triple is distinct and covers all C(9,2) pairs once
    pairs = set()
    for lines in pts.values():
        inc = sorted(lines)
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


def _point_census(arr):
    return WeakCombData.make(arr.d, Counter(map(len, intersection_data(arr).values())))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_rational_forms)
def test_group_census_equals_point_census(lines):
    arr = LineArrangement(tuple(lines))
    assert weak_comb_data(arr) == _point_census(arr)


def _near_pencil(d):
    """d - 1 lines through (0 : 0 : 1), with the line z = 0 among them in the middle."""
    lines = [(1, k, 0) for k in range(d - 1)]
    lines.insert(d // 2, (0, 0, 1))
    return LineArrangement(tuple(lines))


@pytest.mark.parametrize(
    "arr, census",
    [
        (LineArrangement(tuple((1, k, 0) for k in range(6))), {6: 1}),
        (LineArrangement(((1, 2, 3), (0, 1, 0))), {2: 1}),
        (boolean_arrangement(), {2: 3}),
        (parse_arrangement((DATA / "pappus.txt").read_text()), {2: 9, 3: 9}),
        (parse_arrangement((DATA / "nonpappus.txt").read_text()), {2: 9, 3: 9}),
    ]
    + [(_near_pencil(d), dict(Counter({d - 1: 1}) + Counter({2: d - 1}))) for d in range(3, 36)],
    ids=["pencil", "two lines", "boolean", "pappus", "nonpappus"] + [f"near-pencil{d}" for d in range(3, 36)],
)
def test_group_census_examples(arr, census):
    assert weak_comb_data(arr).counts == census
    assert _point_census(arr).counts == census


@pytest.mark.parametrize(
    "forms",
    [
        [(1, 2, 3), (1, 0, 1), (0, 1, 1), (1, 1, 2), (0, 0, 1)],  # through (1 : 1 : -1)
        [(1, 2, 0), (0, 5, 1), (1, 7, 1), (3, 1, -1), (0, 0, 1)],  # through (2 : -1 : 5)
        [(1, 0, 0), (0, 1, -1), (1, 1, -1), (2, 1, -1), (0, 0, 1)],  # through (0 : 1 : 1)
    ],
    ids=["c nonzero", "c zero, b nonzero", "the line x = 0"],
)
def test_group_census_in_each_key_branch(forms):
    # the first line keys the later lines by (x, y), (x, z) and (y, z) respectively;
    # it and the next three lines meet in one quadruple point
    arr = LineArrangement(tuple(forms))
    assert arr.lines == tuple(forms)
    w = weak_comb_data(arr)
    assert w == _point_census(arr) and w.counts[4] == 1


def test_group_census_holds_one_line_of_keys_at_a_time():
    # the keys of all C(400, 2) line pairs held at once peak near 12 MiB
    arr = random_rational_arrangement(random.Random(1), 400, 40)
    tracemalloc.start()
    try:
        w = weak_comb_data(arr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert w == _point_census(arr)


def test_random_arrangement_refuses_more_lines_than_its_bound_allows():
    # 289 primitive triples up to sign have coefficients in [-4, 4]: a 290th line would never be drawn
    arr = random_rational_arrangement(random.Random(0), 289)
    assert len(set(arr.lines)) == 289 and max(abs(v) for line in arr.lines for v in line) == 4
    with pytest.raises(ValueError, match=re.escape("only 289 lines have coefficients in [-4, 4], not 290")):
        random_rational_arrangement(random.Random(0), 290)
    for bound, lines in ((2, 49), (9, 2881)):
        with pytest.raises(ValueError, match=f"only {lines} lines"):
            random_rational_arrangement(random.Random(0), lines + 1, bound)


def test_weak_data_rejects_bad_census():
    with pytest.raises(ValueError):
        WeakCombData.make(3, {2: 2})  # covers 2 pairs, needs 3
    for census in ({1: 3}, {2: 4, 3: -1}):  # a key below 2, a negative count
        with pytest.raises(ValueError, match="census keys must be >= 2 with nonnegative counts"):
            WeakCombData.make(3, census)


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
    arr = LineArrangement(((1, 0, 0),))
    t = epoly_V(weak_comb_data(arr))
    assert t == HodgeTable(1, {(1, 1): ReprClass.trivial(1), (0, 0): ReprClass.trivial(1)})


def test_epoly_V_boolean():
    t = epoly_V(weak_comb_data(boolean_arrangement()))
    assert t == HodgeTable(3, {(1, 1): ReprClass.trivial(3, 3)})
