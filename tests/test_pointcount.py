import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from milnorhodge.arrangement import (
    LineArrangement,
    _canonical_triple,
    boolean_arrangement,
    ceva_arrangement,
    parse_arrangement,
    random_rational_arrangement,
    weak_comb_data,
)
from milnorhodge.errors import BadPrime, DecodeError, NotEnoughPrimes, NotPolynomialCount
from milnorhodge.pointcount import (
    MAX_PRIME,
    CountTable,
    FittedPoly,
    PrimeField,
    brute_force_count,
    check_primes,
    complement_count,
    complement_fit,
    count_classes,
    count_tables,
    fiber_fit,
    fit_polynomials,
    good_primes,
    hodge_from_counts,
    twisted_counts,
)
from milnorhodge.repring import HodgeTable, ReprClass


# ---------------------------------------------------------------------------
# prime selection


def test_good_primes_for_ceva():
    primes = [f.p for f in good_primes(ceva_arrangement(), 5, min_q=19)]
    assert primes == [19, 37, 73, 109, 127]


def test_good_primes_single_line():
    arr = parse_arrangement("1 0 0\n")
    assert [f.p for f in good_primes(arr, 3, min_q=2)] == [2, 3, 5]


def test_degenerate_prime_excluded(data_dir):
    # x, y, x + y + 7z: the three lines become concurrent modulo 7
    arr = parse_arrangement((data_dir / "degenerate7.txt").read_text())
    primes = [f.p for f in good_primes(arr, 2, min_q=3)]
    assert 7 not in primes
    assert primes == [13, 19]
    with pytest.raises(BadPrime):
        count_classes(arr, 7)


def test_lines_off_canonical_form_reduce_by_their_content():
    # 7x = 0 is stored as x = 0, which no prime makes vanish
    arr = LineArrangement(((7, 0, 0),))
    assert arr.lines == ((1, 0, 0),)
    assert [f.p for f in good_primes(arr, 4)] == [2, 3, 5, 7]


# The reference for the bad modulus: the census of the reduced lines over F_q,
# from normalizing every reduced line and every pairwise cross product in
# P^2(F_q) and tallying the lines through each meeting point.


def _normalize_mod(triple, q):
    """Point of P^2(F_q) with first nonzero coordinate 1; None for a zero triple."""
    t = tuple(v % q for v in triple)
    for v in t:
        if v:
            inv = pow(v, q - 2, q)
            return tuple(w * inv % q for w in t)
    return None


def _census_mod_q(lines, q):
    """Multiplicity census of the reduced lines; None when a line vanishes or two coincide."""
    if len({_normalize_mod(t, q) for t in lines} - {None}) != len(lines):
        return None
    incident = {}
    for i, (a1, b1, c1) in enumerate(lines):
        for j in range(i + 1, len(lines)):
            a2, b2, c2 = lines[j]
            pt = _normalize_mod((b1 * c2 - c1 * b2, c1 * a2 - a1 * c2, a1 * b2 - b1 * a2), q)
            incident.setdefault(pt, set()).update((i, j))
    census = {}
    for idx in incident.values():
        census[len(idx)] = census.get(len(idx), 0) + 1
    return census


def _assert_bad_modulus_matches_census(arr, lines_mod, primes):
    counts = weak_comb_data(arr).counts
    for q in primes:
        good = _census_mod_q(lines_mod(q), q) == counts
        assert (arr.bad_modulus % q != 0) == good, (arr, q)


_PRIMES_BELOW_400 = [q for q in range(2, 400) if all(q % f for f in range(2, q))]


def _rational_mod(arr):
    return lambda q: [tuple(v % q for v in line) for line in arr.lines]


@pytest.mark.parametrize("coeff_bound", [2, 4, 9])
def test_bad_modulus_matches_census_mod_q_on_random_arrangements(coeff_bound):
    rng = random.Random(coeff_bound)
    for d in range(1, 15):
        for _ in range(3):
            arr = random_rational_arrangement(rng, d, coeff_bound)
            _assert_bad_modulus_matches_census(arr, _rational_mod(arr), _PRIMES_BELOW_400)


@pytest.mark.parametrize("d", range(2, 11))
def test_bad_modulus_matches_census_mod_q_on_pencils(d):
    # lines through (0:0:1) and through (1:1:1), each alone and with one more
    # line that misses the centre (a near-pencil)
    for pencil, extra in (
        ([(1, k, 0) for k in range(d)], (0, 0, 1)),
        ([(k, 1, -1 - k) for k in range(-d // 2, d - d // 2)], (1, 2, 4)),
    ):
        for coeffs in (pencil, pencil + [extra]):
            arr = LineArrangement(tuple(coeffs))
            _assert_bad_modulus_matches_census(arr, _rational_mod(arr), _PRIMES_BELOW_400)


def test_bad_modulus_matches_census_mod_q_on_ceva():
    arr = ceva_arrangement()

    def lines_mod(q):
        w = next(x for x in range(2, q) if pow(x, 3, q) == 1)
        cube_roots = [pow(w, j, q) for j in range(3)]
        return (
            [(1, -r % q, 0) for r in cube_roots]
            + [(1, 0, -r % q) for r in cube_roots]
            + [(0, 1, -r % q) for r in cube_roots]
        )

    primes = [q for q in range(19, 3000, 18) if all(q % f for f in range(2, int(q**0.5) + 1))]
    assert len(primes) > 60
    _assert_bad_modulus_matches_census(arr, lines_mod, primes)


def test_bad_prime_wrong_residue():
    with pytest.raises(BadPrime):
        count_classes(boolean_arrangement(), 5)  # 5 != 1 mod 3


def test_not_enough_primes_below_bound():
    with pytest.raises(NotEnoughPrimes):
        good_primes(ceva_arrangement(), 3, min_q=19, bound=40)


def test_good_primes_zero_count_is_empty():
    # returns at once: a bound with no prime q = 1 (mod 9) below it cannot raise
    assert good_primes(ceva_arrangement(), 0, bound=3) == []


def test_good_primes_negative_count_rejected():
    with pytest.raises(ValueError):
        good_primes(ceva_arrangement(), -1)


def _good_primes_by_scan(arr, min_q: int, bound: int) -> list[int]:
    return [
        q
        for q in range(min_q, bound + 1)
        if q > 1
        and all(q % f for f in range(2, math.isqrt(q) + 1))
        and (q - 1) % arr.d == 0
        and arr.bad_modulus % q
    ]


@pytest.mark.parametrize(
    "arr",
    [boolean_arrangement(), ceva_arrangement()]
    + [random_rational_arrangement(random.Random(40 + d), d) for d in range(1, 13)],
    ids=["boolean", "ceva"] + [f"random{d}" for d in range(1, 13)],
)
def test_good_primes_equal_a_plain_scan(arr):
    for min_q in (-4, 0, 1, 2, 3, 20, 50, 102, 311):
        for bound in (10, 97, 400, 1200):
            expected = _good_primes_by_scan(arr, min_q, bound)
            for count in (1, 4, 9):
                if len(expected) >= count:
                    found = good_primes(arr, count, min_q=min_q, bound=bound)
                    assert [f.p for f in found] == expected[:count], (min_q, bound, count)
                else:
                    with pytest.raises(NotEnoughPrimes):
                        good_primes(arr, count, min_q=min_q, bound=bound)


def test_prime_field_generators():
    assert PrimeField.make(7).g == 3
    assert PrimeField.make(13).g == 2
    with pytest.raises(BadPrime):
        PrimeField.make(9)


def test_is_prime_equals_trial_division_and_rejects_strong_pseudoprimes():
    from milnorhodge.pointcount import _is_prime

    assert [_is_prime(n) for n in range(20_000)] == [
        n > 1 and all(n % f for f in range(2, math.isqrt(n) + 1)) for n in range(20_000)
    ]
    # the least strong pseudoprimes to the first 1, 2, ..., 11 prime bases, and two Carmichael numbers
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051, 561, 1729):
        assert not _is_prime(n), n
    assert _is_prime(2**61 - 1) and _is_prime(2**89 - 1) and _is_prime(2**127 - 1)


def test_primes_above_the_counting_bound_are_bad_before_any_primality_test(monkeypatch):
    import milnorhodge.pointcount as pointcount

    boolean = boolean_arrangement()
    check_primes(boolean, [2097133])  # the largest prime = 1 (mod 3) below the bound
    monkeypatch.setattr(pointcount, "_is_prime", lambda n: pytest.fail(f"tested {n} for primality"))
    for q in (2097169, 2**61 - 1, 10**1999 + 1):  # the least such prime above it, and beyond
        assert q > MAX_PRIME
        with pytest.raises(BadPrime, match="above the counting bound"):
            check_primes(boolean, [q, 7])


# ---------------------------------------------------------------------------
# counting


def test_boolean_counts_q7():
    table = count_classes(boolean_arrangement(), 7)
    assert sum(table.class_counts) + table.zero_count == 7**3
    tw = twisted_counts(table, 3)
    assert tw == {0: 36, 1: 36, 2: 36}  # (q-1)^2 for every twist
    assert complement_count(table) == 6**3


def test_partition_identity_everywhere():
    for arr, q in ((boolean_arrangement(), 13), (ceva_arrangement(), 19)):
        t = count_classes(arr, q)
        assert sum(t.class_counts) + t.zero_count == q**3


@pytest.mark.parametrize("q", [7, 13, 19, 31])
def test_stratified_equals_brute_force_boolean(q):
    arr = boolean_arrangement()
    fast, slow = count_classes(arr, q), brute_force_count(arr, q)
    assert fast.class_counts == slow.class_counts
    assert fast.zero_count == slow.zero_count


@pytest.mark.parametrize("q", [7, 13, 19, 31])
def test_stratified_equals_brute_force_generic3(q, generic3):
    fast, slow = count_classes(generic3, q), brute_force_count(generic3, q)
    assert fast.class_counts == slow.class_counts
    assert fast.zero_count == slow.zero_count


@pytest.mark.parametrize("q", [19, 37, 73])
def test_ceva_forms_multiply_to_the_binomial_product(q):
    # independent route for Ceva's reduction: the nine reduced forms multiply
    # to (x^3 - y^3)(x^3 - z^3)(y^3 - z^3) at every point of F_q^3
    import numpy as np

    from milnorhodge.pointcount import _lines_mod_q, _q_values

    _, lines = _lines_mod_q(ceva_arrangement(), q)
    rng = np.arange(q, dtype=np.int64)
    x, y, z = (a.ravel() for a in np.meshgrid(rng, rng, rng, indexing="ij"))
    x3, y3, z3 = (v * v % q * v % q for v in (x, y, z))
    cubic = (x3 - y3) % q * ((x3 - z3) % q) % q * ((y3 - z3) % q) % q
    assert np.array_equal(_q_values(lines, q, x, y, z), cubic)


def test_stratified_equals_brute_force_ceva():
    arr = ceva_arrangement()
    fast, slow = count_classes(arr, 19), brute_force_count(arr, 19)
    assert fast.class_counts == slow.class_counts
    assert fast.zero_count == slow.zero_count
    assert twisted_counts(fast, 9) == twisted_counts(slow, 9)


def test_twisted_counts_equal_explicit_fiber_counts():
    # independent oracle for the twist reduction: the count for twist j must
    # equal the number of solutions of Q(y) = g^j by direct enumeration
    import numpy as np

    from milnorhodge.pointcount import _lines_mod_q, _q_values

    for arr, q in ((boolean_arrangement(), 7), (ceva_arrangement(), 19)):
        d = arr.d
        field, lines = _lines_mod_q(arr, q)
        rng = np.arange(q, dtype=np.int64)
        xs, ys, zs = np.meshgrid(rng, rng, rng, indexing="ij")
        vals = _q_values(lines, q, xs.ravel(), ys.ravel(), zs.ravel())
        tw = twisted_counts(count_classes(arr, q), d)
        for j in range(d):
            s = pow(field.g, j, q)
            assert tw[j] == int((vals == s).sum())


def test_untwisted_count_is_fiber_cardinality():
    # independent oracle: count Q(x) = 1 by direct enumeration
    import numpy as np

    from milnorhodge.pointcount import _lines_mod_q, _q_values

    for arr, q in ((boolean_arrangement(), 7), (ceva_arrangement(), 19)):
        field, lines = _lines_mod_q(arr, q)
        rng = np.arange(q, dtype=np.int64)
        xs, ys, zs = np.meshgrid(rng, rng, rng, indexing="ij")
        vals = _q_values(lines, q, xs.ravel(), ys.ravel(), zs.ravel())
        direct = int((vals == 1).sum())
        table = count_classes(arr, q)
        assert twisted_counts(table, arr.d)[0] == direct


def _product_route(arr, q: int) -> CountTable:
    # the census over P^2 by multiplying line values mod q (the oracle's arithmetic)
    import numpy as np

    from milnorhodge.pointcount import _aggregate, _lines_mod_q, _q_values

    field, lines = _lines_mod_q(arr, q)
    span = np.arange(q, dtype=np.int64)
    ys, zs = np.meshgrid(span, span, indexing="ij")
    one, zero = np.int64(1), np.int64(0)
    vals = np.concatenate([
        _q_values(lines, q, one, ys.ravel(), zs.ravel()),
        np.atleast_1d(_q_values(lines, q, zero, one, span)),
        np.atleast_1d(_q_values(lines, q, zero, zero, one)),
    ])
    classes, zeros = _aggregate(vals, field, arr.d)
    return CountTable(q, field.g, arr.d, tuple(int(c) * (q - 1) for c in classes), zeros * (q - 1) + 1)


@pytest.mark.parametrize(
    "arr, min_q",
    [(ceva_arrangement(), 1200), (random_rational_arrangement(random.Random(11), 16), 600)],
    ids=["ceva", "random16"],
)
def test_blocked_count_equals_product_route_over_many_blocks(arr, min_q):
    from milnorhodge.pointcount import _BLOCK_POINTS

    q = good_primes(arr, 1, min_q=min_q)[0].p
    rows = _BLOCK_POINTS // q
    assert q >= 3 * rows and (q + 1) % rows  # q + 1 rows: three or more blocks, the last one partial
    assert count_classes(arr, q) == _product_route(arr, q)


def test_count_classes_memory_is_bounded_in_q():
    # one int64 array over the whole chart x = 1 would already take 30 MiB at
    # these q; twelve lines also make the O(d q) per-line row starts count
    import tracemalloc

    import numpy  # noqa: F401  (keep the import itself out of the measurement)

    twelve = random_rational_arrangement(random.Random(0), 12)
    assert good_primes(twelve, 1, min_q=2017)[0].p == 2017
    for arr, q in ((boolean_arrangement(), 1999), (twelve, 2017)):
        tracemalloc.start()
        try:
            count_classes(arr, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, (arr.d, q, peak)


def test_count_tables_calls_count_classes_once_per_prime(monkeypatch):
    import milnorhodge.pointcount as pointcount

    calls = []
    real = pointcount.count_classes
    monkeypatch.setattr(pointcount, "count_classes", lambda arr, q: calls.append(q) or real(arr, q))
    primes = [7, 13, 19, 31]
    count_tables(boolean_arrangement(), primes)
    assert calls == primes
    calls.clear()
    count_tables(boolean_arrangement(), primes, threads=2)
    assert sorted(calls) == primes


@pytest.mark.parametrize(
    "coeffs, q",
    [
        ([(1, 0, 0), (0, 1, 0), (1, 1, 0)], 7),  # a pencil through (0:0:1): every c = 0
        ([(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 0)], 13),
        ([(0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 1, 1)], 13),  # the line z = 0: a = b = 0
        ([(1, 0, 1), (0, 1, 1), (1, 1, 1)], 13),  # no line has c = 0
        ([(1, 0, 1), (0, 1, 1), (1, 2, 7)], 7),  # c = 7 is nonzero over Z but 0 mod 7
    ],
    ids=["pencil3", "pencil4", "z0", "no-c0", "c0-mod-q"],
)
def test_count_classes_edge_lines_equal_brute_force(coeffs, q):
    arr = parse_arrangement("".join(f"{a} {b} {c}\n" for a, b, c in coeffs))
    assert good_primes(arr, 1, min_q=q)[0].p == q
    assert count_classes(arr, q) == brute_force_count(arr, q)


def test_fit_polynomials_fits_each_distinct_sequence_once(monkeypatch):
    import milnorhodge.pointcount as pointcount

    calls = []
    real = pointcount._lagrange
    monkeypatch.setattr(pointcount, "_lagrange", lambda pts: calls.append(pts) or real(pts))
    tables = count_tables(boolean_arrangement(), [7, 13, 19, 31, 37])
    fit = complement_fit(tables, 3)
    assert len(calls) == 1
    assert fit.per_twist == (fit.per_twist[0],) * 3 and fit.is_polynomial()


def test_bad_modulus_is_computed_once_per_arrangement(monkeypatch):
    import milnorhodge.arrangement as arrangement

    calls = []
    real = arrangement.intersection_data
    monkeypatch.setattr(arrangement, "intersection_data", lambda arr: calls.append(arr) or real(arr))
    arr = random_rational_arrangement(random.Random(5), 6)
    primes = [f.p for f in good_primes(arr, 5, min_q=100)]
    tables = count_tables(arr, primes)
    assert len(calls) == 1
    assert tables == [count_classes(arr, q) for q in primes]


def test_chiF_from_extracted_counts(generic3):
    # the degree-0 specialization of the extracted fiber polynomial is chi(F)
    for arr in (boolean_arrangement(), generic3):
        tables = count_tables(arr, [7, 13, 19, 31])
        epoly = hodge_from_counts(fiber_fit(tables, arr.d), arr.d)
        chi = sum(r.dim() for _, r in epoly.items())
        assert chi == weak_comb_data(arr).chiF


def test_twisted_sum_relates_to_complement():
    # sum_j twisted[j] = d * |complement| / (q - 1): a Burnside-style tally
    for arr, q in ((boolean_arrangement(), 13), (ceva_arrangement(), 19)):
        t = count_classes(arr, q)
        tw = twisted_counts(t, arr.d)
        assert sum(tw.values()) * (q - 1) == arr.d * complement_count(t)


def test_complement_crosscheck_fixtures(generic3):
    for arr, primes in (
        (boolean_arrangement(), [7, 13]),
        (generic3, [7, 13]),
        (ceva_arrangement(), [19]),
    ):
        w = weak_comb_data(arr)
        for table in count_tables(arr, primes):
            assert complement_count(table) == w.charpoly_value(table.q)


def test_complement_crosscheck_random_arrangements():
    rng = random.Random(97)
    for _ in range(10):
        arr = random_rational_arrangement(rng, rng.randint(3, 5))
        primes = [f.p for f in good_primes(arr, 3, min_q=arr.d + 2)]
        w = weak_comb_data(arr)
        for table in count_tables(arr, primes):
            assert complement_count(table) == w.charpoly_value(table.q), (arr, table.q)


_coeff = st.integers(-4, 4)
_lines = st.tuples(_coeff, _coeff, _coeff).filter(any).map(lambda t: _canonical_triple(*t))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.lists(_lines, min_size=3, max_size=5, unique=True))
def test_stratified_equals_brute_force_on_random_arrangements(lines):
    # the O(q^2) census against the O(q^3) oracle at every good prime q <= 31
    arr = LineArrangement(tuple(lines))
    checked = 0
    for q in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        if (q - 1) % arr.d:
            continue
        try:
            fast = count_classes(arr, q)
        except BadPrime:
            continue
        slow = brute_force_count(arr, q)
        assert fast.class_counts == slow.class_counts
        assert fast.zero_count == slow.zero_count
        checked += 1
    assume(checked)  # no good prime below 32: draw another arrangement


# lines through (0:0:1) have c = 0 and stay constant along every row; the
# others vary.  Coefficients c up to 14 make some forms vanish modulo q = 7, 11, 13
_flat_line = st.tuples(_coeff, _coeff, st.just(0)).filter(any).map(lambda t: _canonical_triple(*t))
_varying_line = st.tuples(_coeff, _coeff, st.integers(-14, 14).filter(bool)).map(
    lambda t: _canonical_triple(*t)
)
_PRIMES_BELOW_200 = [q for q in range(2, 200) if all(q % f for f in range(2, math.isqrt(q) + 1))]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(_flat_line, max_size=5, unique=True), st.lists(_varying_line, max_size=2, unique=True))
@example([(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0)], [])  # a pencil of four lines: no line varies
@example([(1, 0, 0)], [(1, 2, 7)])  # c = 7 vanishes modulo 7, where no line varies
@example([(1, 0, 0), (0, 1, 0), (1, 2, 0)], [(1, 1, 1), (2, 1, 11)])  # d = 5, and c = 11
@example([], [(1, 0, 1), (0, 1, 1)])  # d = 2, no flat line: no dead row
@example([(1, -1, 0)], [(1, 0, 1), (0, 1, 1)])  # the flat line kills the row with delta = 0
def test_rotated_rows_equal_the_window_kernel_and_brute_force(flat, varying):
    # with at most two varying lines each row is a rotated base vector; the
    # window kernel sums the same rows point by point, and the O(q^3) oracle
    # enumerates F_q^3 at q < 60
    from unittest import mock

    import milnorhodge.pointcount as pointcount

    assume(flat or varying)
    arr = LineArrangement(tuple(flat + varying))
    checked = 0
    for q in _PRIMES_BELOW_200:
        if (q - 1) % arr.d or arr.bad_modulus % q == 0:
            continue
        table = count_classes(arr, q)
        with mock.patch.object(pointcount, "_rotated_rows", pointcount._window_rows):
            assert count_classes(arr, q) == table, q
        if q < 60:
            assert brute_force_count(arr, q) == table, q
        checked += 1
        if checked == 4:
            break
    assume(checked)


# a slope class: lines a x + b y + c z sharing b/c, so one coprime (b, c), and distinct a;
# every class meets in the point (0 : c : -b) of the row r = q
_slope = st.tuples(st.integers(-3, 3), st.integers(1, 6)).filter(lambda bc: math.gcd(*bc) == 1)
_slope_class = st.tuples(_slope, st.lists(st.integers(-5, 5), min_size=1, max_size=4, unique=True)).map(
    lambda cls: [(a, *cls[0]) for a in cls[1]]
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.lists(_slope_class, min_size=1, max_size=3, unique_by=lambda cls: cls[0][1:]),
    st.lists(_flat_line, max_size=3, unique=True),
)
@example([[(0, 0, 1), (1, 0, 1), (-1, 0, 1), (2, 0, 1)]], [])  # one class through (0 : 1 : 0)
@example([[(0, 1, 2), (3, 1, 2), (-2, 1, 2)]], [(1, 0, 0)])  # the flat line x = 0 kills the row r = q
@example([[(0, 1, 1), (1, 1, 1)], [(2, -1, 3)], [(1, 2, 1), (-1, 2, 1), (4, 2, 1)]], [(1, 1, 0)])
@example([[(1, 1, 1), (2, 1, 1)], [(1, -1, 2)], [(0, 3, 5)]], [(0, 1, 0), (1, -2, 0)])  # singletons
def test_slope_classes_count_as_the_product_route_and_brute_force(classes, flat):
    # the grouped window kernel against multiplying values at one good prime above 200,
    # where the rows take several blocks, and against the O(q^3) oracle at q < 60
    from milnorhodge.pointcount import _BLOCK_POINTS

    varying = [line for cls in classes for line in cls]
    assume(len(varying) >= 3)
    arr = LineArrangement(tuple(varying + flat))
    small = [q for q in _PRIMES_BELOW_200 if q < 60 and (q - 1) % arr.d == 0 and arr.bad_modulus % q]
    for q in small[:2]:
        assert count_classes(arr, q) == brute_force_count(arr, q), q
    q = good_primes(arr, 1, min_q=200)[0].p
    assert q + 1 > _BLOCK_POINTS // q
    assert count_classes(arr, q) == _product_route(arr, q), q


def test_ceva_reads_one_window_per_slope_class(monkeypatch):
    # x - w^i z share the slope 0; y - w^i z have three slopes: 4 windows for 6 varying lines
    import milnorhodge.pointcount as pointcount

    seen = []
    kernel = pointcount._window_rows
    monkeypatch.setattr(pointcount, "_window_rows", lambda *args: seen.append(args) or kernel(*args))
    q = good_primes(ceva_arrangement(), 1)[0].p
    count_classes(ceva_arrangement(), q)
    [(_, _, starts, _, _)] = seen
    assert sorted(map(len, pointcount._slope_classes(starts, q))) == [1, 1, 1, 3]


def test_boolean_counts_without_the_block_loop(monkeypatch):
    import milnorhodge.pointcount as pointcount

    def no_blocks(*args):
        raise AssertionError("one varying line reached the block loop")

    monkeypatch.setattr(pointcount, "_window_rows", no_blocks)
    q = 1999
    table = count_classes(boolean_arrangement(), q)
    # xyz lies in each class on (q - 1)^3 / 3 points and vanishes on the rest
    assert table == CountTable(q, PrimeField.make(q).g, 3, ((q - 1) ** 3 // 3,) * 3, q**3 - (q - 1) ** 3)


# ---------------------------------------------------------------------------
# fitting


def test_boolean_fiber_fit():
    tables = count_tables(boolean_arrangement(), [7, 13, 19, 31])
    fit = fiber_fit(tables, 3)
    assert fit.is_polynomial()
    expected = (Fraction(1), Fraction(-2), Fraction(1))  # (t - 1)^2
    assert fit.per_twist == (expected,) * 3


def test_constant_counts_fit_degree_zero():
    fit = fit_polynomials({0: [(7, 5), (13, 5), (19, 5), (31, 5)]}, degree=2)
    assert fit.per_twist == ((Fraction(5),),)


def test_fit_flags_non_polynomial_with_witness():
    fit = fit_polynomials({0: [(7, 1), (13, 2), (19, 4), (31, 100)]}, degree=2)
    assert not fit.is_polynomial()
    assert fit.witnesses == ((0, 31),)
    assert fit.per_twist == (None,)


def test_fit_rejects_repeated_prime():
    with pytest.raises(BadPrime):
        fit_polynomials({0: [(7, 1), (7, 1), (13, 2), (19, 4)]}, degree=2)


def test_fit_needs_a_witness_prime():
    with pytest.raises(NotEnoughPrimes):
        fit_polynomials({0: [(7, 1), (13, 1), (19, 1)]}, degree=2)


def test_ceva_fiber_not_polynomial():
    primes = [f.p for f in good_primes(ceva_arrangement(), 5, min_q=19)]
    tables = count_tables(ceva_arrangement(), primes)
    fit = fiber_fit(tables, 9)
    assert not fit.is_polynomial()
    with pytest.raises(NotPolynomialCount):
        hodge_from_counts(fit, 9)


def test_pencil_fiber_not_polynomial():
    # three concurrent lines: the fiber is (smooth plane cubic minus three
    # points) x C, and the weight-1 classes break polynomial counting
    pencil = parse_arrangement("1 0 0\n0 1 0\n1 1 0\n")
    primes = [f.p for f in good_primes(pencil, 5, min_q=5)]
    fit = fiber_fit(count_tables(pencil, primes), 3)
    assert not fit.is_polynomial()


def test_generic_four_lines_fiber_not_polynomial(data_dir):
    # here H1(F) has trivial monodromy, but H2(F) carries off-diagonal
    # weight-2 classes, which is already incompatible with polynomial counts
    arr = parse_arrangement((data_dir / "generic4.txt").read_text())
    primes = [f.p for f in good_primes(arr, 5, min_q=5)]
    fit = fiber_fit(count_tables(arr, primes), 4)
    assert not fit.is_polynomial()


# ---------------------------------------------------------------------------
# extraction


def test_boolean_extraction_matches_torus_square():
    tables = count_tables(boolean_arrangement(), [7, 13, 19, 31])
    epoly = hodge_from_counts(fiber_fit(tables, 3), 3)
    triv = ReprClass.trivial(3)
    assert epoly == HodgeTable(3, {(2, 2): triv, (1, 1): -2 * triv, (0, 0): triv})


def test_synthetic_linear_trace_extraction():
    fit = FittedPoly(
        degree=2,
        per_twist=((Fraction(0), Fraction(1)),) * 3,
        witnesses=(),
    )
    assert hodge_from_counts(fit, 3) == HodgeTable(3, {(1, 1): ReprClass.trivial(3)})


def test_synthetic_character_extraction():
    # traces (2, -1, -1) at t^1 decode to the sum of the nontrivial characters
    fit = FittedPoly(
        degree=2,
        per_twist=(
            (Fraction(0), Fraction(2)),
            (Fraction(0), Fraction(-1)),
            (Fraction(0), Fraction(-1)),
        ),
        witnesses=(),
    )
    assert hodge_from_counts(fit, 3) == HodgeTable(3, {(1, 1): ReprClass(3, (0, 1, 1))})


def test_extraction_rejects_fractional_coefficients():
    fit = FittedPoly(degree=1, per_twist=((Fraction(1, 2),),), witnesses=())
    with pytest.raises(DecodeError):
        hodge_from_counts(fit, 1)


def test_complement_extraction_matches_betti_numbers(generic3):
    for arr in (boolean_arrangement(), generic3):
        primes = [f.p for f in good_primes(arr, 5, min_q=5)]
        tables = count_tables(arr, primes)
        fit = complement_fit(tables, arr.d)
        assert fit.is_polynomial()
        w = weak_comb_data(arr)
        # every twist fits the characteristic polynomial
        charpoly_asc = tuple(Fraction(c) for c in reversed(w.charpoly))
        assert fit.per_twist == (charpoly_asc,) * arr.d
        epoly = hodge_from_counts(fit, arr.d)
        assert epoly.support() == [(0, 0), (1, 1), (2, 2), (3, 3)]
        # weight specialization: alternating Betti numbers of M x C*
        betti = (1, 1 + w.b1M, w.b1M + w.b2M, w.b2M)
        for i in range(4):
            r = epoly.entry(i, i)
            assert r == ReprClass.trivial(arr.d, (-1) ** (3 - i) * betti[3 - i])


def test_extracted_epoly_matches_assembled_compact_support_table(generic3):
    # the two independent routes to P_c(F) must agree where counting is
    # polynomial: Hodge assembly (trivial H3: the cover is a cubic surface
    # with rational primitive H3) versus decoded twisted point counts
    from milnorhodge.assembly import SurfaceH3Data, assemble_all

    for arr in (boolean_arrangement(), generic3):
        report = assemble_all(arr, SurfaceH3Data.zero(arr.d))
        tables = count_tables(arr, [7, 13, 19, 31])
        extracted = hodge_from_counts(fiber_fit(tables, arr.d), arr.d)
        assert extracted == report.pcf


def test_extraction_specialization_reproduces_untwisted_fit():
    tables = count_tables(boolean_arrangement(), [7, 13, 19, 31])
    fit = fiber_fit(tables, 3)
    epoly = hodge_from_counts(fit, 3)
    coeffs = fit.per_twist[0]
    for i, c in enumerate(coeffs):
        assert epoly.entry(i, i).dim() == c


def test_count_tables_deterministic_across_threads():
    primes = [f.p for f in good_primes(ceva_arrangement(), 3, min_q=19)]
    serial = count_tables(ceva_arrangement(), primes, threads=1)
    parallel = count_tables(ceva_arrangement(), primes, threads=8)
    assert serial == parallel


def test_pappus_and_non_pappus_share_weak_data_but_not_twisted_counts(data_dir):
    # the paper's negative result as far as the code reaches: the weak data
    # fix the spectrum and the untwisted census, but not the twisted counts
    from milnorhodge.assembly import spectrum

    pappus, other = (parse_arrangement((data_dir / f).read_text()) for f in ("pappus.txt", "nonpappus.txt"))
    w = weak_comb_data(pappus)
    assert w.counts == {2: 9, 3: 9}
    assert weak_comb_data(other) == w
    assert spectrum(weak_comb_data(other)) == spectrum(w)
    a, b = count_classes(pappus, 37), count_classes(other, 37)
    assert a.zero_count == b.zero_count == 11_341
    assert list(twisted_counts(a, 9).values()) == [747, 1377, 1152] * 3
    assert list(twisted_counts(b, 9).values()) == [1062, 981, 1008, 1089, 1008, 1260, 1062, 1143, 1215]
