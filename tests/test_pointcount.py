import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from milnorhodge.arrangement import (
    CevaArrangement,
    LineArrangement,
    _canonical_triple,
    boolean_arrangement,
    ceva_arrangement,
    intersection_data,
    parse_arrangement,
    random_rational_arrangement,
    weak_comb_data,
)
from milnorhodge.errors import BadPrime, DecodeError, NotEnoughPrimes, NotPolynomialCount
from milnorhodge.pointcount import (
    MAX_PRIME,
    CountTable,
    FittedPoly,
    _good_reduction,
    _primitive_root,
    brute_force_count,
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


# Two references for the good-reduction rule.  The census of the reduced lines
# over F_q normalizes every reduced line and every pairwise cross product in
# P^2(F_q) and tallies the lines through each meeting point.  The bad modulus is
# an integer that a prime divides exactly when it reduces badly.


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


def _bad_modulus(arr):
    """3 for Ceva, whose forms over Z[w] fail only modulo 3: each nonzero value of a
    line at one of its points is a unit or has norm 3.  For rational lines, the lcm of
    the content of every pairwise cross product (q divides it when two lines coincide)
    and of every nonzero value of a line at an intersection point (when the line passes
    through the point modulo q, which merges it with another point)."""
    if isinstance(arr, CevaArrangement):
        return 3
    forms, points = arr.lines, intersection_data(arr)
    values = {a * x + b * y + c * z for a, b, c in forms for x, y, z in points} - {0}
    for i, (a1, b1, c1) in enumerate(forms):
        for a2, b2, c2 in forms[i + 1 :]:
            values.add(math.gcd(b1 * c2 - c1 * b2, c1 * a2 - a1 * c2, a1 * b2 - b1 * a2))
    return math.lcm(*values)


def _assert_bad_modulus_matches_census(arr, lines_mod, primes):
    w, bad = weak_comb_data(arr), _bad_modulus(arr)
    for q in primes:
        good = _census_mod_q(lines_mod(q), q) == w.counts
        assert _good_reduction(arr, q) == good == (bad % q != 0), (arr, q)
    # each point is counted on every line but its last: a line's groups are its points
    # shared with a later line, counted here from the point dict
    points = intersection_data(arr).values()
    later = [sum(i in lines and i != max(lines) for lines in points) for i in range(arr.d)]
    assert vars(arr)["_good_reduction"][0] == later, arr
    assert sum(vars(arr)["_good_reduction"][0]) == w.sum_mult_minus_one()


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


def _ceva_mod(q):
    w = next(x for x in range(2, q) if pow(x, 3, q) == 1)
    cube_roots = [pow(w, j, q) for j in range(3)]
    return (
        [(1, -r % q, 0) for r in cube_roots]
        + [(1, 0, -r % q) for r in cube_roots]
        + [(0, 1, -r % q) for r in cube_roots]
    )


_BAD_AT_19_37_73 = LineArrangement(((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 38, 73)))


@pytest.mark.parametrize(
    "arr, lines_mod",
    [(ceva_arrangement(), _ceva_mod), (_BAD_AT_19_37_73, _rational_mod(_BAD_AT_19_37_73))],
    ids=["ceva", "lines"],
)
def test_bad_modulus_and_forms_mod_match_census_mod_q(arr, lines_mod):
    # both arrangement types, at primes = 1 (mod 18), where Ceva's cube roots of unity exist
    primes = [q for q in range(19, 3000, 18) if all(q % f for f in range(2, int(q**0.5) + 1))]
    assert len(primes) > 60
    _assert_bad_modulus_matches_census(arr, lines_mod, primes)
    for q in primes:
        assert sorted(arr.forms_mod(q)) == sorted(lines_mod(q))


def test_a_line_that_coincides_with_another_modulo_q_is_bad_reduction():
    # a pencil keeps its one point modulo 19, but there x + 19y = 0 is the line x = 0:
    # a rule that compared point counts alone would call 19 good
    arr = LineArrangement(((1, 0, 0), (0, 1, 0), (1, 19, 0)))
    assert len(intersection_data(arr)) == 1 and _bad_modulus(arr) % 19 == 0
    assert not _good_reduction(arr, 19)
    assert [f.p for f in good_primes(arr, 2, min_q=19)] == [31, 37]
    # modulo 19, x + 19z = 0 is the first line, yet every line keeps its count of later
    # meeting points: only the coinciding pair (0, 0) tells
    arr = LineArrangement(((1, 0, 0), (0, 1, 0), (1, 0, 19)))
    assert len(intersection_data(arr)) == 3 and _bad_modulus(arr) % 19 == 0
    assert not _good_reduction(arr, 19)
    assert [f.p for f in good_primes(arr, 3, min_q=19)] == [31, 37, 43]


def test_good_reduction_is_decided_at_the_first_line_that_loses_a_point(monkeypatch):
    import milnorhodge.pointcount as pointcount

    rows = []
    real = pointcount._meeting_pairs

    def spy(forms):
        for pairs in real(forms):
            rows.append(pairs)
            yield pairs

    monkeypatch.setattr(pointcount, "_meeting_pairs", spy)
    arr = LineArrangement(((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3)))
    # modulo 3, x + 2y = 0 meets x = 0 where y = 0 does: the first line decides
    assert not _good_reduction(arr, 3) and len(rows) == 1
    rows.clear()
    assert _good_reduction(arr, 5) and len(rows) == 5


def test_bad_prime_wrong_residue():
    with pytest.raises(BadPrime):
        count_classes(boolean_arrangement(), 5)  # 5 != 1 mod 3


def test_not_enough_primes_below_bound():
    with pytest.raises(NotEnoughPrimes):
        good_primes(ceva_arrangement(), 3, min_q=19, bound=40)


def test_good_primes_stop_at_the_counting_bound():
    # the next prime = 1 (mod 3) is 2097169, which count_classes would refuse
    with pytest.raises(NotEnoughPrimes, match="found 0 good primes up to 2097152, needed 1"):
        good_primes(boolean_arrangement(), 1, min_q=MAX_PRIME, bound=MAX_PRIME + 1000)


def test_good_primes_zero_count_is_empty():
    # returns at once: a bound with no prime q = 1 (mod 9) below it cannot raise
    assert good_primes(ceva_arrangement(), 0, bound=3) == []


def test_good_primes_negative_count_rejected():
    with pytest.raises(ValueError):
        good_primes(ceva_arrangement(), -1)


def _good_primes_by_scan(d: int, bad: int, min_q: int, bound: int) -> list[int]:
    """The primes q = 1 (mod d) in [min_q, bound] that do not divide the bad modulus."""
    return [
        q
        for q in range(min_q, bound + 1)
        if q > 1
        and all(q % f for f in range(2, math.isqrt(q) + 1))
        and (q - 1) % d == 0
        and bad % q
    ]


@pytest.mark.parametrize(
    "arr",
    [boolean_arrangement(), ceva_arrangement()]
    + [random_rational_arrangement(random.Random(40 + d), d) for d in range(1, 13)],
    ids=["boolean", "ceva"] + [f"random{d}" for d in range(1, 13)],
)
def test_good_primes_equal_a_plain_scan(arr):
    bad = _bad_modulus(arr)
    for min_q in (-4, 0, 1, 2, 3, 20, 50, 102, 311):
        for bound in (10, 97, 400, 1200):
            expected = _good_primes_by_scan(arr.d, bad, min_q, bound)
            for count in (1, 4, 9):
                if len(expected) >= count:
                    found = good_primes(arr, count, min_q=min_q, bound=bound)
                    assert [f.p for f in found] == expected[:count], (min_q, bound, count)
                else:
                    with pytest.raises(NotEnoughPrimes):
                        good_primes(arr, count, min_q=min_q, bound=bound)


def test_prime_field_generators():
    assert _primitive_root(7) == 3
    assert _primitive_root(13) == 2


def test_is_prime_equals_trial_division_and_rejects_strong_pseudoprimes():
    from milnorhodge.pointcount import _is_prime

    assert [_is_prime(n) for n in range(20_000)] == [
        n > 1 and all(n % f for f in range(2, math.isqrt(n) + 1)) for n in range(20_000)
    ]
    # the strong pseudoprimes to bases 2 and 3 up to the counting bound, the least one to base 2,
    # and two Carmichael numbers; and the largest prime below the bound
    for n in (2047, 1373653, 1530787, 1987021, 561, 1729):
        assert n <= MAX_PRIME and not _is_prime(n), n
    assert _is_prime(2097143) and not any(map(_is_prime, range(2097144, MAX_PRIME + 1)))


def test_primes_above_the_counting_bound_are_bad_before_any_primality_test(monkeypatch):
    import milnorhodge.pointcount as pointcount

    boolean = boolean_arrangement()
    monkeypatch.setattr(pointcount, "count_classes", lambda arr, q: q)  # nothing is counted at 2^21
    assert count_tables(boolean, [2097133]) == [2097133]  # the largest prime = 1 (mod 3) below the bound
    monkeypatch.setattr(pointcount, "_is_prime", lambda n: pytest.fail(f"tested {n} for primality"))
    for q in (2097169, 2**61 - 1, 10**1999 + 1):  # the least such prime above it, and beyond
        assert q > MAX_PRIME
        with pytest.raises(BadPrime, match="above the counting bound"):
            count_tables(boolean, [q, 7])


@pytest.mark.parametrize(
    "primes, target, error, message",
    [
        ([7, 13, 8], None, BadPrime, "8 is not 1 modulo 3"),
        ([7, 13, 7], None, BadPrime, "a prime is repeated in [7, 13, 7]"),
        ([7, 13, 7, 19], None, BadPrime, "a prime is repeated in [7, 13, 7, 19]"),
        ([7, 13, 19], "fiber", NotEnoughPrimes, "twist 0: need at least 4 primes, got 3"),
        ([7, 13, 7, 19], "complement", BadPrime, "twist 0: a prime is repeated in [7, 13, 7, 19]"),
        ([4, 7, 7], "fiber", BadPrime, "4 is not prime"),  # each prime is checked before the fit's rule
    ],
    ids=["residue", "repeated", "repeated-of-four", "fit-too-few", "fit-repeated", "fit-not-prime"],
)
def test_a_bad_prime_is_refused_before_any_count_or_check(monkeypatch, primes, target, error, message):
    import milnorhodge.assembly as assembly
    import milnorhodge.pointcount as pointcount

    calls = []
    monkeypatch.setattr(pointcount, "count_classes", lambda arr, q: calls.append(q))
    monkeypatch.setattr(assembly, "weak_comb_data", lambda arr: calls.append(arr))
    with pytest.raises(error) as refused:
        count_tables(boolean_arrangement(), primes, target=target)
    assert str(refused.value) == message
    if target is None:  # the suite counts without a fit target
        with pytest.raises(error) as refused:
            assembly.consistency_checks(boolean_arrangement(), None, primes, 0)
        assert str(refused.value) == message
    assert calls == []


# ---------------------------------------------------------------------------
# counting


def test_boolean_counts_q7():
    table = count_classes(boolean_arrangement(), 7)
    assert sum(table.class_counts) + table.zero_count == 7**3
    tw = twisted_counts(table)
    assert tw == (36, 36, 36)  # (q-1)^2 for every twist
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

    from milnorhodge.pointcount import _q_values

    lines = ceva_arrangement().forms_mod(q)
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
    assert twisted_counts(fast) == twisted_counts(slow)


def test_twisted_counts_equal_explicit_fiber_counts():
    # independent oracle for the twist reduction: the count for twist j must
    # equal the number of solutions of Q(y) = g^j by direct enumeration
    import numpy as np

    from milnorhodge.pointcount import _class_table, _q_values

    for arr, q in ((boolean_arrangement(), 7), (ceva_arrangement(), 19)):
        d = arr.d
        (g, _, _), lines = _class_table(q, d), arr.forms_mod(q)
        rng = np.arange(q, dtype=np.int64)
        xs, ys, zs = np.meshgrid(rng, rng, rng, indexing="ij")
        vals = _q_values(lines, q, xs.ravel(), ys.ravel(), zs.ravel())
        tw = twisted_counts(count_classes(arr, q))
        for j in range(d):
            s = pow(g, j, q)
            assert tw[j] == int((vals == s).sum())


def test_untwisted_count_is_fiber_cardinality():
    # independent oracle: count Q(x) = 1 by direct enumeration
    import numpy as np

    from milnorhodge.pointcount import _q_values

    for arr, q in ((boolean_arrangement(), 7), (ceva_arrangement(), 19)):
        lines = arr.forms_mod(q)
        rng = np.arange(q, dtype=np.int64)
        xs, ys, zs = np.meshgrid(rng, rng, rng, indexing="ij")
        vals = _q_values(lines, q, xs.ravel(), ys.ravel(), zs.ravel())
        direct = int((vals == 1).sum())
        table = count_classes(arr, q)
        assert twisted_counts(table)[0] == direct


def _product_route(arr, q: int) -> CountTable:
    # the census over P^2 by multiplying line values mod q (the oracle's arithmetic)
    import numpy as np

    from milnorhodge.pointcount import _aggregate, _class_table, _q_values

    (g, table, _), lines = _class_table(q, arr.d), arr.forms_mod(q)
    span = np.arange(q, dtype=np.int64)
    ys, zs = np.meshgrid(span, span, indexing="ij")
    one, zero = np.int64(1), np.int64(0)
    vals = np.concatenate([
        _q_values(lines, q, one, ys.ravel(), zs.ravel()),
        np.atleast_1d(_q_values(lines, q, zero, one, span)),
        np.atleast_1d(_q_values(lines, q, zero, zero, one)),
    ])
    classes, zeros = _aggregate(vals, table, arr.d)
    return CountTable(q, g, arr.d, tuple(int(c) * (q - 1) for c in classes), zeros * (q - 1) + 1)


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


def test_one_count_holds_its_block_buffers_and_row_starts():
    # a count at d = 44 with its class table cached holds the int32 block sums,
    # clip bound and gathered window (4 B a point), the intp histogram buffer
    # (8 B a point) and the intp row starts of at most d slopes: 0.92 MiB here
    import tracemalloc

    from milnorhodge.pointcount import _BLOCK_POINTS

    arr = random_rational_arrangement(random.Random(0), 44)
    q = good_primes(arr, 1, min_q=870)[0].p
    assert q == 881
    buffers = 20 * (_BLOCK_POINTS // q) * q + 8 * arr.d * (q + 1)
    count_classes(arr, q)
    tracemalloc.start()
    try:
        count_classes(arr, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < buffers + 2**18 < 1.25 * 2**20, (peak, buffers)


def _pencil_lines(d: int) -> list[tuple[int, int, int]]:
    # d lines through (1 : 1 : 1), all but x = y varying along the rows
    return [(1, -1, 0)] + [_canonical_triple(1, k, -1 - k) for k in range(d - 1)]


@pytest.mark.parametrize(
    "lines, dtype",
    [
        (_pencil_lines(32), "int16"),
        (_pencil_lines(33), "int32"),
        (_pencil_lines(31) + [(1, 2, 5)], "int16"),  # a near-pencil
    ],
    ids=["pencil32", "pencil33", "near-pencil32"],
)
def test_class_sums_fit_the_table_dtype_at_its_boundary(lines, dtype):
    # at the centre all d lines vanish and the row sum reaches d Z, Z = d(d - 1) + 1:
    # 31,776 fits int16 at d = 32, 34,881 does not at d = 33
    from milnorhodge.pointcount import _BLOCK_POINTS, _class_table

    arr = LineArrangement(tuple(lines))
    field = good_primes(arr, 1, min_q=200)[0]
    assert _class_table(field.p, arr.d)[1].dtype == dtype
    assert field.p + 1 > 2 * (_BLOCK_POINTS // field.p)  # three or more blocks
    assert count_classes(arr, field.p) == _product_route(arr, field.p)


def test_class_table_equals_repeated_multiplication():
    # every prime q < 5000 against the discrete logarithm by repeated multiplication, for
    # every d <= 64 dividing q - 1: int16 tables up to d = 32, int32 from d = 33
    import numpy as np

    from milnorhodge.pointcount import _class_table

    for q in (q for q in range(2, 5000) if all(q % f for f in range(2, math.isqrt(q) + 1))):
        g = _primitive_root(q)
        dlog, x = [0] * q, 1
        for i in range(q - 1):
            dlog[x], x = i, x * g % q
        assert len(set(dlog[1:])) == q - 1, q  # g generates F_q^*
        dlog = np.array(dlog)
        for d in (d for d in range(1, 65) if (q - 1) % d == 0):
            expected = dlog % d
            expected[0] = d * (d - 1) + 1
            root, table, _ = _class_table.__wrapped__(q, d)
            assert root == g, (q, d)
            assert table.dtype == (np.int16 if d <= 32 else np.int32), (q, d)
            assert np.array_equal(table, np.concatenate([expected, expected])), (q, d)


def test_class_table_build_stays_below_40_bytes_per_element():
    import tracemalloc

    from milnorhodge.pointcount import _class_table

    q = 100003
    tracemalloc.start()
    try:
        _class_table.__wrapped__(q, 42)  # an int32 table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * q


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


def test_good_reduction_counts_the_points_over_z_once_per_arrangement(monkeypatch):
    # the prime search and the checks of count_tables share one pass over the groups over Z
    # and each decision, which live on the arrangement; neither builds the point dict
    import milnorhodge.arrangement as arrangement
    import milnorhodge.pointcount as pointcount

    calls = []
    real = pointcount._line_groups
    monkeypatch.setattr(pointcount, "_line_groups", lambda arr: calls.append(arr) or real(arr))
    monkeypatch.setattr(arrangement, "intersection_data", lambda arr: pytest.fail("built the point dict"))
    for arr in (random_rational_arrangement(random.Random(5), 6), ceva_arrangement()):
        calls.clear()
        primes = [f.p for f in good_primes(arr, 5, min_q=100)]
        decided = dict(vars(arr)["_good_reduction"])
        tables = count_tables(arr, primes)
        assert len(calls) == 1 and calls[0] is arr
        assert vars(arr)["_good_reduction"] == decided and all(decided[q] for q in primes)
        assert tables == [count_classes(arr, q) for q in primes]


def test_the_first_good_reduction_decision_holds_one_line_of_groups_at_a_time():
    # the point dict of C(200, 2) line pairs, built to count each line's groups, peaks near 12 MiB
    arr = random_rational_arrangement(random.Random(200), 200, 60)
    tracemalloc.start()
    try:
        _good_reduction(arr, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


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
        assert sum(twisted_counts(t)) * (q - 1) == arr.d * complement_count(t)


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
@example([], [(1, 1, 1), (2, 1, 1)])  # one slope: the lines meet on the row q
@example([(1, 0, 0)], [(1, 1, 1), (2, 1, 1)])  # x = 0 kills the row q, where they meet
@example([(1, 1, 0)], [(1, 0, 1), (1, 1, 1)])  # they meet in (1 : 0 : -1), on the row r = 0
@example([(0, 1, 0)], [(1, 0, 1), (1, 1, 13)])  # c = 13 vanishes modulo 13: one line varies there
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
        if (q - 1) % arr.d or not _good_reduction(arr, q):
            continue
        table = count_classes(arr, q)
        window = pointcount._window_rows
        with mock.patch.object(pointcount, "_rotated_rows", lambda *args: window(*args[:-1])):
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
@example([[(0, 1, 1), (1, 1, 1)], [(2, -1, 3), (0, -1, 3), (1, -1, 3)]], [(1, 0, 0)])  # no singleton: row 0 unread
@example([[(1, 1, 1)], [(1, -1, 2)], [(0, 3, 5)], [(2, 1, 3)]], [(0, 1, 0)])  # every class a singleton
def test_slope_classes_count_as_the_product_route_and_brute_force(classes, flat):
    # the grouped window kernel against multiplying values at one good prime above 200,
    # where the rows take several blocks, and against the O(q^3) oracle at q < 60
    from milnorhodge.pointcount import _BLOCK_POINTS

    varying = [line for cls in classes for line in cls]
    assume(len(varying) >= 3)
    arr = LineArrangement(tuple(varying + flat))
    small = [q for q in _PRIMES_BELOW_200 if q < 60 and (q - 1) % arr.d == 0 and _good_reduction(arr, q)]
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
    [(_, _, slopes, _, _)] = seen
    assert sorted(map(len, slopes.values())) == [1, 1, 1, 3]


def test_boolean_counts_without_the_block_loop(monkeypatch):
    import milnorhodge.pointcount as pointcount

    def no_blocks(*args):
        raise AssertionError("one varying line reached the block loop")

    monkeypatch.setattr(pointcount, "_window_rows", no_blocks)
    q = 1999
    table = count_classes(boolean_arrangement(), q)
    # xyz lies in each class on (q - 1)^3 / 3 points and vanishes on the rest
    assert table == CountTable(q, _primitive_root(q), 3, ((q - 1) ** 3 // 3,) * 3, q**3 - (q - 1) ** 3)


def test_two_varying_lines_count_without_the_block_loop(monkeypatch, data_dir):
    # generic4: x and y are flat, x + y + z and x + 2y + 3z vary, at a prime above 10^6
    import milnorhodge.pointcount as pointcount

    def no_blocks(*args):
        raise AssertionError("two varying lines reached the block loop")

    monkeypatch.setattr(pointcount, "_window_rows", no_blocks)
    arr = parse_arrangement((data_dir / "generic4.txt").read_text())
    q = good_primes(arr, 1, min_q=10**6, bound=2 * 10**6)[0].p
    table = count_classes(arr, q)
    assert sum(table.class_counts) + table.zero_count == q**3
    assert complement_count(table) == weak_comb_data(arr).charpoly_value(q)


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


def _fraction_lagrange(points):
    # the reference interpolant: one Fraction basis polynomial per point
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis, denom = [Fraction(1)], Fraction(1)
        for k, (xk, _) in enumerate(points):
            if k != i:
                basis = [Fraction(0)] + basis
                for t in range(len(basis) - 1):
                    basis[t] -= xk * basis[t + 1]
                denom *= xi - xk
        for t, b in enumerate(basis):
            coeffs[t] += Fraction(yi) / denom * b
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def test_lagrange_equals_the_fraction_basis_interpolant():
    from milnorhodge.pointcount import _lagrange

    rng = random.Random(41)
    for _ in range(300):
        xs = rng.sample(range(-(10**6), 10**6), rng.randint(1, 6))
        size = rng.choice([10, 10**6, 10**12])
        points = [(x, rng.randint(-size, size)) for x in xs]
        assert _lagrange(points) == _fraction_lagrange(points), points


def test_fit_witnesses_are_the_first_primes_off_the_interpolant():
    primes = [7, 13, 19, 31, 37, 43]
    cubic = [(q, q**3 - 5 * q + 7) for q in primes]
    half = [(q, q * (q - 1) // 2) for q in primes]  # fractional coefficients, fitted exactly
    seqs = {
        0: cubic,
        1: [(q, y + (q == 43)) for q, y in cubic],
        2: [(q, y + (q >= 31)) for q, y in cubic],
        3: half,
        4: [(q, y - (q == 37)) for q, y in half],
    }
    fit = fit_polynomials(seqs, degree=3)
    assert fit.witnesses == ((1, 43), (2, 37), (4, 37))
    assert fit.per_twist[0] == (Fraction(7), Fraction(-5), Fraction(0), Fraction(1))
    assert fit.per_twist[3] == (Fraction(0), Fraction(-1, 2), Fraction(1, 2))
    assert fit.per_twist[1] is fit.per_twist[2] is fit.per_twist[4] is None


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
    with pytest.raises(ValueError, match="fit does not cover every twist"):
        hodge_from_counts(fit, 3)
    fit = FittedPoly(degree=1, per_twist=((Fraction(1),), (Fraction(0),), (Fraction(0),)), witnesses=())
    with pytest.raises(DecodeError, match=r"^coefficient of t\^0: trace vector is not a virtual character"):
        hodge_from_counts(fit, 3)  # integer traces (1, 0, 0) of no character


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
        report = assemble_all(weak_comb_data(arr), SurfaceH3Data.zero(arr.d))
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
    assert twisted_counts(a) == (747, 1377, 1152) * 3
    assert twisted_counts(b) == (1062, 981, 1008, 1089, 1008, 1260, 1062, 1143, 1215)
