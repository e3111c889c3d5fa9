import cmath
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_decode_characters, specialize_weight
from milnorhodge.errors import DecodeError
from milnorhodge import repring
from milnorhodge.repring import HodgeTable, ReprClass, decode_characters


def random_class(rng, d, bound=50):
    return ReprClass(d, tuple(rng.randint(-bound, bound) for _ in range(d)))


def random_table(rng, d, n_entries=4, span=3):
    entries = {}
    for _ in range(n_entries):
        p, q = rng.randint(-span, span), rng.randint(-span, span)
        entries[(p, q)] = random_class(rng, d, bound=5)
    return HodgeTable(d, entries)


# ---------------------------------------------------------------------------
# involution


def test_involution_moves_character_to_conjugate():
    assert ReprClass.character(9, 1).involution() == ReprClass.character(9, 8)


def test_involution_fixes_trivial_class():
    assert ReprClass.trivial(5).involution() == ReprClass.trivial(5)


def test_involution_fixes_symmetric_classes():
    r = ReprClass(6, (2, 1, 3, 7, 3, 1))  # mult[k] == mult[d-k]
    assert r.involution() == r


def test_involution_is_additive_involution():
    rng = random.Random(7)
    for _ in range(50):
        d = rng.randint(1, 12)
        r, s = random_class(rng, d), random_class(rng, d)
        assert r.involution().involution() == r
        assert (r + s).involution() == r.involution() + s.involution()


def test_character_class_validation():
    assert ReprClass.character(5, 2).involution() == ReprClass.character(5, 3)
    assert ReprClass.character(5, 7) == ReprClass.character(5, 2)  # exponent read mod d
    with pytest.raises(ValueError):
        ReprClass(5, (0, 1, 0))
    with pytest.raises(ValueError):
        ReprClass(0, ())


# ---------------------------------------------------------------------------
# table transforms


def test_poincare_dual_two_torus_self_dual():
    d = 1
    triv = ReprClass.trivial(d)
    torus = HodgeTable(d, {(2, 2): triv, (1, 1): -2 * triv, (0, 0): triv})
    assert torus.poincare_dual(2) == torus


def test_poincare_dual_point_and_top_class():
    t = HodgeTable(3, {(1, 1): ReprClass.trivial(3)})
    assert t.poincare_dual(1) == HodgeTable(3, {(0, 0): ReprClass.trivial(3)})


def test_poincare_dual_composed_identity():
    # composing twice reflects twice and applies the involution twice, so the
    # literal composition lands back on the original table
    rng = random.Random(13)
    for _ in range(20):
        d = rng.randint(1, 9)
        t = random_table(rng, d)
        n = rng.randint(0, 3)
        twice = t.poincare_dual(n).poincare_dual(n)
        expected = HodgeTable(
            d, {k: r.involution().involution() for k, r in t.entries.items()}
        )
        assert twice == expected == t


def test_specialize_weight_collects_antidiagonals():
    d = 4
    r1, r2, r3 = (ReprClass.character(d, k) for k in (0, 1, 2))
    t = HodgeTable(d, {(2, 0): r1, (1, 1): r2, (0, 2): r3})
    assert specialize_weight(t) == {2: r1 + r2 + r3}


def test_specialize_weight_empty_and_dimension():
    assert specialize_weight(HodgeTable(3, {})) == {}
    rng = random.Random(17)
    for _ in range(10):
        t = random_table(rng, rng.randint(1, 8))
        by_weight = specialize_weight(t)
        assert sum(r.dim() for r in by_weight.values()) == t.total_dim()


def test_specialize_weight_additive():
    rng = random.Random(19)
    for _ in range(10):
        d = rng.randint(1, 8)
        s, t = random_table(rng, d), random_table(rng, d)
        lhs = specialize_weight(s + t)
        rhs = {}
        for w, r in list(specialize_weight(s).items()) + list(specialize_weight(t).items()):
            rhs[w] = rhs.get(w, ReprClass.zero(d)) + r
        assert lhs == {w: r for w, r in rhs.items() if not r.is_zero()}


# ---------------------------------------------------------------------------
# decoding


def galois_stable_class(d, value_at_gcd):
    """The class with mult[j] = value_at_gcd[gcd(j, d)]; its traces are integers."""
    return ReprClass(d, tuple(value_at_gcd[math.gcd(j, d)] for j in range(d)))


def complex_traces(r):
    d = r.d
    return [
        sum(m * cmath.exp(2j * cmath.pi * j * s / d) for j, m in enumerate(r.mult))
        for s in range(d)
    ]


def integer_traces(r):
    # rounding is exact here: the traces of a Galois-stable class are integers
    return [round(t.real) for t in complex_traces(r)]


def test_decode_regular_representation():
    assert decode_characters([3, 0, 0]) == ReprClass(3, (1, 1, 1))


def test_decode_trivial_class():
    assert decode_characters([1, 1, 1]) == ReprClass(3, (1, 0, 0))


def test_decode_rejects_non_character():
    with pytest.raises(DecodeError, match="s=2"):
        decode_characters([1, 2, 0])  # the trace at lam^2 differs from its conjugate at lam
    with pytest.raises(DecodeError, match="j=1"):
        decode_characters([1, 0])  # Galois-stable, but m_1 = (1 - 0) / 2
    with pytest.raises(DecodeError, match="empty trace vector"):
        decode_characters([])


def test_no_small_class_has_traces_1_2_0():
    # brute-force oracle for the rejection above
    targets = (1, 2, 0)
    for n0 in range(-4, 5):
        for n1 in range(-4, 5):
            for n2 in range(-4, 5):
                traces = complex_traces(ReprClass(3, (n0, n1, n2)))
                assert any(abs(t - u) > 1e-9 for t, u in zip(traces, targets))


@pytest.mark.parametrize("bad", [1.0, Fraction(1), Fraction(1, 2)], ids=["float", "one", "half"])
def test_decode_rejects_non_integer_traces(bad):
    with pytest.raises(DecodeError, match="s=1"):
        decode_characters([3, bad, 1])


def test_decode_encode_roundtrip():
    rng = random.Random(23)
    for _ in range(100):
        d = rng.randint(2, 12)
        values = {g: rng.randint(-50, 50) for g in range(1, d + 1) if d % g == 0}
        r = galois_stable_class(d, values)
        assert decode_characters(integer_traces(r)) == r


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 12).flatmap(
        lambda d: st.fixed_dictionaries(
            {g: st.integers(-50, 50) for g in range(1, d + 1) if d % g == 0}
        ).map(lambda values: galois_stable_class(d, values))
    )
)
def test_decode_inverts_character_traces(r):
    assert decode_characters(integer_traces(r)) == r


def test_decode_roundtrip_every_modulus_up_to_64():
    # the count route decodes at d = 16-48; every d to 64 covers 48, 60 and 64 and every
    # divisor pattern in between
    rng = random.Random(37)
    for d in range(1, 65):
        for _ in range(2):
            values = {g: rng.randint(-50, 50) for g in range(1, d + 1) if d % g == 0}
            r = galois_stable_class(d, values)
            assert decode_characters(integer_traces(r)) == r, d



def _decode_outcome(decode, traces):
    try:
        return decode(traces)
    except DecodeError as exc:
        return f"DecodeError: {exc}"


def test_decode_equals_the_reference_at_every_modulus_up_to_64():
    # the reference builds its weights at every call; the decode builds them once per degree, so
    # the second pass starts from an empty cache again and must give the same outcomes
    outcomes = []
    for _ in range(2):
        repring._character_data.cache_clear()
        rng, seen = random.Random(41), [_decode_outcome(decode_characters, [])]
        assert seen == [_decode_outcome(reference_decode_characters, [])]
        for d in range(1, 65):
            divisors = [g for g in range(1, d + 1) if d % g == 0]
            for _ in range(3):
                values = {g: rng.randint(-50, 50) for g in divisors}
                character = integer_traces(galois_stable_class(d, values))
                stable = [values[math.gcd(s, d)] for s in range(d)]  # Galois-stable, rarely a character
                off, non_integer = list(character), list(character)
                off[rng.randrange(d)] += rng.choice([-1, 1]) * rng.randint(1, 2 * d)
                non_integer[rng.randrange(d)] = rng.choice([Fraction(1, 2), Fraction(3), 2.0, None, "1"])
                for traces in (character, stable, off, non_integer):
                    got = _decode_outcome(decode_characters, traces)
                    assert got == _decode_outcome(reference_decode_characters, traces), (d, traces)
                    seen.append(got)
        outcomes.append(seen)
    assert outcomes[0] == outcomes[1]
    texts = [o for o in outcomes[0] if isinstance(o, str)]
    assert sum(isinstance(o, ReprClass) for o in outcomes[0]) > 3 * 64
    for part in ("empty trace vector", "differs from its Galois conjugates", "(fails at j=", "is not an integer"):
        assert any(part in t for t in texts), part

@pytest.mark.parametrize(
    "by_gcd, message",
    [
        ({1: -1, 2: -1, 3: -1, 4: -1, 6: -1, 12: 0}, "(fails at j=1)"),
        ({1: -1, 2: -1, 3: -1, 4: -1, 6: 0, 12: 0}, "(fails at j=2)"),
        ({1: -1, 2: -1, 3: -1, 4: 0, 6: -1, 12: 0}, "(fails at j=3)"),
        ({1: -1, 2: -1, 3: 0, 4: -1, 6: 0, 12: 0}, "(fails at j=4)"),
        ({1: -1, 2: 0, 3: -1, 4: 0, 6: 0, 12: 0}, "(fails at j=6)"),
    ],
)
def test_decode_names_the_first_failing_index_at_a_composite_modulus(by_gcd, message):
    traces = [by_gcd[math.gcd(s, 12)] for s in range(12)]
    with pytest.raises(DecodeError) as exc:
        decode_characters(traces)
    assert str(exc.value) == f"trace vector is not a virtual character of mu_12 {message}"


def test_decode_names_the_first_trace_off_its_conjugates_at_a_composite_modulus():
    with pytest.raises(DecodeError) as exc:
        decode_characters([4, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0])
    assert str(exc.value) == (
        "trace vector is not a virtual character of mu_12 (trace at s=5 differs from its Galois conjugates)"
    )


def test_decode_is_exact_on_huge_traces():
    r = galois_stable_class(12, {1: 3, 2: -1, 3: 4, 4: 1, 6: -5, 12: 9})
    big = 10**18
    assert decode_characters([big * t for t in integer_traces(r)]) == big * r


def test_decode_integer_traces_of_galois_stable_class():
    assert decode_characters([14, -1, -1, -1, -1]) == ReprClass(5, (2, 3, 3, 3, 3))


# ---------------------------------------------------------------------------
# serialization


def test_table_json_roundtrip():
    rng = random.Random(29)
    for _ in range(5):
        t = random_table(rng, rng.randint(1, 9))
        blob = json.dumps(t.to_json_dict())
        assert HodgeTable.from_json_dict(json.loads(blob)) == t


@pytest.mark.parametrize("field", ["d", "p", "q", "mult"])
@pytest.mark.parametrize("bad", [9.0, 2.7, "3", True])
def test_table_json_rejects_non_integers(field, bad):
    data = {"d": 3, "entries": [{"p": 1, "q": 0, "mult": [0, 1, 0]}]}
    if field == "d":
        data["d"] = bad
    elif field == "mult":
        data["entries"][0]["mult"][1] = bad
    else:
        data["entries"][0][field] = bad
    with pytest.raises(TypeError):
        HodgeTable.from_json_dict(data)


def test_table_json_shape():
    t = HodgeTable(3, {(1, 0): ReprClass.character(3, 1)})
    assert t.to_json_dict() == {"d": 3, "entries": [{"p": 1, "q": 0, "mult": [0, 1, 0]}]}
    assert repr(t) == "<HodgeTable d=3 {(1,0): [0, 1, 0]}>"


def test_table_drops_zero_entries_and_checks_modulus():
    t = HodgeTable(3, {(0, 0): ReprClass.zero(3)})
    assert t.support() == []
    assert (t == 0) is False  # no table equals a non-table, not even an empty one
    with pytest.raises(ValueError):
        HodgeTable(3, {(0, 0): ReprClass.trivial(4)})
    with pytest.raises(ValueError, match="mixed moduli"):
        t + HodgeTable(4)
    with pytest.raises(ValueError, match="mixed moduli"):
        t - HodgeTable(4)
    with pytest.raises(ValueError, match="mixed moduli"):
        ReprClass.trivial(3) - ReprClass.trivial(4)


@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(4, 2), 2.7, 2.0])
def test_multiplicities_must_be_integers(bad):
    # int() would truncate 2.7 to 2 and 1/2 to 0
    with pytest.raises(TypeError):
        ReprClass(3, (0, bad, 0))
    with pytest.raises(TypeError):
        ReprClass.trivial(3) * bad


@pytest.mark.parametrize("key", [(1.5, 0), (1, 0.0), (Fraction(1), 0)])
def test_table_keys_must_be_integers(key):
    with pytest.raises(TypeError):
        HodgeTable(3, {key: ReprClass.trivial(3)})


def test_table_scale_by_non_integer_raises():
    table = HodgeTable(3, {(1, 1): ReprClass(3, (2, 4, 6))})
    with pytest.raises(TypeError):
        table.scale(0.5)
    assert table.scale(-2) == HodgeTable(3, {(1, 1): ReprClass(3, (-4, -8, -12))})


def test_numpy_integers_are_accepted_as_python_ints():
    import numpy as np

    r = ReprClass(3, tuple(np.array([1, -2, 3], dtype=np.int64)))
    assert r.mult == (1, -2, 3) and all(type(m) is int for m in r.mult)
    table = HodgeTable(3, {(np.int64(1), np.int32(0)): r})
    assert table.support() == [(1, 0)]
    assert all(type(i) is int for i in table.support()[0])


@pytest.mark.parametrize("d", [3.0, 2.5, Fraction(3)])
def test_moduli_must_be_integers(d):
    # 3.0 used to build a class equal to one of modulus 3, and 2.5 a table of modulus 2.5
    with pytest.raises(TypeError):
        ReprClass(d, (1, 2, 3))
    with pytest.raises(TypeError):
        HodgeTable(d)


def test_numpy_integer_moduli_are_accepted_as_python_ints():
    import numpy as np

    r = ReprClass(np.int64(3), (1, 2, 3))
    assert r == ReprClass(3, (1, 2, 3)) and type(r.d) is int
    table = HodgeTable(np.int32(3), {(1, 1): r})
    assert table == HodgeTable(3, {(1, 1): r}) and type(table.d) is int


def test_multiplicity_vectors_are_stored_as_tuples_of_ints():
    import numpy as np

    vectors = (np.array([1, -2, 3], dtype=np.int64), [np.int32(1), np.int64(-2), 3], (True, False, 1))
    for mult in vectors:
        r = ReprClass(3, mult)
        assert type(r.mult) is tuple and all(type(m) is int for m in r.mult)
    assert ReprClass(3, [True, False, True]) == ReprClass(3, (1, 0, 1))
    with pytest.raises(TypeError):
        ReprClass(3, [1, 2.0, 3])
    r, s = ReprClass(3, [1, -2, 3]), ReprClass(3, np.array([4, 5, 6]))
    built = (r + s, r - s, -r, r * np.int64(2), 2 * r, r.involution(), ReprClass.zero(3), ReprClass.character(3, 1))
    for out in built:
        assert type(out.mult) is tuple and all(type(m) is int for m in out.mult)
    assert (r + s, r - s, -r, 2 * r, r.involution()) == (
        ReprClass(3, (5, 3, 9)),
        ReprClass(3, (-3, -7, -3)),
        ReprClass(3, (-1, 2, -3)),
        ReprClass(3, (2, -4, 6)),
        ReprClass(3, (1, 3, -2)),
    )
