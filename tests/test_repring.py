import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milnorhodge.errors import DecodeError
from milnorhodge.repring import (
    CyclotomicInt,
    HodgeTable,
    ReprClass,
    character_traces,
    cyclotomic_polynomial,
    decode_characters,
)


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


def test_dual_table_example():
    d = 7
    t = HodgeTable(d, {(1, 0): ReprClass.character(d, 1)})
    assert t.dual() == HodgeTable(d, {(-1, 0): ReprClass.character(d, d - 1)})


def test_dual_table_empty():
    t = HodgeTable(4, {})
    assert t.dual() == t


def test_dual_table_is_involutive():
    rng = random.Random(11)
    for _ in range(20):
        t = random_table(rng, rng.randint(1, 9))
        assert t.dual().dual() == t


def test_tate_twist_example():
    r = ReprClass.character(5, 2, 3)
    t = HodgeTable(5, {(1, 1): r})
    assert t.tate_twist(1) == HodgeTable(5, {(0, 0): r})
    assert t.tate_twist(0) == t
    assert t.tate_twist(-4).tate_twist(4) == t


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
    assert t.specialize_weight() == {2: r1 + r2 + r3}


def test_specialize_weight_empty_and_dimension():
    assert HodgeTable(3, {}).specialize_weight() == {}
    rng = random.Random(17)
    for _ in range(10):
        t = random_table(rng, rng.randint(1, 8))
        by_weight = t.specialize_weight()
        assert sum(r.dim() for r in by_weight.values()) == t.total_dim()


def test_specialize_weight_additive():
    rng = random.Random(19)
    for _ in range(10):
        d = rng.randint(1, 8)
        s, t = random_table(rng, d), random_table(rng, d)
        lhs = (s + t).specialize_weight()
        rhs = {}
        for w, r in list(s.specialize_weight().items()) + list(t.specialize_weight().items()):
            rhs[w] = rhs.get(w, ReprClass.zero(d)) + r
        assert lhs == {w: r for w, r in rhs.items() if not r.is_zero()}


# ---------------------------------------------------------------------------
# cyclotomic arithmetic and decoding


def test_cyclotomic_polynomials_known_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_int_equality_uses_reduction():
    # 1 + lam + lam^2 = 0 for d = 3
    z = CyclotomicInt(3, (1, 1, 1))
    assert z == 0
    assert CyclotomicInt(3, (2, 1, 1)) == 1


def test_decode_regular_representation():
    assert decode_characters([3, 0, 0]) == ReprClass(3, (1, 1, 1))


def test_decode_trivial_class():
    assert decode_characters([1, 1, 1]) == ReprClass(3, (1, 0, 0))


def test_decode_rejects_non_character():
    with pytest.raises(DecodeError):
        decode_characters([1, 2, 0])


def test_no_small_class_has_traces_1_2_0():
    # brute-force oracle for the rejection above
    targets = [CyclotomicInt.from_int(3, v) for v in (1, 2, 0)]
    for n0 in range(-4, 5):
        for n1 in range(-4, 5):
            for n2 in range(-4, 5):
                traces = character_traces(ReprClass(3, (n0, n1, n2)))
                assert any(t != u for t, u in zip(traces, targets))


def test_decode_encode_roundtrip():
    rng = random.Random(23)
    for _ in range(100):
        d = rng.randint(2, 12)
        r = random_class(rng, d, bound=50)
        assert decode_characters(character_traces(r)) == r


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 12).flatmap(
        lambda d: st.lists(st.integers(-50, 50), min_size=d, max_size=d).map(
            lambda mult: ReprClass(d, tuple(mult))
        )
    )
)
def test_decode_inverts_character_traces(r):
    assert decode_characters(character_traces(r)) == r


def test_decode_integer_traces_of_galois_stable_class():
    # classes constant on Galois orbits have integer traces; feed plain ints
    r = ReprClass(5, (2, 3, 3, 3, 3))
    ints = []
    for t in character_traces(r):
        red = t.reduced()
        assert len(red) <= 1  # the trace reduces to a constant
        ints.append(red[0] if red else 0)
    assert ints == [14, -1, -1, -1, -1]
    assert decode_characters(ints) == r


# ---------------------------------------------------------------------------
# serialization


def test_table_json_roundtrip():
    rng = random.Random(29)
    for _ in range(5):
        t = random_table(rng, rng.randint(1, 9))
        blob = json.dumps(t.to_json_dict())
        assert HodgeTable.from_json_dict(json.loads(blob)) == t


def test_table_json_shape():
    t = HodgeTable(3, {(1, 0): ReprClass.character(3, 1)})
    assert t.to_json_dict() == {"d": 3, "entries": [{"p": 1, "q": 0, "mult": [0, 1, 0]}]}


def test_table_drops_zero_entries_and_checks_modulus():
    t = HodgeTable(3, {(0, 0): ReprClass.zero(3)})
    assert t.support() == []
    with pytest.raises(ValueError):
        HodgeTable(3, {(0, 0): ReprClass.trivial(4)})
