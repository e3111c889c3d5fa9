from collections import Counter
from fractions import Fraction

import pytest

from milnorhodge.errors import InvalidSing
from milnorhodge.localhodge import (
    OrdinarySing,
    link_epoly,
    link_hodge_tables,
    local_hodge_table,
    local_spectrum,
    milnor_basis,
)
from milnorhodge.repring import HodgeTable, ReprClass


def test_invalid_singularities():
    with pytest.raises(InvalidSing):
        OrdinarySing(1, 5)
    with pytest.raises(InvalidSing):
        OrdinarySing(4, 3)


def test_weight3_monomials_for_k3_d9():
    basis = milnor_basis(OrdinarySing(3, 9))
    integral = {(m.a, m.b, m.c): m for m in basis if m.ell.denominator == 1}
    assert set(integral) == {(0, 0, 2), (1, 1, 5)}
    one = integral[(0, 0, 2)]
    assert (one.ell, one.p, one.q, one.char) == (1, 2, 1, 6)
    two = integral[(1, 1, 5)]
    assert (two.ell, two.p, two.q, two.char) == (2, 1, 2, 3)


def test_low_window_monomials_for_k3_d9():
    basis = milnor_basis(OrdinarySing(3, 9))
    low = {(m.a, m.b, m.c): m for m in basis if m.ell < 1}
    assert set(low) == {(0, 0, 0), (0, 0, 1)}
    assert (low[(0, 0, 0)].p, low[(0, 0, 0)].q, low[(0, 0, 0)].char) == (2, 0, 8)
    assert (low[(0, 0, 1)].p, low[(0, 0, 1)].q, low[(0, 0, 1)].char) == (2, 0, 7)


def test_k2_d3_basis():
    basis = milnor_basis(OrdinarySing(2, 3))
    assert [(m.a, m.b, m.c) for m in basis] == [(0, 0, 0), (0, 0, 1)]
    assert [m.ell for m in basis] == [Fraction(4, 3), Fraction(5, 3)]
    assert all((m.p, m.q) == (1, 1) for m in basis)
    assert [m.char for m in basis] == [2, 1]


def test_reference_table_k3_d9():
    table = local_hodge_table(OrdinarySing(3, 9)).table
    assert table.entry(2, 1) == ReprClass.character(9, 6)
    assert table.entry(1, 2) == ReprClass.character(9, 3)
    assert table.entry(2, 0) == ReprClass.character(9, 7) + ReprClass.character(9, 8)
    assert table.entry(0, 2) == ReprClass.character(9, 1) + ReprClass.character(9, 2)
    assert table.entry(1, 1) == ReprClass(9, (0, 3, 3, 3, 4, 4, 3, 3, 3))
    weights = table.specialize_weight()
    assert weights[2].dim() == 30 and weights[3].dim() == 2
    assert table.total_dim() == 32


def _enumerated_table(basis, d: int) -> HodgeTable:
    """The census of an enumerated monomial basis as a HodgeTable."""
    mult: dict[tuple[int, int], list[int]] = {}
    for m in basis:
        mult.setdefault((m.p, m.q), [0] * d)[m.char] += 1
    return HodgeTable(d, {pq: ReprClass(d, tuple(v)) for pq, v in mult.items()})


def test_k2_d3_table():
    sing = OrdinarySing(2, 3)
    expected = HodgeTable(3, {(1, 1): ReprClass(3, (0, 1, 1))})
    assert local_hodge_table(sing).table == _enumerated_table(milnor_basis(sing), 3) == expected


def _lowest_terms(ell: Fraction) -> tuple[int, int]:
    return ell.numerator, ell.denominator


def test_dimension_law_all_small_pairs():
    # the closed-form census and spectrum against the monomial enumeration
    for d in range(2, 21):
        for k in range(2, d + 1):
            sing = OrdinarySing(k, d)
            basis = milnor_basis(sing)
            table = local_hodge_table(sing).table
            assert table.total_dim() == (k - 1) ** 2 * (d - 1)
            assert table == _enumerated_table(basis, d), (k, d)
            # the sorted tuple of spectral numbers, checked as the same multiset in
            # non-decreasing order; a Fraction is counted by its lowest-terms pair,
            # which hashes far faster and is equal exactly when the values are
            spectrum = local_spectrum(sing)
            assert isinstance(spectrum, tuple), (k, d)
            assert Counter(map(_lowest_terms, spectrum)) == Counter(_lowest_terms(m.ell) for m in basis), (k, d)
            assert all(a <= b for a, b in zip(spectrum, spectrum[1:])), (k, d)


def test_conjugation_symmetry():
    for k, d in ((2, 3), (3, 9), (4, 7), (5, 12), (2, 12)):
        assert local_hodge_table(OrdinarySing(k, d)).table.is_conjugation_symmetric()


def test_weight3_count_matches_integer_ell_recount():
    for k, d in ((2, 4), (3, 6), (3, 9), (4, 8), (5, 10), (6, 12)):
        sing = OrdinarySing(k, d)
        integral = sum(
            1
            for a in range(k - 1)
            for b in range(k - 1)
            for c in range(d - 1)
            if (Fraction(a + 1, k) + Fraction(b + 1, k) + Fraction(c + 1, d)).denominator == 1
        )
        table = local_hodge_table(sing).table
        weight3 = table.specialize_weight().get(3, ReprClass.zero(d))
        assert weight3.dim() == integral


def test_no_trivial_character_entries():
    for k, d in ((2, 2), (3, 9), (4, 11), (6, 12)):
        table = local_hodge_table(OrdinarySing(k, d)).table
        assert table.dim_of_character(0) == 0


def test_local_spectrum_examples():
    assert local_spectrum(OrdinarySing(2, 3)) == (Fraction(4, 3), Fraction(5, 3))
    assert local_spectrum(OrdinarySing(2, 2)) == (Fraction(3, 2),)
    spec39 = local_spectrum(OrdinarySing(3, 9))
    assert spec39.count(Fraction(1)) == 1 and spec39.count(Fraction(2)) == 1


# ---------------------------------------------------------------------------
# links


def test_link_tables_k3_d9():
    tables = link_hodge_tables(OrdinarySing(3, 9))
    assert tables[1] == HodgeTable(
        9, {(1, 0): ReprClass.character(9, 6), (0, 1): ReprClass.character(9, 3)}
    )
    assert tables[2] == HodgeTable(
        9, {(2, 1): ReprClass.character(9, 6), (1, 2): ReprClass.character(9, 3)}
    )


def test_link_h1_empty_for_k2_d3():
    tables = link_hodge_tables(OrdinarySing(2, 3))
    assert tables[1].support() == []
    assert tables[2].support() == []


def test_link_ends_are_trivial_classes():
    for k, d in ((2, 3), (3, 9), (4, 6)):
        tables = link_hodge_tables(OrdinarySing(k, d))
        assert tables[0] == HodgeTable(d, {(0, 0): ReprClass.trivial(d)})
        assert tables[3] == HodgeTable(d, {(2, 2): ReprClass.trivial(d)})


def test_link_epoly_alternates():
    sing = OrdinarySing(3, 9)
    tables = link_hodge_tables(sing)
    assert link_epoly(sing) == tables[0] - tables[1] + tables[2] - tables[3]
