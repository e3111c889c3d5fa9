import json
import math
import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DATA, ceva_h3
from milnorhodge import assembly, pointcount
from milnorhodge.arrangement import (
    LineArrangement,
    WeakCombData,
    boolean_arrangement,
    ceva_arrangement,
    random_rational_arrangement,
    weak_comb_data,
)
from milnorhodge.assembly import (
    SurfaceH3Data,
    assemble_all,
    check_identities,
    consistency_checks,
    fermat_surface_table,
    fiber_tables,
    milnor_sum_table,
    primitive_h2_weight1,
    primitive_h2_weight2,
    spectrum,
    trivial_tables,
)
from milnorhodge.errors import NegativeMultiplicity, SumRuleViolation
from milnorhodge.localhodge import LocalHodgeTable, OrdinarySing, link_h1, local_hodge_table
from milnorhodge.repring import HodgeTable, ReprClass


# ---------------------------------------------------------------------------
# Fermat reference tables


def test_fermat_d9_values():
    t = fermat_surface_table(9)
    assert t.entry(2, 0)[3] == 1
    assert t.entry(0, 2)[3] == math.comb(5, 2) == 10
    assert t.entry(1, 1)[3] == 57 - 11 == 46
    assert t.entry(2, 0)[8] == math.comb(7, 2) == 21


def test_fermat_column_sums():
    for d in range(3, 13):
        t = fermat_surface_table(d)
        for k in range(1, d):
            assert t.dim_of_character(k) == d * d - 3 * d + 3


def test_fermat_holomorphic_total_is_geometric_genus():
    # hockey stick: sum_k C(k-1, 2) = C(d-1, 3)
    for d in range(3, 13):
        assert fermat_surface_table(d).entry(2, 0).dim() == math.comb(d - 1, 3)


def test_fermat_d4_example():
    assert fermat_surface_table(4).entry(2, 0).dim() == math.comb(3, 3) == 1


def test_fermat_small_degrees_are_the_plane_and_the_quadric():
    assert fermat_surface_table(1) == HodgeTable(1)
    assert fermat_surface_table(2) == HodgeTable(2, {(1, 1): ReprClass.character(2, 1)})


def test_fermat_no_trivial_character_and_symmetry():
    t = fermat_surface_table(9)
    assert t.dim_of_character(0) == 0
    assert t.is_conjugation_symmetric()


# ---------------------------------------------------------------------------
# H3 input validation


def test_h3_data_validation():
    with pytest.raises(ValueError):
        SurfaceH3Data(HodgeTable(9, {(2, 0): ReprClass.character(9, 1)}))
    with pytest.raises(ValueError):
        SurfaceH3Data(HodgeTable(9, {(2, 1): ReprClass.trivial(9)}))
    with pytest.raises(ValueError):
        SurfaceH3Data(HodgeTable(9, {(2, 1): -1 * ReprClass.character(9, 1)}))


# ---------------------------------------------------------------------------
# the two weight assemblies


def _ceva_locals():
    return [local_hodge_table(OrdinarySing(3, 9)) for _ in range(12)]


def _ceva_local_sum():
    return local_hodge_table(OrdinarySing(3, 9)).table.scale(12)


def test_weight1_ceva():
    w1 = primitive_h2_weight1(_ceva_local_sum(), ceva_h3())
    # twelve local (2,1) classes at lam^6 minus the conjugated H3 piece
    assert w1 == HodgeTable(
        9, {(1, 0): ReprClass.character(9, 6, 10), (0, 1): ReprClass.character(9, 3, 10)}
    )


def test_weight1_zero_inputs_give_zero_table():
    w1 = primitive_h2_weight1(HodgeTable(9, {}), SurfaceH3Data.zero(9))
    assert w1.support() == []


def test_weight1_single_node_no_weight3():
    # a (2, 3) point has no weight-3 classes, so nothing survives
    w1 = primitive_h2_weight1(local_hodge_table(OrdinarySing(2, 3)).table, SurfaceH3Data.zero(3))
    assert w1.support() == []


def test_weight1_negative_signals_bad_h3():
    with pytest.raises(NegativeMultiplicity):
        primitive_h2_weight1(_ceva_local_sum(), ceva_h3(13))


def test_weight2_ceva_value_at_lam3():
    w2 = primitive_h2_weight2(fermat_surface_table(9), _ceva_local_sum(), ceva_h3())
    # 46 + 2 + 0 - 12*(3 + 1 + 0) = 0
    assert w2.entry(1, 1)[3] == 0
    assert w2.entry(2, 0)[3] == 1
    assert w2.entry(0, 2)[6] == 1
    assert w2.is_conjugation_symmetric()


def test_weight2_smooth_case_returns_fermat():
    fermat = fermat_surface_table(5)
    w2 = primitive_h2_weight2(fermat, HodgeTable(5, {}), SurfaceH3Data.zero(5))
    assert w2 == fermat


def test_weight_assemblies_reject_mixed_degrees():
    loc = local_hodge_table(OrdinarySing(2, 3)).table
    with pytest.raises(ValueError):
        primitive_h2_weight1(loc, SurfaceH3Data.zero(5))
    with pytest.raises(ValueError):
        primitive_h2_weight2(fermat_surface_table(5), loc, SurfaceH3Data.zero(5))


# ---------------------------------------------------------------------------
# back to the fiber


def test_fiber_tables_h1_from_h3():
    h3 = ceva_h3()
    h1f, _ = fiber_tables(HodgeTable(9, {}), h3.table)
    assert h1f == HodgeTable(
        9, {(1, 0): ReprClass.character(9, 6, 2), (0, 1): ReprClass.character(9, 3, 2)}
    )
    assert h1f.dim_of_character(3) == h1f.dim_of_character(6) == 2
    assert h1f.total_dim() == 4


def test_fiber_tables_zero_and_involutive():
    zero = HodgeTable(9, {})
    assert fiber_tables(zero, zero) == (zero, zero)
    with pytest.raises(ValueError, match="mixed moduli"):
        fiber_tables(zero, HodgeTable(3, {}))
    rng = random.Random(5)
    for _ in range(10):
        d = rng.randint(1, 9)
        entries = {}
        for _ in range(4):
            p, q = rng.randint(0, 2), rng.randint(0, 2)
            entries[(p, q)] = ReprClass(d, tuple(rng.randint(0, 4) for _ in range(d)))
        t = HodgeTable(d, entries)
        once, _ = fiber_tables(t, t)
        twice, _ = fiber_tables(once, once)
        assert twice == t


def test_fiber_duality_routes_agree_on_symmetric_tables():
    # the bidegree pull used by fiber_tables must agree with the
    # Poincare-duality route whenever the input is conjugation symmetric
    rng = random.Random(31)
    for _ in range(10):
        d = rng.randint(2, 9)
        half = ReprClass(d, tuple(rng.randint(0, 5) for _ in range(d)))
        t = HodgeTable(d, {(2, 1): half, (1, 2): half.involution()})
        assert t.is_conjugation_symmetric()
        h1f, _ = fiber_tables(HodgeTable(d, {}), t)
        assert h1f == t.poincare_dual(2)


def test_trivial_tables():
    triv = trivial_tables(weak_comb_data(ceva_arrangement()))
    assert triv[0] == HodgeTable(9, {(0, 0): ReprClass.trivial(9)})
    assert triv[1] == HodgeTable(9, {(1, 1): ReprClass.trivial(9, 8)})
    assert triv[2] == HodgeTable(9, {(2, 2): ReprClass.trivial(9, 16)})
    triv = trivial_tables(weak_comb_data(boolean_arrangement()))
    assert triv[1].entry(1, 1).dim() == 2
    assert triv[2].entry(2, 2).dim() == 1


# ---------------------------------------------------------------------------
# the spectrum


CEVA_SPECTRUM = {
    Fraction(1, 9): 9,
    Fraction(2, 9): 3,
    Fraction(1, 3): 10,
    Fraction(4, 9): 6,
    Fraction(5, 9): 3,
    Fraction(2, 3): 1,
    Fraction(1): 16,
    Fraction(11, 9): 6,
    Fraction(4, 3): -2,
    Fraction(5, 3): 10,
    Fraction(16, 9): 6,
    Fraction(2): -8,
    Fraction(7, 3): 1,
    Fraction(22, 9): 3,
    Fraction(23, 9): 6,
    Fraction(8, 3): -2,
    Fraction(25, 9): 3,
    Fraction(26, 9): 9,
}


def test_ceva_spectrum_complete():
    spec = spectrum(weak_comb_data(ceva_arrangement()))
    assert dict(spec.entries) == CEVA_SPECTRUM
    assert spec.m(3) == 0
    assert spec.total() == 80 == spec.chi_fiber - 1


def test_boolean_spectrum():
    spec = spectrum(weak_comb_data(boolean_arrangement()))
    assert dict(spec.entries) == {Fraction(1): 1, Fraction(2): -2}
    assert spec.total() == -1


def test_pencil_spectrum():
    # three concurrent lines: a single triple point, negative entries in two
    # fractional windows
    pencil = LineArrangement(((1, 0, 0), (0, 1, 0), (1, 1, 0)))
    spec = spectrum(weak_comb_data(pencil))
    assert dict(spec.entries) == {
        Fraction(4, 3): -1,
        Fraction(2): -2,
        Fraction(8, 3): -1,
    }
    assert spec.total() == -4 == spec.chi_fiber - 1


def test_spectrum_depends_only_on_weak_data(generic3):
    assert spectrum(weak_comb_data(generic3)) == spectrum(weak_comb_data(boolean_arrangement()))


def test_spectrum_sum_rule_on_random_arrangements():
    rng = random.Random(41)
    for _ in range(20):
        arr = random_rational_arrangement(rng, rng.randint(2, 8))
        spec = spectrum(weak_comb_data(arr))  # sum rule asserted internally
        assert spec.total() == weak_comb_data(arr).chiF - 1


def test_spectrum_denominators_divide_d():
    spec = spectrum(weak_comb_data(ceva_arrangement()))
    assert all(9 % a.denominator == 0 for a, _ in spec.entries)


def _budur_saito_fractional(w: WeakCombData) -> dict[Fraction, int]:
    """Budur-Saito's closed form for the non-integer spectrum of a line
    arrangement (Math. Ann. 347, 2010), m_{i/d + j} = n_j(i) for 0 < i < d,
    written here with i -> d - i: the exponent reflection f -> 1 - f of this
    package's convention."""
    d, census = w.d, w.counts
    out = {}
    for i in range(1, d):
        r = {m: -(-i * m // d) for m in census if m >= 3}  # ceil(i m / d)
        n0 = math.comb(i - 1, 2) - sum(census[m] * math.comb(r[m] - 1, 2) for m in r)
        n1 = (i - 1) * (d - i - 1) - sum(census[m] * (r[m] - 1) * (m - r[m]) for m in r)
        n2 = math.comb(d - i - 1, 2) - sum(census[m] * math.comb(m - r[m], 2) for m in r)
        for j, n in enumerate((n0, n1, n2)):
            if n:
                out[j + Fraction(d - i, d)] = n
    return out


def _near_pencil(d: int) -> LineArrangement:
    # d - 1 lines through (0:0:1) and the line z = 0
    forms = [(1, -t, 0) for t in range(d - 1)] + [(0, 0, 1)]
    return LineArrangement(tuple(forms))


def test_spectrum_matches_budur_saito_closed_form():
    # an oracle for the fractional spectrum that bypasses localhodge entirely
    pencil = LineArrangement(((1, 0, 0), (0, 1, 0), (1, 1, 0)))
    arrangements = [ceva_arrangement(), pencil] + [_near_pencil(d) for d in range(4, 8)]
    rng = random.Random(43)
    arrangements += [random_rational_arrangement(rng, rng.randint(3, 8), 2) for _ in range(20)]
    for arr in arrangements:
        w = weak_comb_data(arr)
        fractional = {a: m for a, m in spectrum(w).entries if a.denominator != 1}
        assert fractional == _budur_saito_fractional(w), w


@st.composite
def _weak_data(draw) -> WeakCombData:
    # a few multiplicities k >= 3 within the C(d, 2) line pairs, the rest double
    # points; the census need not be realizable by actual lines
    d = draw(st.integers(3, 200))
    pairs = math.comb(d, 2)
    census = {}
    for k in draw(st.lists(st.integers(3, d), max_size=3, unique=True)):
        census[k] = draw(st.integers(0, pairs // math.comb(k, 2)))
        pairs -= census[k] * math.comb(k, 2)
    census[2] = pairs
    return WeakCombData.make(d, census)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(_weak_data())
@example(WeakCombData.make(200, {199: 1, 2: 199}))  # the near-pencil with d = 200
def test_spectrum_sum_rule_and_symmetry_on_random_weak_data(w):
    spec = spectrum(w)  # sum rule asserted internally
    fractional = {a: m for a, m in spec.entries if a.denominator != 1}
    assert fractional == _budur_saito_fractional(w)
    assert milnor_sum_table(w).is_conjugation_symmetric()


def _spectrum_entries_by_put(w):
    """The spectrum entries as the dict-and-sort construction built them, kept as an oracle."""
    d = w.d
    fermat = fermat_surface_table(d)
    loc = milnor_sum_table(w)
    m20 = fermat.entry(2, 0) - loc.entry(2, 0)
    m11 = fermat.entry(1, 1) - loc.entry(1, 1) - loc.entry(1, 2)
    m02 = fermat.entry(0, 2) - loc.entry(0, 2) - loc.entry(1, 2)

    acc = {}

    def put(a, m):
        if m:
            acc[a] = acc.get(a, 0) + m

    put(Fraction(1), w.b2M)
    put(Fraction(2), -w.b1M)
    for j in range(1, d):
        frac = Fraction(d - j, d)
        i = d - j
        put(frac, m20[j])
        put(1 + frac, m11[i])
        put(2 + frac, m02[j])
    return tuple(sorted(acc.items()))


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(_weak_data())
@example(WeakCombData.make(200, {199: 1, 2: 199}))
def test_spectrum_entries_come_out_in_ascending_order(w):
    entries = spectrum(w).entries
    assert all(a < b for (a, _), (b, _) in zip(entries, entries[1:]))
    assert entries == _spectrum_entries_by_put(w)


def test_assembly_builds_each_local_table_once(monkeypatch):
    calls = []

    def counting(sing):
        calls.append((sing.k, sing.d))
        return local_hodge_table(sing)

    monkeypatch.setattr("milnorhodge.assembly.local_hodge_table", counting)
    report = assemble_all(weak_comb_data(ceva_arrangement()), ceva_h3())
    assert report.all_pass()
    assert calls == [(3, 9)]


def _spectrum_via_chain(arr, h3):
    """Recompute the spectrum from the fully assembled fiber tables."""
    w = weak_comb_data(arr)
    report = assemble_all(w, h3)
    d = w.d
    out = {}

    def put(a, m):
        if m:
            out[a] = m

    put(Fraction(1), w.b2M)
    put(Fraction(2), -w.b1M)
    for j in range(1, d):
        for window in range(3):
            a = window + Fraction(d - j, d)
            p = 2 - window  # integer part of 3 - a
            h1 = sum(
                r[j] for (pp, _), r in report.h1f.entries.items() if pp == p
            )
            h2 = sum(
                r[j] for (pp, _), r in report.h2f.entries.items() if pp == p
            )
            put(a, -h1 + h2)
    return out


def test_spectrum_formula_matches_full_chain_and_ignores_h3():
    arr = ceva_arrangement()
    direct = dict(spectrum(weak_comb_data(arr)).entries)
    for mult in (2, 5, 12):
        assert _spectrum_via_chain(arr, ceva_h3(mult)) == direct


def test_spectrum_chain_boolean_zero_h3():
    arr = boolean_arrangement()
    direct = dict(spectrum(weak_comb_data(arr)).entries)
    assert _spectrum_via_chain(arr, SurfaceH3Data.zero(3)) == direct


# ---------------------------------------------------------------------------
# full assembly and identity checks


def test_assemble_ceva_full(h3_ceva):
    report = assemble_all(weak_comb_data(ceva_arrangement()), h3_ceva)
    assert report.all_pass(), [c for c in report.checks if not c.passed]
    assert report.h1f.dim_of_character(3) == 2
    assert report.h1f.dim_of_character(6) == 2
    # the assembled tables satisfy the covering-space Euler characteristic
    # identity, which forces dim H2(F) at each primitive cube-root character
    for j in range(1, 9):
        assert -report.h1f.dim_of_character(j) + report.h2f.dim_of_character(j) == 9
    assert report.h2f.dim_of_character(3) == 11
    # the weight-3 multiplicity consistent with the identities above: twelve
    # local classes minus the two-dimensional H3 piece
    assert report.h2f.entry(1, 2)[3] == 10
    assert report.h2f.entry(2, 1)[6] == 10


def test_assemble_p_tables(h3_ceva):
    report = assemble_all(weak_comb_data(ceva_arrangement()), h3_ceva)
    # P(X) = 1 + uv + (uv)^2 + H2_0 - H3
    assert report.px.entry(0, 0) == ReprClass.trivial(9)
    assert report.px.entry(2, 1) == -1 * h3_ceva.table.entry(2, 1)
    # P_c(F) = P(X) - P(V): trivial components 16 at (0,0), -8 at (1,1),
    # 1 at (2,2); the nontrivial (1,1) part comes straight from H2_0(X)
    assert report.pcf.entry(0, 0) == ReprClass.trivial(9, 16)
    assert report.pcf.entry(1, 1) == ReprClass.trivial(9, -8) + report.h2x.entry(1, 1)
    assert report.pcf.entry(2, 2) == ReprClass.trivial(9, 1)


def test_checks_fail_on_corrupted_h3(data_dir):
    import json

    from milnorhodge.repring import HodgeTable as HT

    blob = json.loads((data_dir / "ceva_h3x_corrupt.json").read_text())
    h3 = SurfaceH3Data(HT.from_json_dict(blob))
    report = assemble_all(weak_comb_data(ceva_arrangement()), h3)
    failed = {c.name for c in report.checks if not c.passed}
    assert failed == {"conjugation_symmetry", "euler_characteristic_identity", "link_localization_identity"}


def _literal_localization_rhs(w: WeakCombData) -> HodgeTable:
    """P(Sigma) - D[P(Sigma)] - sum_s (H^0 - H^1 + H^2 - H^3)(K_s), term by term,
    with each link's four groups written out from its local table."""
    d = w.d
    triv = ReprClass.trivial(d)
    p_sigma = HodgeTable(d, {(0, 0): ReprClass.trivial(d, sum(count for _, count in w.m))})
    out = p_sigma - p_sigma.poincare_dual(2)
    for k, count in w.m:
        loc = local_hodge_table(OrdinarySing(k, d)).table
        h0 = HodgeTable(d, {(0, 0): triv})
        h1 = HodgeTable(d, {(1, 0): loc.entry(2, 1), (0, 1): loc.entry(1, 2)})
        h2 = HodgeTable(d, {(2, 1): loc.entry(1, 2).involution(), (1, 2): loc.entry(2, 1).involution()})
        h3 = HodgeTable(d, {(2, 2): triv})
        out = out - (h0 - h1 + h2 - h3).scale(count)
    return out


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(_weak_data() | st.integers(3, 40).map(lambda d: weak_comb_data(_near_pencil(d))))
@example(WeakCombData.make(200, {199: 1, 2: 199}))
def test_localization_check_reads_the_summed_link_h1(w):
    # the check compares P(X) - D[P(X)] with h1k - D[h1k]; the literal
    # right-hand side must agree on every census
    h1k = link_h1(milnor_sum_table(w))
    assert _literal_localization_rhs(w) == h1k - h1k.poincare_dual(2)


def test_pencil_assembly_pins_h3_orientation():
    # three concurrent lines: the fiber is (curve) x C, so H2(F) nontrivial
    # part must vanish; only one orientation of the H3 data is admissible
    pencil = LineArrangement(((1, 0, 0), (0, 1, 0), (1, 1, 0)))
    good = SurfaceH3Data(
        HodgeTable(3, {(2, 1): ReprClass.character(3, 2), (1, 2): ReprClass.character(3, 1)})
    )
    report = assemble_all(weak_comb_data(pencil), good)
    assert report.all_pass(), [c for c in report.checks if not c.passed]
    assert report.h1f.dim_of_character(1) == report.h1f.dim_of_character(2) == 1
    assert report.h2f.support() == []

    flipped = SurfaceH3Data(
        HodgeTable(3, {(2, 1): ReprClass.character(3, 1), (1, 2): ReprClass.character(3, 2)})
    )
    with pytest.raises(NegativeMultiplicity):
        assemble_all(weak_comb_data(pencil), flipped)


def test_checks_degenerate_smooth_case():
    # one line: no singular points; the localization identity reads 0 = 0
    arr = LineArrangement(((1, 0, 0),))
    report = assemble_all(weak_comb_data(arr), SurfaceH3Data.zero(1))
    assert report.all_pass()
    # X is the plane here, so P_c(F) is the affine plane class
    assert report.pcf == HodgeTable(1, {(2, 2): ReprClass.trivial(1)})


def test_milnor_sum_table_matches_explicit_list():
    w = weak_comb_data(ceva_arrangement())
    total = milnor_sum_table(w)
    explicit = HodgeTable(9, {})
    for t in _ceva_locals():
        explicit = explicit + t.table
    assert total == explicit


# ---------------------------------------------------------------------------
# the consistency suite: two routes agree, and every check can fail


@pytest.mark.parametrize(
    "arr",
    [ceva_arrangement()]
    + [_near_pencil(d) for d in range(2, 20)]
    + [random_rational_arrangement(random.Random(seed), 1 + seed % 12, 2 + seed % 3) for seed in range(40)],
)
def test_chiF_routes_agree(arr):
    # d chi(M) against the smoothing: chi(X) minus the Milnor numbers, minus chi(V)
    (entry,) = [c for c in consistency_checks(arr, None, [], 0) if c.name == "chiF_multiplicativity"]
    assert entry == assembly.CheckResult("chiF_multiplicativity", True, f"chiF={weak_comb_data(arr).chiF}")


def _suite(h3=None):
    return consistency_checks(boolean_arrangement(), h3, [7], 0)


def _corrupted(edit):
    """check_identities on Ceva's assembly after ``edit`` replaced some fields of its report."""
    w = weak_comb_data(ceva_arrangement())
    report = assemble_all(w, ceva_h3())
    return check_identities(w, milnor_sum_table(w), replace(report, **edit(report)))


def _one_more(table: HodgeTable, p: int, q: int) -> HodgeTable:
    return table + HodgeTable(9, {(p, q): ReprClass.character(9, 1)})


def _patched(monkeypatch, target, name, value):
    monkeypatch.setattr(target, name, value)
    return _suite()


def _point_moved(arr, q, real=pointcount.brute_force_count):
    t = real(arr, q)
    return replace(t, class_counts=(t.class_counts[0], t.class_counts[1] + 1, t.class_counts[2] - 1))


def _raise_sum_rule(w):
    raise SumRuleViolation("spectrum sums to 1, expected chi(F) - 1 = 0")


def _corrupt_h3():
    blob = json.loads((DATA / "ceva_h3x_corrupt.json").read_text())
    return consistency_checks(ceva_arrangement(), SurfaceH3Data(HodgeTable.from_json_dict(blob)), [], 0)


# check kind -> a run of the suite (or of check_identities) in which that kind fails
_WITNESSES = {
    "weak_data_pair_count": lambda mp: _patched(
        mp, assembly, "intersection_data", lambda arr: {(0, 0, 1): frozenset({0, 1, 2})}
    ),
    "chiF_multiplicativity": lambda mp: _patched(
        mp, WeakCombData, "chiM", property(lambda w: 2 - w.b1M + w.b2M)
    ),
    "local_dimension_law_k*": lambda mp: _patched(
        mp, assembly, "local_hodge_table", lambda sing: LocalHodgeTable(sing, HodgeTable(sing.d))
    ),
    "assembly": lambda mp: _suite(SurfaceH3Data.zero(5)),
    "link_localization_identity": lambda mp: _corrupt_h3(),
    "conjugation_symmetry": lambda mp: _corrupt_h3(),
    "euler_characteristic_identity": lambda mp: _corrupt_h3(),
    "weight1_purity": lambda mp: _corrupted(lambda r: {"h1f": _one_more(r.h1f, 2, 0)}),
    "no_weight4_in_H2F": lambda mp: _corrupted(lambda r: {"h2f": _one_more(r.h2f, 2, 2)}),
    "compact_support_identity": lambda mp: _corrupted(lambda r: {"pcf": _one_more(r.pcf, 0, 0)}),
    "spectrum_sum_rule": lambda mp: _corrupted(lambda r: {"spec": replace(r.spec, entries=r.spec.entries[1:])}),
    "random_weak_data_sum_rule": lambda mp: _patched(mp, assembly, "spectrum", _raise_sum_rule),
    "count_oracle_q*": lambda mp: _patched(mp, pointcount, "brute_force_count", _point_moved),
    "complement_charpoly_q*": lambda mp: _patched(mp, WeakCombData, "charpoly_value", lambda w, t: -1),
}
# these four restate how the assembly builds its tables, so no input can make them fail: a
# report whose tables were corrupted after assembly stands in for a wrong assembly
_STRUCTURAL = {"weight1_purity", "no_weight4_in_H2F", "compact_support_identity", "spectrum_sum_rule"}


def _kind(name: str) -> str:
    """The check name with its multiplicity or prime replaced by ``*``."""
    return re.sub(r"_([kq])[0-9]+$", r"_\1*", name)


@pytest.mark.parametrize(
    "kind", [pytest.param(k, id=f"{k}-structural" if k in _STRUCTURAL else k) for k in _WITNESSES]
)
def test_each_check_kind_has_a_failing_witness(monkeypatch, kind):
    entries = [c for c in _WITNESSES[kind](monkeypatch) if _kind(c.name) == kind]
    assert entries and not any(c.passed for c in entries)


def test_every_check_name_has_a_witness(golden_dir):
    kinds = {"assembly"}
    for name in ("check_boolean.json", "h2f_ceva.json"):
        kinds |= {_kind(c["name"]) for c in json.loads((golden_dir / name).read_text())["checks"]}
    assert kinds == set(_WITNESSES)
