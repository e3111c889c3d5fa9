"""Global Hodge assembly for line-arrangement Milnor fibers.

The Milnor fiber F of a degree-d line arrangement compactifies to the surface
X : Q(x, y, z) = t^d in P^3, whose isolated singularities sit over the
multiple points of the arrangement.  Three relations assemble the equivariant
Hodge tables of F from the weak combinatorial data (d, m_k) and the character
table of H^3(X), supplied from outside (the CLI's ``--h3x``), which the weak
data do not determine:

* the weight-1 part of the primitive H^2 of X is the link H^1 summed over the
  singular points minus the Poincare dual of H^3;
* the weight-2 part compares X with its smoothing, the degree-d Fermat
  surface, via the vanishing-cohomology four-term exact sequence;
* the nontrivial-character parts of H^1(F) and H^2(F) are the primitive
  cohomology of X read backwards through duality.

``assemble_all(w, h3)`` takes exactly these two inputs and returns every table.
The arrangement spectrum needs the weak data alone: composing the three
relations makes the H^3 terms cancel against their conjugates, leaving, per
fractional exponent a, a Fermat-surface multiplicity minus a local census.
The sum rule (total = reduced Euler characteristic of F) is asserted on every
run; together with the reference fixtures it pins the sign conventions.
``consistency_checks`` builds all of the ``check`` command: these identities
and second routes through the weak data, local tables and point counts.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction

from . import pointcount
from .arrangement import Arrangement, WeakCombData, epoly_V, intersection_data, weak_comb_data
from .arrangement import random_rational_arrangement
from .errors import MilnorHodgeError, NegativeMultiplicity, SumRuleViolation
from .localhodge import OrdinarySing, link_h1, local_hodge_table
from .repring import HodgeTable, ReprClass

__all__ = [
    "SurfaceH3Data",
    "Spectrum",
    "CheckResult",
    "AssemblyReport",
    "fermat_surface_table",
    "milnor_sum_table",
    "primitive_h2_weight1",
    "primitive_h2_weight2",
    "fiber_tables",
    "trivial_tables",
    "spectrum",
    "assemble_all",
    "check_identities",
    "consistency_checks",
]


# ---------------------------------------------------------------------------
# Fermat reference surface


def fermat_surface_table(d: int) -> HodgeTable:
    """Primitive H^2 of the degree-d Fermat surface as a character table.

    With the group scaling the last coordinate, the holomorphic part has
    h^{2,0}(lam^k) = C(k-1, 2); conjugation gives h^{0,2}, and each nontrivial
    character column sums to d^2 - 3d + 3.  Every d >= 1 is served: the plane
    (d = 1) has none, the quadric (d = 2) one (1,1) class at lam^1.
    """
    total = d * d - 3 * d + 3
    h20 = [0] * d
    h02 = [0] * d
    h11 = [0] * d
    for k in range(1, d):
        h20[k] = math.comb(k - 1, 2)
        h02[k] = math.comb(d - k - 1, 2)
        h11[k] = total - h20[k] - h02[k]
        assert h11[k] >= 0
    return HodgeTable(d, {(2, 0): ReprClass(d, h20), (1, 1): ReprClass(d, h11), (0, 2): ReprClass(d, h02)})


# ---------------------------------------------------------------------------
# externally supplied H^3 character data


@dataclass(frozen=True)
class SurfaceH3Data:
    """Character data of H^3 of the cover surface X.

    H^3 is pure of weight 3 with no trivial-character part, and for every
    arrangement instance handled here its (3,0)/(0,3) pieces vanish; the
    constructor enforces exactly that shape.  Conjugation symmetry is *not*
    enforced, so corrupted inputs can be fed to the consistency checks.
    """

    table: HodgeTable

    def __post_init__(self) -> None:
        for (p, q), r in self.table.entries.items():
            if (p, q) not in ((2, 1), (1, 2)):
                raise ValueError("H3 data must be supported on (2,1) and (1,2)")
            if r[0] != 0:
                raise ValueError("H3 data must have no trivial-character part")
            if not r.is_effective():
                raise ValueError("H3 multiplicities must be nonnegative")

    @property
    def d(self) -> int:
        return self.table.d


# ---------------------------------------------------------------------------
# local data summed over the singular points


def milnor_sum_table(w: WeakCombData) -> HodgeTable:
    """Sum of the local Milnor-fiber tables over all singular points."""
    d = w.d
    sums: dict[tuple[int, int], list[int]] = {}
    for k, count in w.m:
        for pq, r in local_hodge_table(OrdinarySing(k, d)).table.entries.items():
            acc = sums.get(pq, [0] * d)
            sums[pq] = [a + count * m for a, m in zip(acc, r.mult)]
    return HodgeTable(d, {pq: ReprClass(d, v) for pq, v in sums.items()})


# ---------------------------------------------------------------------------
# the two assembly relations for primitive H^2 of X


def _require_effective(table: HodgeTable, what: str) -> HodgeTable:
    if not table.is_effective():
        raise NegativeMultiplicity(f"{what} came out negative; H3 input is inconsistent")
    return table


def primitive_h2_weight1(loc: HodgeTable, h3: SurfaceH3Data) -> HodgeTable:
    """Weight-1 part of primitive H^2 of X.

    h^{p,q}(H^2_0(X), alpha) = sum_s h^{p,q}(H^1(K_s), alpha)
                               - h^{2-p,2-q}(H^3(X), conj(alpha))
    for (p, q) in {(1,0), (0,1)}, with ``loc`` the sum over s (milnor_sum_table);
    mixed moduli raise ValueError.
    """
    return _require_effective(link_h1(loc) - h3.table.poincare_dual(2), "weight-1 part of H2_0(X)")


def primitive_h2_weight2(fermat: HodgeTable, loc: HodgeTable, h3: SurfaceH3Data) -> HodgeTable:
    """Weight-2 part of primitive H^2 of X, by comparison with the smoothing.

    h^{p,q}(H^2_0(X), alpha) = h^{p,q}(Fermat, alpha)
        + h^{p,q+1}(H^3, alpha) + h^{p+1,q}(H^3, alpha)
        - sum_s (h^{p,q} + h^{p,q+1} + h^{p+1,q})(H^2(F_s), alpha)
    for p + q = 2, with out-of-range bidegrees read as zero.
    """
    entries = {}
    for p, q in ((2, 0), (1, 1), (0, 2)):
        entries[(p, q)] = (
            fermat.entry(p, q)
            + h3.table.entry(p, q + 1)
            + h3.table.entry(p + 1, q)
            - loc.entry(p, q)
            - loc.entry(p, q + 1)
            - loc.entry(p + 1, q)
        )
    return _require_effective(HodgeTable(h3.d, entries), "weight-2 part of H2_0(X)")


# ---------------------------------------------------------------------------
# back to the Milnor fiber


def fiber_tables(h2x: HodgeTable, h3x: HodgeTable) -> tuple[HodgeTable, HodgeTable]:
    """Nontrivial-character Hodge tables of H^1(F) and H^2(F).

    Duality between fiber and primitive surface cohomology in the form
    h^{p,q}(H^j(F), alpha) = h^{2-q,2-p}(H^{4-j}_0(X), alpha), j = 1, 2.
    """
    if h2x.d != h3x.d:
        raise ValueError("mixed moduli")

    def pull(src: HodgeTable) -> HodgeTable:
        return HodgeTable(src.d, {(2 - b, 2 - a): r for (a, b), r in src.entries.items()})

    return pull(h3x), pull(h2x)


def trivial_tables(w: WeakCombData) -> dict[int, HodgeTable]:
    """Trivial-character parts: H^j(F)_1 is b_j(M) copies of type (j, j)."""
    betti = {0: 1, 1: w.b1M, 2: w.b2M}
    return {j: HodgeTable(w.d, {(j, j): ReprClass.trivial(w.d, b)}) for j, b in betti.items()}


# ---------------------------------------------------------------------------
# the spectrum


@dataclass(frozen=True)
class Spectrum:
    """Rational-exponent spectrum; entries with zero multiplicity are dropped."""

    d: int
    chi_fiber: int
    entries: tuple[tuple[Fraction, int], ...]

    def total(self) -> int:
        return sum(m for _, m in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "chiF": self.chi_fiber,
            "sum": self.total(),
            "entries": [{"a": str(a), "m": m} for a, m in self.entries],
        }


def spectrum(w: WeakCombData) -> Spectrum:
    """The arrangement spectrum from weak combinatorial data alone.

    With beta = exp(-2*pi*i*a) = lam^j and gamma = conj(beta):

    * 0 < a < 1:  m_a = h^{2,0}(Fermat, beta) - sum_s h^{2,0}(F_s, beta)
    * 1 < a < 2:  m_a = h^{1,1}(Fermat, gamma)
                        - sum_s (h^{1,1} + h^{1,2})(F_s, gamma)
    * 2 < a < 3:  m_a = h^{0,2}(Fermat, beta)
                        - sum_s (h^{0,2} + h^{1,2})(F_s, beta)
    * integers:   m_1 = b_2(M), m_2 = -b_1(M), m_3 = 0.

    The H^3 terms of the assembly relations cancel in these combinations, so
    the result depends only on (d, m_k); the sum over all entries must equal
    chi(F) - 1 and is asserted.
    """
    return _spectrum(w, milnor_sum_table(w))


def _spectrum(w: WeakCombData, loc: HodgeTable) -> Spectrum:
    """``spectrum(w)`` with ``loc = milnor_sum_table(w)`` already built."""
    d = w.d
    fermat = fermat_surface_table(d)
    f20, f11, f02 = (fermat.entry(p, q).mult for p, q in ((2, 0), (1, 1), (0, 2)))
    s20, s11, s12, s02 = (loc.entry(p, q).mult for p, q in ((2, 0), (1, 1), (1, 2), (0, 2)))
    # a = n/d for n = i, d, d + i, 2d, 2d + i in ascending order; m_3 is zero, since
    # nothing above weight 2 survives in the trivial part.  Most m are zero, so
    # only the others get a Fraction
    low = [(i, f20[d - i] - s20[d - i]) for i in range(1, d)]
    mid = [(d + i, f11[i] - s11[i] - s12[i]) for i in range(1, d)]
    high = [(2 * d + i, f02[d - i] - s02[d - i] - s12[d - i]) for i in range(1, d)]
    entries = tuple(
        [(Fraction(n, d), m) for n, m in (*low, (d, w.b2M), *mid, (2 * d, -w.b1M), *high) if m]
    )
    total = sum(m for _, m in entries)
    chi_f = w.chiF
    if total != chi_f - 1:
        raise SumRuleViolation(f"spectrum sums to {total}, expected chi(F) - 1 = {chi_f - 1}")
    return Spectrum(d=d, chi_fiber=chi_f, entries=entries)


# ---------------------------------------------------------------------------
# full assembly and consistency checks


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class AssemblyReport:
    spec: Spectrum
    trivial: dict[int, HodgeTable]
    h3: SurfaceH3Data
    h2x: HodgeTable
    h1f: HodgeTable
    h2f: HodgeTable
    px: HodgeTable
    pcf: HodgeTable
    checks: tuple[CheckResult, ...]

    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)


def _p2(d: int) -> HodgeTable:
    """1 + uv + (uv)^2, the ambient part of P(X) for a surface in P^3."""
    triv = ReprClass.trivial(d)
    return HodgeTable(d, {(0, 0): triv, (1, 1): triv, (2, 2): triv})


def assemble_all(w: WeakCombData, h3: SurfaceH3Data) -> AssemblyReport:
    """Spectrum, trivial parts and fiber tables from the weak data and H^3 of X."""
    d = w.d
    if h3.d != d:
        raise MilnorHodgeError(f"H3 data modulus {h3.d} differs from arrangement degree {d}")
    loc = milnor_sum_table(w)  # built once: the spectrum, weight relations and checks share it
    h2x = primitive_h2_weight1(loc, h3) + primitive_h2_weight2(fermat_surface_table(d), loc, h3)
    h1f, h2f = fiber_tables(h2x, h3.table)
    px = _p2(d) + h2x - h3.table
    report = AssemblyReport(
        spec=_spectrum(w, loc),
        trivial=trivial_tables(w),
        h3=h3,
        h2x=h2x,
        h1f=h1f,
        h2f=h2f,
        px=px,
        pcf=px - epoly_V(w),
        checks=(),
    )
    return replace(report, checks=tuple(check_identities(w, loc, report)))


def _sum_rule_check(w: WeakCombData, spec: Spectrum) -> CheckResult:
    return CheckResult(
        "spectrum_sum_rule", spec.total() == w.chiF - 1, f"sum {spec.total()} == chi(F) - 1 = {w.chiF - 1}"
    )


def check_identities(w: WeakCombData, loc: HodgeTable, report: AssemblyReport) -> list[CheckResult]:
    """Weight purity, localization, conjugation, compact-support, Euler and sum-rule checks.

    ``report`` is assembled from ``w``, and ``loc`` is ``milnor_sum_table(w)``; the
    localization check reads its link H^1.
    """
    d = w.d
    ok = all(p + q == 1 for (p, q) in report.h1f.support())
    checks = [CheckResult("weight1_purity", ok, "H1(F) nontrivial part is pure weight 1")]
    ok = all(p + q != 4 for (p, q) in report.h2f.support())
    checks.append(CheckResult("no_weight4_in_H2F", ok, "H2(F) nontrivial part has no (p,q) with p+q=4"))

    # localization: P(X) - D[P(X)] = P(Sigma) - D[P(Sigma)] - sum_s (H^0 - H^1 + H^2 - H^3)(K_s).
    # For n points, P(Sigma) - D[P(Sigma)] and sum_s (H^0 - H^3)(K_s) are both n (0,0) - n (2,2)
    # and cancel; H^2 = D[H^1] by link duality leaves h1k - D[h1k].
    h1k = link_h1(loc)
    ok = report.px - report.px.poincare_dual(2) == h1k - h1k.poincare_dual(2)
    detail = "P(X) minus its twisted dual matches the singular locus and link terms"
    checks.append(CheckResult("link_localization_identity", ok, detail))

    symmetric = {"H3(X) input": report.h3.table, "H2_0(X)": report.h2x, "H1(F)": report.h1f, "H2(F)": report.h2f}
    bad = [name for name, t in symmetric.items() if not t.is_conjugation_symmetric()]
    detail = "asymmetric: " + ", ".join(bad) if bad else "all tables symmetric"
    checks.append(CheckResult("conjugation_symmetry", not bad, detail))

    # compact supports: P(X) - P(V) must equal the table assembled from
    # H^*_c(F) = primitive cohomology of X plus the dual trivial part.
    triv = ReprClass.trivial
    pcf_direct = (
        report.h2x
        + HodgeTable(d, {(0, 0): triv(d, w.b2M)})
        - report.h3.table
        - HodgeTable(d, {(1, 1): triv(d, w.b1M)})
        + HodgeTable(d, {(2, 2): triv(d)})
    )
    detail = "P(X) - P(V) equals the compactly-supported fiber table"
    checks.append(CheckResult("compact_support_identity", report.pcf == pcf_direct, detail))

    bad = [j for j in range(1, d) if report.h2f.dim_of_character(j) - report.h1f.dim_of_character(j) != w.chiM]
    detail = f"fails at characters {bad}" if bad else "each nontrivial character contributes chi(M)"
    checks.append(CheckResult("euler_characteristic_identity", not bad, detail))
    checks.append(_sum_rule_check(w, report.spec))
    return checks


def _first_count_difference(fast, brute) -> str:
    """The first count where the fast census and the oracle differ, or ''.

    Twisted counts are a function of the class counts, so they need no check.
    """
    pairs = [("zero_count", fast.zero_count, brute.zero_count)]
    pairs += [(f"class_counts[{j}]", *ab) for j, ab in enumerate(zip(fast.class_counts, brute.class_counts))]
    return next((f"{name}: fast {a} vs brute force {b}" for name, a, b in pairs if a != b), "")


def consistency_checks(
    arr: Arrangement, h3: SurfaceH3Data | None, primes: list[int], seed: int
) -> list[CheckResult]:
    """Every entry of the ``check`` command, in its order: weak data, local tables, ``assemble_all``
    (only the spectrum sum rule without ``h3``; one ``assembly`` entry if either raises), the sum rule
    on five arrangements drawn from ``seed``, and the point counts at ``primes``.  A bad prime raises
    BadPrime before any entry is built."""
    tables = pointcount.count_tables(arr, primes)
    w = weak_comb_data(arr)
    d = w.d
    points = dict(sorted(Counter(map(len, intersection_data(arr).values())).items()))
    ok = w.counts == points
    detail = "census covers every line pair" if ok else f"groups {w.counts} vs points {points}"
    checks = [CheckResult("weak_data_pair_count", ok, detail)]
    # chi(F) = chi(X) - chi(V), chi(X) the smoothing's d^3 - 4d^2 + 6d less the Milnor numbers
    milnor = sum(n * OrdinarySing(k, d).milnor_number for k, n in w.m)
    chi_f = d**3 - 4 * d**2 + 6 * d - milnor - (2 * d - w.sum_mult_minus_one())
    detail = f"chiF={w.chiF}" if w.chiF == chi_f else f"d*chi(M)={w.chiF} vs smoothing {chi_f}"
    checks.append(CheckResult("chiF_multiplicativity", w.chiF == chi_f, detail))
    for k, _ in w.m:
        sing = OrdinarySing(k, d)
        total = local_hodge_table(sing).table.total_dim()
        ok = total == sing.milnor_number
        detail = "" if ok else f"table total {total} vs Milnor number {sing.milnor_number}"
        checks.append(CheckResult(f"local_dimension_law_k{k}", ok, detail))
    try:
        checks.extend([_sum_rule_check(w, spectrum(w))] if h3 is None else assemble_all(w, h3).checks)
    except MilnorHodgeError as exc:
        checks.append(CheckResult("assembly", False, f"{exc.code}: {exc}"))
    rng = random.Random(seed)
    ok, detail = True, ""
    for _ in range(5):
        try:
            spectrum(weak_comb_data(random_rational_arrangement(rng, rng.randint(3, 6))))
        except MilnorHodgeError as exc:
            ok, detail = False, str(exc)
            break
    checks.append(CheckResult("random_weak_data_sum_rule", ok, detail))
    for q, fast in zip(primes, tables):
        if q <= 50:
            detail = _first_count_difference(fast, pointcount.brute_force_count(arr, q))
            checks.append(CheckResult(f"count_oracle_q{q}", not detail, detail))
        counted, expected = pointcount.complement_count(fast), w.charpoly_value(q)
        ok = counted == expected
        checks.append(CheckResult(f"complement_charpoly_q{q}", ok, f"{counted} vs {expected}"))
    return checks
