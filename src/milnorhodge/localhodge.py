"""Equivariant Hodge data of the local Milnor fibers and their links.

The degree-d cyclic cover surface over an arrangement acquires, above each
intersection point of multiplicity k, an isolated singularity of type
g_k(a, b) + c^d with g_k a product of k distinct linear forms.  We work with
the model x^k + y^k + z^d, which has the same weights (1/k, 1/k, 1/d) and the
same equivariant Hodge table: the mu_d-action touches only the last
coordinate, by a root of unity on c.

The second cohomology of the local Milnor fiber has the monomial basis
x^a y^b z^c with 0 <= a, b <= k-2 and 0 <= c <= d-2.  Each monomial carries

* the spectral number ell = (a+1)/k + (b+1)/k + (c+1)/d,
* the character lam^{-(c+1) mod d} (the group scales only z), and
* a Hodge bidegree read off from ell: noninteger ell in (0,1), (1,2), (2,3)
  gives (2,0), (1,1), (0,2); integer ell gives the weight-3 piece (3-ell, ell).

``milnor_basis`` is this enumeration, the reference definition; no other
function here walks it.  With s = a+b+2 and t = c+1, ell = s/k + t/d depends
on (a, b) only through s, which min(s-1, 2k-1-s) pairs reach.  So
``local_hodge_table`` tabulates the running sums of these counts once and
reads each (p, q, character) as a difference of two entries, O(k + d) integer
steps, and ``local_spectrum`` lists the multiset from the (2k-3)(d-1) pairs
(s, t).  The test suite pins both against the enumeration for every
2 <= k <= d <= 20.  ``link_h1`` reads H^1 of the link off the weight-3 part;
link duality and two trivial classes give the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .errors import InvalidSing
from .repring import HodgeTable, ReprClass

__all__ = [
    "OrdinarySing",
    "MonomialDatum",
    "LocalHodgeTable",
    "milnor_basis",
    "local_hodge_table",
    "link_h1",
    "local_spectrum",
]


@dataclass(frozen=True)
class OrdinarySing:
    """Ordinary k-fold point on the degree-d cyclic cover surface."""

    k: int
    d: int

    def __post_init__(self) -> None:
        if self.k < 2 or self.k > self.d:
            raise InvalidSing(f"need 2 <= k <= d, got k={self.k}, d={self.d}")

    @property
    def milnor_number(self) -> int:
        return (self.k - 1) ** 2 * (self.d - 1)


@dataclass(frozen=True)
class MonomialDatum:
    a: int
    b: int
    c: int
    ell: Fraction
    char: int  # exponent of the character lam^char
    p: int
    q: int


def milnor_basis(sing: OrdinarySing) -> list[MonomialDatum]:
    """The (k-1)^2 (d-1) monomials with spectral and Hodge data attached.

    The reference enumeration: ``local_hodge_table`` and ``local_spectrum``
    give its census and its spectrum in closed form.
    """
    k, d = sing.k, sing.d
    out = []
    for a in range(k - 1):
        for b in range(k - 1):
            for c in range(d - 1):
                # ell = (a+1)/k + (b+1)/k + (c+1)/d = n / kd, compared in integers
                n = (a + b + 2) * d + (c + 1) * k
                e, rest = divmod(n, k * d)
                assert 0 < n < 3 * k * d
                p, q = ((2, 0), (1, 1), (0, 2))[e] if rest else (3 - e, e)
                out.append(MonomialDatum(a, b, c, Fraction(n, k * d), (-(c + 1)) % d, p, q))
    return out


@dataclass(frozen=True)
class LocalHodgeTable:
    """Census of the monomial basis by (p, q) and character: H^2 of the local Milnor fiber."""

    sing: OrdinarySing
    table: HodgeTable


# bidegrees of ell in (0,1), {1}, (1,2), {2}, (2,3), in increasing order of ell
_WINDOWS = ((2, 0), (2, 1), (1, 1), (1, 2), (0, 2))


def local_hodge_table(sing: OrdinarySing) -> LocalHodgeTable:
    """Census of ``milnor_basis(sing)`` by (p, q, character), in closed form.

    For t = c+1 the monomials have character lam^{d-t} and ell = s/k + t/d
    with s = a+b+2.  Writing tk = whole*d + rem, ell < e exactly when
    s <= ek - 1 - whole, and ell <= e exactly when s <= ek - whole - [rem > 0];
    the counts between these edges are differences of upto[x], the number of
    (a', b') in [1, k-1]^2 with a' + b' <= x, tabulated once for x in [0, 2k].
    """
    k, d = sing.k, sing.d
    upto = list(accumulate(max(0, min(s - 1, 2 * k - 1 - s)) for s in range(2 * k + 1)))
    full = upto[2 * k]
    m20, m21, m11, m12, m02 = mult = [[0] * d for _ in _WINDOWS]
    for t in range(1, d):
        whole, rem = divmod(t * k, d)
        lt, le = k - 1 - whole, k - whole - (rem > 0)  # edges of ell < 1 and ell <= 1; + k for 2
        e1, e2, e3, e4 = upto[lt], upto[le], upto[lt + k], upto[le + k]
        j = d - t  # the character lam^j
        m20[j], m21[j], m11[j], m12[j], m02[j] = e1, e2 - e1, e3 - e2, e4 - e3, full - e4
    table = HodgeTable(d, {pq: ReprClass(d, m) for pq, m in zip(_WINDOWS, mult)})
    assert table.total_dim() == sing.milnor_number
    return LocalHodgeTable(sing, table)


def local_spectrum(sing: OrdinarySing) -> tuple[Fraction, ...]:
    """The multiset of spectral numbers of ``milnor_basis(sing)``, sorted."""
    k, d = sing.k, sing.d
    grid = sorted(
        (Fraction(s * d + t * k, k * d), min(s - 1, 2 * k - 1 - s))
        for s in range(2, 2 * k - 1)
        for t in range(1, d)
    )
    return tuple(ell for ell, n in grid for _ in range(n))


def link_h1(loc: HodgeTable) -> HodgeTable:
    """H^1 of the link K, pure of weight 1: h^{p,q}(H^1(K), alpha) = h^{p+1,q+1}(H^2(F_s), alpha).

    H^0 and H^3 are one-dimensional of types (0,0) and (2,2) with trivial
    character, and H^2 = ``link_h1(loc).poincare_dual(2)`` by link duality.
    Linear in ``loc``: on ``milnor_sum_table(w)`` it is H^1 summed over all points.
    """
    return HodgeTable(loc.d, {(1, 0): loc.entry(2, 1), (0, 1): loc.entry(1, 2)})
