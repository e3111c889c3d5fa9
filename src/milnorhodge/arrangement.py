"""Exact combinatorics of projective line arrangements.

A line ax + by + cz = 0 is its integer triple (a, b, c) in canonical form (gcd
one, first nonzero coefficient positive), enforced in one place: the
``LineArrangement`` constructor, which also rejects zero, repeated and missing
forms.  Pairwise cross products over Z give ``intersection_data``, the exact
rank-2 incidence map (point -> indices of its lines), for the ``combinatorics``
command and the ``weak_data_pair_count`` check only.  The rest builds no point:
on each line the later lines fall into groups by where they meet it
(``_line_groups``, over the meetings of ``_meeting_pairs``).  A point of
multiplicity k gives one group of each size 1, ..., k - 1, so the weak data that
every Hodge quantity consumes, the line count d and the census m_k of points of
multiplicity k, have m_k = g_{k-1} - g_k for g_s the number of groups of size
s, and the good-reduction rule in ``pointcount`` checks each line's groups.

Two types share one interface (``d``, ``forms_mod(q)`` and ``describe``):
``LineArrangement`` holds rational lines, and ``CevaArrangement``, whose lines
need cube roots of unity, lists its twelve points itself.  Only
``intersection_data`` and ``_line_groups`` tell them apart.
"""

from __future__ import annotations

import math
import operator
import random
import re
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from typing import Collection, Iterator, Mapping, Sequence

from .errors import DuplicateLine, ParseError, ZeroForm
from .repring import HodgeTable, ReprClass

__all__ = [
    "LineArrangement",
    "CevaArrangement",
    "Arrangement",
    "WeakCombData",
    "parse_arrangement",
    "boolean_arrangement",
    "ceva_arrangement",
    "random_rational_arrangement",
    "intersection_data",
    "weak_comb_data",
    "epoly_V",
]


Triple = tuple[int, int, int]


def _canonical_triple(a: int, b: int, c: int) -> Triple:
    """The form divided by its content, signed so that its first nonzero entry is positive.

    ``math.gcd`` reads each coefficient through ``__index__``: a float raises TypeError.
    """
    g = math.gcd(a, b, c)
    if not g:
        raise ZeroForm("all three coefficients vanish")
    if (a or b or c) < 0:
        g = -g
    return (a // g, b // g, c // g)


@dataclass(frozen=True)
class LineArrangement:
    """A reduced arrangement of rational lines: canonical forms in input order."""

    lines: tuple[Triple, ...]

    def __post_init__(self) -> None:
        lines: dict[Triple, None] = {}
        for form in self.lines:
            line = _canonical_triple(*map(operator.index, form))  # numpy integers become ints
            if line in lines:
                raise DuplicateLine(f"line {line} appears twice after canonicalization")
            lines[line] = None
        if not lines:
            raise ParseError("no lines found")
        object.__setattr__(self, "lines", tuple(lines))

    @property
    def d(self) -> int:
        return len(self.lines)

    def forms_mod(self, q: int) -> list[Triple]:
        """The defining forms reduced modulo the prime q."""
        return [(a % q, b % q, c % q) for a, b, c in self.lines]

    def describe(self) -> dict:
        return {"kind": "lines", "d": self.d, "lines": [list(line) for line in self.lines]}


@dataclass(frozen=True)
class CevaArrangement:
    """(x^3 - y^3)(x^3 - z^3)(y^3 - z^3): the lines x = w^a y, x = w^b z and y = w^c z for w a
    primitive cube root of unity, which meet in twelve triple points.  It has no rational forms."""

    d = 9

    def forms_mod(self, q: int) -> list[Triple]:
        """The nine forms modulo the prime q for w a primitive cube root of unity, or w = 1, so that
        they coincide in threes, when q != 1 (mod 3).  w and w^2 give the same nine lines."""
        w = 1
        if q % 3 == 1:  # x^((q-1)/3) is a cube root of unity, primitive when x is not a cube
            w = next(w for x in range(2, q) if (w := pow(x, (q - 1) // 3, q)) != 1)
        roots = [-pow(w, j, q) % q for j in range(3)]
        return [(1, r, 0) for r in roots] + [(1, 0, r) for r in roots] + [(0, 1, r) for r in roots]

    def describe(self) -> dict:
        return {"kind": "builtin", "builtin": "ceva", "d": self.d}

    def points(self) -> dict[Triple | str, frozenset[int]]:
        # Lines are indexed 0-2: x = w^a y, 3-5: x = w^b z, 6-8: y = w^c z.  Each coordinate
        # vertex joins one family; the nine mixed points are (1 : w^-a : w^-b).
        pts: dict[Triple | str, frozenset[int]] = {
            (0, 0, 1): frozenset({0, 1, 2}),
            (0, 1, 0): frozenset({3, 4, 5}),
            (1, 0, 0): frozenset({6, 7, 8}),
        }
        for a in range(3):
            for b in range(3):
                label = (1, 1, 1) if a == b == 0 else f"(1 : w^{(-a) % 3} : w^{(-b) % 3})"
                pts[label] = frozenset({a, 3 + b, 6 + (b - a) % 3})
        return pts


Arrangement = LineArrangement | CevaArrangement


@dataclass(frozen=True)
class WeakCombData:
    """Line count d and the census of intersection-point multiplicities."""

    d: int
    m: tuple[tuple[int, int], ...]  # sorted (multiplicity, count), counts > 0

    def __post_init__(self) -> None:
        pairs = sum(count * math.comb(k, 2) for k, count in self.m)
        if pairs != math.comb(self.d, 2):
            raise ValueError(
                f"multiplicity census covers {pairs} line pairs, "
                f"expected C({self.d},2) = {math.comb(self.d, 2)}"
            )

    @classmethod
    def make(cls, d: int, census: Mapping[int, int]) -> "WeakCombData":
        m = tuple(sorted((int(k), int(n)) for k, n in census.items() if n))
        if any(k < 2 or n < 0 for k, n in m):
            raise ValueError("census keys must be >= 2 with nonnegative counts")
        return cls(d, m)

    @property
    def counts(self) -> dict[int, int]:
        return dict(self.m)

    def sum_mult_minus_one(self) -> int:
        return sum(n * (k - 1) for k, n in self.m)

    # Betti numbers of the projective complement M from the rank-3 Moebius
    # function: b1 = d - 1 and b2 = sum_p (m_p - 1) - (d - 1); chi(M) is
    # cross-checked against chi(P^2) - chi(V) with chi(V) = 2d - sum_p (m_p - 1).

    @property
    def b1M(self) -> int:
        return self.d - 1

    @property
    def b2M(self) -> int:
        return self.sum_mult_minus_one() - (self.d - 1)

    @property
    def chiM(self) -> int:
        chi = 1 - self.b1M + self.b2M
        assert chi == 3 - (2 * self.d - self.sum_mult_minus_one())
        return chi

    @property
    def chiF(self) -> int:
        return self.d * self.chiM

    @property
    def charpoly(self) -> tuple[int, int, int, int]:
        """Characteristic polynomial of the intersection lattice, descending coefficients."""
        s1 = self.sum_mult_minus_one()
        return (1, -self.d, s1, -(1 - self.d + s1))

    def charpoly_value(self, t: int) -> int:
        return reduce(lambda acc, c: acc * t + c, self.charpoly)


# ---------------------------------------------------------------------------
# named arrangements


def ceva_arrangement() -> CevaArrangement:
    return CevaArrangement()


def boolean_arrangement() -> LineArrangement:
    return LineArrangement(((1, 0, 0), (0, 1, 0), (0, 0, 1)))


# ---------------------------------------------------------------------------
# parsing

# an integer in the input formats; int() alone also takes "1_0" and non-ASCII digits.  At most
# 2000 digits: a cross product then has at most 4001, below the interpreter's int-to-str limit
MAX_DIGITS = 2000
INTEGER_TOKEN = re.compile(rf"[+-]?[0-9]{{1,{MAX_DIGITS}}}")
# a whole form in one match; a chunk that fails it is only diagnosed token by token
_FORM = re.compile(rf"({INTEGER_TOKEN.pattern})\s+({INTEGER_TOKEN.pattern})\s+({INTEGER_TOKEN.pattern})")


def parse_arrangement(text: str) -> Arrangement:
    """Parse the arrangement file format.

    One form per line, three integers separated by whitespace; ``/`` also
    separates forms; lines starting with ``#`` are comments.  A single
    ``builtin: ceva`` directive selects the Ceva arrangement instead.
    """
    forms: list[Triple] = []
    builtin: str | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("builtin:"):
            if builtin is not None or forms:
                raise ParseError("builtin directive must be the only content")
            builtin = line[len("builtin:"):].strip()
            continue
        for chunk in line.split("/"):
            chunk = chunk.strip()
            if not chunk:
                continue
            if builtin is not None:
                raise ParseError("builtin directive must be the only content")
            if not (form := _FORM.fullmatch(chunk)):  # \s is the whitespace that str.split splits at
                parts = chunk.split()
                if len(parts) != 3:
                    raise ParseError(f"expected three integers, got {chunk!r}")
                if len(longest := max(parts, key=len)) > MAX_DIGITS:
                    raise ParseError(f"coefficient of {len(longest)} characters; at most {MAX_DIGITS} digits")
                raise ParseError(f"non-integer coefficient in {chunk!r}")
            forms.append(tuple(map(int, form.groups())))
    if builtin not in (None, "ceva"):
        raise ParseError(f"unknown builtin arrangement {builtin!r}")
    return LineArrangement(tuple(forms)) if builtin is None else CevaArrangement()


def random_rational_arrangement(rng: random.Random, d: int, coeff_bound: int = 4) -> LineArrangement:
    """Deterministically sample d distinct lines with coefficients in [-coeff_bound, coeff_bound].

    ValueError when d exceeds the number of such lines, the primitive triples up to sign.
    """
    primitive = [0]  # primitive triples in [-m, m]^3: the others have content k > 1
    for m in range(1, coeff_bound + 1):
        primitive.append((2 * m + 1) ** 3 - 1 - sum(primitive[m // k] for k in range(2, m + 1)))
    if d > (available := primitive[-1] // 2):
        raise ValueError(f"only {available} lines have coefficients in [-{coeff_bound}, {coeff_bound}], not {d}")
    lines: dict[Triple, None] = {}  # canonical forms in draw order
    while len(lines) < d:
        coeffs = tuple(rng.randint(-coeff_bound, coeff_bound) for _ in range(3))
        if any(coeffs):
            lines[_canonical_triple(*coeffs)] = None
    return LineArrangement(tuple(lines))


# ---------------------------------------------------------------------------
# incidence structure


def intersection_data(arr: Arrangement) -> dict[Triple | str, frozenset[int]]:
    """All rank-2 flats, point -> incident line indices; every line pair lies in exactly one.

    Rational points are sorted canonical triples; Ceva labels some points symbolically.
    """
    if isinstance(arr, CevaArrangement):
        return arr.points()
    forms = arr.lines
    incident: dict[Triple, set[int]] = {}
    for i, (a1, b1, c1) in enumerate(forms):
        for j in range(i + 1, len(forms)):
            a2, b2, c2 = forms[j]
            pt = _canonical_triple(b1 * c2 - c1 * b2, c1 * a2 - a1 * c2, a1 * b2 - b1 * a2)
            lines = incident.get(pt)
            if lines is None:
                incident[pt] = {i, j}
            else:
                lines.add(i)
                lines.add(j)
    for (x, y, z), idx in incident.items():
        for i in idx:
            a, b, c = forms[i]
            assert a * x + b * y + c * z == 0
    return {pt: frozenset(incident[pt]) for pt in sorted(incident)}


def _meeting_pairs(forms: Sequence[Triple]) -> Iterator[list[tuple[int, int]]]:
    """Per line i, two coordinates (i fixes the third) where each later line meets it; (0, 0) if equal."""
    for i, (a1, b1, c1) in enumerate(forms):
        if c1:  # (x, y)
            yield [(b1 * c2 - c1 * b2, c1 * a2 - a1 * c2) for a2, b2, c2 in forms[i + 1 :]]
        elif b1:  # (x, z)
            yield [(b1 * c2, a1 * b2 - b1 * a2) for a2, b2, c2 in forms[i + 1 :]]
        else:  # on the line x = 0 the point is (0 : -c2 : b2)
            yield [(b2, c2) for _, b2, c2 in forms[i + 1 :]]


def _line_groups(arr: Arrangement) -> Iterator[Collection[int]]:
    """Per line in order, the sizes of its groups: the later lines grouped by where they meet it."""
    if isinstance(arr, CevaArrangement):  # a point's k lines, sorted, get groups of k - 1, ..., 1, none
        sizes: list[list[int]] = [[] for _ in range(arr.d)]
        for lines in arr.points().values():
            for i, n in zip(sorted(lines), range(len(lines) - 1, 0, -1)):
                sizes[i].append(n)
        yield from sizes
        return
    gcd = math.gcd
    for pairs in _meeting_pairs(arr.lines):  # one line's keys at a time: memory O(d), not O(d^2)
        yield Counter([(u // (g := gcd(u, v) if (u or v) > 0 else -gcd(u, v)), v // g) for u, v in pairs]).values()


def weak_comb_data(arr: Arrangement) -> WeakCombData:
    """The census from groups: a point of multiplicity k gives one group of each size 1, ..., k - 1."""
    groups = Counter(chain.from_iterable(_line_groups(arr)))
    return WeakCombData.make(arr.d, {s + 1: n - groups[s + 1] for s, n in groups.items()})


def epoly_V(w: WeakCombData) -> HodgeTable:
    """Hodge-Deligne polynomial of the union of the d lines.

    Every line is a P^1 and every point of multiplicity m is shared by m of
    them, so E(V) = d*(uv + 1) - sum_p (m_p - 1); the group acts trivially.
    """
    d = w.d
    points = ReprClass.trivial(d, d - w.sum_mult_minus_one())
    return HodgeTable(d, {(1, 1): ReprClass.trivial(d, d), (0, 0): points})
