"""Exact combinatorics of projective line arrangements.

A line ax + by + cz = 0 is its integer triple (a, b, c) in canonical form (gcd
one, first nonzero coefficient positive), enforced in one place: the
``LineArrangement`` constructor, which also rejects zero, repeated and missing
forms.  Pairwise cross products over Z give ``intersection_data``, the exact
rank-2 incidence map (point -> indices of its lines), which serves the
``combinatorics`` command, the bad modulus and the ``weak_data_pair_count``
check.  Every downstream Hodge quantity consumes only the weak combinatorial
data (the line count d and the census m_k of points of multiplicity k), and
these are counted without points: on each line the later lines fall into
groups by where they meet it, a point of multiplicity k gives one group of
each size 1, ..., k - 1, and so m_k = g_{k-1} - g_k for g_s the number of
groups of size s.

Arrangements whose natural defining forms are not rational (the Ceva
arrangement needs cube roots of unity) are named builtins that generate their
incidence data directly; ``forms_mod`` reduces every arrangement modulo q.

Each arrangement also carries one integer, its bad modulus N: reduction
modulo a prime q keeps the lines distinct and nonzero and the intersection
data exact precisely when q does not divide N, so point counting over F_q
decides good reduction by one remainder.
"""

from __future__ import annotations

import math
import operator
import random
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Mapping

from .errors import DuplicateLine, ParseError, ZeroForm
from .repring import HodgeTable, ReprClass

__all__ = [
    "LineArrangement",
    "WeakCombData",
    "BUILTIN_NAMES",
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
    """A reduced arrangement: canonical rational lines in input order, or a named builtin."""

    lines: tuple[Triple, ...] = ()
    builtin: str | None = None

    def __post_init__(self) -> None:
        if self.builtin is not None:
            if self.builtin not in BUILTIN_NAMES:
                raise ParseError(f"unknown builtin arrangement {self.builtin!r}")
            if self.lines:
                raise ParseError("builtin arrangements carry no explicit lines")
            return
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
        if self.builtin == "ceva":
            return _CEVA_D
        return len(self.lines)

    @cached_property
    def bad_modulus(self) -> int:
        """The integer N: modulo a prime q the incidence data survive iff q does not divide N.

        For rational lines (content one, so none vanishes modulo q) N is the lcm
        of the content of every pairwise cross product (q divides it when two
        lines coincide) and of every nonzero value of a line at an
        intersection point (when the line passes through the point modulo q,
        which merges it with another point).  Ceva's forms over Z[w] fail only
        modulo 3: each nonzero value of a line at one of its points is a unit
        or has norm 3.
        """
        if self.builtin == "ceva":
            return 3
        forms = self.lines
        points = intersection_data(self)
        values: set[int] = set()
        for a, b, c in forms:
            values.update([a * x + b * y + c * z for x, y, z in points])
        values.discard(0)  # the line passes through the point
        values.update(math.gcd(*_cross(f, g)) for i, f in enumerate(forms) for g in forms[i + 1 :])
        return math.lcm(*values)

    def forms_mod(self, q: int, g: int) -> list[Triple]:
        """The defining forms reduced modulo the prime q, g a primitive root.

        Ceva's lines x = w^a y, x = w^b z and y = w^c z reduce with
        w = g^((q-1)/3), a cube root of unity in F_q whenever 3 divides q - 1.
        """
        if self.builtin == "ceva":
            w = pow(g, (q - 1) // 3, q)
            roots = [-pow(w, j, q) % q for j in range(3)]
            return [(1, r, 0) for r in roots] + [(1, 0, r) for r in roots] + [(0, 1, r) for r in roots]
        return [(a % q, b % q, c % q) for a, b, c in self.lines]

    def describe(self) -> dict:
        if self.builtin:
            return {"kind": "builtin", "builtin": self.builtin, "d": self.d}
        return {"kind": "lines", "d": self.d, "lines": [list(line) for line in self.lines]}


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
# the Ceva builtin: nine lines, twelve triple points

_CEVA_D = 9


def _ceva_points() -> dict[Triple | str, frozenset[int]]:
    # Lines are indexed 0-2: x = w^a y, 3-5: x = w^b z, 6-8: y = w^c z,
    # with w a primitive cube root of unity.  Each coordinate vertex joins
    # one family; the nine mixed points are (1 : w^-a : w^-b).
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


BUILTIN_NAMES = ("ceva",)


def ceva_arrangement() -> LineArrangement:
    return LineArrangement(builtin="ceva")


def boolean_arrangement() -> LineArrangement:
    return LineArrangement(((1, 0, 0), (0, 1, 0), (0, 0, 1)))


# ---------------------------------------------------------------------------
# parsing

# an integer in the input formats; int() alone also takes "1_0" and non-ASCII digits
INTEGER_TOKEN = re.compile(r"[+-]?[0-9]+")


def parse_arrangement(text: str) -> LineArrangement:
    """Parse the arrangement file format.

    One form per line, three integers separated by whitespace; ``/`` also
    separates forms; lines starting with ``#`` are comments.  A single
    ``builtin: <name>`` directive selects a named arrangement instead.
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
            parts = chunk.split()
            if len(parts) != 3:
                raise ParseError(f"expected three integers, got {chunk!r}")
            if not all(INTEGER_TOKEN.fullmatch(p) for p in parts):
                raise ParseError(f"non-integer coefficient in {chunk!r}")
            forms.append(tuple(int(p) for p in parts))
    if builtin is not None:
        return LineArrangement(builtin=builtin)
    return LineArrangement(tuple(forms))


def random_rational_arrangement(rng: random.Random, d: int, coeff_bound: int = 4) -> LineArrangement:
    """Deterministically sample d distinct small-coefficient lines."""
    lines: dict[Triple, None] = {}  # canonical forms in draw order
    while len(lines) < d:
        coeffs = tuple(rng.randint(-coeff_bound, coeff_bound) for _ in range(3))
        if any(coeffs):
            lines[_canonical_triple(*coeffs)] = None
    return LineArrangement(tuple(lines))


# ---------------------------------------------------------------------------
# incidence structure


def _cross(u: Triple, v: Triple) -> Triple:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def intersection_data(arr: LineArrangement) -> dict[Triple | str, frozenset[int]]:
    """All rank-2 flats, point -> incident line indices; every line pair lies in exactly one.

    Rational points are sorted canonical triples; builtins may label points symbolically.
    """
    if arr.builtin == "ceva":
        return _ceva_points()
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


def weak_comb_data(arr: LineArrangement) -> WeakCombData:
    """The census from groups: on each line i, the later lines grouped by where they meet i."""
    if arr.builtin == "ceva":
        return WeakCombData.make(arr.d, Counter(map(len, intersection_data(arr).values())))
    forms, gcd, keys = arr.lines, math.gcd, []
    for i, (a1, b1, c1) in enumerate(forms):
        # key the meeting point by two coordinates; line i fixes the third
        if c1:  # (x, y)
            pairs = [(b1 * c2 - c1 * b2, c1 * a2 - a1 * c2) for a2, b2, c2 in forms[i + 1 :]]
        elif b1:  # (x, z)
            pairs = [(b1 * c2, a1 * b2 - b1 * a2) for a2, b2, c2 in forms[i + 1 :]]
        else:  # on the line x = 0 the point is (0 : -c2 : b2)
            pairs = [(b2, c2) for _, b2, c2 in forms[i + 1 :]]
        keys += [(i, u // (g := gcd(u, v) if (u or v) > 0 else -gcd(u, v)), v // g) for u, v in pairs]
    groups = Counter(Counter(keys).values())
    return WeakCombData.make(arr.d, {s + 1: n - groups[s + 1] for s, n in groups.items()})


def epoly_V(w: WeakCombData) -> HodgeTable:
    """Hodge-Deligne polynomial of the union of the d lines.

    Every line is a P^1 and every point of multiplicity m is shared by m of
    them, so E(V) = d*(uv + 1) - sum_p (m_p - 1); the group acts trivially.
    """
    d = w.d
    points = ReprClass.trivial(d, d - w.sum_mult_minus_one())
    return HodgeTable(d, {(1, 1): ReprClass.trivial(d, d), (0, 0): points})
