"""Exact arithmetic in the representation ring of the cyclic group mu_d.

``mu_d`` is generated by ``lam = exp(2*pi*i/d)``; its irreducible
representations are the one-dimensional characters ``C_{lam^k}``, so a virtual
representation is a length-``d`` integer vector of multiplicities
(:class:`ReprClass`).  Hodge data lives in :class:`HodgeTable`: a finitely
supported map from a bidegree ``(p, q)`` to a :class:`ReprClass`.  The same
container serves two purposes:

* the Hodge pieces of a single mixed Hodge structure, and
* an Euler-alternating Hodge-Deligne polynomial, whose ``(p, q)``
  coefficient may be a genuinely virtual class.

Character decoding (a vector of traces -> a multiplicity vector) is exact
integer arithmetic.  Integer traces are fixed by the Galois group of Q(lam), so
the trace at ``lam^s`` depends only on ``gcd(s, d)``; the inverse transform then
collapses to Ramanujan sums, ``m_j = (1/d) sum_{e | d} trace(e) c_{d/e}(j)``, and
the input is a virtual character exactly when every such sum is divisible by d.
Each sum is von Sterneck's ``c_n(j) = mu(n/h) phi(n) / phi(n/h)``, ``h = gcd(n, j)``,
with mu and phi on the divisors of d from one factorization of d, once per degree.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache
from typing import Iterator, Mapping, Sequence

from .errors import DecodeError

__all__ = [
    "ReprClass",
    "HodgeTable",
    "decode_characters",
]


# ---------------------------------------------------------------------------
# characters and virtual representations


@dataclass(frozen=True)
class ReprClass:
    """Virtual mu_d-representation: mult[k] = multiplicity of C_{lam^k}."""

    d: int
    mult: tuple[int, ...]  # given as any sized sequence of integers

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", operator.index(self.d))
        if self.d < 1:
            raise ValueError("modulus must be >= 1")
        if len(self.mult) != self.d:
            raise ValueError("multiplicity vector must have length d")
        # through a list: a tuple built from an iterator of unknown length grows by reallocation
        object.__setattr__(self, "mult", tuple([*map(operator.index, self.mult)]))

    # -- constructors

    @classmethod
    def zero(cls, d: int) -> "ReprClass":
        return cls(d, [0] * d)

    @classmethod
    def character(cls, d: int, k: int, n: int = 1) -> "ReprClass":
        mult = [0] * d
        mult[k % d] = n
        return cls(d, mult)

    @classmethod
    def trivial(cls, d: int, n: int = 1) -> "ReprClass":
        return cls.character(d, 0, n)

    # -- ring-module structure

    def __add__(self, other: "ReprClass") -> "ReprClass":
        self._check(other)
        return ReprClass(self.d, [a + b for a, b in zip(self.mult, other.mult)])

    def __sub__(self, other: "ReprClass") -> "ReprClass":
        return self + -other

    def __neg__(self) -> "ReprClass":
        return ReprClass(self.d, [-a for a in self.mult])

    def __mul__(self, n: int) -> "ReprClass":
        return ReprClass(self.d, [n * a for a in self.mult])

    __rmul__ = __mul__

    def _check(self, other: "ReprClass") -> None:
        if self.d != other.d:
            raise ValueError("mixed moduli in representation arithmetic")

    # -- queries

    def __getitem__(self, k: int) -> int:
        return self.mult[k % self.d]

    def dim(self) -> int:
        return sum(self.mult)

    def is_zero(self) -> bool:
        return not any(self.mult)

    def is_effective(self) -> bool:
        """True when no multiplicity is negative (a genuine representation)."""
        return min(self.mult) >= 0

    def involution(self) -> "ReprClass":
        """Duality C_alpha -> C_{conj(alpha)}: mult[k] -> mult[(d-k) mod d]."""
        d = self.d
        return ReprClass(d, [self.mult[(d - k) % d] for k in range(d)])


# ---------------------------------------------------------------------------
# Hodge tables


_Key = tuple[int, int]


class HodgeTable:
    """Finitely supported map (p, q) -> ReprClass over a fixed modulus d.

    Entries whose class is zero are dropped.  Equality compares modulus and
    entries.
    """

    __slots__ = ("d", "entries")

    def __init__(self, d: int, entries: Mapping[_Key, ReprClass] | None = None):
        d = operator.index(d)
        if d < 1:
            raise ValueError("modulus must be >= 1")
        table: dict[_Key, ReprClass] = {}
        for (p, q), r in (entries or {}).items():
            if r.d != d:
                raise ValueError("entry modulus differs from table modulus")
            if not r.is_zero():
                table[(operator.index(p), operator.index(q))] = r
        self.d = d
        self.entries = table

    # -- access

    def entry(self, p: int, q: int) -> ReprClass:
        return self.entries.get((p, q), ReprClass.zero(self.d))

    def items(self) -> Iterator[tuple[_Key, ReprClass]]:
        for key in sorted(self.entries):
            yield key, self.entries[key]

    def support(self) -> list[_Key]:
        return sorted(self.entries)

    def total_dim(self) -> int:
        return sum(r.dim() for r in self.entries.values())

    def dim_of_character(self, k: int) -> int:
        return sum(r[k] for r in self.entries.values())

    def is_effective(self) -> bool:
        return all(r.is_effective() for r in self.entries.values())

    def is_conjugation_symmetric(self) -> bool:
        """h^{p,q}(lam^j) == h^{q,p}(lam^{d-j}) for every entry."""
        keys = set(self.entries)
        keys.update((q, p) for (p, q) in self.entries)
        return all(self.entry(p, q) == self.entry(q, p).involution() for (p, q) in keys)

    # -- arithmetic

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HodgeTable):
            return NotImplemented
        return self.d == other.d and self.entries == other.entries

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: "HodgeTable") -> "HodgeTable":
        if self.d != other.d:
            raise ValueError("mixed moduli in table arithmetic")
        out = dict(self.entries)
        for key, r in other.entries.items():
            out[key] = out.get(key, ReprClass.zero(self.d)) + r
        return HodgeTable(self.d, out)

    def __sub__(self, other: "HodgeTable") -> "HodgeTable":
        return self + other.scale(-1)

    def scale(self, n: int) -> "HodgeTable":
        return HodgeTable(self.d, {k: n * r for k, r in self.entries.items()})

    # -- the standard transforms

    def poincare_dual(self, n: int) -> "HodgeTable":
        """Entry (a, b) of the output is the involution of entry (n-a, n-b).

        Valid as the compact-support/ordinary swap for a smooth connected
        n-dimensional variety; the caller is responsible for smoothness.
        """
        out = {(n - p, n - q): r.involution() for (p, q), r in self.entries.items()}
        return HodgeTable(self.d, out)

    # -- serialization

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "entries": [
                {"p": p, "q": q, "mult": list(r.mult)} for (p, q), r in self.items()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: object) -> "HodgeTable":
        """Inverse of ``to_json_dict``; TypeError unless the document and each entry are objects,
        entries and mult are lists, and d, p, q and the multiplicities are JSON integers."""
        d = _json_int(_json_typed(data, dict, "an object with keys d and entries")["d"])
        entries: dict[_Key, ReprClass] = {}
        # an empty object or string as entries would read as the zero table
        for item in _json_typed(data["entries"], list, "a list of entries"):
            _json_typed(item, dict, "each entry to be an object with keys p, q and mult")
            key = (_json_int(item["p"]), _json_int(item["q"]))
            if key in entries:
                raise ValueError("duplicate (p, q) entry in table JSON")
            mult = _json_typed(item["mult"], list, "mult to be a list of integers")
            entries[key] = ReprClass(d, [_json_int(v) for v in mult])
        return cls(d, entries)

    def __repr__(self) -> str:
        body = ", ".join(f"({p},{q}): {list(r.mult)}" for (p, q), r in self.items())
        return f"<HodgeTable d={self.d} {{{body}}}>"


def _json_typed(value, kind: type, what: str):
    """``value`` when its type is exactly ``kind``, else a TypeError naming what was found."""
    if type(value) is not kind:
        got = {type(None): "null", list: "a list", dict: "an object"}.get(type(value)) or repr(value)
        raise TypeError(f"expected {what}, got {got}")
    return value


def _json_int(value) -> int:
    # a JSON true is a Python bool, which operator.index accepts as 1
    return _json_typed(value, int, "an integer")


# ---------------------------------------------------------------------------
# exact character decoding


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


@cache
def _character_data(d: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[tuple[int, int], ...], ...]]:
    """What a decode at degree d needs, built once per d: gcd(s, d) % d for each s, the divisors g of
    d in ascending order and, for each g, the (trace index, coefficient) pairs whose sum is d m_g."""
    divisors = [e for e in range(1, d + 1) if d % e == 0]
    mu, phi = dict.fromkeys(divisors, 1), dict(zip(divisors, divisors))
    for p in _prime_factors(d):
        for n in divisors:
            if n % p == 0:
                mu[n] *= 0 if n % (p * p) == 0 else -1
                phi[n] = phi[n] // p * (p - 1)
    # m_j depends only on g = gcd(j, d), and the trace of lam^(d/n) only on n.  Each Ramanujan
    # sum is c_n(g) = mu(n/h) phi(n) / phi(n/h), h = gcd(n, g) (von Sterneck)
    weights = tuple(
        tuple((d // n % d, mu[m] * (phi[n] // phi[m])) for n in divisors if mu[m := n // math.gcd(n, g)])
        for g in divisors
    )
    return tuple(math.gcd(s, d) % d for s in range(d)), tuple(divisors), weights  # shared by every caller


def decode_characters(traces: Sequence[int]) -> ReprClass:
    """Recover the multiplicity vector from integer traces at all lam^s.

    Raises :class:`DecodeError` when a trace is not an integer or when the
    input is not the trace vector of any virtual mu_d-representation.
    """
    values = []
    for s, t in enumerate(traces):
        try:
            values.append(operator.index(t))
        except TypeError:
            raise DecodeError(f"trace at s={s} is not an integer: {t!r}") from None
    d = len(values)
    if d < 1:
        raise DecodeError("empty trace vector")
    gcds, divisors, weights = _character_data(d)
    if (conjugates := [values[g] for g in gcds]) != values:
        s = next(s for s, (t, u) in enumerate(zip(values, conjugates)) if t != u)
        raise DecodeError(
            f"trace vector is not a virtual character of mu_{d} "
            f"(trace at s={s} differs from its Galois conjugates)"
        )
    by_gcd = [0] * d  # m_g at g % d, the first index j with gcd(j, d) = g
    for g, row in zip(divisors, weights):
        total = sum([values[s] * w for s, w in row])
        if total % d:
            raise DecodeError(
                f"trace vector is not a virtual character of mu_{d} (fails at j={g % d})"
            )
        by_gcd[g % d] = total // d
    return ReprClass(d, [by_gcd[g] for g in gcds])
