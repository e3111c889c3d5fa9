"""Exact arithmetic in the representation ring of the cyclic group mu_d.

``mu_d`` is generated by ``lam = exp(2*pi*i/d)``; its irreducible
representations are the one-dimensional characters ``C_{lam^k}``, so a virtual
representation is a length-``d`` integer vector of multiplicities
(:class:`ReprClass`).  Hodge data lives in :class:`HodgeTable`: a finitely
supported map from a bidegree ``(p, q)`` to a :class:`ReprClass`.  The same
container serves two purposes, told apart only by its label:

* the Hodge pieces of a single mixed Hodge structure, and
* an Euler-alternating Hodge-Deligne polynomial, whose ``(p, q)``
  coefficient may be a genuinely virtual class.

Character decoding (a vector of traces -> a multiplicity vector) is done with
a floating-point inverse DFT and then certified exactly: for every ``s`` the
integer polynomial ``sum_j n_j x^{js mod d} - trace(s)`` must be divisible by
the d-th cyclotomic polynomial.  Rounding is safe because decode inputs are
small integers; the divisibility check restores exactness.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping, Sequence, Union

from .errors import DecodeError

__all__ = [
    "ReprClass",
    "HodgeTable",
    "CyclotomicInt",
    "cyclotomic_polynomial",
    "character_traces",
    "decode_characters",
]


# ---------------------------------------------------------------------------
# integer polynomial helpers (ascending coefficient lists)


def _poly_trim(coeffs: Sequence[int]) -> tuple[int, ...]:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _poly_divmod(num: Sequence[int], den: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Exact division of integer polynomials; ``den`` must be monic."""
    den = _poly_trim(den)
    if not den or den[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(num)
    dd = len(den) - 1
    quo = [0] * max(len(rem) - dd, 0)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        quo[i - dd] = c
        for k, dc in enumerate(den):
            rem[i - dd + k] -= c * dc
    return _poly_trim(quo), _poly_trim(rem)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(d: int) -> tuple[int, ...]:
    """Coefficients (ascending) of Phi_d, via exact division of x^d - 1."""
    if d < 1:
        raise ValueError("d must be positive")
    num: Sequence[int] = (-1,) + (0,) * (d - 1) + (1,)
    for e in range(1, d):
        if d % e == 0:
            num, rem = _poly_divmod(num, cyclotomic_polynomial(e))
            assert rem == (), "x^d - 1 must be divisible by Phi_e for e | d"
    return _poly_trim(num)


# ---------------------------------------------------------------------------
# characters and virtual representations


@dataclass(frozen=True)
class ReprClass:
    """Virtual mu_d-representation: mult[k] = multiplicity of C_{lam^k}."""

    d: int
    mult: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("modulus must be >= 1")
        if len(self.mult) != self.d:
            raise ValueError("multiplicity vector must have length d")
        object.__setattr__(self, "mult", tuple(int(m) for m in self.mult))

    # -- constructors

    @classmethod
    def zero(cls, d: int) -> "ReprClass":
        return cls(d, (0,) * d)

    @classmethod
    def character(cls, d: int, k: int, n: int = 1) -> "ReprClass":
        mult = [0] * d
        mult[k % d] = n
        return cls(d, tuple(mult))

    @classmethod
    def trivial(cls, d: int, n: int = 1) -> "ReprClass":
        return cls.character(d, 0, n)

    # -- ring-module structure

    def __add__(self, other: "ReprClass") -> "ReprClass":
        self._check(other)
        return ReprClass(self.d, tuple(a + b for a, b in zip(self.mult, other.mult)))

    def __sub__(self, other: "ReprClass") -> "ReprClass":
        self._check(other)
        return ReprClass(self.d, tuple(a - b for a, b in zip(self.mult, other.mult)))

    def __neg__(self) -> "ReprClass":
        return ReprClass(self.d, tuple(-a for a in self.mult))

    def __mul__(self, n: int) -> "ReprClass":
        return ReprClass(self.d, tuple(n * a for a in self.mult))

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
        return all(m == 0 for m in self.mult)

    def is_effective(self) -> bool:
        """True when no multiplicity is negative (a genuine representation)."""
        return all(m >= 0 for m in self.mult)

    def involution(self) -> "ReprClass":
        """Duality C_alpha -> C_{conj(alpha)}: mult[k] -> mult[(d-k) mod d]."""
        d = self.d
        return ReprClass(d, tuple(self.mult[(d - k) % d] for k in range(d)))


# ---------------------------------------------------------------------------
# Hodge tables


_Key = tuple[int, int]


class HodgeTable:
    """Finitely supported map (p, q) -> ReprClass over a fixed modulus d.

    Entries whose class is zero are dropped.  Equality compares modulus and
    entries; the label is descriptive metadata only.
    """

    __slots__ = ("d", "entries", "label")

    def __init__(self, d: int, entries: Mapping[_Key, ReprClass] | None = None, label: str = ""):
        if d < 1:
            raise ValueError("modulus must be >= 1")
        table: dict[_Key, ReprClass] = {}
        for (p, q), r in (entries or {}).items():
            if r.d != d:
                raise ValueError("entry modulus differs from table modulus")
            if not r.is_zero():
                table[(int(p), int(q))] = r
        self.d = d
        self.entries = table
        self.label = label

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
        return HodgeTable(self.d, out, self.label)

    def __sub__(self, other: "HodgeTable") -> "HodgeTable":
        if self.d != other.d:
            raise ValueError("mixed moduli in table arithmetic")
        out = dict(self.entries)
        for key, r in other.entries.items():
            out[key] = out.get(key, ReprClass.zero(self.d)) - r
        return HodgeTable(self.d, out, self.label)

    def scale(self, n: int) -> "HodgeTable":
        return HodgeTable(self.d, {k: n * r for k, r in self.entries.items()}, self.label)

    def relabel(self, label: str) -> "HodgeTable":
        return HodgeTable(self.d, self.entries, label)

    # -- the standard transforms

    def dual(self) -> "HodgeTable":
        """h^{p,q}(dual, alpha) = h^{-p,-q}(self, conj(alpha))."""
        out = {(-p, -q): r.involution() for (p, q), r in self.entries.items()}
        return HodgeTable(self.d, out, self.label)

    def tate_twist(self, m: int) -> "HodgeTable":
        """h^{p,q}(twist(m), alpha) = h^{p+m,q+m}(self, alpha)."""
        out = {(p - m, q - m): r for (p, q), r in self.entries.items()}
        return HodgeTable(self.d, out, self.label)

    def poincare_dual(self, n: int) -> "HodgeTable":
        """Entry (a, b) of the output is the involution of entry (n-a, n-b).

        Valid as the compact-support/ordinary swap for a smooth connected
        n-dimensional variety; the caller is responsible for smoothness.
        """
        out = {(n - p, n - q): r.involution() for (p, q), r in self.entries.items()}
        return HodgeTable(self.d, out, self.label)

    def specialize_weight(self) -> dict[int, ReprClass]:
        """Collapse u, v to one variable: weight w collects all p + q = w."""
        out: dict[int, ReprClass] = {}
        for (p, q), r in self.entries.items():
            w = p + q
            out[w] = out.get(w, ReprClass.zero(self.d)) + r
        return {w: r for w, r in sorted(out.items()) if not r.is_zero()}

    # -- serialization

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "entries": [
                {"p": p, "q": q, "mult": list(r.mult)} for (p, q), r in self.items()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping, label: str = "") -> "HodgeTable":
        d = int(data["d"])
        entries: dict[_Key, ReprClass] = {}
        for item in data["entries"]:
            key = (int(item["p"]), int(item["q"]))
            if key in entries:
                raise ValueError("duplicate (p, q) entry in table JSON")
            entries[key] = ReprClass(d, tuple(int(v) for v in item["mult"]))
        return cls(d, entries, label)

    def __repr__(self) -> str:
        body = ", ".join(f"({p},{q}): {list(r.mult)}" for (p, q), r in self.items())
        tag = f" {self.label!r}" if self.label else ""
        return f"<HodgeTable d={self.d}{tag} {{{body}}}>"


# ---------------------------------------------------------------------------
# exact cyclotomic integers and character decoding


@dataclass(frozen=True, eq=False)
class CyclotomicInt:
    """Element sum_t c_t lam^t of Z[lam] in the group-algebra basis.

    The basis is redundant (the lam^t satisfy Phi_d(lam) = 0), so equality
    goes through the canonical remainder modulo Phi_d.
    """

    d: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.d:
            raise ValueError("coefficient vector must have length d")

    @classmethod
    def from_int(cls, d: int, value: int) -> "CyclotomicInt":
        return cls(d, (value,) + (0,) * (d - 1))

    def __add__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        if self.d != other.d:
            raise ValueError("mixed moduli")
        return CyclotomicInt(self.d, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        if self.d != other.d:
            raise ValueError("mixed moduli")
        return CyclotomicInt(self.d, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def reduced(self) -> tuple[int, ...]:
        """Canonical remainder modulo Phi_d (degree < phi(d))."""
        _, rem = _poly_divmod(self.coeffs, cyclotomic_polynomial(self.d))
        return rem

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = CyclotomicInt.from_int(self.d, other)
        if not isinstance(other, CyclotomicInt):
            return NotImplemented
        return self.d == other.d and self.reduced() == other.reduced()

    def complex_value(self) -> complex:
        d = self.d
        return sum(c * cmath.exp(2j * cmath.pi * t / d) for t, c in enumerate(self.coeffs))

    def __repr__(self) -> str:
        return f"CyclotomicInt(d={self.d}, coeffs={self.coeffs})"


Trace = Union[int, CyclotomicInt]


def character_traces(r: ReprClass) -> tuple[CyclotomicInt, ...]:
    """Exact trace of r at every group element lam^s, s = 0..d-1."""
    d = r.d
    out = []
    for s in range(d):
        coeffs = [0] * d
        for j, n in enumerate(r.mult):
            coeffs[(j * s) % d] += n
        out.append(CyclotomicInt(d, tuple(coeffs)))
    return tuple(out)


def decode_characters(traces: Sequence[Trace]) -> ReprClass:
    """Recover the multiplicity vector from traces at all lam^s.

    Raises :class:`DecodeError` when the input is not the trace vector of any
    virtual mu_d-representation.
    """
    traces = list(traces)
    d = len(traces)
    if d < 1:
        raise DecodeError("empty trace vector")
    values = []
    for t in traces:
        values.append(t.complex_value() if isinstance(t, CyclotomicInt) else complex(t))

    mult = []
    for j in range(d):
        acc = sum(values[s] * cmath.exp(-2j * cmath.pi * j * s / d) for s in range(d))
        mult.append(round((acc / d).real))

    # exact certification: sum_j mult[j] lam^{js} - trace(s) == 0 in Z[lam]
    phi = cyclotomic_polynomial(d)
    for s, t in enumerate(traces):
        diff = [0] * d
        for j, n in enumerate(mult):
            diff[(j * s) % d] += n
        if isinstance(t, CyclotomicInt):
            diff = [a - b for a, b in zip(diff, t.coeffs)]
        else:
            diff[0] -= int(t)
        _, rem = _poly_divmod(diff, phi)
        if rem:
            raise DecodeError(
                f"trace vector is not a virtual character of mu_{d} (fails at s={s})"
            )
    return ReprClass(d, tuple(mult))
