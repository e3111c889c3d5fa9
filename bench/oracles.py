"""Expected outputs, computed without calling into milnorhodge.

Every check the benchmark makes on a program output compares it with a value
from this module or with a golden file kept under ``bench/golden``:

* the intersection census of a rational arrangement, from all pairwise cross
  products at once (numpy), over Q and over F_q;
* the spectrum in closed form from the weak data (d, nu_m), by the
  Budur-Saito type formula quoted in ROADMAP direction B;
* the characteristic polynomial of the complement, which every point count
  of the affine cone complement must equal;
* the first good primes q = 1 (mod d) above a start value.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = BENCH_DIR / "golden"
DATA_DIR = BENCH_DIR / "data"

Census = dict[int, int]  # multiplicity m -> number of points nu_m


def canonical(t) -> tuple[int, int, int]:
    """Divide by the gcd and make the first nonzero coefficient positive."""
    g = math.gcd(*t)
    a, b, c = (v // g for v in t)
    sign = 1 if (a or b or c) > 0 else -1
    return (sign * a, sign * b, sign * c)


def _census_from_pairs(pair_counts) -> Census:
    census: Census = {}
    for pairs in pair_counts:
        m = (1 + math.isqrt(1 + 8 * int(pairs))) // 2
        if m * (m - 1) // 2 != pairs:
            raise ValueError(f"{pairs} line pairs cannot meet in one point")
        census[m] = census.get(m, 0) + 1
    return census


def _pair_crosses(lines: np.ndarray) -> np.ndarray:
    i, j = np.triu_indices(len(lines), 1)
    return np.cross(lines[i], lines[j])


def rational_census(lines) -> Census:
    """Census of the intersection points of distinct integer lines over Q."""
    cross = _pair_crosses(np.asarray(lines, dtype=np.int64))
    g = np.gcd.reduce(np.abs(cross), axis=1)
    if not g.all():
        raise ValueError("two lines coincide")
    cross //= g[:, None]
    first = cross[np.arange(len(cross)), np.argmax(cross != 0, axis=1)]
    cross *= np.sign(first)[:, None]
    _, counts = np.unique(cross, axis=0, return_counts=True)
    return _census_from_pairs(counts)


def _modpow(base: np.ndarray, exp: int, q: int) -> np.ndarray:
    out = np.ones_like(base)
    base = base % q
    while exp:
        if exp & 1:
            out = out * base % q
        base = base * base % q
        exp >>= 1
    return out


def census_mod(lines, q: int) -> Census | None:
    """Census of the reduced lines over F_q, or None if two lines coincide."""
    reduced = np.asarray(lines, dtype=np.int64) % q
    if not reduced.any(axis=1).all():
        return None
    cross = _pair_crosses(reduced) % q
    nonzero = cross != 0
    if not nonzero.any(axis=1).all():
        return None
    pivot = cross[np.arange(len(cross)), np.argmax(nonzero, axis=1)]
    cross = cross * _modpow(pivot, q - 2, q)[:, None] % q
    _, counts = np.unique(cross, axis=0, return_counts=True)
    return _census_from_pairs(counts)


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def primes_1_mod(d: int, lo: int, hi: int) -> list[int]:
    """Primes q with lo <= q <= hi and q = 1 (mod d)."""
    first = lo + (1 - lo) % d
    return [q for q in range(first, hi + 1, d) if is_prime(q)]


def ceva_lines_mod(q: int) -> list[tuple[int, int, int]]:
    """The nine Ceva lines x = w^a y, x = w^b z, y = w^c z over F_q, q = 1 (mod 3)."""
    w = next(x for x in range(2, q) if pow(x, 3, q) == 1)
    roots = [1, w, w * w % q]
    return (
        [(1, -r, 0) for r in roots]
        + [(1, 0, -r) for r in roots]
        + [(0, 1, -r) for r in roots]
    )


def first_good_primes(lines, census: Census, d: int, count: int, min_q: int) -> list[int]:
    """The first ``count`` good primes q >= min_q with q = 1 (mod d)."""
    found: list[int] = []
    q = min_q + (1 - min_q) % d
    while len(found) < count:
        if is_prime(q) and census_mod(lines, q) == census:
            found.append(q)
        q += d
    return found


# ---------------------------------------------------------------------------
# closed forms in the weak data


def charpoly_coeffs(d: int, census: Census) -> tuple[int, int, int, int]:
    """Ascending coefficients of |complement of the cone over F_q| as a polynomial in q."""
    s1 = sum(nu * (m - 1) for m, nu in census.items())
    return (-(1 - d + s1), s1, -d, 1)


def charpoly_at(d: int, census: Census, q: int) -> int:
    return sum(c * q**i for i, c in enumerate(charpoly_coeffs(d, census)))


def closed_form_spectrum(d: int, census: Census) -> tuple[int, dict[Fraction, int]]:
    """chi(F) and the spectrum {exponent: multiplicity}, zero entries dropped.

    For i = 1..d-1 and r_m = ceil(i*m/d), summed over multiplicities m >= 3:
      n0 = C(i-1,2) - sum nu_m C(r_m-1,2)
      n1 = (i-1)(d-i-1) - sum nu_m (r_m-1)(m-r_m)
      n2 = C(d-i-1,2) - sum nu_m C(m-r_m,2)
    and m_{(d-i)/d + j} = n_j.  The integer exponents carry m_1 = b2(M),
    m_2 = -b1(M) and m_3 = 0.  Double points contribute nothing to any n_j.
    """
    s1 = sum(nu * (m - 1) for m, nu in census.items())
    b1 = d - 1
    b2 = s1 - b1
    out: dict[Fraction, int] = {}

    def put(a: Fraction, n: int) -> None:
        if n:
            out[a] = out.get(a, 0) + n

    put(Fraction(1), b2)
    put(Fraction(2), -b1)
    for i in range(1, d):
        n0 = math.comb(i - 1, 2)
        n1 = (i - 1) * (d - i - 1)
        n2 = math.comb(d - i - 1, 2)
        for m, nu in census.items():
            if m < 3:
                continue
            r = -(-i * m // d)
            n0 -= nu * math.comb(r - 1, 2)
            n1 -= nu * (r - 1) * (m - r)
            n2 -= nu * math.comb(m - r, 2)
        a = Fraction(d - i, d)
        put(a, n0)
        put(1 + a, n1)
        put(2 + a, n2)
    return d * (1 - b1 + b2), out


# ---------------------------------------------------------------------------
# goldens


def golden_bytes(name: str) -> bytes:
    return (GOLDEN_DIR / name).read_bytes()


def golden_fiber_verdict(name: str):
    """The golden's decoded E-polynomial {(p, q): mult}, or its non-polynomial verdict."""
    payload = json.loads(golden_bytes(name))
    if "epoly" in payload:
        return {(e["p"], e["q"]): tuple(e["mult"]) for e in payload["epoly"]["entries"]}
    return payload["result"]
