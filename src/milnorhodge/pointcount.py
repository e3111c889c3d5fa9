"""Twisted point counts over prime fields and Hodge extraction.

Only primes q = 1 (mod d) are used, so the d-th roots of unity live in F_q
and no extension-field arithmetic is ever needed.  Fix a generator g of
F_q^* and identify lam with g^((q-1)/d).  For the Milnor fiber F : Q = 1 the
fixed points of (scalar multiplication by lam^j) composed with Frobenius are
computed by substitution: if c is any solution of c^(q-1) = lam^j in an
extension, then y = c x identifies them with the rational points of
Q(y) = c^d, and the class of c^d in F_q^* / (F_q^*)^d is exactly g^j times
d-th powers (raise to the power (q-1)/d to see it).  Counting therefore
reduces to the class-partitioned census of Q over F_q^3, and the census in
turn reduces to one pass over the q^2 + q + 1 points of P^2(F_q): Q is
homogeneous of degree d, so along the punctured cone line over a projective
point with Q-value v != 0 the values sweep out the class of v, each hit the
same number of times.

The pass adds classes instead of multiplying values modulo q: the class of
Q at a point is the sum over the lines of dlog_g(line value) mod d, read
from one cached table whose entry at 0 is a sentinel larger than any sum of
d classes.  P^2(F_q) is the point (0 : 0 : 1) plus the q + 1 lines through
it, the rows (1, r, z) for r < q and (0, 1, z).  On the row (s, t, z) a line
with c != 0 has the value c (z + u), where u = (a s + b t) / c, so along the
row its classes are class(c) plus the contiguous window T2[u : u + q] of the
doubled table; the classes of the c's are added once, as a rotation of the
result.  A line with c = 0 modulo q adds one value per row, its flat sum.
With three or more varying lines (c != 0) the windows are summed in blocks
of about 2^15 points into a reused buffer and histogrammed together.  Lines
of one slope class, the same b/c, start on the row r < q at u = a/c + r b/c:
fixed offsets apart.  So each class of two or more lines is summed once into
a doubled table and read as one window; only on the row r = q, where the
class meets, are its lines summed one by one.  That is O(g q^2) work in
bounded memory, g the number of slopes.  With at most two varying lines,
each live row is one base vector rotated by its flat sum.  One line gives
(q - 1)/d points in every class and one zero.  Two, w and w + delta on the
row, give (q - 1)/d points in each class 2 class(w) where they meet
(delta = 0), and elsewhere H2 rotated by 2 class(delta), where H2[s] counts
x != 0, -1 with class(x) + class(x + 1) = s (cyclotomic numbers of order d).
A histogram of the rotations and an O(d^2) circular convolution add the rows
up: O(q + d^2) work.  Only the brute-force oracle multiplies values modulo q.

Counts are taken only at primes of good reduction, where the lines stay
distinct and nonzero and the intersection data are those over Z.  That is
decided once per arrangement: q is good exactly when it does not divide the
arrangement's cached ``bad_modulus``, so the prime search and each reduction
test one remainder instead of recomputing the incidences modulo q.

Counts fitted across several primes by exact Lagrange interpolation give,
per twist, a candidate polynomial in q; when every remaining prime confirms
it, the coefficient-of-t^i traces decode to a virtual character and the
equivariant Hodge-Deligne polynomial with compact supports is diagonal with
E^{i,i} equal to that character.  A failed confirmation is reported as a
first-class NotPolynomial verdict with the witnessing prime, never an error:
weight-one cohomology genuinely destroys polynomial counting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import TYPE_CHECKING, Mapping, Sequence

from .arrangement import LineArrangement
from .arrangement import weak_comb_data  # noqa: F401  (unused; bench/tracing.py wraps this binding)
from .errors import BadPrime, DecodeError, NotEnoughPrimes, NotPolynomialCount
from .repring import HodgeTable, decode_characters

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "PrimeField",
    "CountTable",
    "FittedPoly",
    "good_primes",
    "count_classes",
    "brute_force_count",
    "twisted_counts",
    "complement_count",
    "count_tables",
    "fit_polynomials",
    "check_primes",
    "check_request",
    "hodge_from_counts",
    "DEFAULT_PRIME_BOUND",
    "MAX_PRIME",
]

DEFAULT_PRIME_BOUND = 100_000
# the largest prime counted at: building its class table peaks near 60 bytes per element, 120 MiB
MAX_PRIME = 2**21


# ---------------------------------------------------------------------------
# small number theory


def _is_prime(n: int) -> bool:
    """Miller-Rabin: the first twelve primes as bases decide every n < 3.18 * 10^23."""
    if n < 2:
        return False
    witnesses = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in witnesses:
        if n % p == 0:
            return n == p
    if n < 41 * 41:  # no prime factor up to 37 and below 41^2: prime
        return True
    twos = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = odd * 2^twos
    for a in witnesses[: 3 if n < 25_326_001 else None]:  # three decide every n < 25,326,001
        x = pow(a, (n - 1) >> twos, n)
        if x != 1 and all(pow(x, 1 << k, n) != n - 1 for k in range(twos)):
            return False
    return True


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


@dataclass(frozen=True)
class PrimeField:
    """A prime field together with its smallest primitive root."""

    p: int
    g: int

    @classmethod
    def make(cls, p: int) -> "PrimeField":
        if not _is_prime(p):
            raise BadPrime(f"{p} is not prime")
        if p == 2:
            return cls(2, 1)
        factors = _prime_factors(p - 1)
        g = 2
        while any(pow(g, (p - 1) // r, p) == 1 for r in factors):
            g += 1
        return cls(p, g)


@lru_cache(maxsize=64)
def _class_table(q: int, g: int, d: int) -> np.ndarray:
    """Doubled class table T2 = concat(T, T) with T[v] = dlog_g(v) mod d, T[0] = Z.

    The sentinel Z = d(d-1) + 1 exceeds every sum of d classes, so a sum of
    d entries is >= Z exactly when one of them is T[0].  Doubling lets a
    caller index with r + s for r, s in [0, q) without reducing modulo q.
    Entries are int32 whenever a sum of d of them fits.
    """
    import numpy as np

    zero = d * (d - 1) + 1
    table = np.empty(q, dtype=np.int32 if d * zero < 2**31 else np.int64)
    table[0] = zero
    x = 1
    powers = []
    for _ in range(q - 1):
        powers.append(x)
        x = (x * g) % q
    table[powers] = np.arange(q - 1) % d
    doubled = np.concatenate([table, table])
    doubled.flags.writeable = False  # shared by every caller through the cache
    return doubled


# ---------------------------------------------------------------------------
# reduction of the arrangement modulo q


def _lines_mod_q(arr: LineArrangement, q: int) -> tuple[PrimeField, list[tuple[int, int, int]]]:
    """F_q and the forms of ``arr`` reduced modulo q.

    BadPrime unless q is a prime = 1 (mod d) at which the reduction is good,
    and at most MAX_PRIME.
    """
    if q > MAX_PRIME:
        raise BadPrime(f"{q} is above the counting bound {MAX_PRIME}")
    if (q - 1) % arr.d != 0:
        raise BadPrime(f"{q} is not 1 modulo {arr.d}")
    field = PrimeField.make(q)
    if arr.bad_modulus % q == 0:
        raise BadPrime(f"the arrangement has bad reduction modulo {q}")
    return field, arr.forms_mod(q, field.g)


def good_primes(
    arr: LineArrangement,
    count: int,
    min_q: int = 2,
    bound: int = DEFAULT_PRIME_BOUND,
) -> list[PrimeField]:
    """First ``count`` primes q >= min_q with q = 1 (mod d) and good reduction."""
    if count < 0:
        raise ValueError(f"cannot find {count} primes")
    if count == 0:
        return []
    d, bad = arr.d, arr.bad_modulus
    start = max(min_q, 2)
    found: list[PrimeField] = []
    for q in range(start + (1 - start) % d, bound + 1, d):
        if _is_prime(q) and bad % q:
            found.append(PrimeField.make(q))
            if len(found) == count:
                return found
    raise NotEnoughPrimes(f"found {len(found)} good primes below {bound}, needed {count}")


# ---------------------------------------------------------------------------
# counting


@dataclass(frozen=True)
class CountTable:
    """Class-partitioned census of Q over F_q^3.

    class_counts[t] counts affine points with Q in the coset g^t * (F_q^*)^d;
    zero_count counts Q = 0.  Together they partition F_q^3.
    """

    q: int
    g: int
    d: int
    class_counts: tuple[int, ...]
    zero_count: int

    def __post_init__(self) -> None:
        assert sum(self.class_counts) + self.zero_count == self.q**3


def _q_values(lines: list[tuple[int, int, int]], q: int, x, y, z) -> np.ndarray:
    """Q(x, y, z) mod q on numpy arrays (broadcasting allowed): the oracle's arithmetic.

    ``lines`` are the forms reduced modulo q (``_lines_mod_q``).
    """
    import numpy as np

    vals = np.ones_like(x * y * z, dtype=np.int64)
    for a, b, c in lines:
        vals = vals * ((a * x + b * y + c * z) % q) % q
    return vals


def _aggregate(vals: np.ndarray, field: PrimeField, d: int) -> tuple[np.ndarray, int]:
    import numpy as np

    nz = vals[vals != 0]
    classes = _class_table(field.p, field.g, d)[nz]
    return np.bincount(classes, minlength=d), int(vals.size - nz.size)


# Points of P^2 summed per block: with int32 classes a block's two buffers
# take about 0.25 MiB, whatever q is.
_BLOCK_POINTS = 1 << 15


def count_classes(arr: LineArrangement, q: int) -> CountTable:
    """Exact census via one pass over P^2(F_q), memory bounded in q.

    A projective point with Q-value v != 0 contributes its whole punctured
    cone line, q - 1 affine points all lying in the class of v; a projective
    zero of Q contributes q - 1 points with Q = 0, and the origin one more.
    The q + 1 rows through (0 : 0 : 1) take O(g q^2) work for g distinct
    slopes b/c, or O(q + d^2) when at most two lines vary along them (see the
    module docstring); the point (0 : 0 : 1) itself is added by hand.
    """
    import numpy as np

    d = arr.d
    field, lines = _lines_mod_q(arr, q)
    table = _class_table(q, field.g, d)
    # row r is (s, t, z) with (s, t) = (1, r) for r < q and (0, 1) for r = q;
    # a line with c != 0 takes class(c) + T2[u : u + q] there, u = (a s + b t) / c
    s, t = np.ones(q + 1, dtype=np.intp), np.arange(q + 1, dtype=np.intp)
    s[q], t[q] = 0, 1
    starts = []
    flat = np.zeros(q + 1, dtype=table.dtype)
    shift = 0
    for a, b, c in lines:
        if c:
            inv = pow(c, q - 2, q)
            starts.append((a * inv % q * s + b * inv % q * t) % q)
            shift += int(table[c])
        else:
            flat += table[(a * s + b * t) % q]
    classes, zeros = (_window_rows if len(starts) > 2 else _rotated_rows)(table, flat, starts, q, d)
    classes = np.roll(classes, shift)
    # the point (0 : 0 : 1), where every line takes its value c
    if any(c == 0 for _, _, c in lines):
        zeros += 1
    else:
        classes[shift % d] += 1
    return CountTable(
        q=q,
        g=field.g,
        d=d,
        class_counts=tuple(int(n) * (q - 1) for n in classes),
        zero_count=zeros * (q - 1) + 1,
    )


def _slope_classes(starts: list, q: int) -> list[list]:
    """The row starts of the varying lines, grouped by the slope b/c: the start u[q] on row q."""
    classes: dict[int, list] = {}
    for u in starts:
        classes.setdefault(int(u[q]), []).append(u)
    return list(classes.values())


def _window_rows(table: np.ndarray, flat: np.ndarray, starts: list, q: int, d: int):
    """Class histogram (before the rotation by class(c)) and zero count of the rows.

    Each slope class of two or more lines is one doubled table, its lines'
    windows summed at their offsets u - u0, read as one window on the rows
    r < q; the row r = q, where the class meets, is summed line by line.
    """
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    zero = int(table[0])
    classes = _slope_classes(starts, q)
    shared = [group for group in classes if len(group) > 1]
    summed = np.empty((len(shared), 2 * q), dtype=table.dtype)
    for total, (u0, *rest) in zip(summed, shared):
        total[:q] = sum((table[(u[0] - u0[0]) % q :][:q] for u in rest), table[:q])
        total[q:] = total[:q]
    window = sliding_window_view(table, q)
    reads = [(window, group[0]) for group in classes if len(group) == 1]
    reads += zip(sliding_window_view(summed, q, axis=1), (group[0] for group in shared))
    last = flat[q] + sum(table[u[q] : u[q] + q] for u in starts)
    rows = max(1, _BLOCK_POINTS // q)
    acc = np.empty((rows, q), dtype=table.dtype)
    hist = np.zeros(zero + 1, dtype=np.int64)
    for r0 in range(0, q + 1, rows):
        out = acc[: min(rows, q + 1 - r0)]
        out[...] = flat[r0 : r0 + rows, None]
        for win, u in reads:
            out += win[u[r0 : r0 + rows]]
        if r0 + len(out) > q:
            out[-1] = last
        np.minimum(out, zero, out=out)
        hist += np.bincount(out.ravel(), minlength=zero + 1)
    # a sum below Z is a class sum, so it lies in the class of its residue mod d
    folded = np.zeros(d * d, dtype=np.int64)
    folded[:zero] = hist[:zero]
    return folded.reshape(d, d).sum(axis=0), int(hist[zero])


def _rotated_rows(table: np.ndarray, flat: np.ndarray, starts: list, q: int, d: int):
    """The same as ``_window_rows`` for at most two varying lines, row by rotated row."""
    import numpy as np

    live = flat < table[0]  # a flat line vanishing on a row makes all of it zero
    zeros, n = q * (q + 1 - int(live.sum())), (q - 1) // d
    if len(starts) < 2:  # (base vector, its rows, their rotations, zeros per row)
        kinds = [(np.full(d, n) if starts else q * (np.arange(d) == 0), live, flat, len(starts))]
    else:
        delta = (starts[1] - starts[0]) % q
        through = n * np.bincount(2 * np.arange(d) % d, minlength=d)
        h2 = np.bincount((table[1 : q - 1] + table[2:q]) % d, minlength=d)
        kinds = [(through, live & (delta == 0), flat, 1),
                 (h2, live & (delta != 0), flat + 2 * table[delta], 2)]
    circulant = (np.arange(d)[:, None] - np.arange(d)) % d  # column s: base rotated by s
    classes = np.zeros(d, dtype=np.int64)
    for base, rows, shifts, row_zeros in kinds:
        classes += base[circulant] @ np.bincount(shifts[rows] % d, minlength=d)
        zeros += row_zeros * int(rows.sum())
    return classes, zeros


def brute_force_count(arr: LineArrangement, q: int) -> CountTable:
    """O(q^3) oracle: enumerate every affine triple.  Test path only."""
    import numpy as np

    field, lines = _lines_mod_q(arr, q)
    rng = np.arange(q, dtype=np.int64)
    xs, ys, zs = np.meshgrid(rng, rng, rng, indexing="ij")
    vals = _q_values(lines, q, xs.ravel(), ys.ravel(), zs.ravel())
    class_counts, zero_count = _aggregate(vals, field, arr.d)
    return CountTable(
        q=q,
        g=field.g,
        d=arr.d,
        class_counts=tuple(int(c) for c in class_counts),
        zero_count=zero_count,
    )


def twisted_counts(table: CountTable, d: int) -> dict[int, int]:
    """Fixed points of lam^j . Frobenius on the fiber, for each twist j.

    These equal #{y : Q(y) = s_j} with s_j in the class of g^j; each class
    has (q - 1) / d elements sharing one fiber count, so the class census
    divides out exactly.
    """
    if d != table.d:
        raise ValueError("twist modulus differs from the count table")
    q = table.q
    out = {}
    for j in range(d):
        total = table.class_counts[j] * d
        assert total % (q - 1) == 0
        out[j] = total // (q - 1)
    return out


def complement_count(table: CountTable) -> int:
    """Points of the affine complement Q != 0; the same for every twist."""
    return table.q**3 - table.zero_count


def count_tables(arr: LineArrangement, primes: Sequence[int], threads: int = 1) -> list[CountTable]:
    """Count at several primes; workers are pure, merge order is the input order."""
    count = partial(count_classes, arr)
    if threads <= 1 or len(primes) <= 1:
        return [count(q) for q in primes]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(count, primes))


# ---------------------------------------------------------------------------
# polynomial fitting and Hodge extraction


@dataclass(frozen=True)
class FittedPoly:
    """Per-twist fit result: ascending Fraction coefficients, or a witness.

    per_twist[j] is None exactly when witnesses[j] records the first prime at
    which the interpolant through the leading primes fails.
    """

    degree: int
    per_twist: tuple[tuple[Fraction, ...] | None, ...]
    witnesses: tuple[tuple[int, int], ...]  # (twist, witnessing prime)

    def is_polynomial(self) -> bool:
        return not self.witnesses

    def first_witness(self) -> int | None:
        return min((q for _, q in self.witnesses), default=None)


def _lagrange(points: Sequence[tuple[int, int]]) -> tuple[Fraction, ...]:
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for k, (xk, _) in enumerate(points):
            if k == i:
                continue
            # multiply basis by (x - xk)
            basis = [Fraction(0)] + basis
            for t in range(len(basis) - 1):
                basis[t] -= xk * basis[t + 1]
            denom *= xi - xk
        scale = Fraction(yi) / denom
        for t, b in enumerate(basis):
            coeffs[t] += scale * b
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _poly_at(coeffs: Sequence[Fraction], x: int) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _check_fit_primes(primes: Sequence[int], degree: int, twist: int) -> None:
    if len(set(primes)) != len(primes):
        raise BadPrime(f"twist {twist}: a prime is repeated in {list(primes)}")
    if len(primes) < degree + 2:
        raise NotEnoughPrimes(f"twist {twist}: need at least {degree + 2} primes, got {len(primes)}")


def fit_polynomials(sequences: Mapping[int, Sequence[tuple[int, int]]], degree: int) -> FittedPoly:
    """Interpolate each twist through its first degree+1 primes, then verify.

    Needs at least degree + 2 primes per twist so that at least one prime is
    a genuine consistency witness.
    """
    per_twist: list[tuple[Fraction, ...] | None] = []
    witnesses: list[tuple[int, int]] = []
    fits: dict[tuple[tuple[int, int], ...], tuple[tuple[Fraction, ...], int | None]] = {}
    for j in sorted(sequences):
        pts = tuple(sequences[j])
        if pts not in fits:  # twists often share a sequence; check and fit each one once
            _check_fit_primes([q for q, _ in pts], degree, j)
            coeffs = _lagrange(pts[: degree + 1])
            fits[pts] = coeffs, next((q for q, y in pts if _poly_at(coeffs, q) != y), None)
        coeffs, bad = fits[pts]
        if bad is None:
            per_twist.append(coeffs)
        else:
            per_twist.append(None)
            witnesses.append((j, bad))
    return FittedPoly(degree=degree, per_twist=tuple(per_twist), witnesses=tuple(witnesses))


# the degree in q of the fitted counts: the fiber is a surface, the complement a threefold
_FIT_DEGREE = {"fiber": 2, "complement": 3}


def fiber_fit(tables: Sequence[CountTable], d: int) -> FittedPoly:
    counts = [(t.q, twisted_counts(t, d)) for t in tables]
    seqs = {j: [(q, tw[j]) for q, tw in counts] for j in range(d)}
    return fit_polynomials(seqs, degree=_FIT_DEGREE["fiber"])


def complement_fit(tables: Sequence[CountTable], d: int) -> FittedPoly:
    seqs = {j: [(t.q, complement_count(t)) for t in tables] for j in range(d)}
    return fit_polynomials(seqs, degree=_FIT_DEGREE["complement"])


def check_primes(arr: LineArrangement, primes: Sequence[int]) -> None:
    """Raise BadPrime, before any count, unless ``arr`` can be counted once at each prime.

    Primes are checked in input order by the per-prime rule of ``check_request``.
    """
    for q in primes:
        _lines_mod_q(arr, q)
    if len(set(primes)) != len(primes):
        raise BadPrime(f"a prime is repeated in {list(primes)}")


def check_request(arr: LineArrangement, primes: Sequence[int], target: str) -> None:
    """Raise, before any count, what counting at ``primes`` and fitting ``target`` would."""
    for q in primes:
        _lines_mod_q(arr, q)
    _check_fit_primes(primes, _FIT_DEGREE[target], 0)


def hodge_from_counts(fit: FittedPoly, d: int) -> HodgeTable:
    """Diagonal equivariant Hodge-Deligne polynomial from fitted counts.

    The coefficient of t^i, as a function of the twist, is a virtual
    character; decoding it gives E^{i,i} with compact supports, and all
    off-diagonal entries vanish.
    """
    if not fit.is_polynomial():
        raise NotPolynomialCount(
            f"counts are not polynomial in q (witness prime {fit.first_witness()})"
        )
    if len(fit.per_twist) != d:
        raise ValueError("fit does not cover every twist")
    width = max(len(c) for c in fit.per_twist)  # type: ignore[arg-type]
    entries = {}
    for i in range(width):
        traces = []
        for j in range(d):
            coeffs = fit.per_twist[j]
            c = coeffs[i] if i < len(coeffs) else Fraction(0)
            if c.denominator != 1:
                raise DecodeError(f"coefficient of t^{i} at twist {j} is not an integer: {c}")
            traces.append(int(c))
        try:
            entries[(i, i)] = decode_characters(traces)
        except DecodeError as exc:
            raise DecodeError(f"coefficient of t^{i}: {exc}") from exc
    return HodgeTable(d, entries)
