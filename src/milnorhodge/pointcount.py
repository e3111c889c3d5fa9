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
from a table whose entry at 0 is a sentinel larger than any sum of d
classes.  One cache entry per (q, d) holds that table, doubled, with the
primitive root g and the histogram H2 below: the root is searched for only
when q is counted at, once per entry.  P^2(F_q) is the point (0 : 0 : 1)
plus the q + 1 lines through it, the rows (1, r, z) for r < q and (0, 1, z).
On the row (s, t, z) a line with c != 0 has the value c (z + u), where
u = (a s + b t) / c, so along the row its classes are class(c) plus the
contiguous window T2[u : u + q] of the doubled table.  A line with c = 0
modulo q is constant on each row, b (r + a/b) on the row r < q: class(b)
plus one window read across the rows, or a when b = 0.  The constant
classes are added once, as a rotation of the result.  With three or more
varying lines (c != 0) the windows are summed in blocks
of about 2^15 points into a reused buffer, int16 up to d = 32, then clipped
at Z into one intp buffer and histogrammed.  Lines of one slope class, the
same b/c, start on the row r < q at u = a/c + r b/c: fixed offsets apart.
So each class of two or more lines is summed once into a doubled table and
read as one window; on the row r = q all k lines of a class start at b/c and
add k times one window.  The doubled tables are stacked, the shared one
first, under one sliding-window view.  That is O(g q^2) work in bounded
memory, g the number of slopes.  With at most two varying lines,
each live row is one base vector rotated by its flat sum.  One line gives
(q - 1)/d points in every class and one zero.  Two, w and w + delta on the
row, meet on exactly one row: r = (a0 - a1)/(m1 - m0) for offsets a/c and
slopes m = b/c, or r = q when the slopes agree.  That row is taken in closed
form, (q - 1)/d points in each class 2 class(w) and one zero.  Every other
row is H2 rotated by 2 class(delta), where H2[s] counts x != 0, -1 with
class(x) + class(x + 1) = s (cyclotomic numbers of order d), taken from the
cache: one histogram of the rotations and an O(d^2) circular convolution in
Python add them up, O(q + d^2) work.  Only the brute-force oracle
multiplies values modulo q.

Counts are taken only at primes of good reduction, where the reduced lines
(``forms_mod(q)``) stay distinct and meet in as many points as over Z: points
can merge but never split, and two that merge make the first of three lines
lose a point.  One rule for every arrangement compares each line's meetings
modulo q with its groups over Z (``_line_groups``) up to the first line short.

Counts fitted across several primes by exact Lagrange interpolation (one
integer numerator over a common denominator) give, per twist, a candidate
polynomial in q; when every remaining prime confirms it, the coefficient-of-t^i
traces decode to a virtual character and the equivariant Hodge-Deligne
polynomial with compact supports is diagonal with E^{i,i} equal to that
character.  A failed confirmation is reported as a first-class NotPolynomial
verdict with the witnessing prime, never an error: weight-one cohomology
genuinely destroys polynomial counting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate, islice, repeat, zip_longest
from typing import TYPE_CHECKING, Sequence

from .arrangement import Arrangement, _line_groups, _meeting_pairs
from .arrangement import weak_comb_data  # noqa: F401  (unused; bench/tracing.py wraps this binding)
from .errors import BadPrime, DecodeError, NotEnoughPrimes, NotPolynomialCount
from .repring import HodgeTable, _prime_factors, decode_characters

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
    "fiber_fit",
    "complement_fit",
    "hodge_from_counts",
    "PRIME_SEARCH_BOUND",
    "MAX_PRIME",
]

# the largest prime counted at: its class table multiplies residues in int64 and peaks near 24 B/element
MAX_PRIME = 2**21
assert MAX_PRIME < 25_326_001  # where the bases of _is_prime stop being exact
# where good_primes stops looking, so that every prime it finds can be counted
PRIME_SEARCH_BOUND = 100_000
assert PRIME_SEARCH_BOUND <= MAX_PRIME


# ---------------------------------------------------------------------------
# small number theory


def _is_prime(n: int) -> bool:
    """Miller-Rabin for n <= MAX_PRIME: the bases 2, 3 and 5 decide every n < 25,326,001."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n < 41 * 41:  # no prime factor up to 37 and below 41^2: prime
        return True
    twos = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = odd * 2^twos
    for a in (2, 3, 5):
        x = pow(a, (n - 1) >> twos, n)
        if x != 1 and all(pow(x, 1 << k, n) != n - 1 for k in range(twos)):
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """A prime field F_p; its primitive root is searched for only when it is counted at."""

    p: int


def _primitive_root(q: int) -> int:
    """The smallest primitive root of the prime q: 1 for q = 2, where q - 1 has no prime factor."""
    factors = _prime_factors(q - 1)
    g = 1
    while any(pow(g, (q - 1) // r, q) == 1 for r in factors):
        g += 1
    return g


@lru_cache(maxsize=64)
def _class_table(q: int, d: int) -> tuple[int, np.ndarray, list[int]]:
    """What a count at q needs for degree d: g, T2 and H2, built once per (q, d).

    g is the smallest primitive root of F_q.  T2 = concat(T, T) is the doubled
    class table, with T[v] = dlog_g(v) mod d and T[0] = Z.

    The sentinel Z = d(d-1) + 1 exceeds every sum of d classes, so a sum of
    d entries is >= Z exactly when one of them is T[0].  Doubling lets a
    caller index with r + s for r, s in [0, q) without reducing modulo q.
    Entries take the narrowest of int16, int32 and int64 that holds a sum of
    d of them: int16 up to d = 32, int32 up to d = 1290.  The powers g^i,
    i = B h + l with B = ceil(sqrt(q - 1)), are one outer product of the
    g^(B h) and the g^l modulo q.  H2[s] counts the x != 0, -1 with
    class(x) + class(x + 1) = s mod d: the cyclotomic numbers of order d.
    """
    import numpy as np

    g = _primitive_root(q)
    zero = d * (d - 1) + 1
    doubled = np.empty(2 * q, dtype=next(t for t in (np.int16, np.int32, np.int64) if d * zero <= np.iinfo(t).max))
    step = math.isqrt(q - 2) + 1  # B = ceil(sqrt(q - 1)) for every q >= 2
    small = list(accumulate(repeat(g, step), lambda x, y: x * y % q, initial=1))  # g^0, ..., g^B
    big = list(accumulate(repeat(small.pop(), (q - 2) // step), lambda x, y: x * y % q, initial=1))
    powers = np.multiply.outer(np.array(big, dtype=np.int64), np.array(small, dtype=np.int64))
    powers %= q  # below q^2 <= 2^42 before the reduction
    doubled[0] = zero
    doubled[powers.ravel()[: q - 1]] = np.arange(q - 1, dtype=np.int32) % d
    doubled[q:] = doubled[:q]
    doubled.flags.writeable = False  # shared by every caller through the cache
    del powers  # freed before the pair sums, which then add nothing to the build's peak
    pairs = np.bincount(doubled[1 : q - 1] + doubled[2:q]).tolist()
    return g, doubled, [sum(pairs[s::d]) for s in range(d)]


# ---------------------------------------------------------------------------
# reduction of the arrangement modulo q


def _good_reduction(arr: Arrangement, q: int) -> bool:
    """Whether no two lines coincide modulo q and each meets the later ones in as many points as over
    Z, one per group: of three lines concurrent only modulo q, the first loses a point.  A dict on the
    arrangement keeps the group counts under 0 and each decision under q; threads that race store the same."""
    if (decided := vars(arr).get("_good_reduction")) is None:
        decided = vars(arr)["_good_reduction"] = {0: [len(sizes) for sizes in _line_groups(arr)]}
    if (good := decided.get(q)) is None:
        good = decided[q] = all(  # decided by the first line that comes up short
            None not in (slopes := _slopes(pairs, q)) and len(slopes) == n
            for pairs, n in zip(_meeting_pairs(arr.forms_mod(q)), decided[0])
        )
    return good


def _slopes(pairs: list[tuple[int, int]], q: int) -> set[int | None]:
    """Each (u : v) modulo q as v/u, q if u = 0, None if u = v = 0, with one pow: Montgomery's batch
    inversion, which inverts the product of the nonzero u and peels one u off it at a time."""
    us = [u % q for u, _ in pairs]
    prefix = list(accumulate([u or 1 for u in us], lambda x, y: x * y % q, initial=1))
    inv, slopes = pow(prefix.pop(), -1, q), set()  # 1 / (u_0 ... u_k), for k from the last pair down
    for (_, v), u, p in zip(reversed(pairs), reversed(us), reversed(prefix)):
        slopes.add(v * inv * p % q if u else q if v % q else None)
        inv = inv * (u or 1) % q
    return slopes


def _check_prime(arr: Arrangement, q: int) -> None:
    """BadPrime unless q is a prime = 1 (mod d), at most MAX_PRIME, at which the reduction is good."""
    if q > MAX_PRIME:
        raise BadPrime(f"{q} is above the counting bound {MAX_PRIME}")
    if (q - 1) % arr.d != 0:
        raise BadPrime(f"{q} is not 1 modulo {arr.d}")
    if not _is_prime(q):
        raise BadPrime(f"{q} is not prime")
    if not _good_reduction(arr, q):
        raise BadPrime(f"the arrangement has bad reduction modulo {q}")


def _check_fit_primes(primes: Sequence[int], degree: int | None = None) -> None:
    """BadPrime if a prime repeats, then for a fit of ``degree`` NotEnoughPrimes below degree + 2 primes."""
    if len(set(primes)) != len(primes):
        raise BadPrime(f"a prime is repeated in {list(primes)}")
    if degree is not None and len(primes) < degree + 2:
        raise NotEnoughPrimes(f"need at least {degree + 2} primes, got {len(primes)}")


def good_primes(arr: Arrangement, count: int, min_q: int = 2) -> list[PrimeField]:
    """First ``count`` primes q >= min_q with q = 1 (mod d) and good reduction, searched up to PRIME_SEARCH_BOUND."""
    if count < 0:
        raise ValueError(f"cannot find {count} primes")
    start = max(min_q, 2)
    candidates = range(start + (1 - start) % arr.d, PRIME_SEARCH_BOUND + 1, arr.d)
    found = [PrimeField(q) for q in islice((q for q in candidates if _is_prime(q) and _good_reduction(arr, q)), count)]
    if len(found) < count:
        raise NotEnoughPrimes(f"found {len(found)} good primes up to {PRIME_SEARCH_BOUND}, needed {count}")
    return found


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

    ``lines`` are the forms reduced modulo q (``forms_mod(q)``).
    """
    import numpy as np

    vals = np.ones_like(x * y * z, dtype=np.int64)
    for a, b, c in lines:
        vals = vals * ((a * x + b * y + c * z) % q) % q
    return vals


def _aggregate(vals: np.ndarray, table: np.ndarray, d: int) -> tuple[np.ndarray, int]:
    import numpy as np

    nz = vals[vals != 0]
    return np.bincount(table[nz], minlength=d), int(vals.size - nz.size)


# Points of P^2 summed per block, whatever q is: the sums, the clip bound and a
# gathered window take 2 or 4 bytes a point (int16 or int32 classes), the intp
# histogram buffer 8, so a block's buffers take at most 0.63 MiB.
_BLOCK_POINTS = 1 << 15


def count_classes(arr: Arrangement, q: int) -> CountTable:
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
    _check_prime(arr, q)
    (g, table, h2), lines = _class_table(q, d), arr.forms_mod(q)
    # row r is (1, r, z) for r < q and (0, 1, z) for r = q.  A line with c != 0 takes class(c)
    # plus T2[u : u + q] there, u = a/c + r b/c (b/c on the row q), kept as its offset a/c under
    # its slope b/c.  One with c = 0 is b (r + a/b) on the row r < q and b on the row q: class(b)
    # plus T2[a/b + r] and 0, or class(a) and Z if b = 0.  The constant classes rotate the result
    slopes: dict[int, list[int]] = {}
    flat = np.zeros(q + 1, dtype=table.dtype)
    shift = varying = 0
    for a, b, c in lines:
        if c:
            inv = pow(c, -1, q)
            slopes.setdefault(b * inv % q, []).append(a * inv % q)
            varying += 1
        elif b:
            flat[:q] += table[a * pow(b, -1, q) % q :][:q]
        else:
            flat[q] += table[0]
        shift += table.item(c or b or a)
    if varying > 2:
        classes, zeros = _window_rows(table, flat, slopes, q, d)
    else:
        classes, zeros = _rotated_rows(table, flat, slopes, q, d, h2)
    shift %= d
    classes = classes[d - shift :] + classes[: d - shift]
    # the point (0 : 0 : 1), where every line takes its value c
    if varying < len(lines):
        zeros += 1
    else:
        classes[shift] += 1
    return CountTable(q, g, d, tuple(n * (q - 1) for n in classes), zeros * (q - 1) + 1)


def _window_rows(table: np.ndarray, flat: np.ndarray, slopes: dict[int, list[int]], q: int, d: int):
    """Class histogram (before the rotation by the constant classes) and zero count of the rows.

    ``slopes`` maps each slope b/c of the varying lines to their offsets a/c.
    One stack holds the doubled tables: row 0 is the shared one, read by each
    line alone in its class; a class of two or more lines sums its windows at
    their offsets into a row of its own, read as one window on the rows r < q.
    On the row r = q every line of a class starts at the slope: k windows.
    """
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    zero = int(table[0])
    stack = np.empty((1 + sum(len(a) > 1 for a in slopes.values()), 2 * q), dtype=table.dtype)
    stack[0] = table
    windows = sliding_window_view(stack, q, axis=1)
    reads, k = [], 0
    for a0, *rest in slopes.values():
        if rest:
            k += 1
            total = stack[k, :q]
            total[...] = table[:q]
            for a in rest:
                total += table[(a - a0) % q :][:q]
            stack[k, q:] = total
        reads.append(windows[k if rest else 0])
    # the start a0 + r b/c of each class's first line on the rows r; column q is replaced by ``last``
    slope = np.array(list(slopes), dtype=np.intp)
    first = np.array([a[0] for a in slopes.values()], dtype=np.intp)
    starts = (first[:, None] + slope[:, None] * np.arange(q + 1)) % q
    sizes = np.array([len(a) for a in slopes.values()], dtype=table.dtype)
    last = flat[q] + sizes @ windows[0, slope]
    rows = max(1, _BLOCK_POINTS // q)
    acc = np.empty((rows, q), dtype=table.dtype)
    cap = np.full_like(acc, zero)  # numpy clips against an array several times faster than against a scalar
    idx = np.empty(acc.shape, dtype=np.intp)  # bincount copies any other dtype into intp first
    hist = np.zeros(zero + 1, dtype=np.int64)
    for r0 in range(0, q + 1, rows):
        n = min(rows, q + 1 - r0)
        out = acc[:n]
        out[...] = flat[r0 : r0 + rows, None]
        for win, u in zip(reads, starts[:, r0 : r0 + rows]):
            out += win[u]
        if r0 + n > q:
            out[-1] = last
        np.minimum(out, cap[:n], out=idx[:n])
        hist += np.bincount(idx[:n].ravel(), minlength=zero + 1)
    # a sum below Z is a class sum, so it lies in the class of its residue mod d
    folded = np.zeros(d * d, dtype=np.int64)
    folded[:zero] = hist[:zero]
    return folded.reshape(d, d).sum(axis=0).tolist(), int(hist[zero])


def _rotated_rows(table: np.ndarray, flat: np.ndarray, slopes: dict[int, list[int]], q: int, d: int, h2: list[int]):
    """The same as ``_window_rows`` for at most two varying lines, row by rotated row, given H2."""
    import numpy as np

    zero, n = table.item(0), (q - 1) // d
    lines = [(m, a) for m, offsets in slopes.items() for a in offsets]
    if len(lines) < 2:  # a live row: one zero and n points in every class, or q in its flat class
        live = flat[flat < zero]  # a flat line vanishing on a row makes all of it zero
        classes = [n * live.size] * d if lines else [q * k for k in np.bincount(live % d, minlength=d).tolist()]
        return classes, q * (q + 1 - live.size) + len(lines) * live.size
    # w and w + delta meet on one row: delta = dm (r - meet) on the row r < q and dm on the
    # row q when the slopes differ, else da on the rows r < q and 0 on the row q.  There
    # they give n points in each class 2 class(w) + flat, and one zero
    (m0, a0), (m1, a1) = lines
    dm, da = (m1 - m0) % q, (a1 - a0) % q
    meet = -da * pow(dm, -1, q) % q if dm else q
    classes, level = [0] * d, flat.item(meet)
    met = level < zero
    for k in range(d * met):
        classes[(2 * k + level) % d] += n
    # elsewhere H2 rotated by flat + 2 class(delta), for H2[s] the x != 0, -1 with
    # class(x) + class(x + 1) = s.  On the rows r < q class(delta) is class(dm or da) plus
    # T2[r - meet], which is Z on the meeting row: a sum at or above Z marks it or a dead row
    rot = flat[:q] + 2 * table[q - meet :][:q] if dm else flat[:q]
    spin = 2 * table.item(dm or da)
    sums = np.bincount(rot)[:zero].tolist()
    hist = [sum(sums[s::d]) for s in range(d)]
    if dm and flat.item(q) < zero:
        hist[flat.item(q) % d] += 1  # the row q, where delta = dm
    for s, rows in enumerate(hist):
        for t, k in enumerate(h2 if rows else ()):
            classes[(s + spin + t) % d] += rows * k
    rows = sum(hist)
    return classes, q * (q + 1 - rows - met) + 2 * rows + met


def brute_force_count(arr: Arrangement, q: int) -> CountTable:
    """O(q^3) oracle: enumerate every affine triple.

    ``assembly.consistency_checks`` compares it with the fast census at every counted q <= 50.
    """
    import numpy as np

    _check_prime(arr, q)
    (g, table, _), lines = _class_table(q, arr.d), arr.forms_mod(q)
    rng = np.arange(q, dtype=np.int64)
    xs, ys, zs = np.meshgrid(rng, rng, rng, indexing="ij")
    vals = _q_values(lines, q, xs.ravel(), ys.ravel(), zs.ravel())
    class_counts, zero_count = _aggregate(vals, table, arr.d)
    return CountTable(q, g, arr.d, tuple(class_counts.tolist()), zero_count)


def twisted_counts(table: CountTable) -> tuple[int, ...]:
    """Fixed points of lam^j . Frobenius on the fiber, for the twists j = 0, ..., d - 1.

    These equal #{y : Q(y) = s_j} with s_j in the class of g^j; each class
    has (q - 1) / d elements sharing one fiber count, so the class census
    divides out exactly.
    """
    totals = [n * table.d for n in table.class_counts]
    assert all(t % (table.q - 1) == 0 for t in totals)
    return tuple(t // (table.q - 1) for t in totals)


def complement_count(table: CountTable) -> int:
    """Points of the affine complement Q != 0; the same for every twist."""
    return table.q**3 - table.zero_count


def count_tables(arr: Arrangement, primes: Sequence[int], threads: int = 1, target: str | None = None) -> list[CountTable]:
    """Count at several primes; workers are pure, merge order is the input order.

    The one gate of a count request, before any count: ``_check_prime`` on each prime in turn, then
    ``_check_fit_primes`` on the list: no prime repeats, and for a fit ``target`` there are enough.
    """
    for q in primes:
        _check_prime(arr, q)
    _check_fit_primes(primes, _FIT_DEGREE.get(target))
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

    per_twist[j] is None exactly when witnesses holds (j, q), q the first prime
    at which the interpolant through the leading primes fails.
    """

    degree: int
    per_twist: tuple[tuple[Fraction, ...] | None, ...]
    witnesses: tuple[tuple[int, int], ...]  # (twist, witnessing prime)

    def is_polynomial(self) -> bool:
        return not self.witnesses

    def first_witness(self) -> int | None:
        return min((q for _, q in self.witnesses), default=None)


def _lagrange(points: Sequence[tuple[int, int]]) -> tuple[Fraction, ...]:
    """Ascending coefficients of the interpolant through ``points`` at distinct x.

    One integer numerator sum_i y_i (D / w_i) N(x) / (x - x_i) over one common
    denominator D = lcm w_i, for N the node polynomial prod (x - x_k) and
    w_i = N'(x_i); only the final coefficients become Fractions.
    """
    xs = [x for x, _ in points]
    node = [1]  # ascending
    for xk in xs:
        node = [0, *node]
        for t in range(len(node) - 1):
            node[t] -= xk * node[t + 1]
    weights = [math.prod(xi - xk for k, xk in enumerate(xs) if k != i) for i, xi in enumerate(xs)]
    den = math.lcm(*weights)
    num = [0] * len(points)
    for (xi, yi), w in zip(points, weights):
        scale, carry = yi * (den // w), 0
        for t in range(len(points), 0, -1):  # N(x) / (x - x_i) by synthetic division
            carry = node[t] + xi * carry
            num[t - 1] += scale * carry
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return tuple(Fraction(c, den) for c in num)


def _agrees(coeffs: Sequence[Fraction], x: int, y: int) -> bool:
    """Whether the polynomial takes the value y at x, compared in integers."""
    den = math.lcm(*(c.denominator for c in coeffs))
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c.numerator * (den // c.denominator)
    return acc == y * den


def fit_polynomials(primes: Sequence[int], rows: Sequence[Sequence[int]], degree: int) -> FittedPoly:
    """Interpolate each twist's counts through the first degree + 1 primes, then verify at the rest.

    ``rows[j]`` holds twist j's count at each prime.  ``_check_fit_primes`` checks the primes once:
    distinct, and at least degree + 2 of them, so that at least one prime is a genuine
    consistency witness.  Twists often share a row; each distinct row is fitted once.
    """
    _check_fit_primes(primes, degree)
    rows = [tuple(row) for row in rows]
    fits = {}
    for row in dict.fromkeys(rows):
        pts = list(zip(primes, row, strict=True))
        coeffs = _lagrange(pts[: degree + 1])
        fits[row] = coeffs, next((q for q, y in pts if not _agrees(coeffs, q, y)), None)
    found = [fits[row] for row in rows]
    per_twist = tuple(None if bad else coeffs for coeffs, bad in found)
    return FittedPoly(degree, per_twist, tuple((j, bad) for j, (_, bad) in enumerate(found) if bad))


# the degree in q of the fitted counts: the fiber is a surface, the complement a threefold
_FIT_DEGREE = {"fiber": 2, "complement": 3}


def fiber_fit(tables: Sequence[CountTable], d: int) -> FittedPoly:
    counts = [twisted_counts(t) for t in tables]
    rows = [[tw[j] for tw in counts] for j in range(d)]
    return fit_polynomials([t.q for t in tables], rows, degree=_FIT_DEGREE["fiber"])


def complement_fit(tables: Sequence[CountTable], d: int) -> FittedPoly:
    """Every twist has the one complement count at each prime: the row is fitted once, for all d twists."""
    fit = fit_polynomials([t.q for t in tables], [[complement_count(t) for t in tables]], _FIT_DEGREE["complement"])
    return FittedPoly(fit.degree, fit.per_twist * d, tuple((j, q) for j in range(d) for _, q in fit.witnesses))


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
    entries = {}
    for i, column in enumerate(zip_longest(*fit.per_twist, fillvalue=0)):
        try:  # an integral coefficient goes as an int, any other to the decode, which names it
            entries[(i, i)] = decode_characters([c.numerator if c.denominator == 1 else c for c in column])
        except DecodeError as exc:
            raise DecodeError(f"coefficient of t^{i}: {exc}") from exc
    return HodgeTable(d, entries)
