import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest

from milnorhodge.arrangement import LineArrangement, ceva_arrangement, parse_arrangement
from milnorhodge.assembly import Spectrum, SurfaceH3Data
from milnorhodge.errors import DecodeError
from milnorhodge.localhodge import OrdinarySing
from milnorhodge.repring import HodgeTable, ReprClass, _prime_factors

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def data_dir() -> Path:
    return DATA


@pytest.fixture
def golden_dir() -> Path:
    return GOLDEN


def boolean_arrangement() -> LineArrangement:
    return LineArrangement(((1, 0, 0), (0, 1, 0), (0, 0, 1)))


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
    """The (k-1)^2 (d-1) monomials x^a y^b z^c with spectral and Hodge data attached.

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


def specialize_weight(table: HodgeTable) -> dict[int, ReprClass]:
    """Collapse u, v to one variable: weight w collects all p + q = w."""
    out: dict[int, ReprClass] = {}
    for (p, q), r in table.entries.items():
        w = p + q
        out[w] = out.get(w, ReprClass.zero(table.d)) + r
    return {w: r for w, r in sorted(out.items()) if not r.is_zero()}


def spectrum_mult(spec: Spectrum, a) -> int:
    """The multiplicity of the exponent ``a`` in ``spec``, 0 when absent."""
    return dict(spec.entries).get(Fraction(a), 0)


@pytest.fixture
def boolean():
    return boolean_arrangement()


@pytest.fixture
def generic3():
    return parse_arrangement((DATA / "generic3.txt").read_text())


@pytest.fixture
def ceva():
    return ceva_arrangement()


def ceva_h3(weight3_mult: int = 2) -> SurfaceH3Data:
    """H3(X) data for the Ceva arrangement: the two-dimensional pieces sit at
    the primitive cube-root characters (exponents 6 and 3 for d = 9)."""
    return SurfaceH3Data(
        HodgeTable(
            9,
            {
                (2, 1): ReprClass.character(9, 6, weight3_mult),
                (1, 2): ReprClass.character(9, 3, weight3_mult),
            },
        )
    )


@pytest.fixture
def h3_ceva() -> SurfaceH3Data:
    loaded = json.loads((DATA / "ceva_h3x.json").read_text())
    return SurfaceH3Data(HodgeTable.from_json_dict(loaded))


def reference_decode_characters(traces) -> ReprClass:
    """The decode that builds its Ramanujan weights at every call, kept as the oracle.

    Recover the multiplicity vector from integer traces at all lam^s.

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
    for s, t in enumerate(values):
        if t != values[math.gcd(s, d) % d]:
            raise DecodeError(
                f"trace vector is not a virtual character of mu_{d} "
                f"(trace at s={s} differs from its Galois conjugates)"
            )
    divisors = [e for e in range(1, d + 1) if d % e == 0]
    mu, phi = dict.fromkeys(divisors, 1), dict(zip(divisors, divisors))
    for p in _prime_factors(d):
        for n in divisors:
            if n % p == 0:
                mu[n] *= 0 if n % (p * p) == 0 else -1
                phi[n] = phi[n] // p * (p - 1)
    # m_j depends only on g = gcd(j, d); j = g % d is the first index with it.  Each
    # Ramanujan sum is c_n(g) = mu(n/h) phi(n) / phi(n/h), h = gcd(n, g) (von Sterneck)
    by_gcd = {}
    for g in divisors:
        total = 0
        for n in divisors:
            m = n // math.gcd(n, g)
            total += values[d // n % d] * mu[m] * (phi[n] // phi[m])
        if total % d:
            raise DecodeError(
                f"trace vector is not a virtual character of mu_{d} (fails at j={g % d})"
            )
        by_gcd[g] = total // d
    return ReprClass(d, [by_gcd[math.gcd(j, d)] for j in range(d)])
