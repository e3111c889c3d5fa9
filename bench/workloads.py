"""The four benchmark workloads: seeded inputs, the calls that form a task, and checks.

A workload is a pool of tasks that the harness runs in order, cycling when
the run outlasts the pool.  A task's ``run`` is the timed call into the
program; its ``verify`` compares the output with an oracle and returns a
reason when they differ.  The program only ever sees generated inputs:
arrangement text goes through ``parse_arrangement``, CLI runs get files from
``bench/data``.

Seed handling: ``random.Random(f"{workload}:{seed}")`` draws every random
choice.  The seed picks line coefficients, which primes of each stratum are
counted and the CLI rotation order; the degree grids, prime ranges and pool
sizes are fixed, so every seed gives a workload of the same shape and cost.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

from milnorhodge import arrangement, assembly, errors, pointcount
from oracles import (
    BENCH_DIR,
    DATA_DIR,
    canonical,
    ceva_lines_mod,
    census_mod,
    charpoly_at,
    charpoly_coeffs,
    closed_form_spectrum,
    first_good_primes,
    golden_bytes,
    golden_fiber_verdict,
    primes_1_mod,
    rational_census,
)

ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# Environment variables the program reads; none of them reaches it.
PROGRAM_ENV_PREFIX = "MILNORHODGE_"


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith(PROGRAM_ENV_PREFIX)}
    env["PYTHONPATH"] = "src"
    return env


@dataclass
class Task:
    label: str
    run: Callable[[object], object]  # receives the Tracer, or None when untraced
    verify: Callable[[object], str | None]


@dataclass
class Workload:
    tasks: list[Task]
    rss_of_children: bool = False  # peak RSS is that of the child processes


# ---------------------------------------------------------------------------
# arrangement generators (the benchmark's own, not the package's)

CEVA_D, CEVA_CENSUS = 9, {3: 12}


def random_lines(rng: random.Random, d: int, bound: int = 4) -> list[tuple[int, int, int]]:
    """d distinct lines with coefficients in [-bound, bound], as drawn."""
    seen, lines = set(), []
    while len(lines) < d:
        t = tuple(rng.randint(-bound, bound) for _ in range(3))
        if any(t) and canonical(t) not in seen:
            seen.add(canonical(t))
            lines.append(t)
    return lines


def _cross(u, v) -> tuple[int, int, int]:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def near_pencil_lines(rng: random.Random, d: int) -> list[tuple[int, int, int]]:
    """d - 1 lines through one point plus one line missing it: census {d-1: 1, 2: d-1}."""
    centre = (0, 0, 0)
    while not any(centre):
        centre = tuple(rng.randint(-3, 3) for _ in range(3))
    seen, lines = set(), []
    while len(lines) < d - 1:  # [-6, 6] gives at least 48 lines through any such centre
        t = _cross(centre, tuple(rng.randint(-6, 6) for _ in range(3)))
        if any(t) and canonical(t) not in seen:
            seen.add(canonical(t))
            lines.append(t)
    while len(lines) < d:
        t = tuple(rng.randint(-4, 4) for _ in range(3))
        if sum(a * b for a, b in zip(t, centre)) != 0 and canonical(t) not in seen:
            lines.append(t)
    rng.shuffle(lines)
    return lines


def lines_text(lines) -> str:
    return "".join(f"{a} {b} {c}\n" for a, b, c in lines)


def read_lines(path) -> list[tuple[int, int, int]]:
    out = []
    for raw in path.read_text().splitlines():
        if raw.strip() and not raw.startswith("#"):
            out.append(tuple(int(v) for v in raw.split()))
    return out


# ---------------------------------------------------------------------------
# spectrum: the weak-data route


# A near-pencil's census is fixed, so its cost does not depend on the seed.
# One at every degree spreads task costs densely, with no gap for the median
# or the 90th percentile to jump across from one run to the next.
SPECTRUM_RANDOM_D = range(20, 91, 10)
SPECTRUM_PENCIL_D = range(10, 36)
SPECTRUM_ROUNDS = 6


def _spectrum_task(label: str, text: str, d: int, census) -> Task:
    chi, expected = closed_form_spectrum(d, census)

    def run(tracer):
        return assembly.spectrum(arrangement.weak_comb_data(arrangement.parse_arrangement(text)))

    def verify(spec) -> str | None:
        if (spec.d, spec.chi_fiber) != (d, chi):
            return f"d, chi(F) = {spec.d}, {spec.chi_fiber}; expected {d}, {chi}"
        if dict(spec.entries) != expected:
            return "spectrum differs from the closed form"
        return None

    return Task(label, run, verify)


def build_spectrum(rng: random.Random) -> Workload:
    tasks = []
    for _ in range(SPECTRUM_ROUNDS):
        for d in SPECTRUM_RANDOM_D:
            lines = random_lines(rng, d)
            tasks.append(_spectrum_task(f"random d={d}", lines_text(lines), d, rational_census(lines)))
        for d in SPECTRUM_PENCIL_D:
            lines = near_pencil_lines(rng, d)
            tasks.append(_spectrum_task(f"near-pencil d={d}", lines_text(lines), d, rational_census(lines)))
        tasks.append(_spectrum_task("ceva", "builtin: ceva\n", CEVA_D, CEVA_CENSUS))
    return Workload(tasks)


# ---------------------------------------------------------------------------
# counts-deep: few lines, large q


DEEP_Q_RANGE = (700, 1600)
DEEP_PRIMES = 5  # one per fifth of the good primes in range
DEEP_ROUNDS = 10


def _stratified_primes(rng: random.Random, good: list[int], count: int) -> list[int]:
    """One prime from each of ``count`` contiguous strata of ``good``."""
    n = len(good)
    return [good[rng.randrange(i * n // count, (i + 1) * n // count)] for i in range(count)]


def _count_task(label: str, arr, q: int, d: int, census, state: dict) -> Task:
    expected = charpoly_at(d, census, q)

    def run(tracer):
        table = pointcount.count_classes(arr, q)
        state[q] = table
        return table

    def verify(table) -> str | None:
        if table.q != q or sum(table.class_counts) + table.zero_count != q**3:
            return f"count table at q={q} does not partition F_q^3"
        if q**3 - table.zero_count != expected:
            return f"complement count at q={q} is {q**3 - table.zero_count}, charpoly gives {expected}"
        return None

    return Task(label, run, verify)


def complement_epoly(d: int, census) -> dict:
    """E_c of the cone complement: trivial character times each charpoly coefficient."""
    return {(i, i): (c,) + (0,) * (d - 1) for i, c in enumerate(charpoly_coeffs(d, census)) if c}


def _fit_task(label: str, fit_name: str, get_tables, d: int, expected) -> Task:

    def run(tracer):
        fit = getattr(pointcount, fit_name)(get_tables(), d)
        try:
            epoly = pointcount.hodge_from_counts(fit, d)
        except errors.NotPolynomialCount as exc:
            return exc.code
        return {pq: tuple(r.mult) for pq, r in epoly.items()}

    def verify(result) -> str | None:
        return None if result == expected else f"fit and decode gave {result!r}, expected {expected!r}"

    return Task(label, run, verify)


class DeepArrangement(NamedTuple):
    label: str
    text: str
    d: int
    census: dict
    good: list[int]  # good primes q = 1 (mod d) in DEEP_Q_RANGE
    fit_name: str  # the pointcount fit whose decoded result is checked
    expected: object  # decoded E-polynomial {(p, q): mult}, or a verdict code


def _good_primes_in(d: int, census, lines_mod) -> list[int]:
    return [q for q in primes_1_mod(d, *DEEP_Q_RANGE) if census_mod(lines_mod(q), q) == census]


def _deep_rational(label: str, lines, text: str, golden: str | None = None) -> DeepArrangement:
    """Complement fit checked against the charpoly, or fiber fit checked against a golden."""
    d, census = len(lines), rational_census(lines)
    good = _good_primes_in(d, census, lambda q: lines)
    if golden is None:
        return DeepArrangement(label, text, d, census, good, "complement_fit", complement_epoly(d, census))
    return DeepArrangement(label, text, d, census, good, "fiber_fit", golden_fiber_verdict(golden))


def build_counts_deep(rng: random.Random) -> Workload:
    """Each round: boolean, generic3, generic4, Ceva and one random arrangement of 5 to 9 lines."""
    fixed = [
        _deep_rational(name, read_lines(DATA_DIR / f"{name}.txt"), (DATA_DIR / f"{name}.txt").read_text(),
                       golden)
        for name, golden in (("boolean", "hodge_from_counts_boolean.json"), ("generic3", None), ("generic4", None))
    ]
    fixed.append(DeepArrangement("ceva", (DATA_DIR / "ceva.txt").read_text(), CEVA_D, CEVA_CENSUS,
                                 _good_primes_in(CEVA_D, CEVA_CENSUS, ceva_lines_mod),
                                 "fiber_fit", golden_fiber_verdict("hodge_from_counts_ceva_fiber.json")))
    tasks = []
    for _ in range(DEEP_ROUNDS):
        lines = random_lines(rng, rng.randint(5, 9))
        for a in fixed + [_deep_rational(f"random d={len(lines)}", lines, lines_text(lines))]:
            arr = arrangement.parse_arrangement(a.text)
            primes = _stratified_primes(rng, a.good, DEEP_PRIMES)
            state: dict = {}
            tasks += [_count_task(f"{a.label} q={q}", arr, q, a.d, a.census, state) for q in primes]
            tasks.append(_fit_task(f"{a.label} fit", a.fit_name,
                                   lambda state=state, primes=primes: [state.pop(q) for q in primes],
                                   a.d, a.expected))
    return Workload(tasks)


# ---------------------------------------------------------------------------
# counts-wide: many lines, small q


WIDE_D = range(16, 49, 4)
WIDE_MIN_Q = 100
WIDE_PRIMES = 5
WIDE_ROUNDS = 9


def _wide_tasks(rng: random.Random, d: int) -> list[Task]:
    lines = random_lines(rng, d)
    census = rational_census(lines)
    expected_primes = first_good_primes(lines, census, d, WIDE_PRIMES, WIDE_MIN_Q)
    arr = arrangement.parse_arrangement(lines_text(lines))
    state: dict = {}

    def search(tracer):
        state["primes"] = [f.p for f in pointcount.good_primes(arr, WIDE_PRIMES, min_q=WIDE_MIN_Q)]
        return state["primes"]

    def check_primes(primes) -> str | None:
        return None if primes == expected_primes else f"good primes {primes}, expected {expected_primes}"

    def count(tracer):
        state["tables"] = pointcount.count_tables(arr, state["primes"], threads=1)
        return state["tables"]

    def check_counts(tables) -> str | None:
        for t in tables:
            expected = charpoly_at(d, census, t.q)
            if t.q**3 - t.zero_count != expected:
                return f"complement count at q={t.q} is {t.q**3 - t.zero_count}, charpoly gives {expected}"
        if [t.q for t in tables] != state["primes"]:
            return "count tables are not at the requested primes"
        return None

    return [
        Task(f"d={d} good_primes", search, check_primes),
        Task(f"d={d} count_tables", count, check_counts),
        _fit_task(f"d={d} fit", "complement_fit", lambda: state.pop("tables"), d, complement_epoly(d, census)),
    ]


def build_counts_wide(rng: random.Random) -> Workload:
    return Workload([t for _ in range(WIDE_ROUNDS) for d in WIDE_D for t in _wide_tasks(rng, d)])


# ---------------------------------------------------------------------------
# cli-cold: whole CLI processes


def _data(name: str) -> str:
    return str((DATA_DIR / name).relative_to(ROOT))


# (golden file, CLI arguments): the golden invocations of the CLI test suite.
CLI_INVOCATIONS = [
    ("local_hodge_3_9.json", ["local-hodge", "--k", "3", "--d", "9"]),
    ("fermat_9.json", ["fermat", "--d", "9"]),
    ("spectrum_ceva.json", ["spectrum", "--arrangement", _data("ceva.txt")]),
    ("combinatorics_boolean.json", ["combinatorics", "--arrangement", _data("boolean.txt")]),
    ("h2f_ceva.json", ["h2f", "--arrangement", _data("ceva.txt"), "--h3x", _data("ceva_h3x.json")]),
    ("count_boolean_fiber.json",
     ["count", "--arrangement", _data("boolean.txt"), "--target", "fiber", "--primes", "7,13,19,31"]),
    ("hodge_from_counts_boolean.json",
     ["hodge-from-counts", "--arrangement", _data("boolean.txt"), "--target", "fiber",
      "--primes", "7,13,19,31"]),
    ("hodge_from_counts_ceva_fiber.json",
     ["hodge-from-counts", "--arrangement", _data("ceva.txt"), "--target", "fiber",
      "--primes", "19,37,73,109,127"]),
    ("check_boolean.json", ["check", "--arrangement", _data("boolean.txt")]),
    ("count_generic3_complement.json",
     ["count", "--arrangement", _data("generic3.txt"), "--target", "complement",
      "--primes", "7,13,19,31,37"]),
]

CLI_TIMEOUT_S = 120


def _cli_task(golden: str, argv: list[str]) -> Task:
    expected = golden_bytes(golden)
    span_file = OUT_DIR / "cli-spans.json"

    def run(tracer):
        if tracer is None:
            cmd = [sys.executable, "-m", "milnorhodge.cli", *argv]
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, timeout=CLI_TIMEOUT_S)
            return proc.returncode, proc.stdout
        cmd = [sys.executable, str(BENCH_DIR / "cli_launcher.py"), str(span_file), *argv]
        span_file.unlink(missing_ok=True)  # a child that fails to write must not pass on stale spans
        with tracer.span("cli.process") as idx:
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, timeout=CLI_TIMEOUT_S)
        child = json.loads(span_file.read_text())
        tracer.adopt(child["spans"], child["counters"], parent=idx)
        return proc.returncode, proc.stdout

    def verify(result) -> str | None:
        code, out = result
        if code != 0:
            return f"exit code {code}"
        return None if out == expected else f"stdout differs from golden {golden}"

    return Task(" ".join(argv[:1]) + f" -> {golden}", run, verify)


def build_cli_cold(rng: random.Random) -> Workload:
    order = list(CLI_INVOCATIONS)
    rng.shuffle(order)
    return Workload([_cli_task(g, a) for g, a in order], rss_of_children=True)


BUILDERS = {
    "spectrum": build_spectrum,
    "counts-deep": build_counts_deep,
    "counts-wide": build_counts_wide,
    "cli-cold": build_cli_cold,
}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](random.Random(f"{name}:{seed}"))
