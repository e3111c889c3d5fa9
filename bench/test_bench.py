"""Self-tests of the benchmark harness.

Run from the repository root with:  python3 -m pytest bench -q
"""

import random
import statistics
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

from milnorhodge import arrangement, assembly, pointcount
from oracles import census_mod, closed_form_spectrum, first_good_primes, rational_census
from run import percentile, run_phase, samples_beyond
from tracing import Tracer, self_times
from workloads import Task, build, lines_text, near_pencil_lines, random_lines


# ---------------------------------------------------------------------------
# the percentile rule


def test_percentile_matches_inclusive_quantiles():
    rng = random.Random(7)
    for n in (2, 5, 100, 137):
        values = [rng.expovariate(1.0) for _ in range(n)]
        cuts = statistics.quantiles(values, n=100, method="inclusive")
        assert percentile(values, 50) == pytest.approx(cuts[49])
        assert percentile(values, 90) == pytest.approx(cuts[89])


def test_hundred_samples_leave_ten_beyond_p90():
    values = list(range(1, 101))
    assert percentile(values, 90) == pytest.approx(90.1)
    assert samples_beyond(values, 90) == 10
    assert samples_beyond(values[:90], 90) == 9


# ---------------------------------------------------------------------------
# self-time arithmetic


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["outer", 0.0, 10.0, None, 1],
        ["a", 1.0, 3.0, 0, 1],
        ["b", 2.0, 5.0, 0, 1],  # overlaps a: the union [1, 5] is subtracted once
        ["leaf", 1.5, 2.0, 1, 1],
        ["c", 9.0, 12.0, 0, 1],  # runs past its parent: only [9, 10] is subtracted
    ]
    own = self_times(spans)
    assert own["outer"] == pytest.approx(10 - 4 - 1)
    assert own["a"] == pytest.approx(2 - 0.5)
    assert own["b"] == pytest.approx(3)
    assert own["leaf"] == pytest.approx(0.5)
    assert own["c"] == pytest.approx(3)


def test_tracer_nests_wrapped_calls_and_restores_them():
    original = assembly.local_hodge_table
    tracer = Tracer()
    w = arrangement.weak_comb_data(arrangement.ceva_arrangement())
    with tracer.installed():
        with tracer.span("task"):
            assembly.spectrum(w)
    assert assembly.local_hodge_table is original
    names = [s[0] for s in tracer.spans]
    assert names == ["task", "assembly.spectrum", "localhodge.table"]
    assert tracer.spans[2][3] == 1  # the local table is a child of the spectrum span
    assert tracer.counters["localhodge.monomials"] == 4 * 8


# ---------------------------------------------------------------------------
# the oracles agree with the program on small cases


def _small_cases():
    rng = random.Random(11)
    yield [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for d in range(4, 11):
        yield near_pencil_lines(rng, d)
    for d in range(3, 13):
        for _ in range(3):
            yield random_lines(rng, d)


@pytest.mark.parametrize("lines", list(_small_cases()))
def test_closed_form_spectrum_and_census_match_the_program(lines):
    census = rational_census(lines)
    w = arrangement.weak_comb_data(arrangement.parse_arrangement(lines_text(lines)))
    assert w.counts == census
    spec = assembly.spectrum(w)
    chi, entries = closed_form_spectrum(len(lines), census)
    assert (spec.chi_fiber, dict(spec.entries)) == (chi, entries)


def test_closed_form_spectrum_of_ceva():
    spec = assembly.spectrum(arrangement.weak_comb_data(arrangement.ceva_arrangement()))
    chi, entries = closed_form_spectrum(9, {3: 12})
    assert (spec.chi_fiber, dict(spec.entries)) == (chi, entries)
    assert entries[Fraction(4, 3)] == -2


def test_good_prime_oracle_matches_the_program():
    rng = random.Random(5)
    for d in (6, 16, 24):
        lines = random_lines(rng, d)
        census = rational_census(lines)
        arr = arrangement.parse_arrangement(lines_text(lines))
        expected = first_good_primes(lines, census, d, 3, 100)
        assert [f.p for f in pointcount.good_primes(arr, 3, min_q=100)] == expected
    # two lines that coincide modulo 7
    assert census_mod([(1, 0, 0), (8, 0, 7), (0, 1, 0)], 7) is None


# ---------------------------------------------------------------------------
# failures are counted


def test_injected_wrong_output_raises_failed_frac(monkeypatch):
    tasks = build("spectrum", 0).tasks[:4]
    clean = run_phase(tasks, 0, min_tasks=4)
    assert clean.attempted == 4 and not clean.failures

    real = assembly.spectrum

    def off_by_one(w):
        spec = real(w)
        (a, m), *rest = spec.entries
        return assembly.Spectrum(spec.d, spec.chi_fiber, ((a, m + 1), *rest))

    monkeypatch.setattr(assembly, "spectrum", off_by_one)
    bad = run_phase(tasks, 0, min_tasks=4)
    assert bad.attempted == 4 and len(bad.failures) == 4
    assert bad.failed_frac == 1.0
    assert "closed form" in bad.failures[0] or "chi(F)" in bad.failures[0]


def test_raising_task_is_a_failure_and_the_loop_goes_on():
    def boom(tracer):
        raise ValueError("injected")

    tasks = [Task("boom", boom, lambda out: None), Task("ok", lambda tracer: 1, lambda out: None)]
    phase = run_phase(tasks, 0, min_tasks=4)
    assert phase.attempted == 4
    assert phase.failed_frac == 0.5
    assert len(phase.latencies) == 2
