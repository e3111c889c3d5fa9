"""Benchmark of milnorhodge: four workloads over the weak-data and point-count routes.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One process drives the program in a closed
loop with one client: the next task starts when the previous one has
returned and been checked.  Every task output is compared with an oracle
(bench/oracles.py) or a golden file (bench/golden); a task that raises or
differs counts as failed.

--trace 0 runs the tasks for S seconds, untraced, and reports the
end-to-end metrics.  If fewer than 100 tasks have run by then, it goes on
until 100 have, so that ten samples lie beyond the 90th percentile, but it
starts no task after 1.3 S.  --trace 1 runs the task sequence untraced for
S/2 seconds and then the same tasks again with every layer call wrapped; it
reports per-layer self times and counts per traced task, plus the tracing
overhead, and writes the spans to bench/out/.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.

Workloads, metrics and their mapping are described in bench/README.md.
"""

from time import perf_counter

START = perf_counter()  # the workload starts here: set-up time counts from this point

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = ("spectrum", "counts-deep", "counts-wide", "cli-cold")
MIN_TASKS = 100
MAX_STRETCH = 1.3  # the run goes on for MIN_TASKS up to this multiple of --seconds, no further
SETUP_PROBES = 2  # fresh processes that repeat the set-up, besides this one
PROBE_TIMEOUT_S = 60


# ---------------------------------------------------------------------------
# statistics


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks, as statistics.quantiles(method='inclusive')."""
    s = sorted(values)
    h = (len(s) - 1) * p / 100
    lo = math.floor(h)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (h - lo) * (s[hi] - s[lo])


def samples_beyond(values, p: float) -> int:
    cut = percentile(values, p)
    return sum(v > cut for v in values)


# ---------------------------------------------------------------------------
# set-up and the closed loop


def setup(workload: str, seed: int):
    """Import the program from src/ and build the workload; seconds are counted from START."""
    if not (SRC / "milnorhodge" / "__init__.py").is_file():
        raise SystemExit(f"error: no milnorhodge package under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import milnorhodge

    if not Path(milnorhodge.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: milnorhodge was imported from {milnorhodge.__file__}, not {SRC}")
    from workloads import build

    wl = build(workload, seed)
    return wl, perf_counter() - START


@dataclass
class Phase:
    attempted: int = 0
    latencies: list[float] = field(default_factory=list)  # seconds, verified tasks only
    failures: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def tasks_per_s(self) -> float:
        return len(self.latencies) / self.elapsed

    @property
    def failed_frac(self) -> float:
        return len(self.failures) / max(self.attempted, 1)


def run_phase(tasks, seconds: float, min_tasks: int = 0, tracer=None, max_seconds: float = math.inf) -> Phase:
    """Run tasks back to back, cycling the pool, for ``seconds`` and at least
    ``min_tasks``, but start no task after ``max_seconds``."""
    phase = Phase()
    start = perf_counter()
    deadline, cutoff = start + seconds, start + max_seconds
    while (perf_counter() < deadline or phase.attempted < min_tasks) and perf_counter() < cutoff:
        task = tasks[phase.attempted % len(tasks)]
        phase.attempted += 1
        t0 = perf_counter()
        try:
            if tracer is None:
                out = task.run(None)
            else:
                tracer.task_id = phase.attempted
                with tracer.span("task"):
                    out = task.run(tracer)
        except Exception as exc:  # the loop must go on: a raising task is a recorded failure
            phase.failures.append(f"{task.label}: {type(exc).__name__}: {exc}")
            continue
        latency = perf_counter() - t0
        problem = task.verify(out)
        if problem is None:
            phase.latencies.append(latency)
        else:
            phase.failures.append(f"{task.label}: {problem}")
    phase.elapsed = perf_counter() - start
    return phase


def probe_setups(workload: str, seed: int) -> list[float]:
    """Set-up seconds measured in fresh processes, so that imports are cold each time."""
    from workloads import child_env

    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return out


# ---------------------------------------------------------------------------
# metrics


def end_to_end(phase: Phase, setups: list[float], rss_kib: int) -> dict:
    lat_ms = [1e3 * v for v in phase.latencies] or [0.0]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "tasks_per_s": (phase.tasks_per_s, "1/s"),
        "task_p50_ms": (percentile(lat_ms, 50), "ms"),
        "task_p90_ms": (percentile(lat_ms, 90), "ms"),
        "peak_rss_mb": (rss_kib / 1024, "MiB"),
    }


def per_layer(tracer, traced: Phase, untraced: Phase) -> dict:
    """Self time and counts per traced task, by layer; byte counts are computed, not measured."""
    from tracing import durations, self_times

    n = max(traced.attempted, 1)
    own = self_times(tracer.spans)
    whole = durations(tracer.spans)
    c = tracer.counters

    def ms(name: str, table=own) -> tuple[float, str]:
        return 1e3 * table.get(name, 0.0) / n, "ms/task"

    def per_task(name: str) -> tuple[float, str]:
        return c[name] / n, "1/task"

    count_s = own.get("pointcount.count", 0.0)
    cli_interp = whole.get("cli.process", 0.0) - whole.get("cli.import", 0.0) - whole.get("cli.main", 0.0)
    return {
        "arrangement.parse_ms": ms("arrangement.parse"),
        "arrangement.weak_data_ms": ms("arrangement.weak_data"),
        "arrangement.weak_data_calls": per_task("arrangement.weak_data_calls"),
        "arrangement.line_pairs": per_task("arrangement.line_pairs"),
        "localhodge.table_ms": ms("localhodge.table"),
        "localhodge.table_calls": per_task("localhodge.table_calls"),
        "localhodge.monomials": per_task("localhodge.monomials"),
        "assembly.spectrum_ms": ms("assembly.spectrum"),
        "assembly.assemble_ms": ms("assembly.assemble"),
        "pointcount.count_ms": ms("pointcount.count"),
        "pointcount.count_calls": per_task("pointcount.count_calls"),
        "pointcount.line_evals": per_task("pointcount.line_evals"),
        "pointcount.line_evals_per_s": (c["pointcount.line_evals"] / count_s if count_s else 0.0, "1/s"),
        "pointcount.array_mb": (8 * c["pointcount.max_q"] ** 2 / 2**20, "MiB"),
        "pointcount.good_primes_ms": ms("pointcount.good_primes"),
        "pointcount.candidates": per_task("pointcount.candidates"),
        "pointcount.good_ratio": (
            c["pointcount.good_found"] / c["pointcount.candidates"] if c["pointcount.candidates"] else 0.0,
            "ratio",
        ),
        "pointcount.fit_ms": ms("pointcount.fit"),
        "pointcount.extract_ms": ms("pointcount.extract"),
        "repring.decode_ms": ms("repring.decode"),
        "repring.decode_calls": per_task("repring.decode_calls"),
        "repring.decode_traces": per_task("repring.decode_traces"),
        "cli.process_ms": ms("cli.process", whole),
        "cli.import_ms": ms("cli.import", whole),
        "cli.main_ms": ms("cli.main", whole),
        "cli.interp_ms": (1e3 * cli_interp / n, "ms/task"),
        "trace.untraced_tasks_per_s": (untraced.tasks_per_s, "1/s"),
        "trace.traced_tasks_per_s": (traced.tasks_per_s, "1/s"),
        "trace.overhead_frac": (untraced.tasks_per_s / traced.tasks_per_s - 1 if traced.latencies else 0.0,
                                "ratio"),
    }


# ---------------------------------------------------------------------------
# reporting


def environment_line() -> str:
    import numpy

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (
        f"env: {platform.python_implementation()} {platform.python_version()}, numpy {numpy.__version__}, "
        f"nproc {nproc}; children get PYTHONPATH=src and no MILNORHODGE_* variable; "
        f"count_tables threads=1; load: one closed-loop client"
    )


def report(args, phase: Phase, metrics: dict, notes: list[str]) -> None:
    print(environment_line())
    print(f"workload {args.workload}, seed {args.seed}: {phase.attempted} tasks attempted, "
          f"{len(phase.failures)} failed, {phase.elapsed:.3f} s measured")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    for failure in phase.failures[:10]:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": not phase.failures,
        "attempted": phase.attempted,
        "failed": len(phase.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    wl, setup_s = setup(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from workloads import OUT_DIR, PROGRAM_ENV_PREFIX

    for key in [k for k in os.environ if k.startswith(PROGRAM_ENV_PREFIX)]:
        del os.environ[key]  # the package reads them at call time, in this process too
    OUT_DIR.mkdir(exist_ok=True)
    if not args.trace:
        phase = run_phase(wl.tasks, args.seconds, MIN_TASKS, max_seconds=MAX_STRETCH * args.seconds)
        scope = resource.RUSAGE_CHILDREN if wl.rss_of_children else resource.RUSAGE_SELF
        rss_kib = resource.getrusage(scope).ru_maxrss
        setups = [setup_s] + probe_setups(args.workload, args.seed)
        metrics = end_to_end(phase, setups, rss_kib)
        lat_ms = [1e3 * v for v in phase.latencies] or [0.0]
        notes = [
            f"  {'failed_frac':32s} {phase.failed_frac:14.6g} ratio",
            f"  latency samples {len(phase.latencies)}, {samples_beyond(lat_ms, 90)} beyond p90; "
            f"set-ups (s): {', '.join(f'{s:.4f}' for s in setups)}",
        ]
        report(args, phase, metrics, notes)
        return 0

    from tracing import Tracer

    # The traced phase replays exactly the tasks of the untraced one, so that
    # the ratio of their rates is the tracing overhead and nothing else.
    untraced = run_phase(wl.tasks, args.seconds / 2)
    tracer = Tracer()
    with tracer.installed():
        traced = run_phase(wl.tasks, 0, min_tasks=untraced.attempted, tracer=tracer)
    span_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.dump(span_path)
    notes = [f"  untraced phase: {untraced.attempted} tasks; traced phase: {traced.attempted} tasks, "
             f"{len(tracer.spans)} spans written to {span_path.relative_to(ROOT)}"]
    both = Phase(untraced.attempted + traced.attempted, untraced.latencies + traced.latencies,
                 untraced.failures + traced.failures, untraced.elapsed + traced.elapsed)
    report(args, both, per_layer(tracer, traced, untraced), notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
