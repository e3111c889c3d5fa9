"""Spans and counters recorded from outside the program.

The tracer wraps public functions of milnorhodge under the name each
consuming module binds them, so nested calls (``assembly.local_hodge_table``
inside ``assembly.spectrum``, ``pointcount.weak_comb_data`` inside
``pointcount.count_classes``) get their own spans.  Nothing under ``src/``
changes: the wrappers are installed for the traced phase and removed after.

A span is (name, start, end, parent, task): ``parent`` is the index of the
enclosing span or None, ``task`` the id of the benchmark task that caused it.
Spans stay in memory until the run ends.  Counters are computed from the
arguments and results at the same boundaries.
"""

from __future__ import annotations

import importlib
import json
import math
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from oracles import is_prime


def _count_weak_data(counters, args, kwargs, result) -> None:
    counters["arrangement.weak_data_calls"] += 1
    counters["arrangement.line_pairs"] += math.comb(result.d, 2)


def _count_local_table(counters, args, kwargs, result) -> None:
    k, d = result.sing.k, result.sing.d
    counters["localhodge.table_calls"] += 1
    counters["localhodge.monomials"] += (k - 1) ** 2 * (d - 1)


def _count_classes(counters, args, kwargs, result) -> None:
    q, d = result.q, result.d
    counters["pointcount.count_calls"] += 1
    counters["pointcount.line_evals"] += d * (q * q + q + 1)
    counters["pointcount.max_q"] = max(counters["pointcount.max_q"], q)


def _count_good_primes(counters, args, kwargs, result) -> None:
    arr, count = args[0], args[1]
    min_q = kwargs.get("min_q", args[2] if len(args) > 2 else 2)
    d = arr.d
    first = min_q + (1 - min_q) % d
    last = result[-1].p if result else first
    counters["pointcount.candidates"] += sum(is_prime(q) for q in range(first, last + 1, d))
    counters["pointcount.good_found"] += len(result)


def _count_decode(counters, args, kwargs, result) -> None:
    counters["repring.decode_calls"] += 1
    counters["repring.decode_traces"] += len(args[0])


# (module, attribute, span name, counter hook).  One entry per binding: a
# function imported by name into another module is wrapped there as well.
WRAPS = [
    ("arrangement", "parse_arrangement", "arrangement.parse", None),
    ("cli", "parse_arrangement", "arrangement.parse", None),
    ("arrangement", "weak_comb_data", "arrangement.weak_data", _count_weak_data),
    ("assembly", "weak_comb_data", "arrangement.weak_data", _count_weak_data),
    ("pointcount", "weak_comb_data", "arrangement.weak_data", _count_weak_data),
    ("cli", "weak_comb_data", "arrangement.weak_data", _count_weak_data),
    ("localhodge", "local_hodge_table", "localhodge.table", _count_local_table),
    ("assembly", "local_hodge_table", "localhodge.table", _count_local_table),
    ("cli", "local_hodge_table", "localhodge.table", _count_local_table),
    ("assembly", "spectrum", "assembly.spectrum", None),
    ("assembly", "assemble_all", "assembly.assemble", None),
    ("pointcount", "count_classes", "pointcount.count", _count_classes),
    ("pointcount", "good_primes", "pointcount.good_primes", _count_good_primes),
    ("pointcount", "fiber_fit", "pointcount.fit", None),
    ("pointcount", "complement_fit", "pointcount.fit", None),
    ("pointcount", "hodge_from_counts", "pointcount.extract", None),
    ("pointcount", "decode_characters", "repring.decode", _count_decode),
]


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, task]
        self.counters: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self.task_id: int | None = None

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.task_id])
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self._stack.pop()
            self.spans[idx][2] = perf_counter()

    def wrap(self, fn, name: str, hook):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every entry of WRAPS for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, hook in WRAPS:
                module = importlib.import_module(f"milnorhodge.{module_name}")
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(fn, name, hook))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def adopt(self, spans: list[list], counters: dict[str, int], parent: int) -> None:
        """Append spans recorded in a child process under the span ``parent``."""
        base = len(self.spans)
        for name, start, end, p, _ in spans:
            self.spans.append([name, start, end, parent if p is None else base + p, self.task_id])
        for key, value in counters.items():
            if key == "pointcount.max_q":
                self.counters[key] = max(self.counters[key], value)
            else:
                self.counters[key] += value

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, task in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "task": task}) + "\n")


def self_times(spans) -> dict[str, float]:
    """Total self time in seconds per span name.

    A span's self time is its duration minus the part of its interval that
    its child spans cover; overlapping children are counted once.
    """
    children: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals: defaultdict[str, float] = defaultdict(float)
    for idx, (name, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children[idx]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        totals[name] += (end - start) - covered
    return dict(totals)


def durations(spans) -> dict[str, float]:
    """Total duration in seconds per span name, children included."""
    totals: defaultdict[str, float] = defaultdict(float)
    for name, start, end, _, _ in spans:
        totals[name] += end - start
    return dict(totals)
