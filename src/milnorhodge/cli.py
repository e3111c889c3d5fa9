"""Command-line interface.

Every command prints one JSON document on stdout (or a human-readable sketch
with --pretty) and exits 0 on success, 1 on a domain error (with a structured
error object), 2 on usage errors.  Output is deterministic: fixed key order,
no timestamps, thread-count independent.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from collections import Counter
from pathlib import Path

from . import assembly, pointcount
from .arrangement import (
    LineArrangement,
    epoly_V,
    intersection_data,
    INTEGER_TOKEN,
    parse_arrangement,
    random_rational_arrangement,
    weak_comb_data,
)
from .errors import MilnorHodgeError, ParseError
from .localhodge import OrdinarySing, local_hodge_table, local_spectrum
from .repring import HodgeTable

__all__ = ["main"]


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc


def _load_arrangement(path: str) -> LineArrangement:
    return parse_arrangement(_read_text(path))


def _load_h3(path: str) -> assembly.SurfaceH3Data:
    text = _read_text(path)
    try:
        table = HodgeTable.from_json_dict(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{path} is not an H3 table: missing or malformed {exc}") from exc
    except ValueError as exc:
        raise ParseError(f"{path} is not an H3 table: {exc}") from exc
    try:
        return assembly.SurfaceH3Data(table)
    except ValueError as exc:
        raise MilnorHodgeError(str(exc)) from exc


def _emit(payload: dict, pretty: bool, pretty_text: str) -> None:
    sys.stdout.write(pretty_text if pretty else json.dumps(payload, indent=2) + "\n")


def _table_lines(table: HodgeTable) -> list[str]:
    lines = [f"  (p,q)            characters (index: mult)"]
    for (p, q), r in table.items():
        chars = ", ".join(f"{k}:{m}" for k, m in enumerate(r.mult) if m)
        lines.append(f"  ({p},{q})  dim {r.dim():>4}   {chars}")
    return lines


def _check_payload(checks) -> list[dict]:
    return [{"name": c.name, "pass": c.passed, "detail": c.detail} for c in checks]


def _first_count_difference(fast, brute) -> str:
    """The first count where the fast census and the oracle differ, or ''.

    Twisted counts are a function of the class counts, so they need no check.
    """
    pairs = [("zero_count", fast.zero_count, brute.zero_count)]
    pairs += [
        (f"class_counts[{j}]", a, b)
        for j, (a, b) in enumerate(zip(fast.class_counts, brute.class_counts))
    ]
    return next((f"{name}: fast {a} vs brute force {b}" for name, a, b in pairs if a != b), "")


# ---------------------------------------------------------------------------
# command handlers


def _cmd_combinatorics(args) -> int:
    arr = _load_arrangement(args.arrangement)
    w = weak_comb_data(arr)
    payload = {
        "arrangement": arr.describe(),
        "points": [
            {
                "point": list(pt) if isinstance(pt, tuple) else pt,
                "multiplicity": len(lines),
                "lines": sorted(lines),
            }
            for pt, lines in intersection_data(arr).items()
        ],
        "weak_data": {"d": w.d, "m": {str(k): n for k, n in w.m}},
        "invariants": {
            "b1M": w.b1M,
            "b2M": w.b2M,
            "chiM": w.chiM,
            "chiF": w.chiF,
            "charpoly": list(w.charpoly),
        },
        "epoly_V": epoly_V(w).to_json_dict(),
    }
    text = (
        f"arrangement d={w.d}: {w.counts} multiple points\n"
        f"b1(M)={w.b1M} b2(M)={w.b2M} chi(M)={w.chiM} chi(F)={w.chiF}\n"
        f"charpoly={w.charpoly}\n"
    )
    _emit(payload, args.pretty, text)
    return 0


def _cmd_local_hodge(args) -> int:
    sing = OrdinarySing(args.k, args.d)
    table = local_hodge_table(sing).table
    payload = {
        "k": sing.k,
        "d": sing.d,
        "total_dimension": table.total_dim(),
        "table": table.to_json_dict(),
        "spectrum": [str(e) for e in local_spectrum(sing)],
    }
    text = "\n".join(
        [f"local Hodge table for k={sing.k}, d={sing.d} (dim {table.total_dim()})"]
        + _table_lines(table)
    ) + "\n"
    _emit(payload, args.pretty, text)
    return 0


def _cmd_fermat(args) -> int:
    table = assembly.fermat_surface_table(args.d)
    payload = {"d": args.d, "table": table.to_json_dict()}
    text = "\n".join([f"Fermat surface primitive H2, degree {args.d}"] + _table_lines(table)) + "\n"
    _emit(payload, args.pretty, text)
    return 0


def _cmd_spectrum(args) -> int:
    arr = _load_arrangement(args.arrangement)
    spec = assembly.spectrum(weak_comb_data(arr))
    payload = {"arrangement": arr.describe(), **spec.to_json_dict()}
    text = "\n".join(
        [f"spectrum, d={spec.d}, chi(F)={spec.chi_fiber}"]
        + [f"  m[{a}] = {m}" for a, m in spec.entries]
        + [f"  total = {spec.total()}"]
    ) + "\n"
    _emit(payload, args.pretty, text)
    return 0


def _cmd_h2f(args) -> int:
    arr = _load_arrangement(args.arrangement)
    h3 = _load_h3(args.h3x)
    report = assembly.assemble_all(arr, h3)
    payload = {
        "arrangement": arr.describe(),
        "h3x": h3.table.to_json_dict(),
        "H2_0X": report.h2x.to_json_dict(),
        "H1F": report.h1f.to_json_dict(),
        "H2F": report.h2f.to_json_dict(),
        "trivial": {f"H{j}": t.to_json_dict() for j, t in sorted(report.trivial.items())},
        "PX": report.px.to_json_dict(),
        "PcF": report.pcf.to_json_dict(),
        "spectrum": report.spec.to_json_dict(),
        "checks": _check_payload(report.checks),
        "all_pass": report.all_pass(),
    }
    text = "\n".join(
        ["H1(F), nontrivial characters:"]
        + _table_lines(report.h1f)
        + ["H2(F), nontrivial characters:"]
        + _table_lines(report.h2f)
        + [f"checks: {'all pass' if report.all_pass() else 'FAILURES'}"]
    ) + "\n"
    _emit(payload, args.pretty, text)
    # exit 1 is reserved for domain errors; failing consistency checks are
    # reported in the payload (the check command gates on them)
    return 0


def _parse_primes(text: str) -> list[int]:
    items = text.split(",") if text.strip() else []
    tokens = [tok for item in items for tok in item.split() or [""]]  # "" for an empty item
    if not all(INTEGER_TOKEN.fullmatch(tok) for tok in tokens):
        raise MilnorHodgeError(f"bad prime list {text!r}")
    return [int(tok) for tok in tokens]


def _count_payload(arr, args, extract: bool) -> dict:
    primes = _parse_primes(args.primes)
    pointcount.check_request(arr, primes, args.target)
    tables = pointcount.count_tables(arr, primes, args.threads)
    d = arr.d
    fiber = args.target == "fiber"
    table_rows = []
    for t in tables:
        row = {
            "q": t.q,
            "generator": t.g,
            "class_counts": list(t.class_counts),
            "zero_count": t.zero_count,
        }
        if fiber:
            tw = pointcount.twisted_counts(t, d)
            row["twisted"] = [tw[j] for j in range(d)]
        else:
            row["complement"] = pointcount.complement_count(t)
        table_rows.append(row)

    fit = pointcount.fiber_fit(tables, d) if fiber else pointcount.complement_fit(tables, d)
    fit_payload = {
        "degree": fit.degree,
        "polynomial": fit.is_polynomial(),
        "per_twist": [
            None if coeffs is None else [str(c) for c in coeffs] for coeffs in fit.per_twist
        ],
        "witnesses": [[j, q] for j, q in fit.witnesses],
    }
    payload = {
        "arrangement": arr.describe(),
        "target": args.target,
        "primes": primes,
        "tables": table_rows,
        "fit": fit_payload,
    }
    if extract:
        if fit.is_polynomial():
            payload["epoly"] = pointcount.hodge_from_counts(fit, d).to_json_dict()
        else:
            payload["result"] = "not_polynomial_count"
            payload["witness"] = fit.first_witness()
    return payload


def _cmd_count(args) -> int:
    arr = _load_arrangement(args.arrangement)
    payload = _count_payload(arr, args, extract=False)
    verdict = "polynomial" if payload["fit"]["polynomial"] else "not polynomial"
    text = f"counted {args.target} at primes {payload['primes']}: fit is {verdict}\n"
    _emit(payload, args.pretty, text)
    return 0


def _cmd_hodge_from_counts(args) -> int:
    arr = _load_arrangement(args.arrangement)
    payload = _count_payload(arr, args, extract=True)
    if "epoly" in payload:
        text = "extracted diagonal Hodge-Deligne polynomial\n"
    else:
        text = f"counts not polynomial, witness prime {payload['witness']}\n"
    _emit(payload, args.pretty, text)
    return 0


def _cmd_check(args) -> int:
    arr = _load_arrangement(args.arrangement)
    if args.primes:
        primes = _parse_primes(args.primes)
        pointcount.check_primes(arr, primes)
    else:
        primes = [f.p for f in pointcount.good_primes(arr, 2, min_q=3)]
    checks: list[assembly.CheckResult] = []
    w = weak_comb_data(arr)
    points = dict(sorted(Counter(map(len, intersection_data(arr).values())).items()))
    ok = w.counts == points
    detail = "census covers every line pair" if ok else f"groups {w.counts} vs points {points}"
    checks.append(assembly.CheckResult("weak_data_pair_count", ok, detail))
    checks.append(
        assembly.CheckResult("chiF_multiplicativity", w.chiF == w.d * w.chiM, f"chiF={w.chiF}")
    )
    for k, _ in w.m:
        sing = OrdinarySing(k, w.d)
        total = local_hodge_table(sing).table.total_dim()
        ok = total == sing.milnor_number
        detail = "" if ok else f"table total {total} vs Milnor number {sing.milnor_number}"
        checks.append(assembly.CheckResult(f"local_dimension_law_k{k}", ok, detail))

    h3 = _load_h3(args.h3x) if args.h3x else None
    try:
        report = assembly.assemble_all(arr, h3)
        checks.extend(report.checks)
    except MilnorHodgeError as exc:
        checks.append(assembly.CheckResult("assembly", False, f"{exc.code}: {exc}"))

    rng = random.Random(args.seed)
    ok = True
    detail = ""
    for _ in range(5):
        sample = random_rational_arrangement(rng, rng.randint(3, 6))
        try:
            assembly.spectrum(weak_comb_data(sample))
        except MilnorHodgeError as exc:
            ok, detail = False, str(exc)
            break
    checks.append(assembly.CheckResult("random_weak_data_sum_rule", ok, detail))

    for q in primes:
        fast = pointcount.count_classes(arr, q)
        if q <= 50:
            brute = pointcount.brute_force_count(arr, q)
            detail = _first_count_difference(fast, brute)
            checks.append(assembly.CheckResult(f"count_oracle_q{q}", not detail, detail))
        counted = pointcount.complement_count(fast)
        expected = w.charpoly_value(q)
        checks.append(
            assembly.CheckResult(
                f"complement_charpoly_q{q}", counted == expected, f"{counted} vs {expected}"
            )
        )

    all_pass = all(c.passed for c in checks)
    payload = {
        "arrangement": arr.describe(),
        "checks": _check_payload(checks),
        "all_pass": all_pass,
    }
    text = "\n".join(
        f"{'PASS' if c.passed else 'FAIL'}  {c.name}" + (f"  ({c.detail})" if c.detail else "")
        for c in checks
    ) + ("\nall checks passed\n" if all_pass else "\nSOME CHECKS FAILED\n")
    _emit(payload, args.pretty, text)
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# argument parsing


def _integer(text: str) -> int:
    """argparse type: an ASCII decimal integer, read like arrangement files and --primes."""
    if not INTEGER_TOKEN.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}")
    return int(text)


@functools.cache  # one parser per process: parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="human-readable output")
    counting = argparse.ArgumentParser(add_help=False, parents=[common])
    counting.add_argument("--arrangement", required=True)
    counting.add_argument("--target", choices=("fiber", "complement"), required=True)
    counting.add_argument("--primes", required=True, help="comma-separated primes, all 1 mod d")
    counting.add_argument("--threads", type=_integer, default=1, help="worker threads for counting")

    parser = argparse.ArgumentParser(
        prog="milnorhodge",
        description="Equivariant Hodge invariants of line-arrangement Milnor fibers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("combinatorics", parents=[common], help="intersection data and invariants")
    p.add_argument("--arrangement", required=True)
    p.set_defaults(func=_cmd_combinatorics)

    p = sub.add_parser("local-hodge", parents=[common], help="local Milnor fiber Hodge table")
    p.add_argument("--k", type=_integer, required=True)
    p.add_argument("--d", type=_integer, required=True)
    p.set_defaults(func=_cmd_local_hodge)

    p = sub.add_parser("fermat", parents=[common], help="Fermat surface reference table")
    p.add_argument("--d", type=_integer, required=True)
    p.set_defaults(func=_cmd_fermat)

    p = sub.add_parser("spectrum", parents=[common], help="arrangement spectrum from weak data")
    p.add_argument("--arrangement", required=True)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("h2f", parents=[common], help="assembled fiber Hodge tables")
    p.add_argument("--arrangement", required=True)
    p.add_argument("--h3x", required=True, help="JSON file with H3(X) character data")
    p.set_defaults(func=_cmd_h2f)

    p = sub.add_parser("count", parents=[counting], help="point counts over prime fields")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser(
        "hodge-from-counts", parents=[counting], help="extract the Hodge-Deligne polynomial"
    )
    p.set_defaults(func=_cmd_hodge_from_counts)

    p = sub.add_parser("check", parents=[common], help="run the full consistency suite")
    p.add_argument("--arrangement", required=True)
    p.add_argument("--h3x", default=None)
    p.add_argument("--primes", default=None)
    p.add_argument("--seed", type=_integer, default=0, help="seed for the random arrangement checks")
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "threads", 1) < 1:
        parser.error(f"--threads must be at least 1, got {args.threads}")
    try:
        return args.func(args)
    except MilnorHodgeError as exc:
        code, message = exc.code, str(exc)
    except FileNotFoundError as exc:
        code, message = "file_not_found", str(exc)
    except OSError as exc:
        code, message = "unreadable_file", str(exc)
    sys.stdout.write(json.dumps({"error": code, "message": message}, indent=2) + "\n")
    return 1


if __name__ == "__main__":
    sys.exit(main())
