"""Command-line interface.

Every command prints one JSON document on stdout (or a human-readable sketch
with --pretty) and exits 0 on success, 1 on a domain error (with a structured
error object), 2 on usage errors.  Output is deterministic: fixed key order,
no timestamps, thread-count independent.  A handler takes the parsed
arguments and the loaded arrangement and returns its document, its --pretty
text and its exit code; ``main`` alone loads ``--arrangement``, heads the
document with its description, prints and returns the code.  Even the
``check`` suite is built in ``assembly.consistency_checks``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import assembly, pointcount
from .arrangement import (
    Arrangement,
    epoly_V,
    intersection_data,
    INTEGER_TOKEN,
    parse_arrangement,
    weak_comb_data,
)
from .errors import DegreeTooSmall, MilnorHodgeError, ParseError, TooLarge
from .localhodge import OrdinarySing, local_hodge_table, local_spectrum
from .repring import HodgeTable

__all__ = ["main"]


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc


def _load_h3(path: str) -> assembly.SurfaceH3Data:
    text = _read_text(path)
    try:
        table = HodgeTable.from_json_dict(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path} nests too deeply to read") from exc
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{path} is not an H3 table: missing or malformed {exc}") from exc
    except ValueError as exc:
        raise ParseError(f"{path} is not an H3 table: {exc}") from exc
    try:
        return assembly.SurfaceH3Data(table)
    except ValueError as exc:
        raise MilnorHodgeError(str(exc)) from exc


def _table_lines(table: HodgeTable) -> list[str]:
    lines = [f"  (p,q)            characters (index: mult)"]
    for (p, q), r in table.items():
        chars = ", ".join(f"{k}:{m}" for k, m in enumerate(r.mult) if m)
        lines.append(f"  ({p},{q})  dim {r.dim():>4}   {chars}")
    return lines


# the most numbers fermat (3d), local-hodge (5d + (k-1)^2 (d-1)) or combinatorics (sum (4 + k) m_k) prints
MAX_ENTRIES = 10**6


def _bound_entries(entries: int) -> None:
    if entries > MAX_ENTRIES:
        raise TooLarge(f"the output would list more than {MAX_ENTRIES} numbers")


def _check_payload(checks) -> list[dict]:
    return [{"name": c.name, "pass": c.passed, "detail": c.detail} for c in checks]


# ---------------------------------------------------------------------------
# command handlers: each returns (document, --pretty text, exit code)


def _cmd_combinatorics(args, arr: Arrangement) -> tuple[dict, str, int]:
    w = weak_comb_data(arr)
    _bound_entries(sum(n * (4 + k) for k, n in w.m))
    payload = {
        "points": [
            {
                "point": pt,  # a tuple prints as a list, a non-rational point as its label
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
    return payload, text, 0


def _cmd_local_hodge(args, arr: None) -> tuple[dict, str, int]:
    sing = OrdinarySing(args.k, args.d)
    _bound_entries(5 * sing.d + sing.milnor_number)
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
    return payload, text, 0


def _cmd_fermat(args, arr: None) -> tuple[dict, str, int]:
    if args.d < 3:
        raise DegreeTooSmall(f"Fermat surface table needs degree >= 3, got {args.d}")
    _bound_entries(3 * args.d)
    table = assembly.fermat_surface_table(args.d)
    payload = {"d": args.d, "table": table.to_json_dict()}
    text = "\n".join([f"Fermat surface primitive H2, degree {args.d}"] + _table_lines(table)) + "\n"
    return payload, text, 0


def _cmd_spectrum(args, arr: Arrangement) -> tuple[dict, str, int]:
    spec = assembly.spectrum(weak_comb_data(arr))
    payload = spec.to_json_dict()
    text = "\n".join(
        [f"spectrum, d={spec.d}, chi(F)={spec.chi_fiber}"]
        + [f"  m[{a}] = {m}" for a, m in spec.entries]
        + [f"  total = {spec.total()}"]
    ) + "\n"
    return payload, text, 0


def _cmd_h2f(args, arr: Arrangement) -> tuple[dict, str, int]:
    h3 = _load_h3(args.h3x)
    report = assembly.assemble_all(weak_comb_data(arr), h3)
    payload = {
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
    # exit 1 is reserved for domain errors; failing consistency checks are
    # reported in the payload (the check command gates on them)
    return payload, text, 0


def _parse_primes(text: str) -> list[int]:
    items = text.split(",") if text.strip() else []
    tokens = [tok for item in items for tok in item.split() or [""]]  # "" for an empty item
    if not all(INTEGER_TOKEN.fullmatch(tok) for tok in tokens):
        raise MilnorHodgeError(f"bad prime list {text!r}")
    return [int(tok) for tok in tokens]


def _cmd_count(args, arr: Arrangement) -> tuple[dict, str, int]:
    """``count``, and ``hodge-from-counts``, which adds the extracted polynomial or a witness."""
    primes = _parse_primes(args.primes)
    tables = pointcount.count_tables(arr, primes, args.threads, args.target)
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
            row["twisted"] = list(pointcount.twisted_counts(t))
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
        "target": args.target,
        "primes": primes,
        "tables": table_rows,
        "fit": fit_payload,
    }
    if args.command == "count":
        verdict = "polynomial" if fit.is_polynomial() else "not polynomial"
        text = f"counted {args.target} at primes {primes}: fit is {verdict}\n"
    elif fit.is_polynomial():
        payload["epoly"] = pointcount.hodge_from_counts(fit, d).to_json_dict()
        text = "extracted diagonal Hodge-Deligne polynomial\n"
    else:
        payload["result"] = "not_polynomial_count"
        payload["witness"] = fit.first_witness()
        text = f"counts not polynomial, witness prime {payload['witness']}\n"
    return payload, text, 0


def _cmd_check(args, arr: Arrangement) -> tuple[dict, str, int]:
    given = args.primes is not None  # an empty --primes is no prime; only a missing one means the default
    primes = _parse_primes(args.primes) if given else [f.p for f in pointcount.good_primes(arr, 2, min_q=3)]
    h3 = None if args.h3x is None else _load_h3(args.h3x)
    checks = assembly.consistency_checks(arr, h3, primes, args.seed)
    all_pass = all(c.passed for c in checks)
    payload = {"checks": _check_payload(checks), "all_pass": all_pass}
    text = "\n".join(
        f"{'PASS' if c.passed else 'FAIL'}  {c.name}" + (f"  ({c.detail})" if c.detail else "")
        for c in checks
    ) + ("\nall checks passed\n" if all_pass else "\nSOME CHECKS FAILED\n")
    return payload, text, 0 if all_pass else 1


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
    arranged = argparse.ArgumentParser(add_help=False, parents=[common])
    arranged.add_argument("--arrangement", required=True)
    counting = argparse.ArgumentParser(add_help=False, parents=[arranged])
    counting.add_argument("--target", choices=("fiber", "complement"), required=True)
    counting.add_argument("--primes", required=True, help="comma-separated primes, all 1 mod d")
    counting.add_argument("--threads", type=_integer, default=1, help="worker threads for counting")

    parser = argparse.ArgumentParser(
        prog="milnorhodge",
        description="Equivariant Hodge invariants of line-arrangement Milnor fibers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("combinatorics", parents=[arranged], help="intersection data and invariants")
    p.set_defaults(func=_cmd_combinatorics)

    p = sub.add_parser("local-hodge", parents=[common], help="local Milnor fiber Hodge table")
    p.add_argument("--k", type=_integer, required=True)
    p.add_argument("--d", type=_integer, required=True)
    p.set_defaults(func=_cmd_local_hodge)

    p = sub.add_parser("fermat", parents=[common], help="Fermat surface reference table")
    p.add_argument("--d", type=_integer, required=True)
    p.set_defaults(func=_cmd_fermat)

    p = sub.add_parser("spectrum", parents=[arranged], help="arrangement spectrum from weak data")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("h2f", parents=[arranged], help="assembled fiber Hodge tables")
    p.add_argument("--h3x", required=True, help="JSON file with H3(X) character data")
    p.set_defaults(func=_cmd_h2f)

    p = sub.add_parser("count", parents=[counting], help="point counts over prime fields")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser(
        "hodge-from-counts", parents=[counting], help="extract the Hodge-Deligne polynomial"
    )
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("check", parents=[arranged], help="run the full consistency suite")
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
        arr = parse_arrangement(_read_text(args.arrangement)) if "arrangement" in args else None
        payload, text, code = args.func(args, arr)
        if arr is not None:
            payload = {"arrangement": arr.describe(), **payload}
        sys.stdout.write(text if args.pretty else json.dumps(payload, indent=2) + "\n")
        return code
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
