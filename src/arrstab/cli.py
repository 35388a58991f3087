"""Command-line surface: characteristics, tables, bounds, verification.

Subcommands compute exact Schur expansions (`char`), reproduce sharp
stability bound tables (`table`), print proven and certified bounds
(`bounds`), and drive the formula-versus-lattice-model comparison
(`verify`).  Progress streams to standard error; standard output stays
machine-parseable.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable, Iterable, Sequence

from .oracle import DEFAULT_EQUIVARIANT_LIMIT, OracleLimitError, sw_complement_char
from .partitions import LambdaSet, Partition
from .stability import (
    StabilityReport,
    general_bound,
    is_stable_step,
    kequal_char,
    lambda_char_smalln,
    sharp_bound_certified,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_RESOURCE = 3

ORACLE_LIMIT_ENV = "ARRSTAB_ORACLE_LIMIT"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _progress(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _parse_irange(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = (int(part) for part in text.split("..", 1))
        else:
            lo = hi = int(text)
    except ValueError:
        raise UsageError(f"bad degree range {text!r}")
    if hi < lo:
        raise UsageError(f"empty i range {text!r}")
    return list(range(lo, hi + 1))


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _default_oracle_limit() -> int:
    raw = os.environ.get(ORACLE_LIMIT_ENV)
    if raw is None:
        return DEFAULT_EQUIVARIANT_LIMIT
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"bad {ORACLE_LIMIT_ENV} value {raw!r}")


def _emit(text: str, output: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing leaves
    it unchanged."""
    parser = _Parser(prog="arrstab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_k=False):
        p.add_argument("--d", type=int, required=True, help="ambient dimension, at least 2")
        if need_k:
            p.add_argument("--k", type=int, required=True, help="equality arity, at least d+1")
        else:
            p.add_argument("--k", type=int, help="equality arity, at least d+1")
            p.add_argument(
                "--lambda",
                dest="lambda_spec",
                help='base partitions, e.g. "[2,2];[3]" (padding is implicit)',
            )

    p_char = sub.add_parser("char", help="one cohomology characteristic")
    common(p_char, need_k=True)
    p_char.add_argument("--i", type=int, required=True)
    p_char.add_argument("--n", type=int, required=True)
    p_char.add_argument("--format", choices=("text", "json"), default="text")
    p_char.add_argument("--output")

    p_table = sub.add_parser("table", help="certified sharp stability bounds")
    common(p_table, need_k=True)
    p_table.add_argument("--i", required=True, help="degree or range, e.g. 3..6")
    p_table.add_argument("--horizon", type=positive_int, help="override the certification horizon")
    p_table.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_table.add_argument("--output")

    p_verify = sub.add_parser("verify", help="formula vs lattice model")
    common(p_verify)
    p_verify.add_argument("--n-max", type=int, required=True)
    p_verify.add_argument("--oracle-limit", type=int)
    p_verify.add_argument("--format", choices=("text", "csv"), default="text")
    p_verify.add_argument("--output")

    p_bounds = sub.add_parser("bounds", help="proven bounds and certified sharp bound")
    common(p_bounds)
    p_bounds.add_argument("--i", type=int, required=True)
    p_bounds.add_argument("--horizon", type=positive_int)
    p_bounds.add_argument("--output")
    return parser


def _validate_dk(d: int, k: int | None) -> None:
    if d < 2:
        raise UsageError("--d must be at least 2")
    if k is not None and k < d + 1:
        raise UsageError("--k must be at least d+1")


def cmd_char(args) -> int:
    _validate_dk(args.d, args.k)
    if args.i < 0 or args.n < 1:
        raise UsageError("--i must be nonnegative and --n positive")
    value = kequal_char(args.n, args.i, args.d, args.k)
    if args.format == "json":
        _emit(json.dumps(value.to_json_obj(), sort_keys=True), args.output)
    else:
        _emit(value.to_text(), args.output)
    return EXIT_OK


def cmd_table(args) -> int:
    _validate_dk(args.d, args.k)
    degrees = _parse_irange(args.i)
    reports: list[StabilityReport] = []
    for i in degrees:
        rep = sharp_bound_certified(
            args.d,
            args.k,
            i,
            horizon=args.horizon,
            progress=lambda msg, i=i: _progress(f"k={args.k} i={i}: {msg}"),
        )
        _progress(f"k={args.k} i={i}: bound {rep.bound_text()}")
        reports.append(rep)
    if args.format == "csv":
        lines = ["k,i,bound"] + [rep.csv_row() for rep in reports]
        _emit("\n".join(lines), args.output)
    elif args.format == "json":
        _emit(json.dumps([rep.to_json_obj() for rep in reports], sort_keys=True), args.output)
    else:
        width = max(len("bound"), *(len(rep.bound_text()) for rep in reports))
        cells_i = " ".join(f"{rep.i:>{width}}" for rep in reports)
        cells_b = " ".join(f"{rep.bound_text():>{width}}" for rep in reports)
        _emit(f"i     {cells_i}\nbound {cells_b}", args.output)
    return EXIT_OK


def _verify_rows_k(
    d: int, k: int, n: int, limit: int
) -> list[tuple[str, str, str, str, str, bool]]:
    rows = []
    types = [Partition((k,)).pad_to(n)]
    for i in range(0, d * n + 2):
        formula = kequal_char(n, i, d, k)
        oracle = sw_complement_char(n, d, types, i, limit=limit)
        rows.append(
            (
                f"k={k}",
                str(n),
                str(i),
                formula.to_text(),
                oracle.to_text(),
                formula == oracle,
            )
        )
    return rows


def _verify_rows_lambda(
    d: int, lam: LambdaSet, n: int, limit: int
) -> list[tuple[str, str, str, str, str, bool]]:
    """Stability rows: past the proven bound the current characteristic
    must equal the previous one with a box added."""
    rows = []
    single = next(iter(lam.parts)) if len(lam.parts) == 1 else None
    k = single[0] if single is not None and len(single) == 1 else None
    for i in range(0, d * n):
        if n <= general_bound(lam, i, d) or n - 1 < lam.n0:
            continue
        prev = lambda_char_smalln(n - 1, d, lam, i, limit=limit)
        here = lambda_char_smalln(n, d, lam, i, limit=limit)
        predicted = prev.add_box()
        rows.append(
            (
                f"lambda={lam.text()}",
                str(n),
                str(i),
                predicted.to_text(),
                here.to_text(),
                is_stable_step(here, prev),
            )
        )
    if k is not None and k >= d + 1:
        rows.extend(_verify_rows_k(d, k, n, limit))
    return rows


def cmd_verify(args) -> int:
    _validate_dk(args.d, args.k)
    if (args.k is None) == (args.lambda_spec is None):
        raise UsageError("verify needs exactly one of --k or --lambda")
    limit = args.oracle_limit if args.oracle_limit is not None else _default_oracle_limit()
    if limit < 1:
        raise UsageError(f"the oracle limit must be positive, not {limit}")
    if args.k is not None:
        n_lo = args.k
    else:
        lam = LambdaSet.parse(args.lambda_spec)
        n_lo = lam.n0
    if args.n_max < n_lo:
        raise UsageError(f"--n-max {args.n_max} is below the first size {n_lo}: nothing to verify")
    if args.n_max > limit:
        raise OracleLimitError(
            f"--n-max {args.n_max} exceeds the oracle limit {limit}"
        )
    rows = []
    for n in range(n_lo, args.n_max + 1):
        _progress(f"verify n={n}")
        if args.k is not None:
            rows.extend(_verify_rows_k(args.d, args.k, n, limit))
        else:
            rows.extend(_verify_rows_lambda(args.d, lam, n, limit))
    all_match = all(r[5] for r in rows)
    out_lines = []
    if args.format == "csv":
        out_lines.append("d,case,n,i,formula,oracle,result")
        for case, n, i, left, right, ok in rows:
            quoted = [str(args.d), case, n, i, f'"{left}"', f'"{right}"', "MATCH" if ok else "MISMATCH"]
            out_lines.append(",".join(quoted))
    else:
        for case, n, i, left, right, ok in rows:
            status = "MATCH" if ok else "MISMATCH"
            out_lines.append(f"{status} d={args.d} {case} n={n} i={i}: {left} | {right}")
        out_lines.append(f"{'all match' if all_match else 'MISMATCHES PRESENT'} ({len(rows)} cases)")
    _emit("\n".join(out_lines), args.output)
    return EXIT_OK if all_match else EXIT_MISMATCH


def cmd_bounds(args) -> int:
    _validate_dk(args.d, args.k)
    if args.i < 0:
        raise UsageError("--i must be nonnegative")
    if (args.k is None) == (args.lambda_spec is None):
        raise UsageError("bounds needs exactly one of --k or --lambda")
    if args.horizon is not None and args.k is None:
        raise UsageError("--horizon applies only with --k")
    lines = []
    if args.k is not None:
        rep = sharp_bound_certified(
            args.d,
            args.k,
            args.i,
            horizon=args.horizon,
            progress=lambda msg: _progress(f"bounds i={args.i}: {msg}"),
        )
        lines.append("theorem bounds: " + ", ".join(str(b) for b in rep.bounds))
        lines.append(f"certified sharp bound: {rep.bound_text()}")
    else:
        lam = LambdaSet.parse(args.lambda_spec)
        lines.append(f"general bound: {general_bound(lam, args.i, args.d)}")
    _emit("\n".join(lines), args.output)
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "char":
            return cmd_char(args)
        if args.command == "table":
            return cmd_table(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "bounds":
            return cmd_bounds(args)
        raise UsageError(f"unknown command {args.command!r}")
    except OracleLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
