"""Output checks, run after the measured rounds and outside their timing.

Characteristics are read back from their text form by this module's
own parser, and the add-a-box step, dimensions, Stirling numbers and
the regular representation are recomputed here from first principles.
The only library values used as references are the lattice model
(checked against the formula pipeline, the other engine) and, for the
add-a-box check of a query, the answer at n-1 when the session did not
ask for it.

Every check returns ``{operation index: [problem, ...]}``; an operation
with a problem counts as failed.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import workloads

Char = dict[tuple[int, ...], Fraction]

_TERM = re.compile(r"\s*([+-])?\s*(?:(\d+(?:/\d+)?)\*)?s\[([0-9,]*)\]\s*")


def parse_char(text: str) -> Char:
    """Read ``3*s[4,1] + s[3,2]`` (or ``0``) into {partition: coefficient}."""
    if text.strip() == "0":
        return {}
    out: Char = {}
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"cannot read characteristic {text!r}")
        sign, coeff, body = m.groups()
        key = tuple(int(x) for x in body.split(",")) if body else ()
        value = Fraction(coeff) if coeff else Fraction(1)
        out[key] = out.get(key, 0) + (-value if sign == "-" else value)
        pos = m.end()
    return {k: v for k, v in out.items() if v != 0}


def add_box(f: Char) -> Char:
    """Grow the first row of every Schur key by one box."""
    return {((key[0] + 1,) + key[1:] if key else (1,)): c for key, c in f.items()}


def genuine_problems(f: Char, n: int) -> list[str]:
    """Homogeneous of degree n, with nonnegative integer coefficients."""
    problems = []
    for key, c in f.items():
        if sum(key) != n or any(a < b for a, b in zip(key, key[1:])) or (key and key[-1] < 1):
            problems.append(f"key {list(key)} is not a partition of {n}")
        if c.denominator != 1 or c < 0:
            problems.append(f"coefficient {c} of s{list(key)} is not a nonnegative integer")
    return problems


def least_proven_bound(d: int, k: int, i: int) -> Fraction:
    bound = Fraction(2 * i, d - 1)
    if d % 2 == 0 and k >= d + 2:
        bound = min(bound, Fraction(k * i, k - d - 1))
    return bound


def partitions(n: int, cap: int | None = None):
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for head in range(min(n, cap), 0, -1):
        for rest in partitions(n - head, head):
            yield (head,) + rest


def hook_dimension(key: tuple[int, ...]) -> int:
    """Number of standard tableaux of shape ``key`` (hook-length formula)."""
    conj = [sum(1 for part in key if part > col) for col in range(key[0])] if key else []
    hooks = 1
    for row, part in enumerate(key):
        for col in range(part):
            hooks *= (part - col - 1) + (conj[col] - row - 1) + 1
    return math.factorial(sum(key)) // hooks


def stirling_cycles(n: int, m: int) -> int:
    """Unsigned Stirling number of the first kind c(n, m)."""
    table = [[1]]
    for row in range(1, n + 1):
        prev = table[-1] + [0]
        table.append([0] + [prev[j - 1] + (row - 1) * prev[j] for j in range(1, row + 1)])
    return table[n][m] if 0 <= m <= n else 0


def dimension(f: Char) -> Fraction:
    return sum((c * hook_dimension(key) for key, c in f.items()), Fraction(0))


class Checker:
    """Checks one workload's rounds; library references are cached
    across rounds."""

    def __init__(self):
        self._lattice: dict[tuple, Char] = {}
        self._formula: dict[tuple, Char] = {}

    def lattice(self, n: int, i: int, d: int, k: int) -> Char:
        key = (n, i, d, k)
        if key not in self._lattice:
            from arrstab import Partition
            from arrstab.oracle import sw_complement_char

            types = [Partition((k,)).pad_to(n)] if n >= k else []
            self._lattice[key] = parse_char(sw_complement_char(n, d, types, i).to_text())
        return self._lattice[key]

    def formula(self, n: int, i: int, d: int, k: int) -> Char:
        key = (n, i, d, k)
        if key not in self._formula:
            from arrstab import kequal_char

            self._formula[key] = parse_char(kequal_char(n, i, d, k).to_text())
        return self._formula[key]

    def check(self, workload: str, ops: list[dict]) -> dict[int, list[str]]:
        method = {
            "table-ladder": self.check_ladder,
            "char-queries": self.check_queries,
            "oracle-verify": self.check_oracle,
        }[workload]
        return method(ops)

    # -- table-ladder --------------------------------------------------

    def check_ladder(self, ops: list[dict]) -> dict[int, list[str]]:
        out = {}
        for idx, op in enumerate(ops):
            if op["error"] is None:
                problems = self.ladder_row_problems(tuple(op["key"]), op["output"])
                if problems:
                    out[idx] = problems
        return out

    def ladder_row_problems(self, key: tuple[int, int], output: str) -> list[str]:
        k, i = key
        d = workloads.LADDER_D
        try:
            (report,) = json.loads(output)
            chars = {int(n): parse_char(text) for n, text in report["chars"].items()}
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable table output: {exc!r}"]
        problems = []
        if (report["d"], report["k"], report["i"]) != (d, k, i):
            problems.append(f"row is for {report['d'], report['k'], report['i']}")
        paper = workloads.PAPER_BOUNDS[key]
        if report["sharp_bound"] != paper:
            problems.append(f"bound {report['sharp_bound']} differs from the paper's {paper}")
        horizon = math.floor(least_proven_bound(d, k, i))
        if report["horizon"] != horizon or sorted(chars) != list(range(1, horizon + 1)):
            return problems + [f"window {sorted(chars)} does not cover 1..{horizon}"]
        for n, f in chars.items():
            problems += [f"n={n}: {p}" for p in genuine_problems(f, n)]
        steps = {n: chars[n] == add_box(chars[n - 1]) for n in range(2, horizon + 1)}
        if steps[paper]:
            problems.append(f"the add-a-box step holds at the bound n={paper}")
        problems += [
            f"the add-a-box step fails at n={n}, past the bound"
            for n in range(paper + 1, horizon + 1)
            if not steps[n]
        ]
        problems += [
            f"reported step flag at n={n} disagrees with the recomputed one"
            for n, ok in steps.items()
            if report["stable_steps"].get(str(n)) != ok
        ]
        problems += [
            f"n={n}: differs from the lattice model"
            for n in range(1, min(workloads.ORACLE_N_MAX, horizon) + 1)
            if chars[n] != self.lattice(n, i, d, k)
        ]
        return problems

    # -- char-queries --------------------------------------------------

    def check_queries(self, ops: list[dict]) -> dict[int, list[str]]:
        out: dict[int, list[str]] = {}
        answers: dict[tuple, Char] = {}
        where: dict[tuple, list[int]] = {}
        for idx, op in enumerate(ops):
            if op["error"] is not None:
                continue
            key = tuple(op["key"])
            try:
                f = parse_char(op["output"])
            except ValueError as exc:
                out[idx] = [str(exc)]
                continue
            problems = genuine_problems(f, key[0])
            if key in answers and answers[key] != f:
                problems.append("a repeated query gave a different answer")
            answers.setdefault(key, f)
            where.setdefault(key, []).append(idx)
            if problems:
                out[idx] = problems
        for key, f in answers.items():
            problems = self.query_problems(key, f, answers)
            for idx in where[key] if problems else ():
                out.setdefault(idx, []).extend(problems)
        return out

    def query_problems(self, key: tuple, f: Char, answers: dict[tuple, Char]) -> list[str]:
        n, i, d, k = key
        problems = []
        if n <= workloads.ORACLE_N_MAX and f != self.lattice(n, i, d, k):
            problems.append("differs from the lattice model")
        if n > least_proven_bound(d, k, i):
            prev_key = (n - 1, i, d, k)
            prev = answers[prev_key] if prev_key in answers else self.formula(*prev_key)
            if f != add_box(prev):
                problems.append("past the proven bound but not the answer at n-1 with a box added")
        return problems

    # -- oracle-verify -------------------------------------------------

    def check_oracle(self, ops: list[dict]) -> dict[int, list[str]]:
        out: dict[int, list[str]] = {}
        sequences: dict[tuple[str, int], dict[tuple[int, int], tuple[int, Char]]] = {}
        for idx, op in enumerate(ops):
            if op["error"] is not None:
                continue
            case = tuple(op["key"])
            try:
                values = [parse_char(text) for text in op["output"]]
            except ValueError as exc:
                out[idx] = [str(exc)]
                continue
            n = case[3]
            problems = [p for f in values for p in genuine_problems(f, n)]
            if case[0] == "kequal" and values[0] != values[1]:
                problems.append("formula differs from the lattice model")
            if case[0] == "base":
                _, spec, d, n, i = case
                sequences.setdefault((spec, d), {})[(n, i)] = (idx, values[0])
            if problems:
                out[idx] = problems
        for (spec, d), seq in sequences.items():
            for idx, problem in self.base_set_problems(spec, d, seq):
                out.setdefault(idx, []).append(problem)
        return out

    def base_set_problems(self, spec: str, d: int, seq: dict):
        parts = [int(x) for x in spec.strip("[]").split(",")]
        rank = sum(parts) - len(parts)
        for (n, i), (idx, f) in seq.items():
            prev = seq.get((n - 1, i))
            if prev is not None and n > Fraction(4 * (i + 1 - rank), d - 1):
                if f != add_box(prev[1]):
                    yield idx, "past the general bound but not the value at n-1 with a box added"
        if spec != "[2]":
            return
        # {(2)} is the braid arrangement: the reduced cohomology of the
        # configuration space of n points in R^d sits in degrees (d-1)j
        # with dimension c(n, n-j), and for odd d all of it together with
        # H^0 = s_(n) is the regular representation.
        for n in sorted({n for n, _ in seq}):
            degrees = {i: seq[(n, i)] for m, i in seq if m == n}
            for i, (idx, f) in degrees.items():
                j, rem = divmod(i, d - 1)
                expected = stirling_cycles(n, n - j) if rem == 0 and 1 <= j <= n - 1 else 0
                if dimension(f) != expected:
                    yield idx, f"dimension {dimension(f)} in degree {i}, expected {expected}"
            if d % 2 == 1:
                total: Char = {(n,): Fraction(1)}
                for _, f in degrees.values():
                    for key, c in f.items():
                        total[key] = total.get(key, 0) + c
                regular = {key: Fraction(hook_dimension(key)) for key in partitions(n)}
                if total != regular:
                    for idx, _ in degrees.values():
                        yield idx, f"n={n}: the total is not the regular representation"
