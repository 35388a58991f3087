"""Inputs of the three workloads, made from the seed alone.

Nothing here imports the library at module level, so the orchestrator
can load this file without paying the library's import cost.
"""

from __future__ import annotations

import random

WORKLOADS = ("table-ladder", "char-queries", "oracle-verify")

# d=2 rows of the paper's table with their sharp bounds, in the order a
# user's ``table --i lo..hi`` computes them (ascending degree per k).
LADDER_D = 2
PAPER_BOUNDS = {
    (3, 3): 6, (3, 4): 7, (3, 5): 8, (3, 6): 11, (3, 7): 13, (3, 8): 14,
    (4, 5): 8, (4, 6): 9, (4, 7): 10, (4, 8): 11,
}
LADDER_ROWS = tuple(sorted(PAPER_BOUNDS))

# Query grid: d in {2,3,4}, k in d+1..d+3, 1 <= n <= QUERY_N_MAX.  A cold
# session over n <= 16 costs 32-51 s on 2 cores and its wall time moves
# by 13% between seeds, so the grid stops at 13 (about 3.5 s a session).
QUERY_DIMS = (2, 3, 4)
QUERY_N_MAX = 13
# Draws per session as a multiple of the grid size; 1.6 makes about
# half of the draws repeat an earlier key (1 - (1 - e^-1.6) / 1.6).
QUERY_DRAWS_PER_KEY = 1.6

# Lattice-model cases.  n=7 only where the lattice stays small (k=d+2);
# k=3, n=7 (205 elements, about 100 s) is left out.
ORACLE_DIMS = (2, 3)
ORACLE_N_MAX = 6
ORACLE_N7_EXTRA = 7
BASE_SETS = ("[2]", "[3]", "[2,2]")


def ladder_argv(k: int, i: int) -> list[str]:
    return ["table", "--d", str(LADDER_D), "--k", str(k), "--i", str(i), "--format", "json"]


def query_grid() -> list[tuple[int, int, int, int]]:
    """All keys (n, i, d, k) of the grid whose summand list is non-empty."""
    from arrstab import kequal_summands

    grid = []
    for d in QUERY_DIMS:
        for k in range(d + 1, d + 4):
            for n in range(1, QUERY_N_MAX + 1):
                for i in range(0, d * n + 1):
                    if kequal_summands(n, i, d, k):
                        grid.append((n, i, d, k))
    return grid


def query_stream(
    grid: list[tuple[int, int, int, int]], seed: int, round_no: int
) -> list[tuple[int, int, int, int]]:
    """One client session: keys drawn uniformly with replacement."""
    rng = random.Random(f"char-queries:{seed}:{round_no}")
    draws = round(QUERY_DRAWS_PER_KEY * len(grid))
    return [rng.choice(grid) for _ in range(draws)]


def oracle_cases() -> list[tuple]:
    """Operations of one oracle-verify round, in a fixed order.

    ``("kequal", d, k, n, i)`` compares the formula with the lattice
    model; ``("base", spec, d, n, i)`` computes one lattice-model value
    of a base-set sequence.
    """
    cases: list[tuple] = []
    for d in ORACLE_DIMS:
        for k in (d + 1, d + 2):
            n_top = ORACLE_N7_EXTRA if k == d + 2 else ORACLE_N_MAX
            for n in range(k, n_top + 1):
                for i in range(0, d * n):
                    cases.append(("kequal", d, k, n, i))
    for spec in BASE_SETS:
        n0 = sum(int(x) for x in spec.strip("[]").split(","))
        for d in ORACLE_DIMS:
            for n in range(n0, ORACLE_N_MAX + 1):
                for i in range(0, d * n):
                    cases.append(("base", spec, d, n, i))
    return cases
