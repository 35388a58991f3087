"""Exact sparse Gaussian elimination over the integers.

Rows are integer dicts (column -> value).  Each incoming row is reduced
by the stored pivot row of its least column until that column is new to
the echelon form; it is then stored gcd-reduced as the pivot row of that
column.  Kernel bases come from integer back substitution through the
pivot rows in descending pivot order, one vector per free column, scaled
so that every solved entry is integral.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable


def _reduce_row(row: dict[int, int]) -> None:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for c in row:
            row[c] //= g


class KernelVector:
    """Sparse kernel vector with a designated unit coordinate.

    ``entries[free_col] == norm`` and every other free column is absent,
    so the coefficient of this basis vector inside any kernel element x
    is x[free_col] / norm.
    """

    __slots__ = ("free_col", "entries", "norm")

    def __init__(self, free_col: int, entries: dict[int, int], norm: int):
        self.free_col = free_col
        self.entries = entries
        self.norm = norm


def eliminate(
    rows: Iterable[dict[int, int]], ncols: int, want_kernel: bool = False
) -> tuple[int, list[KernelVector] | None]:
    """Rank of the sparse system, optionally with a kernel basis.

    ``rows`` are homogeneous equations over variables 0..ncols-1.  The
    kernel basis has one vector per non-pivot column.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        r = {c: v for c, v in row.items() if v}
        while r:
            c = min(r)
            prow = pivots.get(c)
            if prow is None:
                _reduce_row(r)
                pivots[c] = r
                break
            g = gcd(prow[c], r[c])
            fa, fb = prow[c] // g, r[c] // g
            new = {col: v * fa for col, v in r.items()}
            for col, v in prow.items():
                s = new.get(col, 0) - v * fb
                if s:
                    new[col] = s
                else:
                    del new[col]
            r = new

    rank = len(pivots)
    if not want_kernel:
        return rank, None

    order = sorted(pivots, reverse=True)
    kernel: list[KernelVector] = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = {f: 1}
        for c in order:
            prow = pivots[c]
            s = sum(v * vec[col] for col, v in prow.items() if col in vec)
            if not s:
                continue
            p = prow[c]
            scale = abs(p) // gcd(s, p)
            if scale > 1:
                for col in vec:
                    vec[col] *= scale
            vec[c] = -s * scale // p
        g = 0
        for v in vec.values():
            g = gcd(g, v)
        entries = {col: v // g for col, v in vec.items()}
        kernel.append(KernelVector(f, entries, entries[f]))
    return rank, kernel
