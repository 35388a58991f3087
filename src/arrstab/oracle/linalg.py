"""Exact sparse column reduction over the integers.

Columns are integer dicts (row -> value), reduced left to right as in
the standard persistence algorithm: while a column's largest row index
(its low) is the low of an earlier reduced column, the two are combined
fraction-free so that the low cancels.  A column whose low is new is
stored, gcd-reduced, as the echelon column of that row.  Unless only
the rank is asked for, every column carries its relation vector, the
combination of input columns it now equals; a column that reduces to
zero leaves that relation, a kernel vector whose largest index is the
column itself.  Columns named as cleared are skipped: in a chain
complex these are the lows of the degree above, which are known to
reduce to zero (the clearing twist of Chen and Kerber).
"""

from __future__ import annotations

from math import gcd
from typing import Container, Sequence


def cancel_factors(p: int, q: int) -> tuple[int, int]:
    """The least a > 0 and the b with a*q == b*p: a*x - b*y cancels an
    entry where x holds q and y holds p."""
    g = gcd(p, q)
    a, b = p // g, q // g
    return (a, b) if a > 0 else (-a, -b)


def combine(a: int, x: dict[int, int], b: int, y: dict[int, int], stop: int = 0) -> None:
    """Set x to a*x - b*y in place, keeping no zero entries.

    Only y's entries at rows ``>= stop`` are used, and y is read up to
    its first row below ``stop``, so a positive ``stop`` needs y's rows
    in descending order.
    """
    if a != 1:
        for i in x:
            x[i] *= a
    for i, v in y.items():
        if i < stop:
            break
        s = x.get(i, 0) - b * v
        if s:
            x[i] = s
        else:
            del x[i]


def _divide_content(*vectors: dict[int, int]) -> None:
    g = 0
    for vec in vectors:
        for v in vec.values():
            g = gcd(g, v)
            if g == 1:
                return
    if g > 1:
        for vec in vectors:
            for i in vec:
                vec[i] //= g


def eliminate(
    columns: Sequence[dict[int, int]], cleared: Container[int] = (), relations: bool = True
) -> tuple[dict[int, dict[int, int]], dict[int, dict[int, int]]]:
    """Reduce the columns; return the echelon and the relations.

    The echelon maps each pivot row to the reduced column whose low it
    is; its size is the rank of the non-cleared columns.  The relations
    map each non-cleared column that reduces to zero to an integer
    vector over column indices, with that column as its largest index,
    which the input columns send to zero.  Every echelon column and every
    relation lists its rows in descending order, so a reduction that
    only needs the rows at or above some row can stop early
    (``combine``'s ``stop``).

    With ``relations=False`` this is a rank pass: no relation vectors
    are carried or returned, and the echelon columns are left unsorted.
    """
    echelon: dict[int, dict[int, int]] = {}
    pivot_relations: dict[int, dict[int, int]] = {}
    found: dict[int, dict[int, int]] = {}
    for c, column in enumerate(columns):
        if c in cleared:
            continue
        col = {i: v for i, v in column.items() if v}
        rel = {c: 1} if relations else {}
        while col:
            low = max(col)
            pivot = echelon.get(low)
            if pivot is None:
                _divide_content(col, rel)
                echelon[low] = dict(sorted(col.items(), reverse=True)) if relations else col
                pivot_relations[low] = rel
                break
            a, b = cancel_factors(pivot[low], col[low])
            combine(a, col, b, pivot)
            if relations:
                combine(a, rel, b, pivot_relations[low])
        else:
            if relations:
                _divide_content(rel)
                found[c] = dict(sorted(rel.items(), reverse=True))
    return echelon, found

