"""The integer character table of S_n, one column per cycle type.

Rows are indexed by ``classes(n)``, the partitions of n in the order of
``partitions_of(n)``; the column of the cycle type mu holds chi^lam(mu)
for every lam, ``p(n)`` plain ints.  Columns are built on demand by the
Murnaghan-Nakayama rule (Macdonald, I.7): removing the border strips of
length mu_1 from lam gives chi^lam(mu) as a signed sum of entries of
the column of mu[1:], one size smaller by mu_1.  Strip removal works on
beta-numbers (first-column hook lengths): a strip of length m lowers one
beta-number by m, and its height is the number of beta-numbers jumped
over.  Each column is cached per cycle type, so a caller pays only for
the classes it touches; nothing is built at import.
"""

from __future__ import annotations

from functools import cache

from ..partitions import Partition, partitions_of


@cache
def classes(n: int) -> tuple[Partition, ...]:
    """Partitions of n in table order (row labels and class labels)."""
    return tuple(partitions_of(n))


@cache
def class_index(n: int) -> dict[Partition, int]:
    """Position of each partition of n in ``classes(n)``."""
    return {lam: j for j, lam in enumerate(classes(n))}


@cache
def _strips(n: int, m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each lam in ``classes(n)``: (position in ``classes(n - m)``,
    sign) of every lam minus a border strip of length m."""
    smaller = class_index(n - m)
    rows = []
    for lam in classes(n):
        length = len(lam)
        beta = [lam[i] + (length - 1 - i) for i in range(length)]
        beta_set = set(beta)
        row = []
        for b in beta:
            c = b - m
            if c < 0 or c in beta_set:
                continue
            height = sum(1 for x in beta if c < x < b)
            new_beta = sorted([x for x in beta if x != b] + [c], reverse=True)
            rest = Partition(
                x - (length - 1 - i) for i, x in enumerate(new_beta) if x > length - 1 - i
            )
            row.append((smaller[rest], -1 if height % 2 else 1))
        rows.append(tuple(row))
    return tuple(rows)


@cache
def character_column(mu: tuple[int, ...]) -> tuple[int, ...]:
    """chi^lam(mu) for every lam in ``classes(|mu|)``, in that order."""
    if not mu:
        return (1,)
    sub = character_column(mu[1:])
    return tuple(
        sum(sign * sub[j] for j, sign in row) for row in _strips(sum(mu), mu[0])
    )


@cache
def sn_character(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Irreducible character chi^lam evaluated at the class mu (0 when
    the sizes differ): one entry of the table."""
    n = sum(mu)
    if sum(lam) != n:
        return 0
    return character_column(mu)[class_index(n)[lam]]


@cache
def zee(mu: tuple[int, ...]) -> int:
    """Centralizer order of the class mu: product of i^m_i * m_i!."""
    out = 1
    run_val, run_len = None, 0
    for part in list(mu) + [0]:
        if part == run_val:
            run_len += 1
            out *= part * run_len
        else:
            run_val, run_len = part, 1
            if part:
                out *= part
    return out
