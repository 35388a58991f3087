"""Littlewood-Richardson tableaux, coefficients and products.

Two independent code paths are kept on purpose: `lr_expand` computes a
full Schur product by stacking horizontal strips with the lattice bound
(`horizontal_strips`, the product with a one-row h_q, is a single such
strip), while `lr_tableaux` enumerates explicit skew tableaux cell by
cell.  The tests play them against each other and against monomial
expansions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import accumulate
from operator import add
from typing import Iterator

from ..partitions import Partition


def _strip_additions(
    shape: tuple[int, ...], m: int, prev_cum: tuple[int, ...] | None
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All ways to add a horizontal m-strip of one letter to ``shape``.

    ``prev_cum`` holds cumulative per-row counts of the previous letter;
    the lattice condition bounds the new letter's count through row j by
    the previous letter's count through row j-1.  Yields the new shape
    together with the new letter's cumulative row counts.
    """
    nrows = len(shape) + 1
    # row 0 takes any number of boxes, a lower row at most the overhang
    # of the row above it
    caps = [m] + [shape[j - 1] - shape[j] for j in range(1, len(shape))] + list(shape[-1:])
    # room from row j down; row j takes at least what the rows below it
    # have no room for
    tail = [0] * (nrows + 1)
    for j in range(nrows - 1, -1, -1):
        tail[j] = tail[j + 1] + caps[j]
    if prev_cum is None:
        bound = [m] * nrows
    else:
        last = prev_cum[-1] if prev_cum else 0
        bound = [0] + [prev_cum[j] if j < len(prev_cum) else last for j in range(nrows - 1)]

    out: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    adds = [0] * nrows

    def rec(j: int, remaining: int, cum: int) -> None:
        if remaining == 0:
            new_shape = tuple(map(add, shape, adds))
            if adds[-1]:
                new_shape += (adds[-1],)
            out.append((new_shape, tuple(accumulate(adds[: len(new_shape)]))))
            return
        hi = min(caps[j], remaining, bound[j] - cum)
        lo = remaining - tail[j + 1]
        for a in range(hi, (lo if lo > 0 else 0) - 1, -1):
            adds[j] = a
            rec(j + 1, remaining - a, cum + a)
        adds[j] = 0

    rec(0, m, 0)
    return iter(out)


@cache
def horizontal_strips(shape: Partition, q: int) -> tuple[Partition, ...]:
    """The keys of s_shape * h_q, each with coefficient 1 (Pieri rule,
    Macdonald I.(5.16)): ``shape`` plus a horizontal q-strip."""
    return tuple(Partition(new) for new, _ in _strip_additions(tuple(shape), q, None))


@cache
def lr_expand(base: Partition, weight: Partition) -> tuple[tuple[Partition, int], ...]:
    """Schur expansion of s_base * s_weight as (key, coefficient) pairs."""
    states: dict[tuple[tuple[int, ...], tuple[int, ...] | None], int] = {
        (tuple(base), None): 1
    }
    for m in weight:
        new_states: dict[tuple[tuple[int, ...], tuple[int, ...] | None], int] = {}
        for (shape, prev_cum), mult in states.items():
            for new_shape, cum in _strip_additions(shape, m, prev_cum):
                key = (new_shape, cum)
                new_states[key] = new_states.get(key, 0) + mult
        states = new_states
    out: dict[Partition, int] = {}
    for (shape, _), mult in states.items():
        key = Partition(shape)
        out[key] = out.get(key, 0) + mult
    return tuple(sorted(out.items()))


@dataclass(frozen=True)
class LRTableau:
    """Littlewood-Richardson filling of a skew shape outer/inner.

    ``rows[r]`` lists the entries of row r left to right (skew cells
    only).  Construction validates semistandardness and the lattice
    property of the reverse reading word.
    """

    outer: Partition
    inner: Partition
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        outer, inner = self.outer, self.inner
        if not outer.contains(inner):
            raise ValueError(f"inner shape {inner!r} not inside {outer!r}")
        if len(self.rows) != len(outer):
            raise ValueError("one entry tuple required per outer row")
        for r, row in enumerate(self.rows):
            inner_r = inner[r] if r < len(inner) else 0
            if len(row) != outer[r] - inner_r:
                raise ValueError(f"row {r} must hold {outer[r] - inner_r} entries")
            if any(a > b for a, b in zip(row, row[1:])):
                raise ValueError(f"row {r} must weakly increase")
            if any(v < 1 for v in row):
                raise ValueError("entries must be positive")
        for r in range(1, len(outer)):
            upper = inner[r - 1] if r - 1 < len(inner) else 0
            lower = inner[r] if r < len(inner) else 0
            for col in range(lower, outer[r]):
                if col >= upper:
                    if self.rows[r - 1][col - upper] >= self.rows[r][col - lower]:
                        raise ValueError(f"column {col} must strictly increase")
        counts: dict[int, int] = {}
        for row in self.rows:
            for v in reversed(row):
                counts[v] = counts.get(v, 0) + 1
                if v > 1 and counts.get(v - 1, 0) < counts[v]:
                    raise ValueError("reverse reading word is not a lattice word")

    @property
    def weight(self) -> Partition:
        counts: dict[int, int] = {}
        for row in self.rows:
            for v in row:
                counts[v] = counts.get(v, 0) + 1
        return Partition(counts[v] for v in sorted(counts))


def lr_tableaux(
    outer: Partition, inner: Partition, weight: Partition
) -> Iterator[LRTableau]:
    """All LR tableaux of shape outer/inner and the given weight.

    Yields nothing when the cell count and the weight size disagree.
    Cells are filled in reverse reading order so the lattice property
    can be enforced as a running prefix condition.
    """
    outer, inner, weight = Partition(outer), Partition(inner), Partition(weight)
    if not outer.contains(inner):
        return
    ncells = outer.size - inner.size
    if ncells != weight.size:
        return
    if ncells == 0:
        yield LRTableau(outer, inner, tuple(() for _ in outer))
        return
    cells = []
    for r in range(len(outer)):
        inner_r = inner[r] if r < len(inner) else 0
        for c in range(outer[r] - 1, inner_r - 1, -1):
            cells.append((r, c))
    nletters = len(weight)
    grid: dict[tuple[int, int], int] = {}
    counts = [0] * nletters

    def rec(pos: int) -> Iterator[LRTableau]:
        if pos == len(cells):
            rows = []
            for r in range(len(outer)):
                inner_r = inner[r] if r < len(inner) else 0
                rows.append(tuple(grid[(r, c)] for c in range(inner_r, outer[r])))
            yield LRTableau(outer, inner, tuple(rows))
            return
        r, c = cells[pos]
        lo, hi = 1, nletters
        if (r, c + 1) in grid:
            hi = min(hi, grid[(r, c + 1)])
        if r > 0:
            upper_inner = inner[r - 1] if r - 1 < len(inner) else 0
            if c >= upper_inner:
                lo = max(lo, grid[(r - 1, c)] + 1)
        for v in range(lo, hi + 1):
            if counts[v - 1] >= weight[v - 1]:
                continue
            if v > 1 and counts[v - 2] <= counts[v - 1]:
                continue
            grid[(r, c)] = v
            counts[v - 1] += 1
            yield from rec(pos + 1)
            counts[v - 1] -= 1
            del grid[(r, c)]

    yield from rec(0)


def lr_coeff(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Multiplicity of s_nu in s_lam * s_mu (tableaux of shape nu/lam)."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    if lam.size + mu.size != nu.size:
        raise ValueError(
            f"size mismatch: |{lam!r}| + |{mu!r}| != |{nu!r}|"
        )
    if not nu.contains(lam):
        return 0
    return sum(1 for _ in lr_tableaux(nu, lam, mu))


def phi_shift(t: LRTableau) -> LRTableau:
    """Drop the first empty box of row one and slide that row left.

    Defined when the first inner part exceeds weight_1 + inner_2; the
    image is an LR tableau with the same weight whose inner shape lost
    one box in the first row.
    """
    inner, outer = t.inner, t.outer
    if not inner:
        raise ValueError("inner shape must have a nonempty first row")
    n = inner[0]
    alpha1 = inner[1] if len(inner) > 1 else 0
    weight = t.weight
    lam1 = weight[0] if weight else 0
    if n <= lam1 + alpha1:
        raise ValueError(
            f"first-row shift needs inner_1 > {lam1 + alpha1}, got {n}"
        )
    new_inner = Partition(x for x in (n - 1,) + tuple(inner[1:]) if x > 0)
    new_outer = Partition(x for x in (outer[0] - 1,) + tuple(outer[1:]) if x > 0)
    rows = t.rows[: len(new_outer)]
    if any(t.rows[len(new_outer):]):
        raise ValueError("dropped rows must be empty")
    return LRTableau(new_outer, new_inner, rows)


def phi_unshift(t: LRTableau) -> LRTableau:
    """Inverse shift: move row one right and open an empty box."""
    inner, outer = t.inner, t.outer
    new_inner = Partition(((inner[0] + 1,) + tuple(inner[1:])) if inner else (1,))
    new_outer = Partition(((outer[0] + 1,) + tuple(outer[1:])) if outer else (1,))
    rows = t.rows + ((),) * (len(new_outer) - len(t.rows))
    return LRTableau(new_outer, new_inner, rows)
