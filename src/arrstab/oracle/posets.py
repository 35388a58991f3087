"""Join sublattices of the set-partition lattice.

The lattice generated by all set partitions of prescribed types is
closed under join (coordinatewise merging), is stable under the
symmetric group, and carries the refinement order.  Elements are stored
in a deterministic order with precomputed strict-order sets.
"""

from __future__ import annotations

from typing import Iterable

from ..partitions import Partition, SetPartition, all_set_partitions


class OracleLimitError(ValueError):
    """Raised when a brute-force computation exceeds its size limit."""


DEFAULT_EQUIVARIANT_LIMIT = 6
DEFAULT_LATTICE_LIMIT = 7


class PiLambdaLattice:
    """Finite join sublattice of the partition lattice, with bottom.

    ``elements[0]`` is the all-singletons bottom; the rest are sorted by
    rank and block structure.  ``strictly_below[i]`` holds the indices
    of elements strictly finer than element i.
    """

    def __init__(self, n: int, elements: Iterable[SetPartition]):
        self.n = n
        bottom = SetPartition.bottom(n)
        rest = sorted(
            (el for el in elements if el != bottom),
            key=lambda el: (el.type().rank, el.blocks),
        )
        self.elements: list[SetPartition] = [bottom] + rest
        self.index: dict[SetPartition, int] = {
            el: i for i, el in enumerate(self.elements)
        }
        # elements are sorted by rank, so only earlier ones can be finer
        self.strictly_below: list[set[int]] = [
            {j for j in range(i) if self.elements[j].refines(owner)}
            for i, owner in enumerate(el.block_of() for el in self.elements)
        ]

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, el: SetPartition) -> bool:
        return el in self.index

    def open_interval(self, top: SetPartition) -> list[SetPartition]:
        """Elements strictly between the bottom and ``top``."""
        it = self.index[top]
        return [self.elements[j] for j in sorted(self.strictly_below[it]) if j != 0]

    def types_present(self) -> list[Partition]:
        """Types of the nonbottom elements, sorted by (rank, shape)."""
        types = {el.type() for el in self.elements[1:]}
        return sorted(types, key=lambda t: (t.rank, t))

    def elements_of_type(self, mu: Partition) -> list[SetPartition]:
        return [el for el in self.elements if el.type() == mu]

    def canonical_of_type(self, mu: Partition) -> SetPartition:
        """The type-mu element with consecutive blocks {1..mu_1}, ..."""
        blocks, start = [], 1
        for part in mu:
            blocks.append(range(start, start + part))
            start += part
        el = SetPartition(self.n, blocks)
        if el not in self.index:
            raise ValueError(f"no element of type {mu!r} in the lattice")
        return el


def build_pi_lambda(
    n: int, types: Iterable[Partition], limit: int | None = None
) -> PiLambdaLattice:
    """Join closure of all set partitions of the given types, plus bottom.

    ``types`` are partitions of n; closure is by repeated pairwise join
    until stable, on block labels (``SetPartition.labels``).
    """
    limit = DEFAULT_LATTICE_LIMIT if limit is None else limit
    if n > limit:
        raise OracleLimitError(f"n={n} exceeds the lattice limit {limit}")
    types = {Partition(t) for t in types}
    for t in types:
        if t.size != n:
            raise ValueError(f"type {t!r} is not a partition of {n}")
    generators = [sp.labels() for sp in all_set_partitions(n) if sp.type() in types]
    closed = set(generators)
    frontier = list(generators)
    while frontier:
        fresh = []
        for a in frontier:
            for b in generators:
                j = _join_labels(a, b)
                if j not in closed:
                    closed.add(j)
                    fresh.append(j)
        frontier = fresh
    return PiLambdaLattice(n, map(SetPartition.from_labels, closed))


def _join_labels(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Join of two set partitions given by block labels, the least
    element of each position's block: a union-find in which every
    element points at a smaller one, so the roots are the labels."""
    parent = list(a)
    for x, y in enumerate(b):
        while parent[x] != x:
            x = parent[x]
        while parent[y] != y:
            y = parent[y]
        parent[max(x, y)] = min(x, y)
    for x, p in enumerate(parent):
        parent[x] = parent[p]
    return tuple(parent)
