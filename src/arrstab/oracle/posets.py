"""Join sublattices of the set-partition lattice.

The lattice generated by all set partitions of prescribed types is
closed under join (coordinatewise merging), is stable under the
symmetric group, and carries the refinement order.  Elements are stored
in a deterministic order, indexed by type; intervals are found on
demand.  A set partition refines another exactly when every pair of
points sharing a block of the first shares one of the second, so the
order is tested on pair masks (``pair_mask``).
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from ..partitions import Partition, SetPartition


class OracleLimitError(ValueError):
    """Raised when a brute-force computation exceeds its size limit."""


DEFAULT_EQUIVARIANT_LIMIT = 6
DEFAULT_LATTICE_LIMIT = 7


class PiLambdaLattice:
    """Finite join sublattice of the partition lattice, with bottom.

    ``elements[0]`` is the all-singletons bottom; the rest are sorted by
    rank and block structure, so each element comes after every element
    strictly below it.
    """

    def __init__(self, n: int, elements: Iterable[SetPartition]):
        self.n = n
        bottom = SetPartition.bottom(n)
        rest = sorted(
            ((el.type(), el) for el in elements if el != bottom),
            key=lambda typed: (typed[0].rank, typed[1].blocks),
        )
        self.elements: list[SetPartition] = [bottom] + [el for _, el in rest]
        self.index: dict[SetPartition, int] = {
            el: i for i, el in enumerate(self.elements)
        }
        self.masks = [pair_mask(el.labels()) for el in self.elements]
        self._by_type: dict[Partition, list[SetPartition]] = {bottom.type(): [bottom]}
        for mu, el in rest:
            self._by_type.setdefault(mu, []).append(el)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, el: SetPartition) -> bool:
        return el in self.index

    def open_interval(self, top: SetPartition) -> list[SetPartition]:
        """Elements strictly between the bottom and ``top``, in element
        order."""
        end = self.index[top]
        outside = ~self.masks[end]
        return [
            el
            for el, mask in zip(self.elements[1:end], self.masks[1:end])
            if not mask & outside
        ]

    def types_present(self) -> list[Partition]:
        """Types of the nonbottom elements, sorted by (rank, shape)."""
        return sorted((mu for mu in self._by_type if mu.rank), key=lambda t: (t.rank, t))

    def elements_of_type(self, mu: Partition) -> list[SetPartition]:
        return list(self._by_type.get(mu, ()))

    def canonical_of_type(self, mu: Partition) -> SetPartition:
        """The type-mu element with consecutive blocks {1..mu_1}, ..."""
        el = SetPartition.from_labels(_canonical_labels(mu))
        if el not in self.index:
            raise ValueError(f"no element of type {mu!r} in the lattice")
        return el


def build_pi_lambda(
    n: int, types: Iterable[Partition], limit: int | None = None
) -> PiLambdaLattice:
    """Join closure of all set partitions of the given types, plus bottom.

    ``types`` are partitions of n.  The closure is stable under the
    symmetric group, so it holds every set partition of each type it
    reaches, and it is closed on types: the join of a type-mu element
    with a generator is conjugate to the join of the canonical type-mu
    element with another generator.  So only the canonical element of
    each newly reached type is joined with every generator, on block
    labels (``SetPartition.labels``), and the elements are listed type
    by type (``labels_of_type``).
    """
    limit = DEFAULT_LATTICE_LIMIT if limit is None else limit
    if n > limit:
        raise OracleLimitError(f"n={n} exceeds the lattice limit {limit}")
    types = {Partition(t) for t in types}
    for t in types:
        if t.size != n:
            raise ValueError(f"type {t!r} is not a partition of {n}")
    generators = [labels for mu in types for labels in labels_of_type(mu)]
    reached = set(types)
    frontier = list(types)
    while frontier:
        fresh = []
        for mu in frontier:
            canonical = _canonical_labels(mu)
            for b in generators:
                joined = _join_labels(canonical, b)
                nu = Partition(sorted(Counter(joined).values(), reverse=True))
                if nu not in reached:
                    reached.add(nu)
                    fresh.append(nu)
        frontier = fresh
    return PiLambdaLattice(
        n, (SetPartition.from_labels(labels) for mu in reached for labels in labels_of_type(mu))
    )


def labels_of_type(mu: Partition) -> Iterator[tuple[int, ...]]:
    """Block labels (``SetPartition.labels``) of every set partition of
    type mu, each once: the least free point opens a block of each
    distinct size still to place, and the rest of that block is any
    combination of larger free points."""
    labels = [0] * mu.size

    def fill(free: tuple[int, ...], sizes: Counter) -> Iterator[tuple[int, ...]]:
        if not free:
            yield tuple(labels)
            return
        first, rest = free[0], free[1:]
        for size in [s for s, count in sizes.items() if count]:
            sizes[size] -= 1
            for others in combinations(rest, size - 1):
                for x in (first,) + others:
                    labels[x] = first
                yield from fill(tuple(x for x in rest if x not in others), sizes)
            sizes[size] += 1

    return fill(tuple(range(mu.size)), Counter(mu))


def pair_mask(labels: Sequence[int]) -> int:
    """One bit for each pair x < y of points with the same block label,
    bit y(y-1)/2 + x: a set partition refines another exactly when its
    mask has no bit outside the other's."""
    mask = 0
    for y, label in enumerate(labels):
        for x in range(label, y):
            if labels[x] == label:
                mask |= 1 << (y * (y - 1) // 2 + x)
    return mask


def _canonical_labels(mu: Partition) -> tuple[int, ...]:
    """Block labels of the type-mu set partition with consecutive
    blocks, the largest first."""
    labels: list[int] = []
    for part in mu:
        labels += [len(labels)] * part
    return tuple(labels)


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
