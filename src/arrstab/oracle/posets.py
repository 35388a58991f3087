"""Join sublattices of the set-partition lattice.

The lattice generated by all set partitions of prescribed types is
closed under join (coordinatewise merging), is stable under the
symmetric group, and carries the refinement order.  Elements are stored
in a deterministic order, indexed by type; intervals are found on
demand.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from ..partitions import Partition, SetPartition, all_set_partitions


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
        owner = top.block_of()
        return [el for el in self.elements[1 : self.index[top]] if el.refines(owner)]

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
    labels (``SetPartition.labels``).
    """
    limit = DEFAULT_LATTICE_LIMIT if limit is None else limit
    if n > limit:
        raise OracleLimitError(f"n={n} exceeds the lattice limit {limit}")
    types = {Partition(t) for t in types}
    for t in types:
        if t.size != n:
            raise ValueError(f"type {t!r} is not a partition of {n}")
    typed = [(sp.type(), sp) for sp in all_set_partitions(n)]
    generators = [sp.labels() for mu, sp in typed if mu in types]
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
    return PiLambdaLattice(n, (sp for mu, sp in typed if mu in reached))


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
