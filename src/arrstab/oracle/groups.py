"""Symmetric group bookkeeping: stabilizers, classes, induction, signs.

Permutations are 0-indexed image tuples.  A subgroup class function is
given by one value per conjugacy class and is induced to the full
symmetric group by the Frobenius formula

    Ind chi(mu) = z_mu / |H| * sum of chi(h) over h in H of cycle type mu,

read class by class.  The orientation sign of g on the normal space of a
diagonal subspace is a product of two permutation signs, and class
functions turn into power-sum expansions through the cycle-type map.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import permutations, product
from typing import Sequence

from ..partitions import Partition, SetPartition
from ..symfunc import POWER, SymmetricFunction
from ..symfunc.characters import zee

Perm = tuple[int, ...]


@cache
def symmetric_group(n: int) -> tuple[Perm, ...]:
    return tuple(permutations(range(n)))


def cycle_type(a: Sequence[int]) -> Partition:
    seen = [False] * len(a)
    lengths = []
    for start in range(len(a)):
        if seen[start]:
            continue
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = a[x]
            length += 1
        lengths.append(length)
    return Partition(sorted(lengths, reverse=True))


def sign(a: Sequence[int]) -> int:
    """Sign of a permutation: (-1)^(size - number of cycles)."""
    return -1 if (len(a) - len(cycle_type(a))) % 2 else 1


def stabilizer(pi: SetPartition) -> list[Perm]:
    """All permutations fixing the set partition blockwise-setwise,
    sorted: any permutation of the blocks of each size, then any
    bijection from each block onto its image block."""
    by_size: dict[int, list[tuple[int, ...]]] = {}
    for block in pi.blocks:
        by_size.setdefault(len(block), []).append(block)
    factors = []
    for blocks in by_size.values():
        sources = [x - 1 for block in blocks for x in block]
        factors.append([
            (sources, [y - 1 for image in images for y in image])
            for order in permutations(blocks)
            for images in product(*map(permutations, order))
        ])
    group = []
    for choice in product(*factors):
        g = [0] * pi.n
        for sources, targets in choice:
            for x, y in zip(sources, targets):
                g[x] = y
        group.append(tuple(g))
    group.sort()
    return group


def conjugacy_classes(group: Sequence[Perm]) -> list[list[Perm]]:
    """Conjugacy classes of a subgroup, each sorted, ordered by least rep.

    The conjugate x g x^-1 sends x[i] to x[g[i]], so no inverse is formed.
    """
    members = set(group)
    classes = []
    seen: set[Perm] = set()
    for g in sorted(members):
        if g in seen:
            continue
        orbit = set()
        conj = [0] * len(g)
        for x in members:
            for i, gi in enumerate(g):
                conj[x[i]] = x[gi]
            orbit.add(tuple(conj))
        if not orbit <= members:
            raise ValueError("conjugation left the subgroup: not closed")
        seen |= orbit
        classes.append(sorted(orbit))
    return classes


def orientation_sign(pi: SetPartition, d: int, g: Perm) -> int:
    """Determinant sign of g acting on the orthogonal complement of the
    diagonal subspace of pi inside R^(d*n).

    g has determinant sign(g)^d on R^(d*n) and sign(g on the blocks)^d
    on the diagonal subspace, one copy of R^d per block; the complement
    is g-invariant, so its determinant is the product of the two.
    """
    if pi.apply(g) != pi:
        raise ValueError(f"{g!r} does not stabilize {pi!r}")
    owner = pi.block_of()
    on_blocks = [owner[g[block[0] - 1] + 1] for block in pi.blocks]
    return (sign(g) * sign(on_blocks)) ** d


def induced_character(
    classes: Sequence[Sequence[Perm]], values: Sequence[Fraction | int]
) -> dict[Partition, Fraction]:
    """Induce a subgroup class function up to the symmetric group.

    ``classes`` are the subgroup's conjugacy classes and ``values[j]``
    is the function's value on ``classes[j]``.  The result holds the
    induced value at every cycle type that meets the subgroup; it
    vanishes at every other type.
    """
    order = sum(len(cls) for cls in classes)
    sums: dict[Partition, Fraction | int] = {}
    for cls, val in zip(classes, values, strict=True):
        mu = cycle_type(cls[0])
        sums[mu] = sums.get(mu, 0) + len(cls) * val
    return {mu: Fraction(zee(tuple(mu)) * s, order) for mu, s in sums.items()}


def class_function_to_characteristic(
    n: int, class_values: dict[Partition, Fraction | int]
) -> SymmetricFunction:
    """Frobenius characteristic: sum of chi(mu)/z_mu p_mu."""
    terms = {
        mu: Fraction(val) / zee(tuple(mu))
        for mu, val in class_values.items()
        if val
    }
    return SymmetricFunction(POWER, terms)
