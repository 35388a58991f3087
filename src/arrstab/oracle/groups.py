"""Symmetric group bookkeeping: stabilizers, classes, induction, signs.

Permutations are 0-indexed image tuples.  The stabilizer of a set
partition is a product of wreath products S_b wr S_m, one per block
size, and its conjugacy classes come from their cycle data without
listing the group (``stabilizer_classes``).  A subgroup class function
is given by one value per conjugacy class and is induced to the full
symmetric group by the Frobenius formula

    Ind chi(mu) = z_mu / |H| * sum of chi(h) over h in H of cycle type mu,

read class by class.  The orientation sign of g on the normal space of a
diagonal subspace is a product of two permutation signs, and class
functions turn into power-sum expansions through the cycle-type map.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement, permutations, product
from math import factorial, prod
from typing import Sequence

from ..partitions import Partition, SetPartition, partitions_of
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


def _blocks_by_size(pi: SetPartition) -> list[list[tuple[int, ...]]]:
    """The 0-indexed blocks of pi, grouped by size."""
    by_size: dict[int, list[tuple[int, ...]]] = {}
    for block in pi.blocks:
        by_size.setdefault(len(block), []).append(tuple(x - 1 for x in block))
    return list(by_size.values())


def stabilizer_order(pi: SetPartition) -> int:
    """Order of the stabilizer: b!^m * m! for the m blocks of each size b."""
    return prod(
        factorial(len(blocks[0])) ** len(blocks) * factorial(len(blocks))
        for blocks in _blocks_by_size(pi)
    )


def stabilizer_classes(pi: SetPartition) -> list[tuple[Perm, int]]:
    """One representative and the size of each conjugacy class of the
    stabilizer of pi.  A class of the product over block sizes is one
    class of each factor; its representative moves each factor's points
    as that factor's does, and its size is the product of theirs."""
    classes = []
    for choice in product(*map(_wreath_classes, _blocks_by_size(pi))):
        g = list(range(pi.n))
        for moves, _ in choice:
            for x, y in moves:
                g[x] = y
        classes.append((tuple(g), prod(size for _, size in choice)))
    return classes


def _wreath_classes(blocks: list[tuple[int, ...]]) -> list[tuple[list[tuple[int, int]], int]]:
    """The classes of S_b wr S_m on m blocks of size b, as the moves
    (point, image) of a representative and the class size.

    A class is a multiset of pairs (l, rho), with the l summing to m and
    rho a partition of b: a cycle of l blocks whose cycle product has
    type rho (Macdonald I, Appendix B).  The representative sends l
    consecutive blocks round a cycle by the identity bijections and
    closes it by a permutation of type rho.  A pair of multiplicity a
    contributes a! (l z_rho)^a to the centralizer order.
    """
    b, m = len(blocks[0]), len(blocks)
    shapes = list(partitions_of(b))
    classes = []
    for lengths in partitions_of(m):
        runs = Counter(lengths)
        for choice in product(*(combinations_with_replacement(shapes, a) for a in runs.values())):
            moves: list[tuple[int, int]] = []
            centralizer, start = 1, 0
            for length, rhos in zip(runs, choice):
                for rho, a in Counter(rhos).items():
                    centralizer *= factorial(a) * (length * zee(tuple(rho))) ** a
                for rho in rhos:
                    cycle = blocks[start : start + length]
                    start += length
                    for source, image in zip(cycle, cycle[1:]):
                        moves += zip(source, image)
                    moves += zip(cycle[-1], [cycle[0][j] for j in _permutation_of_type(rho)])
            classes.append((moves, factorial(b) ** m * factorial(m) // centralizer))
    return classes


def _permutation_of_type(rho: Partition) -> Perm:
    """The permutation of 0..|rho|-1 whose cycles are consecutive runs
    of lengths rho."""
    perm: list[int] = []
    for part in rho:
        start = len(perm)
        perm += [start + (j + 1) % part for j in range(part)]
    return tuple(perm)


def stabilizer(pi: SetPartition) -> list[Perm]:
    """All permutations fixing the set partition blockwise-setwise,
    sorted: any permutation of the blocks of each size, then any
    bijection from each block onto its image block.  With
    ``conjugacy_classes`` it is the listed reference for
    ``stabilizer_classes``; the lattice model lists no group."""
    factors = []
    for blocks in _blocks_by_size(pi):
        sources = [x for block in blocks for x in block]
        factors.append([
            (sources, [y for image in images for y in image])
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


def stabilizer_generators(pi: SetPartition) -> list[Perm]:
    """Generators of the stabilizer, a product of wreath products
    S_b wr S_m: for each block size b, a transposition and a b-cycle in
    the first block of that size, and the swap and the m-cycle of the
    blocks of that size.  Conjugating by the block moves carries the
    first block's generators to every other block."""
    gens = set()
    for blocks in _blocks_by_size(pi):
        for cycles in ([blocks[0][:2]], [blocks[0]], zip(*blocks[:2]), zip(*blocks)):
            g = list(range(pi.n))
            for cycle in cycles:
                for x, y in zip(cycle, cycle[1:] + cycle[:1]):
                    g[x] = y
            gens.add(tuple(g))
    gens.discard(tuple(range(pi.n)))
    return sorted(gens)


def conjugacy_classes(group: Sequence[Perm], generators: Sequence[Perm]) -> list[list[Perm]]:
    """Conjugacy classes of ``group``, which ``generators`` generate,
    each sorted, ordered by least rep.  They are the orbits under
    conjugation by the generators, so finding them costs |group| times
    the number of generators in conjugations.

    The conjugate x g x^-1 sends x[i] to x[g[i]], so no inverse is formed.
    """
    members = set(group)
    classes = []
    seen: set[Perm] = set()
    for g in sorted(members):
        if g in seen:
            continue
        orbit, frontier = {g}, [g]
        for h in frontier:
            for x in generators:
                conj = [0] * len(h)
                for i, hi in enumerate(h):
                    conj[x[i]] = x[hi]
                conj = tuple(conj)
                if conj not in orbit:
                    if conj not in members:
                        raise ValueError("conjugation left the subgroup: not closed")
                    orbit.add(conj)
                    frontier.append(conj)
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
    classes: Sequence[tuple[Perm, int]], values: Sequence[Fraction | int]
) -> dict[Partition, Fraction]:
    """Induce a subgroup class function up to the symmetric group.

    ``classes`` holds one representative and the size of each of the
    subgroup's conjugacy classes, and ``values[j]`` is the function's
    value on ``classes[j]``.  The result holds the induced value at
    every cycle type that meets the subgroup; it vanishes at every
    other type.
    """
    order = sum(size for _, size in classes)
    sums: dict[Partition, Fraction | int] = {}
    for (rep, size), val in zip(classes, values, strict=True):
        mu = cycle_type(rep)
        sums[mu] = sums.get(mu, 0) + size * val
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
