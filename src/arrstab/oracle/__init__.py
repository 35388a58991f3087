"""Brute-force ground truth at small n.

For a padded type set, the cohomology characteristic of the arrangement
complement is assembled orbitwise: for one representative per orbit of
the lattice (one per type), tensor the interval homology character in
the complementary degree with the sphere orientation character, induce
to the full symmetric group, and add up.  Everything is exact.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import factorial
from typing import Iterable

from ..partitions import Partition, SetPartition
from ..symfunc import POWER, SymmetricFunction, to_schur, zero
from .groups import (
    Perm,
    class_function_to_characteristic,
    induced_character,
    orientation_sign,
    stabilizer_classes,
    stabilizer_order,
)
from .homology import IntervalHomology
from .posets import (
    DEFAULT_EQUIVARIANT_LIMIT,
    DEFAULT_LATTICE_LIMIT,
    OracleLimitError,
    PiLambdaLattice,
    build_pi_lambda,
)

__all__ = [
    "OracleLimitError",
    "DEFAULT_EQUIVARIANT_LIMIT",
    "DEFAULT_LATTICE_LIMIT",
    "PiLambdaLattice",
    "build_pi_lambda",
    "IntervalHomology",
    "EquivariantCharacter",
    "interval_homology",
    "orientation_sign",
    "sw_complement_char",
]


@dataclass(frozen=True)
class EquivariantCharacter:
    """Traces of a stabilizer on interval homology, degree by degree.

    ``classes`` holds one representative per conjugacy class with its
    size; ``values[j]`` aligns with ``classes``.
    """

    group_order: int
    classes: tuple[tuple[Perm, int], ...]
    values: dict[int, tuple[int, ...]]


class _Orbit:
    """One orbit of a lattice at its element ``pi``: the homology of the
    interval below ``pi`` and its stabilizer's classes (shared with every
    lattice that has ``pi``), with each degree's traces and the odd-d
    orientation signs computed on first use."""

    def __init__(self, lattice: PiLambdaLattice, pi: SetPartition):
        self.pi = pi
        self.homology = IntervalHomology(lattice.open_interval(pi))
        self.classes = stabilizer_classes(pi)
        self.order = stabilizer_order(pi)
        if sum(size for _, size in self.classes) != self.order:
            raise AssertionError(f"{pi!r}: class sizes do not sum to the order {self.order}")
        self._traces: dict[int, list[int]] = {}

    def traces(self, degree: int) -> list[int]:
        if degree not in self._traces:
            self._traces[degree] = [self.homology.trace(degree, rep) for rep, _ in self.classes]
        return self._traces[degree]

    @functools.cached_property
    def odd_signs(self) -> list[int]:
        """The orientation character for odd d (for even d it is trivial)."""
        return [orientation_sign(self.pi, 1, rep) for rep, _ in self.classes]


@functools.cache
def _orbits(n: int, types: frozenset[Partition]) -> tuple[tuple[Partition, _Orbit], ...]:
    """Each orbit type of the lattice generated by ``types`` with its orbit
    at the type's canonical element, built once per ``(n, types)``."""
    lattice = build_pi_lambda(n, types, limit=n)
    orbits = []
    for mu in lattice.types_present():
        orbit = _Orbit(lattice, lattice.canonical_of_type(mu))
        size = len(lattice.elements_of_type(mu))
        if size * orbit.order != factorial(n):
            raise AssertionError(f"type {mu!r}: orbit {size} x stabilizer {orbit.order} != {n}!")
        orbits.append((mu, orbit))
    return tuple(orbits)


def interval_homology(
    lattice: PiLambdaLattice, pi: SetPartition
) -> tuple[dict[int, int], EquivariantCharacter]:
    """Reduced homology of the open interval below ``pi`` with the
    stabilizer character in every degree carrying homology."""
    if pi not in lattice:
        raise ValueError(f"{pi!r} is not a lattice element")
    if pi == lattice.elements[0]:
        raise ValueError("the bottom element has no interval below it")
    orbit = _Orbit(lattice, pi)
    char = EquivariantCharacter(
        group_order=orbit.order,
        classes=orbit.classes,
        values={j: tuple(orbit.traces(j)) for j in orbit.homology.dims},
    )
    return dict(orbit.homology.dims), char


def sw_complement_char(
    n: int,
    d: int,
    types: Iterable[Partition],
    i: int,
    limit: int | None = None,
) -> SymmetricFunction:
    """Characteristic of the degree-i reduced cohomology of the
    complement, from the lattice homology model.

    ``types`` is the padded type set at n points.  Exactness is checked:
    the result must have nonnegative integer Schur coefficients.
    """
    limit = DEFAULT_EQUIVARIANT_LIMIT if limit is None else limit
    if n > limit:
        raise OracleLimitError(f"n={n} exceeds the equivariant oracle limit {limit}")
    if d < 1:
        raise ValueError("d must be positive")
    types = frozenset(Partition(t) for t in types)
    total = zero(POWER)
    for mu, orbit in _orbits(n, types):
        degree = d * mu.rank - i - 2
        if orbit.homology.dims.get(degree, 0) == 0:
            continue
        values = orbit.traces(degree)
        if d % 2:
            values = [tr * sg for tr, sg in zip(values, orbit.odd_signs)]
        induced = induced_character(orbit.classes, values)
        total = total + class_function_to_characteristic(n, induced)
    result = to_schur(total)
    if result and not result.is_nonnegative_integral():
        raise AssertionError(
            f"lattice model produced a non-genuine character at (n={n}, d={d}, i={i}): {result}"
        )
    return result
