"""Brute-force ground truth at small n.

For a padded type set, the cohomology characteristic of the arrangement
complement is assembled orbitwise: for one representative per orbit of
the lattice (one per type), tensor the interval homology character in
the complementary degree with the sphere orientation character, induce
to the full symmetric group, and add up.  Everything is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Iterable

from ..partitions import Partition, SetPartition
from ..symfunc import POWER, SymmetricFunction, to_schur, zero
from .groups import (
    Perm,
    class_function_to_characteristic,
    conjugacy_classes,
    induced_character,
    orientation_sign,
    stabilizer,
    stabilizer_generators,
)
from .homology import IntervalHomology
from .linalg import eliminate
from .monomial import monomial_expand, plethysm_expand, schur_decompose
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
    "monomial_expand",
    "plethysm_expand",
    "schur_decompose",
    "eliminate",
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


class _TypeRecord:
    """Per-orbit data: interval homology plus stabilizer structure."""

    def __init__(self, lattice: PiLambdaLattice, mu: Partition):
        self.type = mu
        self.rep = lattice.canonical_of_type(mu)
        self.homology = IntervalHomology(lattice.open_interval(self.rep))
        self.classes = conjugacy_classes(stabilizer(self.rep), stabilizer_generators(self.rep))
        order = sum(len(cls) for cls in self.classes)
        orbit = len(lattice.elements_of_type(mu))
        if orbit * order != factorial(lattice.n):
            raise AssertionError(
                f"type {mu!r}: orbit {orbit} x stabilizer {order} != {lattice.n}!"
            )
        self._traces: dict[int, list[int]] = {}
        self._orientations: dict[int, list[int]] = {}

    def traces(self, degree: int) -> list[int]:
        if degree not in self._traces:
            self._traces[degree] = [
                self.homology.trace(degree, cls[0]) for cls in self.classes
            ]
        return self._traces[degree]

    def orientations(self, d: int) -> list[int]:
        parity = d % 2
        if parity not in self._orientations:
            if parity == 0:
                signs = [1] * len(self.classes)
            else:
                signs = [orientation_sign(self.rep, 1, cls[0]) for cls in self.classes]
            self._orientations[parity] = signs
        return self._orientations[parity]


class _LatticeData:
    def __init__(self, n: int, types: frozenset[Partition], limit: int):
        self.n = n
        self.lattice = build_pi_lambda(n, types, limit=limit)
        self.records = [
            _TypeRecord(self.lattice, mu) for mu in self.lattice.types_present()
        ]


_lattice_cache: dict[tuple[int, frozenset[Partition]], _LatticeData] = {}


def _lattice_data(n: int, types: frozenset[Partition], limit: int) -> _LatticeData:
    key = (n, types)
    if key not in _lattice_cache:
        _lattice_cache[key] = _LatticeData(n, types, limit)
    return _lattice_cache[key]


def interval_homology(
    lattice: PiLambdaLattice, pi: SetPartition
) -> tuple[dict[int, int], EquivariantCharacter]:
    """Reduced homology of the open interval below ``pi`` with the
    stabilizer character in every degree carrying homology."""
    if pi not in lattice:
        raise ValueError(f"{pi!r} is not a lattice element")
    if pi == lattice.elements[0]:
        raise ValueError("the bottom element has no interval below it")
    hom = IntervalHomology(lattice.open_interval(pi))
    stab = stabilizer(pi)
    classes = conjugacy_classes(stab, stabilizer_generators(pi))
    values = {
        j: tuple(hom.trace(j, cls[0]) for cls in classes) for j in hom.dims
    }
    char = EquivariantCharacter(
        group_order=len(stab),
        classes=tuple((cls[0], len(cls)) for cls in classes),
        values=values,
    )
    return dict(hom.dims), char


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
    data = _lattice_data(n, types, limit=max(limit, DEFAULT_LATTICE_LIMIT))
    total = zero(POWER)
    for rec in data.records:
        codim = d * rec.type.rank
        degree = codim - i - 2
        if rec.homology.dims.get(degree, 0) == 0:
            continue
        values = [tr * sg for tr, sg in zip(rec.traces(degree), rec.orientations(d))]
        induced = induced_character(rec.classes, values)
        total = total + class_function_to_characteristic(n, induced)
    result = to_schur(total)
    if result and not result.is_nonnegative_integral():
        raise AssertionError(
            f"lattice model produced a non-genuine character at (n={n}, d={d}, i={i}): {result}"
        )
    return result
