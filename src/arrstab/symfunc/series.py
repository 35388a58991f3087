"""Generating characters for partition-lattice homology and hook sums.

`lie_character(n)` is the Frobenius characteristic of the degree-n Lie
representation, (1/n) * sum over d | n of moebius(d) p_d^(n/d); its omega
twist is the top homology character of the order complex of the full
set-partition lattice.  The hook series collects all Schur functions
whose first column has a prescribed length.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from ..partitions import Partition
from .core import POWER, SCHUR, SymmetricFunction, omega, to_power


@cache
def moebius(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    out, d, m = 1, 2, n
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            out = -out
        d += 1
    if m > 1:
        out = -out
    return out


@cache
def lie_character(n: int) -> SymmetricFunction:
    """Power-basis characteristic of the Lie representation of degree n."""
    if n < 1:
        raise ValueError("n must be positive")
    terms = {}
    for d in range(1, n + 1):
        if n % d == 0:
            mu = moebius(d)
            if mu:
                terms[Partition((d,) * (n // d))] = Fraction(mu, n)
    return SymmetricFunction(POWER, terms)


@cache
def partition_homology_character(n: int) -> SymmetricFunction:
    """Top reduced homology character of the proper part of the
    set-partition lattice on n points (power basis)."""
    return omega(lie_character(n))


@cache
def lie_series(max_degree: int) -> SymmetricFunction:
    """Sum of lie_character(j) for 1 <= j <= max_degree."""
    total = SymmetricFunction(POWER)
    for j in range(1, max_degree + 1):
        total = total + lie_character(j)
    return total


@cache
def signed_homology_series(max_degree: int) -> SymmetricFunction:
    """Alternating sum of partition-lattice homology characters."""
    total = SymmetricFunction(POWER)
    for j in range(1, max_degree + 1):
        term = partition_homology_character(j)
        total = total + (term if j % 2 == 0 else -term)
    return total


@cache
def hook_series(k: int, max_degree: int) -> SymmetricFunction:
    """Sum of the hook Schur functions with first column of length k.

    Degrees k through ``max_degree``; the degree-j term is the hook with
    arm j-k+1 and leg k-1.
    """
    if k < 1:
        raise ValueError("k must be positive")
    terms = {}
    for j in range(k, max_degree + 1):
        terms[Partition((j - k + 1,) + (1,) * (k - 1))] = 1
    return SymmetricFunction(SCHUR, terms)


@cache
def _hook_power(k: int, j: int) -> SymmetricFunction:
    """The degree-j term of ``hook_series(k, ...)`` in the power basis."""
    hook = Partition((j - k + 1,) + (1,) * (k - 1))
    return to_power(SymmetricFunction._raw(SCHUR, {hook: 1}))


def hook_power_series(k: int, max_degree: int) -> SymmetricFunction:
    """``hook_series(k, max_degree)`` in the power basis; each hook is
    expanded once per process, and the degrees share no key."""
    if k < 1:
        raise ValueError("k must be positive")
    return SymmetricFunction._raw(
        POWER,
        {key: c for j in range(k, max_degree + 1) for key, c in _hook_power(k, j).items()},
    )
