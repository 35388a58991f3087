"""Plethysm of symmetric functions.

The power sums act as Adams operations: p_m applied to a power-basis
expansion multiplies every part of every key by m and passes rational
coefficients through unchanged (p_m[c*g] = c*p_m[g]).  The action
extends multiplicatively over keys and linearly over the expansion of
the outer function, so inhomogeneous and virtual arguments are allowed.

The arithmetic is on integer numerators: with g = G/D for an integer
expansion G, p_mu[g] = p_mu[G] / D^length(mu), so the products run in
plain ints and every term is gathered over one common denominator,
divided out once when the result is built.
"""

from __future__ import annotations

import math

from ..partitions import Partition
from .core import POWER, SymmetricFunction, _common_denominator, _ratio, to_power, to_schur


def _adams(
    gp: dict[Partition, int], m: int, max_degree: int | None
) -> list[tuple[int, tuple[int, ...], int]]:
    """p_m[G] as (size, key, coefficient) in ascending size."""
    out = []
    for key, c in gp.items():
        size = key.size * m
        if max_degree is None or size <= max_degree:
            out.append((size, tuple(x * m for x in key), c))
    out.sort(key=lambda item: item[0])
    return out


def _pmul(
    a: dict[tuple[int, ...], int],
    b: list[tuple[int, tuple[int, ...], int]],
    max_degree: int | None,
) -> dict[tuple[int, ...], int]:
    """Product of ``a`` with an ``_adams`` list, truncated above ``max_degree``."""
    out: dict[tuple[int, ...], int] = {}
    for k1, c1 in a.items():
        room = math.inf if max_degree is None else max_degree - sum(k1)
        for size, k2, c2 in b:
            if size > room:
                break
            key = tuple(sorted(k1 + k2, reverse=True))
            out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


def plethysm(
    f: SymmetricFunction, g: SymmetricFunction, max_degree: int | None = None
) -> SymmetricFunction:
    """Plethysm f[g], optionally truncated above ``max_degree``.

    The truncation is applied while multiplying, so series arguments
    stay cheap; the result is expressed in the basis of ``f``.
    """
    gp = dict(to_power(g).items())
    g_nums, g_den = _common_denominator(gp.values())
    g_int = dict(zip(gp, g_nums))
    g_min = min((k.size for k in gp), default=0)
    outer = [
        (mu, c)
        for mu, c in to_power(f).items()
        if max_degree is None or not g_int or mu.size * g_min <= max_degree
    ]
    # mu's term p_mu[G] * c / g_den^len(mu), over the lcm of those denominators
    den = math.lcm(*(c.denominator * g_den ** len(mu) for mu, c in outer))
    adams: dict[int, list[tuple[int, tuple[int, ...], int]]] = {}
    out: dict[tuple[int, ...], int] = {}
    for mu, c in outer:
        term: dict[tuple[int, ...], int] = {(): 1}
        for m in mu:
            if m not in adams:
                adams[m] = _adams(g_int, m, max_degree)
            term = _pmul(term, adams[m], max_degree)
            if not term:
                break
        scale = c.numerator * (den // (c.denominator * g_den ** len(mu)))
        for key, x in term.items():
            out[key] = out.get(key, 0) + scale * x
    result = SymmetricFunction._raw(
        POWER, {Partition(key): _ratio(x, den) for key, x in out.items() if x}
    )
    return to_schur(result) if f.basis is not POWER else result
