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

Asked for one degree, the product p_mu[G] = p_mu1[G] p_mu2[G] ... is
cut while it is multiplied: every factor of G has degree at least
min_deg(G), so a factor keeps only the terms that leave room for the
factors still to come, and the last factor only the terms of exactly
the missing size.
"""

from __future__ import annotations

import math

from ..partitions import Partition
from .core import POWER, SymmetricFunction, _common_denominator, _ratio, to_power, to_schur


# integer terms grouped by size: size -> key -> coefficient, and p_m[G]
# as size -> [(key, coefficient)] in ascending size
Terms = dict[int, dict[tuple[int, ...], int]]
Factor = dict[int, list[tuple[tuple[int, ...], int]]]


def _adams(g_items: list[tuple[int, tuple[int, ...], int]], m: int, top: float) -> Factor:
    """p_m[G] up to size ``top``; ``g_items`` is G as (size, key,
    coefficient) in ascending size."""
    out: Factor = {}
    for size, key, c in g_items:
        if size * m > top:
            break
        out.setdefault(size * m, []).append((tuple(x * m for x in key) if m > 1 else key, c))
    return out


def _pmul(a: Terms, b: Factor, budget: float, exact: bool) -> Terms:
    """Product of ``a`` with an ``_adams`` factor, keeping product terms
    of size at most ``budget``, or exactly ``budget`` when ``exact``."""
    out: Terms = {}
    for s1, group1 in a.items():
        room = budget - s1
        if exact:
            factor = [(room, b[room])] if room in b else []
        else:
            factor = [(s2, group2) for s2, group2 in b.items() if s2 <= room]
        for s2, group2 in factor:
            dest = out.setdefault(s1 + s2, {})
            for k1, c1 in group1.items():
                for k2, c2 in group2:
                    key = tuple(sorted(k1 + k2, reverse=True))
                    dest[key] = dest.get(key, 0) + c1 * c2
    return {
        size: kept for size, group in out.items() if (kept := {k: c for k, c in group.items() if c})
    }


def plethysm(
    f: SymmetricFunction, g: SymmetricFunction, degree: int | None = None
) -> SymmetricFunction:
    """Plethysm f[g], or only its homogeneous degree-``degree`` part.

    The degree is applied while multiplying, so series arguments stay
    cheap; the result is expressed in the basis of ``f``.
    """
    gp = dict(to_power(g).items())
    g_nums, g_den = _common_denominator(gp.values())
    g_items = sorted(((key.size, key, c) for key, c in zip(gp, g_nums)), key=lambda item: item[0])
    g_min = g_items[0][0] if g_items else 0
    top = math.inf if degree is None else degree
    outer = [
        (mu, c)
        for mu, c in to_power(f).items()
        if degree is None or (mu.size * g_min <= degree if mu else degree == 0)
    ]
    # mu's term p_mu[G] * c / g_den^len(mu), over the lcm of those denominators
    den = math.lcm(*(c.denominator * g_den ** len(mu) for mu, c in outer))
    adams: dict[int, Factor] = {}
    out: dict[tuple[int, ...], int] = {}
    for mu, c in outer:
        term: Terms = {0: {(): 1}}
        rest = mu.size
        for j, m in enumerate(mu):
            if m not in adams:
                adams[m] = _adams(g_items, m, top)
            rest -= m
            last = degree is not None and j == len(mu) - 1
            term = _pmul(term, adams[m], top - g_min * rest, last)
            if not term:
                break
        scale = c.numerator * (den // (c.denominator * g_den ** len(mu)))
        for group in term.values():
            for key, x in group.items():
                out[key] = out.get(key, 0) + scale * x
    result = SymmetricFunction._raw(
        POWER, {Partition(key): _ratio(x, den) for key, x in out.items() if x}
    )
    return to_schur(result) if f.basis is not POWER else result
