"""Monomial-expansion reference for products and plethysms.

Expands symmetric functions into explicit polynomials: Schur keys by
enumerating semistandard fillings, power keys as products of power-sum
polynomials.  Faithful whenever the variable count is at least the
degree, which the entry point enforces.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Mapping

from arrstab.partitions import Partition
from arrstab.symfunc import SymmetricFunction, to_power
from arrstab.symfunc.core import POWER, Coeff, _norm

Poly = dict[tuple[int, ...], Coeff]


def poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            s = _norm(out.get(key, 0) + ca * cb)
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
    return out


def _poly_one(nvars: int) -> Poly:
    return {(0,) * nvars: 1}


@cache
def power_poly(m: int, nvars: int) -> Poly:
    out: Poly = {}
    for v in range(nvars):
        exp = [0] * nvars
        exp[v] = m
        out[tuple(exp)] = 1
    return out


@cache
def schur_poly(lam: Partition, nvars: int) -> Poly:
    """Schur polynomial as a sum over semistandard fillings."""
    lam = Partition(lam)
    if len(lam) > nvars:
        return {}
    out: Poly = {}
    rows: list[list[int]] = [[] for _ in lam]

    def rec(r: int, c: int, counts: list[int]) -> None:
        if r == len(lam):
            out[tuple(counts)] = out.get(tuple(counts), 0) + 1
            return
        if c == lam[r]:
            rec(r + 1, 0, counts)
            return
        lo = rows[r][c - 1] if c > 0 else 1
        if r > 0:
            lo = max(lo, rows[r - 1][c] + 1)
        for v in range(lo, nvars + 1):
            rows[r].append(v)
            counts[v - 1] += 1
            rec(r, c + 1, counts)
            counts[v - 1] -= 1
            rows[r].pop()

    rec(0, 0, [0] * nvars)
    return out


def monomial_expand(f: SymmetricFunction, nvars: int) -> Poly:
    """Exact polynomial image of ``f`` in ``nvars`` variables.

    Raises when the variable count is below the degree, since the image
    would then not determine the function.
    """
    deg = f.degree()
    if deg is not None and nvars < deg:
        raise ValueError(f"need at least {deg} variables, got {nvars}")
    out: Poly = {}
    for key, c in f.items():
        if f.basis is POWER:
            poly = _poly_one(nvars)
            for m in key:
                poly = poly_mul(poly, power_poly(m, nvars))
        else:
            poly = schur_poly(key, nvars)
        for exp, pc in poly.items():
            s = _norm(out.get(exp, 0) + c * pc)
            if s == 0:
                out.pop(exp, None)
            else:
                out[exp] = s
    return out


def plethysm_expand(f: SymmetricFunction, g: SymmetricFunction, nvars: int) -> Poly:
    """Plethysm oracle: substitute the monomials of ``g`` into the power
    sums of ``f``.

    ``g`` must expand with nonnegative integer coefficients (a genuine
    sum of monomials); p_m then raises every monomial to the m-th power.
    """
    gpoly = monomial_expand(g, nvars)
    if any(not isinstance(c, int) or c < 0 for c in gpoly.values()):
        raise ValueError("plethysm oracle needs a monomial-positive inner function")
    out: Poly = {}
    for key, c in to_power(f).items():
        poly = _poly_one(nvars)
        for m in key:
            pm = {tuple(x * m for x in exp): cc for exp, cc in gpoly.items()}
            poly = poly_mul(poly, pm)
        for exp, pc in poly.items():
            s = _norm(out.get(exp, 0) + c * pc)
            if s == 0:
                out.pop(exp, None)
            else:
                out[exp] = s
    return out


def evaluate(f: SymmetricFunction, point: tuple[int, ...]) -> Fraction:
    """Exact evaluation at an integer point, through the power basis."""
    total = Fraction(0)
    for key, c in to_power(f).items():
        prod = Fraction(c)
        for m in key:
            prod *= sum(x**m for x in point)
        total += prod
    return total


def plethysm_evaluate(
    f: SymmetricFunction, g: SymmetricFunction, point: tuple[int, ...]
) -> Fraction:
    """Evaluate f[g] at a point via monomial substitution in g.

    p_m composed with g is g evaluated at the m-th powers of the point,
    read off g's monomial expansion; independent of the plethysm code.
    """
    gpoly = monomial_expand(g, len(point))

    def g_at(powered: tuple[int, ...]) -> Fraction:
        total = Fraction(0)
        for exp, c in gpoly.items():
            term = Fraction(c)
            for x, a in zip(powered, exp):
                if a:
                    term *= x**a
            total += term
        return total

    total = Fraction(0)
    for key, c in to_power(f).items():
        prod = Fraction(c)
        for m in key:
            prod *= g_at(tuple(x**m for x in point))
        total += prod
    return total


def schur_decompose(poly: Poly, nvars: int) -> dict[Partition, Coeff]:
    """Decompose a symmetric polynomial into Schur polynomials greedily.

    Repeatedly strips the lexicographically largest exponent (its sorted
    form is the leading partition).  Faithful for symmetric input with
    nvars at least the degree.
    """
    work = dict(poly)
    out: dict[Partition, Coeff] = {}
    while work:
        exp = max(work)
        coeff = work[exp]
        lam = Partition(sorted((x for x in exp if x), reverse=True))
        if tuple(sorted(exp, reverse=True)) != tuple(lam) + (0,) * (nvars - len(lam)):
            raise ValueError("leading exponent is not dominant; input not symmetric?")
        out[lam] = coeff
        for sexp, sc in schur_poly(lam, nvars).items():
            s = _norm(work.get(sexp, 0) - coeff * sc)
            if s == 0:
                work.pop(sexp, None)
            else:
                work[sexp] = s
    return out
