"""Shared checkers for the acceptance suite."""

import math
from contextlib import contextmanager

from arrstab.stability import (
    PsiParams,
    StabilityReport,
    is_stable_step,
    kequal_char,
    psi,
    psi_degree_part,
    theorem_bounds,
)


@contextmanager
def criterion(number, name):
    """Print one pass/fail line per acceptance criterion."""
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL", flush=True)
        raise
    print(f"criterion {number} ({name}): PASS", flush=True)


def check_summand_laws(d, k, n_max):
    """Recursion and vanishing laws of the summands, exhaustively."""
    cache = {}

    def value(n, q, r, t):
        key = (n, q, r, t)
        if key not in cache:
            cache[key] = psi(PsiParams(n=n, q=q, r=r, t=t, d=d, k=k))
        return cache[key]

    for n in range(1, n_max + 1):
        for q in range(0, n + 1):
            for t in range(1, n + 1):
                for r in range(1, n + 1):
                    params = PsiParams(n=n, q=q, r=r, t=t, d=d, k=k)
                    i = params.i
                    here = value(n, q, r, t)
                    if r > t or t * k > n:
                        assert not here, (d, k, n, q, r, t)
                    if n >= 2 and 2 * q > n:
                        assert here == value(n - 1, q - 1, r, t).add_box(), (d, k, n, q, r, t)
                    if d % 2 == 0 and n >= 2 and q > t * k:
                        assert here == value(n - 1, q - 1, r, t).add_box(), (d, k, n, q, r, t)
                    if 2 * q <= n and n * (d - 1) > 2 * i:
                        assert not here, (d, k, n, q, r, t)
                    if k >= d + 2 and q <= t * k and n * (k - d - 1) > k * i:
                        assert not here, (d, k, n, q, r, t)


def check_first_row_bound(d, k, n_max):
    """Every Schur key of the even-d degree part has first row <= t*k."""
    assert d % 2 == 0
    for n in range(k, n_max + 1):
        for q in range(0, n + 1):
            for t in range(1, n // k + 1):
                for r in range(1, t + 1):
                    part = psi_degree_part(PsiParams(n=n, q=q, r=r, t=t, d=d, k=k))
                    for key in part.support():
                        assert key[0] <= t * k, (d, k, n, q, r, t, key)


def per_n_report(d, k, i, horizon=None):
    """The reference for the degree-piece walk of ``sharp_bound_certified``:
    every characteristic from ``kequal_char`` at its own n, every step by
    comparing neighbours with ``is_stable_step``."""
    bounds = tuple(sorted(theorem_bounds(d, k, i)))
    window = math.floor(min(bounds)) if horizon is None else horizon
    chars = {n: kequal_char(n, i, d, k) for n in range(1, window + 1)}
    steps = {n: is_stable_step(chars[n], chars[n - 1]) for n in range(2, window + 1)}
    report = StabilityReport(d, k, i, window, bounds, chars, steps, sharp_bound=None)
    if report.certified:
        report.sharp_bound = max((n for n, ok in steps.items() if not ok), default=None)
    return report


def echelon_mod2(columns):
    """Reference boundary reduction over GF(2), each column the set of
    its rows, reduced left to right by symmetric differences with the
    pivot of its largest row; returns the echelon, each pivot row mapped
    to the reduced column whose low it is.  Its size is the rank."""
    echelon = {}
    for col in columns:
        while col:
            low = max(col)
            pivot = echelon.get(low)
            if pivot is None:
                echelon[low] = col
                break
            col ^= pivot
    return echelon


def trace_on_chains(hom, degree, perm):
    """Number of chains of an ``IntervalHomology`` in ``degree`` that
    the permutation fixes pointwise: its trace on the chain group."""
    if degree == -1:
        return 1
    fixed = hom._fixed_vertices(perm)
    return sum(1 for s in hom.simplices.get(degree, ()) if all(map(fixed.__getitem__, s)))


def chain_index(hom, j):
    """Each j-chain of an ``IntervalHomology`` mapped to its index."""
    return {s: c for c, s in enumerate(hom.simplices.get(j, ()))}


def boundary_columns(hom, j):
    """The boundary of each j-chain of an ``IntervalHomology`` as a
    column over the indices of the (j-1)-chains."""
    faces = chain_index(hom, j - 1)
    return [
        {faces[s[:pos] + s[pos + 1 :]]: -1 if pos % 2 else 1 for pos in range(len(s))}
        for s in hom.simplices.get(j, ())
    ]


def cocycle_store(hom, degree):
    """The coboundary echelon into ``degree`` of an ``IntervalHomology``
    and its essential cocycles, from its passes rerun up to that degree
    (the store that ``__init__`` keeps for every degree with homology
    but the Lefschetz degree)."""
    taken = {(0,): {(v,): 1 for v in range(len(hom.vertices))}}
    for j in range(degree + 1):
        cocycles = {}
        echelon, taken = taken, hom._coboundary_lows(j, taken, cocycles)
    return echelon, cocycles
