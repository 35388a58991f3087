import random
from fractions import Fraction

import pytest

from arrstab.oracle import monomial_expand, plethysm_expand
from arrstab.oracle.monomial import evaluate, plethysm_evaluate, poly_mul
from arrstab.partitions import partitions_of
from arrstab.symfunc import (
    POWER,
    SCHUR,
    SymmetricFunction,
    e,
    h,
    mul,
    one,
    p,
    plethysm,
    schur,
    to_power,
    to_schur,
    zero,
)


def test_identity_argument():
    for f in (h(3), e(2), schur((2, 1)), 2 * schur((3,)) - p((1, 1))):
        assert plethysm(f, p((1,))) == f


def test_identity_function():
    for g in (h(2), schur((2, 1)) + schur((1,)), p((3,)) - 2 * p((1,))):
        out = plethysm(h(1), g)
        assert to_power(out) == to_power(g)


def test_power_compose():
    for m in (1, 2, 3):
        for n in (1, 2, 4):
            assert plethysm(p((m,)), p((n,))) == p((m * n,))


def test_h2_of_h2():
    assert plethysm(h(2), h(2)) == schur((4,)) + schur((2, 2))


def test_e2_of_e2():
    assert plethysm(e(2), e(2)) == schur((2, 1, 1))


def test_additive_in_outer():
    g = h(2) + schur((1,))
    f1, f2 = schur((2,)), schur((1, 1))
    lhs = plethysm(f1 + f2, g)
    rhs = plethysm(f1, g) + plethysm(f2, g)
    assert lhs == rhs


def test_multiplicative_in_outer():
    g = schur((2,)) + schur((1, 1))
    f1, f2 = h(2), e(1)
    assert plethysm(mul(f1, f2), g) == mul(plethysm(f1, g), plethysm(f2, g))


def test_scalar_linear_in_inner():
    # p_m picks up rational scalars unchanged
    g = Fraction(2, 3) * p((2,)) - p((1, 1))
    for m in (2, 3):
        direct = plethysm(p((m,)), g)
        expected = Fraction(2, 3) * p((2 * m,)) - p((m, m))
        assert to_power(direct) == expected


def test_truncation_matches_full():
    # the one-degree plethysm is the full one's homogeneous part, for outer
    # functions in either basis, inhomogeneous, one with a constant term,
    # and inner ones with constant, degree-1 and virtual terms, and zero
    fs = [
        h(2),
        e(3) + 2 * schur((2, 1)) - h(1) + one(),
        p((2, 1)) - Fraction(1, 2) * p((3,)) + 3 * p(()),
    ]
    gs = [
        h(1) + h(2) + h(3),
        one() + 2 * h(1),
        schur((2,)) - schur((1, 1)) + h(1),
        p((1,)) - Fraction(2, 3) * p((2,)) + 2 * p(()),
        zero(POWER),
    ]
    for f in fs:
        for g in gs:
            full = plethysm(f, g)
            top = full.degree() or 0
            for m in range(-1, top + 2):
                assert plethysm(f, g, m) == full.homogeneous_part(m), (f, g, m)


def _family():
    return [
        ("h1", h(1)),
        ("h2", h(2)),
        ("e2", e(2)),
        ("p2", p((2,))),
        ("s21", schur((2, 1))),
        ("h3", h(3)),
        ("e3", e(3)),
        ("h4", h(4)),
        ("s22", schur((2, 2))),
    ]


def test_monomial_oracle_agreement():
    for fname, f in _family():
        for gname, g in _family():
            df, dg = f.degree(), g.degree()
            if df * dg > 8:
                continue
            nvars = df * dg
            ours = monomial_expand(plethysm(f, g), nvars)
            oracle = plethysm_expand(f, g, nvars)
            assert ours == oracle, (fname, gname)


def test_degree_four_pairs_by_evaluation():
    # full expansion at 16 variables is large; evaluate at integer points instead
    points = [tuple(range(1, 17)), tuple((i * i + 1) % 11 + 1 for i in range(16))]
    pairs = [(h(4), h(4)), (e(4), h(4)), (schur((2, 2)), schur((3, 1))), (h(4), e(4))]
    for f, g in pairs:
        result = plethysm(f, g)
        for pt in points:
            assert evaluate(result, pt) == plethysm_evaluate(f, g, pt)


def test_product_monomial_oracle():
    rng = random.Random(5)
    keys4 = list(partitions_of(4))
    keys3 = list(partitions_of(3))
    for seed in range(3):
        f = SymmetricFunction(SCHUR, {k: rng.randint(-2, 3) for k in rng.sample(keys4, 3)})
        g = SymmetricFunction(SCHUR, {k: rng.randint(-2, 3) for k in rng.sample(keys3, 3)})
        nvars = 7
        lhs = monomial_expand(mul(f, g), nvars)
        rhs = poly_mul(monomial_expand(f, nvars), monomial_expand(g, nvars))
        assert lhs == rhs


def test_monomial_expand_guard():
    with pytest.raises(ValueError):
        monomial_expand(h(5), 4)
