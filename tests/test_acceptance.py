"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import csv
import io
import math
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import lru_cache

from arrstab.cli import main
from arrstab.oracle import sw_complement_char
from arrstab.partitions import LambdaSet, Partition, partitions_of
from arrstab.stability import (
    is_stable_step,
    general_bound,
    kequal_char,
    sharp_bound_certified,
    theorem_bounds,
)
from arrstab.symfunc import (
    POWER,
    SCHUR,
    SymmetricFunction,
    e,
    h,
    lie_character,
    lr_coeff,
    lr_expand,
    lr_tableaux,
    mul,
    omega,
    p,
    phi_shift,
    phi_unshift,
    plethysm,
    schur,
    to_power,
    to_schur,
)

from helpers import check_first_row_bound, check_summand_laws, criterion
from monomial import evaluate, monomial_expand, plethysm_evaluate, plethysm_expand, poly_mul

TABLE_CASES = {3: {3: 6, 4: 7, 5: 8, 6: 11}, 4: {5: 8, 6: 9, 7: 10, 8: 11}}


@lru_cache(maxsize=None)
def table_reports():
    return {
        (k, i): sharp_bound_certified(2, k, i)
        for k, degrees in TABLE_CASES.items()
        for i in degrees
    }


@lru_cache(maxsize=None)
def oracle_grid():
    """Formula and lattice-model values over the full comparison grid."""
    rows = []
    for d in (2, 3):
        for k in (d + 1, d + 2):
            for n in range(k, 7):
                types = [Partition((k,)).pad_to(n)]
                for i in range(0, d * n + 2):
                    formula = kequal_char(n, i, d, k)
                    lattice = sw_complement_char(n, d, types, i)
                    rows.append(((d, k, n, i), formula, lattice))
    return rows


@lru_cache(maxsize=None)
def lambda_grid():
    """Lattice-model sequences for the three base sets, both dimensions."""
    out = {}
    for base in ((2,), (3,), (2, 2)):
        lam = LambdaSet([base])
        for d in (2, 3):
            for n in range(lam.n0, 7):
                for i in range(0, d * n):
                    out[(base, d, n, i)] = sw_complement_char(
                        n, d, lam.extended(n), i
                    )
    return out


def _run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue()


def test_criterion_1_table_reproduction():
    with criterion(1, "table reproduction"):
        code, out = _run_cli(
            "table", "--d", "2", "--k", "3", "--i", "3..6", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines() == ["k,i,bound", "3,3,6", "3,4,7", "3,5,8", "3,6,11"]
        code, out = _run_cli(
            "table", "--d", "2", "--k", "4", "--i", "5..8", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines() == ["k,i,bound", "4,5,8", "4,6,9", "4,7,10", "4,8,11"]
        for (k, i), report in table_reports().items():
            assert report.certified
            assert report.sharp_bound == TABLE_CASES[k][i]


def test_criterion_2_sharpness_certification():
    with criterion(2, "sharpness certification"):
        for (k, i), report in table_reports().items():
            bound = TABLE_CASES[k][i]
            window = math.floor(min(theorem_bounds(2, k, i)))
            assert report.horizon == window
            # fails exactly at the bound, holds through the proven window;
            # past the window stability is guaranteed by the rational bounds
            assert report.stable_steps[bound] is False
            for n in range(bound + 1, window + 1):
                assert report.stable_steps[n] is True, (k, i, n)
            for n in range(2, window + 1):
                assert report.stable_steps[n] == is_stable_step(
                    report.chars[n], report.chars[n - 1]
                )


def test_criterion_3_formula_vs_lattice_model():
    with criterion(3, "formula vs lattice model"):
        rows = oracle_grid()
        assert any(case[:3] == (3, 5, 5) for case, _, _ in rows)
        nonzero = 0
        for case, formula, lattice in rows:
            assert formula == lattice, case
            nonzero += bool(formula)
        assert nonzero >= 20


def test_criterion_4_general_base_stabilization():
    with criterion(4, "general base stabilization"):
        values = lambda_grid()
        checked = 0
        for base in ((2,), (3,), (2, 2)):
            lam = LambdaSet([base])
            for d in (2, 3):
                for i in range(0, 6 * d):
                    bound = general_bound(lam, i, d)
                    for n in range(lam.n0 + 1, 7):
                        if n <= bound:
                            continue
                        prev = values.get((base, d, n - 1, i))
                        here = values.get((base, d, n, i))
                        if prev is None or here is None:
                            continue
                        assert is_stable_step(here, prev), (base, d, n, i)
                        checked += 1
        assert checked >= 40


def _one_row_shapes(n, alpha):
    return Partition(x for x in (n,) + tuple(alpha) if x > 0)


def test_criterion_5_one_row_sharpness_and_shift_bijection():
    with criterion(5, "one-row product sharpness and shift bijection"):
        lams = [lam for size in range(0, 7) for lam in partitions_of(size)]
        alphas = [a for size in range(0, 5) for a in partitions_of(size)]
        for lam in lams:
            for alpha in alphas:
                bound = (lam[0] if lam else 0) + (alpha[0] if alpha else 0)
                lo = (alpha[0] if alpha else 0) + 1
                for n in range(lo, bound + 4):
                    big = mul(schur(_one_row_shapes(n, alpha)), schur(lam))
                    small = mul(schur(_one_row_shapes(n - 1, alpha)), schur(lam))
                    stable = big == small.add_box()
                    assert stable == (n > bound), (lam, alpha, n)
                    if n > bound and lam:
                        _check_shift_bijection(n, alpha, lam, big, small)


def _check_shift_bijection(n, alpha, lam, big, small):
    inner = _one_row_shapes(n, alpha)
    small_coeffs = {key: c for key, c in small.items()}
    for nu, coeff in big.items():
        tableaux = list(lr_tableaux(nu, inner, lam))
        assert len(tableaux) == coeff, (n, alpha, lam, nu)
        images = [phi_shift(t) for t in tableaux]
        assert len(set(images)) == len(images)
        nu_small = Partition(x for x in (nu[0] - 1,) + tuple(nu[1:]) if x > 0)
        assert all(t.outer == nu_small and t.weight == Partition(lam) for t in images)
        assert len(images) == small_coeffs.get(nu_small, 0)
        for t in images:
            assert phi_unshift(t) in tableaux


def test_criterion_6_summand_property_suite():
    with criterion(6, "summand property suite"):
        for d in (2, 3):
            for k in range(d + 1, 7):
                check_summand_laws(d, k, 12)
                if d % 2 == 0:
                    check_first_row_bound(d, k, 12)


def test_criterion_7_kernel_properties():
    with criterion(7, "kernel properties"):
        import random

        rng = random.Random(42)
        # involution and conjugation
        for deg in range(1, 9):
            keys = list(partitions_of(deg))
            f = SymmetricFunction(
                SCHUR, {key: rng.randint(-3, 3) for key in rng.sample(keys, min(4, len(keys)))}
            )
            assert omega(omega(f)) == f
            for key, c in f.items():
                assert omega(f).coefficient(key.conjugate()) == c
            assert to_schur(to_power(f)) == f
            g = SymmetricFunction(
                POWER,
                {
                    key: Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                    for key in rng.sample(keys, min(4, len(keys)))
                },
            )
            assert to_power(to_schur(g)) == g
        assert omega(h(4)) == e(4)
        # product symmetry through tableau counts
        for a, b in [((3, 1), (2, 2)), ((2, 1), (2, 1, 1)), ((4, 2), (1, 1))]:
            a, b = Partition(a), Partition(b)
            for nu in partitions_of(a.size + b.size):
                assert lr_coeff(a, b, nu) == lr_coeff(b, a, nu)
        # products against the monomial oracle, total degree <= 8
        for seed in range(6):
            da = rng.randint(1, 4)
            db = rng.randint(1, 8 - da)
            fa = SymmetricFunction(
                SCHUR,
                {key: rng.randint(-2, 3) for key in rng.sample(list(partitions_of(da)), min(3, len(list(partitions_of(da)))))},
            )
            fb = SymmetricFunction(
                SCHUR,
                {key: rng.randint(-2, 3) for key in rng.sample(list(partitions_of(db)), min(3, len(list(partitions_of(db)))))},
            )
            nvars = da + db
            assert monomial_expand(mul(fa, fb), nvars) == poly_mul(
                monomial_expand(fa, nvars), monomial_expand(fb, nvars)
            )
        # plethysm ring identities
        gs = [h(2), schur((2, 1)) + schur((1,)), p((2,)) - 2 * p((1,))]
        for g in gs:
            assert plethysm(h(1), g) == (to_schur(g) if g.basis is POWER else g)
            assert plethysm(h(2) + e(2), g) == plethysm(h(2), g) + plethysm(e(2), g)
            assert plethysm(mul(h(1), h(2)), g) == mul(plethysm(h(1), g), plethysm(h(2), g))
        for m in (2, 3):
            for n in (2, 5):
                assert plethysm(p((m,)), p((n,))) == p((m * n,))
        assert plethysm(h(2), h(2)) == schur((4,)) + schur((2, 2))
        # plethysm against the monomial oracle, both arguments degree <= 4
        family = [h(1), h(2), e(2), p((2,)), schur((2, 1)), h(3), e(3), h(4), schur((2, 2))]
        for f in family:
            for g in family:
                if f.degree() * g.degree() > 8:
                    continue
                nvars = f.degree() * g.degree()
                assert monomial_expand(plethysm(f, g), nvars) == plethysm_expand(f, g, nvars)
        points = [tuple(range(1, 17)), tuple((7 * i) % 13 + 1 for i in range(16))]
        for f, g in [(h(4), h(4)), (e(4), schur((3, 1))), (schur((2, 2)), e(4))]:
            result = plethysm(f, g)
            for pt in points:
                assert evaluate(result, pt) == plethysm_evaluate(f, g, pt)


def test_criterion_8_positivity_and_integrality():
    with criterion(8, "positivity and integrality"):
        seen = 0
        for report in table_reports().values():
            for char in report.chars.values():
                assert char.is_nonnegative_integral()
                seen += bool(char)
        for case, formula, lattice in oracle_grid():
            assert formula.is_nonnegative_integral(), case
            assert lattice.is_nonnegative_integral(), case
        for key, value in lambda_grid().items():
            assert value.is_nonnegative_integral(), key
            seen += bool(value)
        assert seen > 50
