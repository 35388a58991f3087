import json
import math
from fractions import Fraction

import pytest

from arrstab.partitions import LambdaSet, Partition, partitions_of
from arrstab.stability import (
    PsiParams,
    _core_piece,
    _inner_piece,
    StabilityReport,
    general_bound,
    is_stable_step,
    kequal_char,
    kequal_summands,
    lambda_char_smalln,
    lower_pad,
    psi,
    sharp_bound_certified,
    theorem_bounds,
)
from arrstab.symfunc import (
    SCHUR,
    SymmetricFunction,
    e,
    h,
    hook_series,
    lie_series,
    omega,
    pad,
    plethysm,
    schur,
    signed_homology_series,
    to_power,
    to_schur,
)

from helpers import per_n_report


def test_params_validation():
    PsiParams(n=3, q=0, r=1, t=1, d=2, k=3)
    with pytest.raises(ValueError):
        PsiParams(n=0, q=0, r=1, t=1, d=2, k=3)
    with pytest.raises(ValueError):
        PsiParams(n=3, q=-1, r=1, t=1, d=2, k=3)
    with pytest.raises(ValueError):
        PsiParams(n=3, q=0, r=0, t=1, d=2, k=3)
    with pytest.raises(ValueError):
        PsiParams(n=3, q=0, r=1, t=1, d=1, k=3)
    with pytest.raises(ValueError):
        PsiParams(n=3, q=0, r=1, t=1, d=3, k=3)


def test_derived_degree():
    params = PsiParams(n=10, q=2, r=1, t=2, d=2, k=4)
    assert params.i == (10 - 1 - 2) + 2 * 2


def test_psi_vanishing():
    # r > t
    assert not psi(PsiParams(n=8, q=0, r=3, t=2, d=2, k=3))
    assert not psi(PsiParams(n=9, q=1, r=2, t=1, d=3, k=4))
    # t > n/k
    assert not psi(PsiParams(n=5, q=0, r=1, t=2, d=2, k=3))
    assert not psi(PsiParams(n=4, q=0, r=1, t=2, d=2, k=4))


def test_psi_first_nonzero():
    params = PsiParams(n=3, q=0, r=1, t=1, d=2, k=3)
    assert params.i == 3
    value = psi(params)
    assert value == schur((3,))
    assert value.is_nonnegative_integral()


def test_kequal_examples():
    for n in range(1, 9):
        assert not kequal_char(n, 1, 2, 3)
    for n in range(1, 3):
        assert not kequal_char(n, 3, 2, 3)
    assert kequal_char(3, 3, 2, 3) == schur((3,))
    assert kequal_char(4, 3, 2, 3) == schur((4,)) + schur((3, 1))
    # both-odd parity case at the smallest admissible size
    assert kequal_char(5, 11, 3, 5) == e(5)


def test_kequal_summand_enumeration():
    tags = {(p.r, p.t, p.q) for p in kequal_summands(6, 3, 2, 3)}
    assert tags == {(1, 1, 3)}
    assert kequal_summands(2, 3, 2, 3) == []
    for p in kequal_summands(12, 6, 2, 3):
        assert p.i == 6


def test_stable_step():
    assert is_stable_step(schur((3, 1)), schur((2, 1)))
    assert not is_stable_step(schur((2, 2)), schur((2, 1)))
    zero = SymmetricFunction(SCHUR)
    assert is_stable_step(zero, zero)
    assert not is_stable_step(schur((2,)), zero)
    assert not is_stable_step(zero, schur((2,)))
    with pytest.raises(ValueError):
        is_stable_step(schur((3, 1)), schur((1, 1)))


def test_theorem_bounds():
    assert theorem_bounds(2, 3, 3) == {Fraction(6)}
    assert theorem_bounds(2, 8, 13) == {Fraction(26), Fraction(104, 5)}
    assert theorem_bounds(3, 4, 0) == {Fraction(0)}
    assert theorem_bounds(3, 5, 4) == {Fraction(4)}  # odd d: single bound
    with pytest.raises(ValueError):
        theorem_bounds(2, 2, 3)


def test_general_bound():
    assert general_bound(LambdaSet([(2,)]), 5, 3) == Fraction(20, 2)
    assert general_bound(LambdaSet([(3,)]), 5, 3) == 8
    assert general_bound(LambdaSet([(2, 2)]), 1, 2) == 0
    for i in range(4):
        assert general_bound(LambdaSet([(2,)]), i, 2) == 4 * i


def test_certified_bound_small():
    report = sharp_bound_certified(2, 3, 3)
    assert report.sharp_bound == 6
    assert report.horizon == 6
    assert report.certified and not report.vacuous
    assert not report.stable_steps[6]
    assert report.chars[3] == schur((3,))


def test_certified_bound_vacuous():
    report = sharp_bound_certified(2, 4, 4)
    assert report.vacuous
    assert report.sharp_bound is None
    assert report.bound_text() == "vacuous"
    assert all(not ch for ch in report.chars.values())


def test_certified_bound_horizon_limited():
    report = sharp_bound_certified(2, 3, 3, horizon=4)
    assert not report.certified
    assert report.bound_text() == "horizon-limited"
    # step 4 fails inside the short window, but it certifies nothing
    assert not report.stable_steps[4]
    assert report.sharp_bound is None
    report = sharp_bound_certified(2, 4, 4, horizon=3)
    assert not report.certified and report.vacuous
    assert report.bound_text() == "horizon-limited"


def test_report_json_round_trip():
    report = sharp_bound_certified(2, 3, 3)
    blob = json.dumps(report.to_json_obj(), sort_keys=True)
    back = StabilityReport.from_json_obj(json.loads(blob))
    assert back.sharp_bound == report.sharp_bound
    assert back.chars == report.chars
    assert back.stable_steps == report.stable_steps
    assert back.bounds == report.bounds
    assert back.horizon == report.horizon
    # certified, vacuous and horizon-limited rows keep their flags and
    # their sharp bound, which only a certified row has
    rows = [
        (report, 6),
        (sharp_bound_certified(2, 4, 4), None),
        (sharp_bound_certified(2, 3, 3, horizon=4), None),
    ]
    for row, sharp in rows:
        back = StabilityReport.from_json_obj(json.loads(json.dumps(row.to_json_obj())))
        assert back.certified == row.certified
        assert back.vacuous == row.vacuous
        assert back.bound_text() == row.bound_text()
        assert row.sharp_bound == back.sharp_bound == sharp


def test_report_csv_row():
    report = sharp_bound_certified(2, 3, 4)
    assert report.csv_row() == "3,4,7"


def test_lambda_char_smalln_examples():
    lam = LambdaSet([(2,)])
    value = lambda_char_smalln(3, 2, lam, 1)
    assert value == schur((3,)) + schur((2, 1))
    # dimension equals the number of removed hyperplanes
    from arrstab.symfunc import sn_character

    dim = sum(c * sn_character(tuple(key), (1, 1, 1)) for key, c in value.items())
    assert dim == 3
    for n in range(2, 6):
        assert not lambda_char_smalln(n, 2, lam, 0)
    # single-block base at its own size: formula and lattice model agree
    lam3 = LambdaSet([(3,)])
    assert lambda_char_smalln(3, 2, lam3, 3) == kequal_char(3, 3, 2, 3)


def test_degrees_below_first_tabulated_row_are_vacuous():
    # the d=2 tables start at i = 2k-3; everything below is identically zero
    first_row = {3: 3, 4: 5, 5: 7, 6: 9}
    for k, start in first_row.items():
        for i in range(0, start):
            report = sharp_bound_certified(2, k, i)
            assert report.vacuous, (k, i)
        report = sharp_bound_certified(2, k, start)
        assert not report.vacuous, k


def test_summand_degree_independent_of_n():
    # the cached core-series degree of a summand depends on (i, r, t) only
    for d in (2, 3, 4):
        for k in range(d + 1, d + 4):
            for i in range(13):
                seen = {}
                for n in range(1, 21):
                    for p in kequal_summands(n, i, d, k):
                        m = p.n - p.q
                        assert m == p.r + (i - p.t * (k - 2)) // (d - 1), (d, k, i, p)
                        assert seen.setdefault((p.r, p.t), m) == m, (d, k, i, p)


def test_core_piece_matches_untruncated_hook_series():
    top = 16
    for d in (2, 3):
        for k in range(d + 1, 6):
            for t in range(1, top // k + 1):
                for r in range(1, t + 1):
                    inner = _inner_piece(d % 2, k % 2, r, t)
                    # hooks above top - (t-1)k reach no degree <= top, so
                    # every degree up to top of this full plethysm is exact
                    full = plethysm(inner, hook_series(k, top - (t - 1) * k))
                    for m in range(t * k, top + 1):
                        part = full.homogeneous_part(m)
                        if d % 2 == 0:
                            part = omega(part)
                        assert _core_piece(d % 2, k, r, t, m) == to_schur(part), (d, k, r, t, m)


def _three_branch_inner(d_parity, k, r, t):
    """Reference three-branch inner factor: both-odd parities go through
    the signed homology series and a (-1)^t flip.  The r factors of the
    outer function have degree at least 1 each, so series terms above
    t - r + 1 reach no degree <= t and the full plethysm stays small."""
    top = t - r + 1
    if d_parity == 0:
        base = plethysm(to_power(e(r)), lie_series(top))
        if k % 2 == 1:
            base = omega(base)
    elif k % 2 == 0:
        base = plethysm(to_power(h(r)), lie_series(top))
    else:
        base = plethysm(to_power(h(r)), signed_homology_series(top))
        if t % 2 == 1:
            base = -base
    return base.homogeneous_part(t)


def test_inner_piece_one_parity_rule_matches_three_branches():
    # the signed homology series is the sum of (-1)^j omega Lie_j, so in
    # degree t the both-odd branch equals omega(h_r[Lie]_t): the odd-d
    # branch twisted by omega, as for every odd k
    for d_parity in (0, 1):
        for k in range(4, 8):
            for t in range(1, 9):
                for r in range(1, t + 1):
                    expected = _three_branch_inner(d_parity, k, r, t)
                    assert _inner_piece(d_parity, k % 2, r, t) == expected, (d_parity, k, r, t)


def test_kequal_char_matches_sum_of_psi():
    # one pad per piece degree by horizontal strips against the per-summand
    # reference, each summand padded through the Littlewood-Richardson product
    for d in (2, 3, 4):
        for k in range(d + 1, d + 4):
            for n in range(1, 14):
                for i in range(0, d * n + 1):
                    expected = SymmetricFunction(SCHUR)
                    for params in kequal_summands(n, i, d, k):
                        expected = expected + psi(params)
                    assert kequal_char(n, i, d, k) == expected, (n, i, d, k)


def test_lower_pad_is_the_pieri_rest_of_the_pad():
    # strips with a box in row 1 are the (q-1)-strips with that box added
    for size in range(8):
        for lam in partitions_of(size):
            f = schur(lam)
            for q in range(1, 10):
                rest = lower_pad(f, q)
                assert pad(f, q) == pad(f, q - 1).add_box() + rest, (lam, q)
                assert (not rest) == (q > (lam[0] if lam else 0)), (lam, q)


def test_walk_matches_per_n_characters_and_steps():
    for d in (2, 3, 4):
        for k in range(d + 1, d + 5):
            for i in range(15 if d == 2 else 18):
                default = math.floor(min(theorem_bounds(d, k, i)))
                for horizon in (None, default // 2, default + 2):
                    expected = per_n_report(d, k, i, horizon)
                    assert sharp_bound_certified(d, k, i, horizon) == expected, (d, k, i, horizon)
