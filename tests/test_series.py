from fractions import Fraction

import pytest

from arrstab.partitions import Partition
from arrstab.symfunc import (
    POWER,
    SymmetricFunction,
    e,
    h,
    hook_series,
    lie_character,
    lie_series,
    moebius,
    omega,
    p,
    partition_homology_character,
    schur,
    signed_homology_series,
    to_power,
    to_schur,
)
from arrstab.symfunc.series import hook_power_series


def test_moebius():
    values = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 9: 0, 10: 1, 12: 0, 30: -1}
    for n, v in values.items():
        assert moebius(n) == v


def test_lie_character_small():
    assert lie_character(1) == p((1,))
    assert lie_character(2) == SymmetricFunction(
        POWER, {(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)}
    )
    assert to_schur(lie_character(2)) == e(2)
    assert to_schur(lie_character(3)) == schur((2, 1))
    assert to_schur(partition_homology_character(2)) == h(2)
    assert to_schur(partition_homology_character(3)) == schur((2, 1))
    assert partition_homology_character(4) == omega(lie_character(4))


def test_lie_character_dimensions():
    from math import factorial

    # the identity value n! * [p_{1^n}]ch equals the dimension (n-1)!
    for n in range(1, 9):
        coeff = lie_character(n).coefficient((1,) * n)
        assert coeff * factorial(n) == factorial(n - 1)


def test_lie_character_schur_positive_integral():
    for n in range(1, 9):
        f = to_schur(lie_character(n))
        assert f.is_nonnegative_integral(), n


def test_series_truncations():
    s = lie_series(4)
    assert s.homogeneous_part(3) == lie_character(3)
    assert s.degrees() == [1, 2, 3, 4]
    alt = signed_homology_series(3)
    assert alt.homogeneous_part(2) == partition_homology_character(2)
    assert alt.homogeneous_part(3) == -partition_homology_character(3)
    assert alt.homogeneous_part(1) == -p((1,))


def test_hook_series():
    u = hook_series(3, 4)
    assert u == schur((1, 1, 1)) + schur((2, 1, 1))
    assert hook_series(2, 5) == (
        schur((1, 1)) + schur((2, 1)) + schur((3, 1)) + schur((4, 1))
    )
    assert not hook_series(4, 3)
    u9 = hook_series(5, 9)
    assert all(key.conjugate()[0] == 5 for key in u9.support())


def test_hook_power_series_is_hook_series_in_power_basis():
    for k in range(1, 6):
        for top in range(0, 12):
            series = hook_power_series(k, top)
            assert series.basis is POWER
            assert series == to_power(hook_series(k, top)), (k, top)
    with pytest.raises(ValueError):
        hook_power_series(0, 3)
