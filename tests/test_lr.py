from fractions import Fraction

import pytest

from arrstab.partitions import Partition, partitions_of
from arrstab.symfunc import (
    LRTableau,
    SCHUR,
    SymmetricFunction,
    h,
    lr_coeff,
    lr_expand,
    lr_tableaux,
    mul,
    pad,
    phi_shift,
    phi_unshift,
    schur,
)


def test_single_box_product():
    assert dict(lr_expand(Partition((1,)), Partition((1,)))) == {
        Partition((2,)): 1,
        Partition((1, 1)): 1,
    }
    assert lr_coeff((1,), (1,), (2,)) == 1


def test_pieri_row():
    f = mul(schur((3, 1)), h(2))
    assert f == (
        schur((5, 1))
        + schur((4, 2))
        + schur((4, 1, 1))
        + schur((3, 3))
        + schur((3, 2, 1))
    )


def test_pad_matches_mul_by_one_row():
    shapes = [lam for size in range(9) for lam in partitions_of(size)]
    for q in range(7):
        for lam in shapes:
            assert pad(schur(lam), q) == mul(schur(lam), h(q)), (lam, q)
        # rational and cancelling coefficients, several degrees at once
        f = SymmetricFunction(
            SCHUR, {(2, 1): Fraction(1, 2), (3,): Fraction(1, 2), (1, 1): -2, (): 3}
        )
        assert pad(f, q) == mul(f, h(q)), q


def test_pad_matches_tableau_counts():
    # the enumerator fills cells one by one and shares no code with the
    # strip routine behind both pad and lr_expand
    for size in range(7):
        for lam in partitions_of(size):
            for q in range(1, 5):
                padded = pad(schur(lam), q)
                for nu in partitions_of(size + q):
                    assert padded.coefficient(nu) == lr_coeff(lam, (q,), nu), (lam, q, nu)


def test_expand_matches_enumerator():
    pairs = [
        ((3, 2), (2, 1, 1)),
        ((2, 2), (2, 2)),
        ((4, 1), (3, 2)),
        ((2, 1, 1), (2, 1)),
    ]
    for a, b in pairs:
        a, b = Partition(a), Partition(b)
        expansion = dict(lr_expand(a, b))
        for nu in partitions_of(a.size + b.size):
            assert expansion.get(nu, 0) == lr_coeff(a, b, nu)


def test_coeff_symmetry():
    for a, b in [((3, 1), (2, 2)), ((2, 1), (3, 2, 1)), ((4,), (2, 1, 1))]:
        a, b = Partition(a), Partition(b)
        for nu in partitions_of(a.size + b.size):
            assert lr_coeff(a, b, nu) == lr_coeff(b, a, nu)


def test_coeff_errors_and_guards():
    with pytest.raises(ValueError):
        lr_coeff((2,), (2,), (3,))
    assert lr_coeff((3,), (1,), (2, 2)) == 0  # inner not contained
    assert list(lr_tableaux(Partition((2, 2)), Partition(()), Partition((1, 1)))) == []


def test_single_cell_tableau():
    ts = list(lr_tableaux(Partition((2,)), Partition((1,)), Partition((1,))))
    assert len(ts) == 1
    assert ts[0].rows == ((1,),)


def test_three_row_example_contains_known_filling():
    outer, inner, weight = Partition((6, 4, 1)), Partition((5, 1, 1)), Partition((3, 1))
    ts = list(lr_tableaux(outer, inner, weight))
    assert LRTableau(outer, inner, ((1,), (1, 1, 2), ())) in ts
    assert all(t.weight == weight for t in ts)


def test_tableau_validation():
    with pytest.raises(ValueError):
        LRTableau(Partition((2,)), Partition(()), ((2, 1),))  # row decreases
    with pytest.raises(ValueError):
        LRTableau(Partition((1, 1)), Partition(()), ((1,), (1,)))  # column repeats
    with pytest.raises(ValueError):
        LRTableau(Partition((1, 1)), Partition(()), ((2,), (3,)))  # not lattice


def test_shift_on_known_filling():
    t = LRTableau(Partition((6, 4, 1)), Partition((5, 1, 1)), ((1,), (1, 1, 2), ()))
    s = phi_shift(t)
    assert s.outer == (5, 4, 1)
    assert s.inner == (4, 1, 1)
    assert s.rows == t.rows
    assert phi_unshift(s) == t


def test_shift_without_filled_first_row():
    t = LRTableau(Partition((3, 1)), Partition((3,)), ((), (1,)))
    s = phi_shift(t)
    assert s.outer == (2, 1) and s.inner == (2,)
    assert s.rows == ((), (1,))


def test_shift_requires_room():
    t = LRTableau(Partition((2, 2)), Partition((2,)), ((), (1, 1)))
    with pytest.raises(ValueError):
        phi_shift(t)  # inner_1 equals weight_1


def test_shift_bijection_midsize():
    lam, alpha = Partition((3, 1)), Partition((1, 1))
    for n in range(lam[0] + alpha[0] + 1, lam[0] + alpha[0] + 3):
        inner = Partition((n,) + tuple(alpha))
        smaller = Partition((n - 1,) + tuple(alpha))
        support = dict(lr_expand(inner, lam))
        for nu, coeff in support.items():
            ts = list(lr_tableaux(nu, inner, lam))
            assert len(ts) == coeff
            images = [phi_shift(t) for t in ts]
            assert len(set(images)) == len(images)
            nu_small = Partition((nu[0] - 1,) + tuple(nu[1:]))
            expected = list(lr_tableaux(nu_small, smaller, lam))
            assert sorted(t.rows for t in images) == sorted(t.rows for t in expected)
            for t in images:
                assert phi_unshift(t) in ts


def test_stability_of_one_row_products():
    lam = Partition((2, 1))
    alpha = Partition((1,))
    bound = lam[0] + alpha[0]
    for n in range(alpha[0] + 1, bound + 4):
        big = mul(schur(Partition((n,) + tuple(alpha))), schur(lam))
        small = mul(schur(Partition((n - 1,) + tuple(alpha))), schur(lam))
        assert (big == small.add_box()) == (n > bound)
