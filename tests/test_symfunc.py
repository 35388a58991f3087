import json
import random
from fractions import Fraction
from math import factorial

import pytest

from arrstab.partitions import Partition, partitions_of
from arrstab.symfunc import (
    POWER,
    SCHUR,
    SymmetricFunction,
    e,
    from_text,
    h,
    mul,
    omega,
    p,
    schur,
    to_power,
    to_schur,
)
from arrstab.symfunc.characters import character_column, classes, sn_character, zee


def hook_dimension(lam):
    """Standard tableau count by the hook length product."""
    lam = Partition(lam)
    conj = lam.conjugate()
    out = factorial(lam.size)
    for r, row in enumerate(lam):
        for c in range(row):
            out //= (row - c) + (conj[c] - r) - 1
    return out


def random_function(degree, nterms, seed, basis=SCHUR, integral=True):
    rng = random.Random(seed)
    keys = list(partitions_of(degree))
    picked = rng.sample(keys, min(nterms, len(keys)))
    coeffs = (
        [rng.randint(-4, 4) for _ in picked]
        if integral
        else [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in picked]
    )
    return SymmetricFunction(basis, dict(zip(picked, coeffs)))


def test_constructors():
    assert h(3) == schur((3,))
    assert e(3) == schur((1, 1, 1))
    assert h(0) == e(0) == SymmetricFunction(SCHUR, {(): 1})
    assert p((2, 1)).coefficient((2, 1)) == 1
    assert not SymmetricFunction(SCHUR, {(2,): 0})


def test_zero_coefficients_dropped():
    f = schur((2,)) - schur((2,))
    assert not f
    assert f.degree() is None
    assert (f + schur((1,))).support() == [(1,)]


def test_character_values():
    # full character table of S_3, frozen
    assert sn_character((3,), (1, 1, 1)) == 1
    assert sn_character((2, 1), (1, 1, 1)) == 2
    assert sn_character((1, 1, 1), (1, 1, 1)) == 1
    assert sn_character((2, 1), (2, 1)) == 0
    assert sn_character((2, 1), (3,)) == -1
    assert sn_character((1, 1, 1), (2, 1)) == -1
    assert sn_character((1, 1, 1), (3,)) == 1
    # one-row and one-column rows at arbitrary classes
    for mu in partitions_of(6):
        assert sn_character((6,), tuple(mu)) == 1
        assert sn_character((1,) * 6, tuple(mu)) == (-1) ** (6 - len(mu))
    assert zee((1, 1, 1)) == 6
    assert zee((2, 1)) == 2
    assert zee((3,)) == 3
    assert zee((2, 2, 1)) == 8


def test_character_identity_column_is_dimension():
    for n in range(1, 13):
        ident = (1,) * n
        assert character_column(ident) == tuple(hook_dimension(lam) for lam in classes(n))
        for lam in partitions_of(n):
            assert sn_character(tuple(lam), ident) == hook_dimension(lam)


def test_character_columns_orthogonal():
    # sum over lam of chi^lam(mu) chi^lam(nu) = z_mu if mu == nu else 0
    for n in range(13):
        columns = [character_column(mu) for mu in classes(n)]
        for a, mu in enumerate(classes(n)):
            for b in range(a, len(columns)):
                dot = sum(x * y for x, y in zip(columns[a], columns[b]))
                assert dot == (zee(mu) if a == b else 0), (mu, classes(n)[b])


def test_power_of_ones_expands_by_dimensions():
    for n in range(1, 6):
        f = to_schur(p((1,) * n))
        for lam in partitions_of(n):
            assert f.coefficient(lam) == hook_dimension(lam)


def test_schur_to_power_small():
    assert to_power(schur((2,))) == SymmetricFunction(
        POWER, {(1, 1): Fraction(1, 2), (2,): Fraction(1, 2)}
    )
    assert to_schur(p((1, 1))) == schur((2,)) + schur((1, 1))


def test_round_trip_degree_up_to_8():
    for deg in range(0, 9):
        f = random_function(deg, 4, seed=deg, integral=False)
        assert to_schur(to_power(f)) == f
        g = random_function(deg, 4, seed=100 + deg, basis=POWER, integral=False)
        assert to_power(to_schur(g)) == g


def test_round_trip_inhomogeneous_degrees_0_to_9():
    # one value over every degree, so each degree has its own denominator
    f = sum(
        (random_function(deg, 5, seed=200 + deg, integral=False) for deg in range(10)),
        SymmetricFunction(SCHUR),
    )
    assert f.degrees() == list(range(10))
    assert to_schur(to_power(f)) == f
    g = sum(
        (random_function(deg, 5, seed=300 + deg, basis=POWER, integral=False) for deg in range(10)),
        SymmetricFunction(POWER),
    )
    assert g.degrees() == list(range(10))
    assert to_power(to_schur(g)) == g


def test_omega():
    assert omega(h(4)) == e(4)
    assert omega(schur((2, 1))) == schur((2, 1))
    for deg in range(1, 9):
        f = random_function(deg, 4, seed=deg)
        assert omega(omega(f)) == f
        for lam, c in f.items():
            assert omega(f).coefficient(lam.conjugate()) == c
        # power-basis omega agrees with key conjugation
        assert to_schur(omega(to_power(f))) == omega(f)


def test_mul_unit_and_commutativity():
    f = random_function(4, 3, seed=7)
    assert mul(f, SymmetricFunction(SCHUR, {(): 1})) == f
    g = random_function(3, 3, seed=8)
    assert mul(f, g) == mul(g, f)


def test_mul_power_basis_agrees_with_schur_route():
    for seed in range(4):
        f = random_function(3, 3, seed=seed)
        g = random_function(4, 3, seed=50 + seed)
        direct = mul(f, g)
        via_power = to_schur(mul(to_power(f), to_power(g)))
        assert direct == via_power


def test_homogeneous_part():
    f = schur((1,)) + schur((2,))
    assert f.homogeneous_part(2) == schur((2,))
    assert f.homogeneous_part(3) == SymmetricFunction(SCHUR)
    g = random_function(5, 4, seed=3)
    assert g.homogeneous_part(5) == g


def test_add_box():
    assert schur((2, 1)).add_box() == schur((3, 1))
    f = 2 * schur((1, 1)) + 3 * schur((2,))
    assert f.add_box() == 2 * schur((2, 1)) + 3 * schur((3,))
    zero = SymmetricFunction(SCHUR)
    assert zero.add_box() == zero
    with pytest.raises(ValueError):
        (schur((1,)) + schur((2,))).add_box()
    with pytest.raises(ValueError):
        p((2,)).add_box()


def test_text_rendering():
    f = 3 * schur((4, 1)) + schur((3, 2))
    assert f.to_text() == "3*s[4,1] + s[3,2]"
    assert SymmetricFunction(SCHUR).to_text() == "0"
    g = schur((2,)) - 2 * schur((1, 1))
    assert g.to_text() == "s[2] - 2*s[1,1]"
    assert from_text(g.to_text()) == g
    assert from_text("0") == SymmetricFunction(SCHUR)
    frac = SymmetricFunction(POWER, {(2,): Fraction(1, 2)})
    assert from_text(frac.to_text(), POWER) == frac


def test_json_round_trip():
    f = random_function(5, 4, seed=11, integral=False)
    blob = json.dumps(f.to_json_obj())
    back = SymmetricFunction.from_json_obj(json.loads(blob))
    assert back == f


def test_equality_across_bases_only_for_zero():
    assert SymmetricFunction(SCHUR) == SymmetricFunction(POWER)
    assert to_power(h(2)) != h(2)


def test_mul_one_row_pieri_at_degree_thirty():
    expected = SymmetricFunction(SCHUR, {(30 - j, j) if j else (30,): 1 for j in range(16)})
    assert mul(h(15), h(15)) == expected


def test_mul_matches_power_route_degree_ten():
    f = random_function(4, 3, seed=21)
    g = random_function(6, 3, seed=22)
    assert mul(f, g) == to_schur(mul(to_power(f), to_power(g)))
