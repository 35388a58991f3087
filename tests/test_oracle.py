import random
from fractions import Fraction
from math import factorial

import pytest

from arrstab.oracle import (
    OracleLimitError,
    build_pi_lambda,
    interval_homology,
    monomial_expand,
    schur_decompose,
    sw_complement_char,
)
from arrstab.oracle.groups import (
    class_function_to_characteristic,
    conjugacy_classes,
    cycle_type,
    induced_character,
    orientation_sign,
    stabilizer,
    symmetric_group,
)
from arrstab.oracle.homology import IntervalHomology
from arrstab.oracle.linalg import eliminate
from arrstab.partitions import Partition, SetPartition, all_set_partitions
from arrstab.stability import kequal_char
from arrstab.symfunc import (
    e,
    h,
    mul,
    p,
    partition_homology_character,
    plethysm,
    schur,
    to_schur,
)


def full_lattice(n):
    return build_pi_lambda(n, [Partition((2,) + (1,) * (n - 2))])


def test_eliminate_rank_and_kernel():
    rows = [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: -1}]
    rank, kernel = eliminate(rows, 3, want_kernel=True)
    assert rank == 2
    assert len(kernel) == 1
    vec = kernel[0]
    x = {c: Fraction(v, vec.norm) for c, v in vec.entries.items()}
    for row in rows:
        assert sum(x.get(c, 0) * v for c, v in row.items()) == 0


def _dense_rank(rows, ncols):
    """Rank by Gauss-Jordan elimination on a dense Fraction matrix."""
    mat = [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                factor = mat[r][col] / mat[rank][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("seed", range(25))
def test_eliminate_random_sparse_systems(seed):
    rng = random.Random(seed)
    ncols = rng.randint(1, 12)
    rows = [{}]
    for _ in range(rng.randint(0, 14)):
        # randint may draw 0: explicit zero entries stay in the row
        cols = rng.sample(range(ncols), rng.randint(0, min(5, ncols)))
        rows.append({c: rng.randint(-3, 3) for c in cols})
        if rng.random() < 0.3:
            rows.append(dict(rng.choice(rows)))
        if rng.random() < 0.2:
            rows.append({c: -2 * v for c, v in rng.choice(rows).items()})
    rng.shuffle(rows)
    before = [dict(row) for row in rows]
    rank, kernel = eliminate(rows, ncols, want_kernel=True)
    assert rows == before
    assert rank == _dense_rank(rows, ncols)
    assert eliminate(rows, ncols) == (rank, None)
    assert len(kernel) == ncols - rank
    free = {kv.free_col for kv in kernel}
    assert len(free) == len(kernel)
    for kv in kernel:
        assert kv.entries[kv.free_col] == kv.norm != 0
        assert not (free - {kv.free_col}) & kv.entries.keys()
        assert all(0 <= c < ncols for c in kv.entries)
        for row in rows:
            assert sum(v * kv.entries.get(c, 0) for c, v in row.items()) == 0


def test_lattice_two_equal_is_everything():
    lat = full_lattice(4)
    assert len(lat) == 15
    assert lat.types_present() == [
        Partition((2, 1, 1)),
        Partition((2, 2)),
        Partition((3, 1)),
        Partition((4,)),
    ]


def test_lattice_three_one_join_closure():
    lat = build_pi_lambda(4, [Partition((3, 1))])
    assert len(lat) == 6  # bottom, four generators, top
    assert lat.types_present() == [Partition((3, 1)), Partition((4,))]


def test_lattice_two_two_join_closure():
    lat = build_pi_lambda(4, [Partition((2, 2))])
    assert len(lat) == 5  # bottom, three generators, top
    tops = lat.elements_of_type(Partition((4,)))
    assert len(tops) == 1
    mids = lat.elements_of_type(Partition((2, 2)))
    assert len(mids) == 3
    dims, _ = interval_homology(lat, tops[0])
    assert dims == {0: 2}


def test_lattice_limit():
    with pytest.raises(OracleLimitError):
        build_pi_lambda(8, [Partition((2,) + (1,) * 6)])


def test_boundary_squares_to_zero():
    lat = full_lattice(5)
    top = lat.canonical_of_type(Partition((5,)))
    hom = IntervalHomology(lat.open_interval(top))
    for j in range(1, hom.top + 1):
        rows = hom._boundary_rows(j)
        # compose with the previous boundary: image vectors must be cycles
        prev = hom._boundary_rows(j - 1)
        for col in range(hom.chain_count(j)):
            image = {}
            for ridx, row in enumerate(rows):
                if col in row:
                    image[ridx] = row[col]
            acc = {}
            for face, sign in image.items():
                for r2, row2 in enumerate(prev):
                    if face in row2:
                        acc[r2] = acc.get(r2, 0) + sign * row2[face]
            assert all(v == 0 for v in acc.values())


def test_interval_homology_small_lattices():
    lat2 = full_lattice(2)
    dims, char = interval_homology(lat2, lat2.canonical_of_type(Partition((2,))))
    assert dims == {-1: 1}
    assert char.values[-1] == (1, 1)

    lat3 = full_lattice(3)
    dims, char = interval_homology(lat3, lat3.canonical_of_type(Partition((3,))))
    assert dims == {0: 2}
    by_type = {cycle_type(rep): v for (rep, _), v in zip(char.classes, char.values[0])}
    assert by_type == {
        Partition((1, 1, 1)): 2,
        Partition((2, 1)): 0,
        Partition((3,)): -1,
    }

    lat4 = full_lattice(4)
    dims, _ = interval_homology(lat4, lat4.canonical_of_type(Partition((4,))))
    assert dims == {1: 6}


def test_top_homology_dimension_matches_factorial():
    for n in range(3, 7):
        lat = full_lattice(n)
        dims, _ = interval_homology(lat, lat.canonical_of_type(Partition((n,))))
        assert dims == {n - 3: factorial(n - 1)}


def test_euler_characteristic_consistency():
    lat = full_lattice(5)
    for mu in lat.types_present():
        hom = IntervalHomology(lat.open_interval(lat.canonical_of_type(mu)))
        chain_euler = sum(
            (-1) ** j * hom.chain_count(j) for j in range(-1, hom.top + 1)
        )
        hom_euler = sum((-1) ** j * d for j, d in hom.dims.items())
        assert chain_euler == hom_euler


def test_hopf_trace_identity():
    lat = full_lattice(5)
    for mu in [Partition((3, 2)), Partition((4, 1)), Partition((5,))]:
        rep = lat.canonical_of_type(mu)
        hom = IntervalHomology(lat.open_interval(rep))
        for cls in conjugacy_classes(stabilizer(rep)):
            g = cls[0]
            lhs = sum(
                (-1) ** j * hom.trace_on_chains(j, g)
                for j in range(-1, hom.top + 1)
            )
            rhs = sum((-1) ** j * hom.trace(j, g) for j in hom.dims)
            assert lhs == rhs


def test_homology_character_constant_on_classes():
    lat = full_lattice(4)
    rep = lat.canonical_of_type(Partition((4,)))
    hom = IntervalHomology(lat.open_interval(rep))
    for cls in conjugacy_classes(stabilizer(rep)):
        values = {hom.trace(1, g) for g in cls}
        assert len(values) == 1


def test_partition_lattice_top_character_matches_closed_form():
    for n in range(2, 7):
        lat = full_lattice(n)
        top = lat.canonical_of_type(Partition((n,)))
        dims, char = interval_homology(lat, top)
        j = n - 3 if n >= 3 else -1
        values = {}
        for (rep, _), tr in zip(char.classes, char.values[j]):
            values[cycle_type(rep)] = tr
        ch = class_function_to_characteristic(n, values)
        assert to_schur(ch) == to_schur(partition_homology_character(n))


def test_orientation_signs():
    pi = SetPartition(4, [[1, 2], [3], [4]])
    swap = (1, 0, 2, 3)
    for d in (1, 2, 3, 4):
        assert orientation_sign(pi, d, swap) == (-1) ** d
    ident = (0, 1, 2, 3)
    assert orientation_sign(pi, 3, ident) == 1
    # even d is always orientation preserving
    big = SetPartition(5, [[1, 2, 3], [4, 5]])
    for g in stabilizer(big):
        assert orientation_sign(big, 2, g) == 1
        assert orientation_sign(big, 4, g) == 1
    with pytest.raises(ValueError):
        orientation_sign(pi, 2, (2, 1, 0, 3))


def _orientation_det(pi, d, g):
    """Determinant of g on the difference vectors e(m, s) - e(a, s) of
    R^(d*n), a the least element of the block of m and s < d."""
    basis = [(b[0], m, s) for b in pi.blocks for m in b[1:] for s in range(d)]
    index = {vec: j for j, vec in enumerate(basis)}
    anchor = {x: b[0] for b in pi.blocks for x in b}
    size = len(basis)
    mat = [[Fraction(0)] * size for _ in range(size)]
    for j, (a, m, s) in enumerate(basis):
        ga, gm = g[a - 1] + 1, g[m - 1] + 1
        t = anchor[ga]
        # g(e_m - e_a) = (e_gm - e_t) - (e_ga - e_t)
        if gm != t:
            mat[index[(t, gm, s)]][j] += 1
        if ga != t:
            mat[index[(t, ga, s)]][j] -= 1
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if mat[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        for r in range(col + 1, size):
            factor = mat[r][col] / mat[col][col]
            mat[r] = [a - factor * b for a, b in zip(mat[r], mat[col])]
    return det


def test_orientation_sign_matches_determinant():
    for n in range(1, 6):
        for pi in all_set_partitions(n):
            for g in stabilizer(pi):
                for d in (1, 2, 3):
                    assert orientation_sign(pi, d, g) == _orientation_det(pi, d, g)


def test_orientation_constant_on_classes():
    pi = SetPartition(6, [[1, 2, 3], [4, 5, 6]])
    for cls in conjugacy_classes(stabilizer(pi)):
        signs = {orientation_sign(pi, 3, g) for g in cls}
        assert len(signs) == 1


def test_induced_character_trivial_from_young_subgroup():
    classes = conjugacy_classes(stabilizer(SetPartition(3, [[1, 2], [3]])))
    induced = induced_character(classes, [1] * len(classes))
    ch = class_function_to_characteristic(3, induced)
    assert to_schur(ch) == mul(h(2), h(1))


def test_induced_character_sign():
    classes = conjugacy_classes(symmetric_group(4))
    values = [(-1) ** (4 - len(cycle_type(cls[0]))) for cls in classes]
    induced = induced_character(classes, values)
    assert class_function_to_characteristic(4, induced) != 0
    assert to_schur(class_function_to_characteristic(4, induced)) == e(4)


def test_induced_character_trivial_from_wreath_product():
    # the stabilizer of {12}{34} has two classes of cycle type (2, 2):
    # (12)(34) and the two block swaps (13)(24), (14)(23)
    classes = conjugacy_classes(stabilizer(SetPartition(4, [[1, 2], [3, 4]])))
    assert sum(cycle_type(cls[0]) == Partition((2, 2)) for cls in classes) == 2
    induced = induced_character(classes, [1] * len(classes))
    ch = to_schur(class_function_to_characteristic(4, induced))
    assert ch == to_schur(plethysm(h(2), h(2))) == schur((4,)) + schur((2, 2))


def test_sw_pure_braid_rank_one():
    value = sw_complement_char(3, 2, [Partition((2, 1))], 1)
    assert value == schur((3,)) + schur((2, 1))
    # connected complement: no reduced degree-zero classes
    for n in range(2, 6):
        assert not sw_complement_char(n, 2, [Partition((2,) + (1,) * (n - 2))], 0)


def test_sw_vanishing_below_rank_threshold():
    # types have codimension d*rank; degrees below every codim-2 vanish
    assert not sw_complement_char(4, 3, [Partition((2, 1, 1))], 0)
    assert not sw_complement_char(4, 3, [Partition((4,))], 5)


def test_sw_matches_formula_anchor():
    types = [Partition((3,))]
    assert sw_complement_char(3, 2, types, 3) == kequal_char(3, 3, 2, 3)


def test_sw_matches_formula_k3_n7():
    types = [Partition((3, 1, 1, 1, 1))]
    for i in range(14):
        assert kequal_char(7, i, 2, 3) == sw_complement_char(7, 2, types, i, limit=7)


def test_sw_limit():
    with pytest.raises(OracleLimitError):
        sw_complement_char(7, 2, [Partition((2,) + (1,) * 5)], 1)


def test_monomial_expand_examples():
    assert monomial_expand(schur((1, 1)), 2) == {(1, 1): 1}
    assert monomial_expand(h(2), 2) == {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    assert monomial_expand(p((2,)), 2) == {(2, 0): 1, (0, 2): 1}


def test_schur_decompose():
    poly = monomial_expand(mul(schur((2,)), schur((1,))), 3)
    assert schur_decompose(poly, 3) == {
        Partition((3,)): 1,
        Partition((2, 1)): 1,
    }


def test_lattice_order_relation_properties():
    for n in (3, 4, 5):
        lat = full_lattice(n)
        below = lat.strictly_below
        size = len(lat)
        for i in range(size):
            assert i not in below[i]
            for j in below[i]:
                assert i not in below[j]  # antisymmetry
                assert below[j] <= below[i]  # transitivity
        bottom = 0
        for i in range(1, size):
            assert bottom in below[i]


def test_equivariant_character_identity_value_is_dimension():
    lat = full_lattice(5)
    for mu in lat.types_present():
        rep = lat.canonical_of_type(mu)
        dims, char = interval_homology(lat, rep)
        for j, dim in dims.items():
            assert char.dimension(j) == dim
