import random
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import factorial

import pytest

from arrstab.oracle import (
    OracleLimitError,
    _orbits,
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
    stabilizer_classes,
    stabilizer_generators,
    stabilizer_order,
    symmetric_group,
)
from arrstab.oracle.homology import IntervalHomology
from arrstab.oracle.linalg import combine, eliminate
from arrstab.oracle.posets import labels_of_type
from arrstab.partitions import LambdaSet, Partition, SetPartition, all_set_partitions, partitions_of
from arrstab.stability import kequal_char, lambda_char_smalln
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
from helpers import echelon_mod2, trace_on_chains


def classes_of(pi):
    return conjugacy_classes(stabilizer(pi), stabilizer_generators(pi))


def full_lattice(n):
    return build_pi_lambda(n, [Partition((2,) + (1,) * (n - 2))])


def test_eliminate_rank_and_kernel():
    columns = [{0: 1, 2: 1}, {0: 1, 1: 1}, {1: 1, 2: -1}]
    echelon, relations = eliminate(columns)
    assert len(echelon) == 2
    assert list(relations) == [2]
    rel = relations[2]
    assert max(rel) == 2
    for r in range(3):
        assert sum(v * columns[c].get(r, 0) for c, v in rel.items()) == 0


def _rref(rows, ncols):
    """Gauss-Jordan elimination on a dense Fraction matrix: the reduced
    rows and the pivot column of each of the first len(pivots) rows."""
    mat = [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        lead = mat[rank][col]
        mat[rank] = [a / lead for a in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        pivots.append(col)
    return mat, pivots


def _dense_rank(rows, ncols):
    return len(_rref(rows, ncols)[1])


def _apply(columns, vec):
    """The combination of the sparse columns with coefficients vec."""
    out = {}
    for c, v in vec.items():
        for r, x in columns[c].items():
            out[r] = out.get(r, 0) + v * x
    return {r: x for r, x in out.items() if x}


@pytest.mark.parametrize("seed", range(25))
def test_eliminate_random_sparse_systems(seed):
    rng = random.Random(seed)
    nrows = rng.randint(1, 12)
    columns = [{}]
    for _ in range(rng.randint(0, 14)):
        # randint may draw 0: explicit zero entries stay in the column
        rows = rng.sample(range(nrows), rng.randint(0, min(5, nrows)))
        columns.append({r: rng.randint(-3, 3) for r in rows})
        if rng.random() < 0.3:
            columns.append(dict(rng.choice(columns)))
        if rng.random() < 0.2:
            columns.append({r: -2 * v for r, v in rng.choice(columns).items()})
    rng.shuffle(columns)
    cleared = set(rng.sample(range(len(columns)), rng.randint(0, len(columns) // 3)))
    before = [dict(col) for col in columns]
    echelon, relations = eliminate(columns, cleared)
    assert columns == before
    kept = [col for c, col in enumerate(columns) if c not in cleared]
    rank = _dense_rank(kept, nrows)
    assert len(echelon) == rank
    assert len(relations) == len(kept) - rank
    assert not cleared & relations.keys()
    # a cleared column acts as a zero column that leaves no relation
    blanked = [{} if c in cleared else col for c, col in enumerate(columns)]
    assert eliminate(blanked) == (
        echelon,
        {**relations, **{c: {c: 1} for c in cleared}},
    )
    for low, col in echelon.items():
        assert list(col) == sorted(col, reverse=True)
        assert max(col) == low and col[low] != 0
        assert all(v for v in col.values())
        assert _dense_rank(kept + [col], nrows) == rank
    for c, rel in relations.items():
        assert list(rel) == sorted(rel, reverse=True)
        assert max(rel) == c and rel[c] != 0
        assert not cleared & rel.keys()
        assert _apply(columns, rel) == {}


def _boundary_matrix(hom, j):
    """Dense rows of the boundary from degree j to degree j-1."""
    faces = hom.index[j - 1]
    rows = [dict() for _ in range(hom.chain_count(j - 1))]
    for c, s in enumerate(hom.simplices[j]):
        for pos in range(len(s)):
            face = faces[s[:pos] + s[pos + 1 :]]
            rows[face][c] = rows[face].get(c, 0) + (-1) ** pos
    return rows


def _dense_cycles(hom, j):
    """Kernel basis of the boundary out of degree j, by free column f:
    each vector is 1 at f and 0 at the other free columns."""
    if j > hom.top:
        return {}
    mat, pivots = _rref(_boundary_matrix(hom, j), hom.chain_count(j))
    free = sorted(set(range(hom.chain_count(j))) - set(pivots))
    return {
        f: {f: 1, **{p: -mat[r][f] for r, p in enumerate(pivots) if mat[r][f]}}
        for f in free
    }


def _cycle_trace(hom, j, cycles, g):
    """Trace of g on the cycles: the coefficient of basis vector k in
    g*k is k at the preimage of its free column."""
    vmap = hom.vertex_map(g)
    preimage = {
        hom.index[j][tuple(vmap[v] for v in s)]: a
        for a, s in enumerate(hom.simplices.get(j, ()))
    }
    return sum(k.get(preimage[f], 0) for f, k in cycles.items())


def test_traces_match_dense_reference():
    cases = [
        # the k=3, n=6 top interval has homology in two adjacent degrees
        (build_pi_lambda(6, [Partition((3, 1, 1, 1))]), Partition((6,)), {1: 10, 2: 10}, 170),
        (full_lattice(5), Partition((5,)), {2: 24}, 205),
        (build_pi_lambda(5, [Partition((2, 2, 1))]), Partition((5,)), {1: 16}, 45),
        (build_pi_lambda(7, [Partition((5, 1, 1))]), Partition((7,)), {1: 15}, 42),
    ]
    for lat, mu, dims, edges in cases:
        rep = lat.canonical_of_type(mu)
        hom = IntervalHomology(lat.open_interval(rep))
        assert hom.dims == dims
        assert hom.chain_count(1) == edges
        cycles = {j: _dense_cycles(hom, j) for j in range(0, hom.top + 2)}
        for cls in classes_of(rep):
            g = cls[0]
            for j in range(0, hom.top + 1):
                # trace on homology = on cycles - on boundaries, and the
                # boundaries of degree j are the chains of degree j+1
                # modulo their cycles
                above = trace_on_chains(hom, j + 1, g) - _cycle_trace(hom, j + 1, cycles[j + 1], g)
                assert hom.trace(j, g) == _cycle_trace(hom, j, cycles[j], g) - above


def test_trace_reads_basis_entries_at_the_cycle_row():
    # the reductions leave no basis entry at an essential cycle's own
    # row, so add each essential cycle to the next one: the basis keeps
    # its lows and spans the same homology, and the traces stay the same.
    # Of the k=3, n=6 top's two degrees, degree 1 is the one reduced.
    lat = build_pi_lambda(6, [Partition((3, 1, 1, 1))])
    rep = lat.canonical_of_type(Partition((6,)))
    reference = IntervalHomology(lat.open_interval(rep))
    expected = {cls[0]: reference.trace(1, cls[0]) for cls in classes_of(rep)}
    hom = IntervalHomology(lat.open_interval(rep))
    assert (hom.dims, hom.lefschetz_degree) == ({1: 10, 2: 10}, 2)
    cycles, basis = hom._reduced_cycles(1)
    taus = list(cycles)
    mixed = {taus[0]: cycles[taus[0]]}
    for prev, tau in zip(taus, taus[1:]):
        vec = dict(cycles[tau])
        combine(1, vec, -1, cycles[prev])
        mixed[tau] = dict(sorted(vec.items(), reverse=True))
        assert prev in mixed[tau]
    hom._cycles[1] = mixed
    hom._basis[1] = {**basis, **mixed}
    for g, value in expected.items():
        assert hom.trace(1, g) == value


def _oracle_verify_lattices():
    """The lattices of the formula-against-model and base-set checks:
    k-equal for k = 3 (n <= 6) and k = 4, 5 (n <= 7), and the padded
    base sets [2] and [2,2] (n <= 6)."""
    bases = [((3,), 6), ((4,), 7), ((5,), 7), ((2,), 6), ((2, 2), 6)]
    return [
        build_pi_lambda(n, [Partition(base).pad_to(n)])
        for base, n_top in bases
        for n in range(sum(base), n_top + 1)
    ]


def test_lefschetz_trace_matches_reduction():
    # in every degree with homology, the Hopf trace formula over the
    # fixed chains gives the trace that reducing the moved cycles gives;
    # at n=8, the k=4 top has two degrees of equal homology and the k=3
    # interval below type (7,1) has most of its homology below the top
    k4 = build_pi_lambda(8, [Partition((4, 1, 1, 1, 1))], limit=8)
    k3 = build_pi_lambda(8, [Partition((3, 1, 1, 1, 1, 1))], limit=8)
    cases = [
        (lat, lat.canonical_of_type(mu))
        for lat in _oracle_verify_lattices()
        for mu in lat.types_present()
    ] + [(k4, k4.canonical_of_type(Partition((8,)))), (k3, k3.canonical_of_type(Partition((7, 1))))]
    assert len(cases) == 66
    multi = 0
    for lat, rep in cases:
        hom = IntervalHomology(lat.open_interval(rep))
        if -1 in hom.dims:
            continue
        assert hom.dims[hom.lefschetz_degree] == max(hom.dims.values())
        multi += len(hom.dims) > 1
        reps = [cls[0] for cls in classes_of(rep)]
        traces = {(j, g): hom.trace(j, g) for j in hom.dims for g in reps}
        # the Lefschetz degree is traced without building its cycles
        assert set(hom._cycles) == set(hom.dims) - {hom.lefschetz_degree}
        for (j, g), value in traces.items():
            assert hom._lefschetz_trace(j, g) == hom._reduced_trace(j, g) == value
    assert multi == 3


def _integer_dims(hom):
    """Reference homology from the integer rank pass: each boundary map
    reduced over Z from the top down, clearing the lows found one degree
    up."""
    dims, lows = {}, {}
    for j in range(hom.top, -1, -1):
        columns = hom._boundary_columns(j)
        echelon, _ = eliminate(columns, cleared=lows, relations=False)
        if essential := len(columns) - len(lows) - len(echelon):
            dims[j] = essential
        lows = echelon
    if not lows:
        dims[-1] = 1
    return dict(sorted(dims.items()))


def _mod2_dims(hom):
    """Homology over GF(2), from ranks without clearing."""
    ranks = {-1: 0, hom.top + 1: 0}
    for j in range(hom.top + 1):
        ranks[j] = len(echelon_mod2(set(col) for col in hom._boundary_columns(j)))
    dims = {j: hom.chain_count(j) - ranks[j] - ranks[j + 1] for j in range(-1, hom.top + 1)}
    return {j: h for j, h in dims.items() if h}


def test_echelon_mod2_rank():
    # over GF(2) the three columns sum to zero; over Q they have rank 3
    columns = [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}]
    assert len(eliminate(columns, relations=False)[0]) == 3
    echelon = echelon_mod2(set(col) for col in columns)
    assert sorted(echelon) == [1, 2]
    assert all(max(col) == low for low, col in echelon.items())


def test_coboundary_lows_match_boundary_reduction(monkeypatch):
    # the coboundary pass pairs the same chains as reducing each boundary
    # map over Q from the left by largest row, with no clearing.  Columns
    # whose least coface is already taken are reduced in full: 11 on the
    # k=3, n=7 top, 24 on the [2,2], n=6 top and 410 on the k=3, n=8 top
    collisions = 0
    bases = [((3,), 7), ((4,), 7), ((5,), 7), ((2,), 6), ((2, 2), 6)]
    cases = [
        (lat, lat.canonical_of_type(mu))
        for base, n_top in bases
        for n in range(sum(base), n_top + 1)
        for lat in [build_pi_lambda(n, [Partition(base).pad_to(n)], limit=7)]
        for mu in lat.types_present()
    ]
    k3 = build_pi_lambda(8, [Partition((3,) + (1,) * 5)], limit=8)
    cases.append((k3, k3.canonical_of_type(Partition((8,)))))
    for lat, rep in cases:
        hom = IntervalHomology(lat.open_interval(rep))
        reduce = hom._reduce

        def counted(col, taken):
            nonlocal collisions
            collisions += 1
            return reduce(col, taken)

        monkeypatch.setattr(hom, "_reduce", counted)
        lows = hom._coboundary_lows()
        assert set(lows) == set(range(hom.top + 2))
        for j in range(hom.top + 1):
            reference, _ = eliminate(hom._boundary_columns(j), relations=False)
            assert lows[j] == set(reference), (rep, j)
        assert not lows[hom.top + 1]
    assert len(cases) == 72
    assert collisions > 400


def test_certified_dims_match_integer_rank_pass():
    lattices = _oracle_verify_lattices() + [
        build_pi_lambda(8, [Partition((k,) + (1,) * (8 - k))], limit=8) for k in (3, 4, 5)
    ]
    intervals = 0
    for lat in lattices:
        for mu in lat.types_present():
            hom = IntervalHomology(lat.open_interval(lat.canonical_of_type(mu)))
            assert hom.dims == _integer_dims(hom)
            intervals += 1
    assert intervals == 84


def _face_poset(facets, n):
    """The face poset of a simplicial complex on the points 1..n-1, its
    face S the set partition of 0..n-1 with the block {0} and S and
    singletons elsewhere (written 1-based), listed vertices first."""

    def partition(face):
        block = [1] + [x + 1 for x in face]
        return SetPartition(n, [block] + [[y] for y in range(2, n + 1) if y not in block])

    faces = {frozenset(c) for f in facets for r in (1, 2, 3, 4) for c in combinations(f, r)}
    return [partition(face) for face in sorted(faces, key=lambda face: (len(face), sorted(face)))]


RP2 = [
    (1, 2, 4), (1, 2, 6), (1, 3, 5), (1, 3, 6), (1, 4, 5),
    (2, 3, 4), (2, 3, 5), (2, 5, 6), (3, 4, 6), (4, 5, 6),
]


@pytest.mark.parametrize(
    "facets, n",
    [(RP2, 7), (RP2 + [(1, 2, 4, 7)], 8)],
    ids=["rp2", "rp2-and-a-tetrahedron"],
)
def test_torsion_is_certified_over_the_rationals(facets, n):
    # the order complex of a face poset is the barycentric subdivision:
    # the 6-vertex RP^2 has H_1(Z) = Z/2, so homology mod 2 in degrees 1
    # and 2 and none over Q; a tetrahedron glued on a face changes nothing
    # but puts a boundary map above the torsion, whose lows the signed
    # pass clears
    hom = IntervalHomology(_face_poset(facets, n))
    assert hom.top == (2 if n == 7 else 3)
    assert _mod2_dims(hom) == {1: 1, 2: 1}
    assert hom.dims == _integer_dims(hom) == {}
    assert hom.lefschetz_degree is None
    assert all(hom.trace(j, tuple(range(n))) == 0 for j in range(-1, hom.top + 1))


def test_signed_ranks_match_integer_rank_pass():
    # order complexes of the lattices cannot tell signed ranks from
    # unsigned ones; face posets of random complexes on the points 1..7
    # can: there, dropping the coboundary signs changes the homology
    rng = random.Random(5)
    for _ in range(200):
        count = rng.randint(2, 9)
        facets = [tuple(rng.sample(range(1, 8), rng.choice((3, 4)))) for _ in range(count)]
        hom = IntervalHomology(_face_poset(facets, 8))
        assert hom.dims == _integer_dims(hom), facets


def test_mod2_lows_may_be_cleared_over_the_rationals():
    # the integer rank of a boundary map is unchanged by clearing the
    # lows of the map one degree up reduced mod 2, torsion or not: random
    # complexes, half of them the 6-vertex RP^2 with extra faces
    rng = random.Random(5)
    torsion = 0
    for _ in range(300):
        count = rng.randint(2, 9)
        facets = [tuple(rng.sample(range(1, 9), rng.choice((3, 4)))) for _ in range(count)]
        if rng.random() < 0.5:
            facets += RP2
        faces = {}
        for face in {c for f in facets for r in (1, 2, 3, 4) for c in combinations(sorted(f), r)}:
            faces.setdefault(len(face) - 1, []).append(face)
        faces = {j: sorted(fs) for j, fs in faces.items()} | {-1: [()]}

        def boundary(j):
            index = {face: c for c, face in enumerate(faces[j - 1])}
            return [
                {index[face[:pos] + face[pos + 1 :]]: (-1) ** pos for pos in range(len(face))}
                for face in faces.get(j, ())
            ]

        for j in range(1, max(faces) + 1):
            lows = set(echelon_mod2(set(col) for col in boundary(j + 1)))
            columns = boundary(j)
            rank = len(eliminate(columns, relations=False)[0])
            assert len(eliminate(columns, cleared=lows, relations=False)[0]) == rank
            torsion += bool(lows) and len(echelon_mod2(set(col) for col in columns)) < rank
    assert torsion > 10


def test_braid_lattice_needs_no_integer_elimination(monkeypatch):
    # every interval of the braid lattice has homology in one degree
    import arrstab.oracle.homology as homology

    calls = {"eliminate": 0, "IntervalHomology": 0}
    eliminate_, init = homology.eliminate, IntervalHomology.__init__

    def counted_eliminate(*args, **kwargs):
        calls["eliminate"] += 1
        return eliminate_(*args, **kwargs)

    def counted_init(self, vertices):
        calls["IntervalHomology"] += 1
        init(self, vertices)

    monkeypatch.setattr(homology, "eliminate", counted_eliminate)
    monkeypatch.setattr(IntervalHomology, "__init__", counted_init)
    _orbits.cache_clear()
    assert sw_complement_char(5, 2, [Partition((2, 1, 1, 1))], 3)
    assert calls == {"eliminate": 0, "IntervalHomology": 6}


def test_acyclic_interval_has_no_lefschetz_degree():
    # below [123][45] the lattice of [3,2] and [3,1,1] has the one point [123]
    lat = build_pi_lambda(5, LambdaSet.parse("[3,2];[3,1,1]").extended(5))
    pi = SetPartition(5, [[1, 2, 3], [4, 5]])
    assert lat.open_interval(pi) == [SetPartition(5, [[1, 2, 3], [4], [5]])]
    hom = IntervalHomology(lat.open_interval(pi))
    assert (hom.dims, hom.lefschetz_degree) == ({}, None)
    assert all(hom.trace(j, (1, 0, 2, 4, 3)) == 0 for j in range(-1, 2))
    dims, char = interval_homology(lat, pi)
    assert (dims, char.values) == ({}, {})


@pytest.mark.parametrize(
    "lam, n, d, k",
    [
        ("[3,2];[3,1,1]", 5, 2, 3),
        ("[4,2];[4,1,1]", 6, 2, 4),
        ("[4,2];[4,1,1]", 6, 3, 4),
        ("[4,2];[3,1,1,1]", 6, 2, 3),
        ("[3,2,1];[3,1,1,1]", 6, 2, 3),
    ],
)
def test_redundant_type_leaves_the_complement_unchanged(lam, n, d, k):
    # each subspace of the first type lies in one of the second, so the
    # complement is the k-equal one; its lattice has acyclic intervals
    for i in range(d * n):
        assert lambda_char_smalln(n, d, LambdaSet.parse(lam), i) == kequal_char(n, i, d, k)


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
        prev = hom._boundary_columns(j - 1)
        for column in hom._boundary_columns(j):
            assert _apply(prev, column) == {}


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
        for cls in classes_of(rep):
            g = cls[0]
            lhs = sum(
                (-1) ** j * trace_on_chains(hom, j, g)
                for j in range(-1, hom.top + 1)
            )
            rhs = sum((-1) ** j * hom.trace(j, g) for j in hom.dims)
            assert lhs == rhs


def test_homology_character_constant_on_classes():
    k4 = full_lattice(4)
    k3 = build_pi_lambda(6, [Partition((3, 1, 1, 1))])
    for lat, n in ((k4, 4), (k3, 6)):
        rep = lat.canonical_of_type(Partition((n,)))
        hom = IntervalHomology(lat.open_interval(rep))
        for cls in classes_of(rep):
            for j in hom.dims:
                values = {hom.trace(j, g) for g in cls}
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


def test_stabilizer_matches_filter_of_symmetric_group():
    for n in range(1, 6):
        for pi in all_set_partitions(n):
            assert stabilizer(pi) == [g for g in symmetric_group(n) if pi.apply(g) == pi]


def test_conjugacy_classes_are_orbits():
    pi = SetPartition(5, [[1, 2], [3, 4], [5]])
    group = stabilizer(pi)
    classes = classes_of(pi)
    assert sorted(g for cls in classes for g in cls) == group
    for cls in classes:
        g = cls[0]
        orbit = set()
        for x in group:
            inv = [0] * len(x)
            for i, xi in enumerate(x):
                inv[xi] = i
            orbit.add(tuple(x[g[inv[i]]] for i in range(len(x))))
        assert cls == sorted(orbit)


def _generated(n, generators):
    """Closure of the identity under composition with the generators."""
    closure = {tuple(range(n))}
    frontier = list(closure)
    while frontier:
        fresh = {tuple(x[i] for i in g) for g in frontier for x in generators}
        frontier = list(fresh - closure)
        closure |= fresh
    return closure


def test_stabilizer_generators_generate_the_stabilizer():
    for n in range(1, 7):
        for pi in all_set_partitions(n):
            assert sorted(_generated(n, stabilizer_generators(pi))) == stabilizer(pi)


def _classes_by_every_member(group):
    """Conjugacy classes by conjugating each new element by all of the
    group, ordered by least representative."""
    classes, seen = [], set()
    for g in sorted(group):
        if g in seen:
            continue
        orbit = set()
        for x in group:
            conj = [0] * len(g)
            for i, gi in enumerate(g):
                conj[x[i]] = x[gi]
            orbit.add(tuple(conj))
        seen |= orbit
        classes.append(sorted(orbit))
    return classes


def test_conjugacy_classes_match_conjugation_by_every_member():
    reps = {}
    for n in range(1, 8):
        for pi in all_set_partitions(n):
            reps.setdefault(pi.type(), pi)
    assert len(reps) == 44
    for pi in reps.values():
        assert classes_of(pi) == _classes_by_every_member(stabilizer(pi))


def test_conjugacy_classes_refuse_a_generator_outside_the_group():
    group = stabilizer(SetPartition(3, [[1, 2], [3]]))
    with pytest.raises(ValueError):
        conjugacy_classes(group, [(0, 2, 1)])


def test_stabilizer_classes_match_listed_classes():
    # at the canonical element of every type with n <= 8, one
    # representative in each listed class, with that class's size
    for n in range(1, 9):
        for mu in partitions_of(n):
            pi = SetPartition.from_labels([j for j, part in enumerate(mu) for _ in range(part)])
            listed = classes_of(pi)
            where = {g: c for c, cls in enumerate(listed) for g in cls}
            classes = stabilizer_classes(pi)
            hit = [where[rep] for rep, _ in classes]
            assert sorted(hit) == list(range(len(listed)))
            assert [size for _, size in classes] == [len(listed[c]) for c in hit]
            assert sorted((cycle_type(rep), size) for rep, size in classes) == sorted(
                (cycle_type(cls[0]), len(cls)) for cls in listed
            )
            assert stabilizer_order(pi) == len(where)


def test_labels_of_type_match_filter_of_set_partitions():
    for n in range(1, 9):
        by_type = {mu: [] for mu in partitions_of(n)}
        for pi in all_set_partitions(n):
            by_type[pi.type()].append(pi.labels())
        for mu, expected in by_type.items():
            labels = list(labels_of_type(mu))
            assert len(set(labels)) == len(labels)
            assert sorted(labels) == sorted(expected)


def _reference_closure(n, types):
    """Bottom plus every set partition that is the join of the
    generators below it, which is what a join closure holds."""
    generators = [pi for pi in all_set_partitions(n) if pi.type() in types]
    elements = {SetPartition.bottom(n)}
    for x in all_set_partitions(n):
        owner = x.block_of()
        below = [g for g in generators if g.refines(owner)]
        if below and reduce(SetPartition.join, below) == x:
            elements.add(x)
    return elements


def test_join_closure_matches_reference():
    cases = []
    for n in range(2, 7):
        types = [t for t in partitions_of(n) if t.rank > 0]
        cases += [(n, {t}) for t in types]
        cases += [(n, set(pair)) for pair in combinations(types, 2)]
    cases += [(7, {t}) for t in partitions_of(7) if t.rank > 0]
    assert len(cases) == 104
    for n, types in cases:
        assert set(build_pi_lambda(n, types).elements) == _reference_closure(n, types)


def test_vertex_map_matches_relabelled_vertices():
    lat = build_pi_lambda(6, [Partition((3, 1, 1, 1))])
    rep = lat.canonical_of_type(Partition((6,)))
    hom = IntervalHomology(lat.open_interval(rep))
    index = {v: i for i, v in enumerate(hom.vertices)}
    for g in stabilizer(rep):
        vmap = hom.vertex_map(g)
        assert vmap == [index[v.apply(g)] for v in hom.vertices]
        assert hom._fixed_vertices(g) == [w == v for v, w in enumerate(vmap)]


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
    for cls in classes_of(pi):
        signs = {orientation_sign(pi, 3, g) for g in cls}
        assert len(signs) == 1


def test_induced_character_trivial_from_young_subgroup():
    classes = [(cls[0], len(cls)) for cls in classes_of(SetPartition(3, [[1, 2], [3]]))]
    induced = induced_character(classes, [1] * len(classes))
    ch = class_function_to_characteristic(3, induced)
    assert to_schur(ch) == mul(h(2), h(1))


def test_induced_character_sign():
    classes = [(cls[0], len(cls)) for cls in classes_of(SetPartition(4, [[1, 2, 3, 4]]))]
    values = [(-1) ** (4 - len(cycle_type(rep))) for rep, _ in classes]
    induced = induced_character(classes, values)
    assert class_function_to_characteristic(4, induced) != 0
    assert to_schur(class_function_to_characteristic(4, induced)) == e(4)


def test_induced_character_trivial_from_wreath_product():
    # the stabilizer of {12}{34} has two classes of cycle type (2, 2):
    # (12)(34) and the two block swaps (13)(24), (14)(23)
    classes = [(cls[0], len(cls)) for cls in classes_of(SetPartition(4, [[1, 2], [3, 4]]))]
    assert sum(cycle_type(rep) == Partition((2, 2)) for rep, _ in classes) == 2
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


@pytest.mark.parametrize("d,k", [(2, 3), (2, 4), (3, 5)])
def test_sw_matches_formula_n8(d, k):
    types = [Partition((k,) + (1,) * (8 - k))]
    for i in range(d * 8):
        assert kequal_char(8, i, d, k) == sw_complement_char(8, d, types, i, limit=8)


@pytest.mark.parametrize("d,k", [(2, 4), (3, 5)])
def test_sw_matches_formula_n9(d, k):
    types = [Partition((k,) + (1,) * (9 - k))]
    for i in range(d * 9):
        assert kequal_char(9, i, d, k) == sw_complement_char(9, d, types, i, limit=9)


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
        bottom = lat.elements[0]
        below = {x: set(lat.open_interval(x)) for x in lat.elements}
        for x, under in below.items():
            assert x not in under  # irreflexivity
            assert bottom not in under  # the interval is open at the bottom
            for y in under:
                assert x not in below[y]  # antisymmetry
                assert below[y] <= under  # transitivity
        # the bottom lies below every element: nothing lies below it, and
        # the top lies above everything else
        top = lat.canonical_of_type(Partition((n,)))
        assert bottom == SetPartition.bottom(n) and not below[bottom]
        assert below[top] == set(lat.elements) - {bottom, top}


def test_open_interval_matches_brute_force():
    lattices = [
        full_lattice(5),
        build_pi_lambda(6, [Partition((3, 1, 1, 1))]),
        build_pi_lambda(6, [Partition((2, 2, 1, 1))]),
    ]
    assert [len(lat) for lat in lattices] == [52, 53, 168]
    for lat in lattices:
        bottom = lat.elements[0]
        for top in lat.elements:
            expected = [
                el
                for el in lat.elements
                if el not in (bottom, top) and el.is_refinement_of(top)
            ]
            assert lat.open_interval(top) == expected


def test_equivariant_character_identity_value_is_dimension():
    lat = full_lattice(5)
    for mu in lat.types_present():
        rep = lat.canonical_of_type(mu)
        dims, char = interval_homology(lat, rep)
        identity = [cycle_type(g).rank for g, _ in char.classes].index(0)
        for j, dim in dims.items():
            assert char.values[j][identity] == dim


def test_orbits_are_built_once_per_lattice():
    types = [Partition((3, 1, 1))]
    _orbits.cache_clear()
    first = [sw_complement_char(5, 3, types, i) for i in range(15)]
    info = _orbits.cache_info()
    assert (info.misses, info.hits) == (1, 14)
    assert any(first)
    _orbits.cache_clear()
    assert [sw_complement_char(5, 3, types, i) for i in range(15)] == first


def test_interval_homology_refuses_vertices_out_of_order():
    lat = full_lattice(4)
    top = lat.canonical_of_type(Partition((4,)))
    with pytest.raises(ValueError):
        IntervalHomology(list(reversed(lat.open_interval(top))))


def test_interval_homology_is_the_same_across_an_orbit():
    def by_degree(lat, pi):
        dims, char = interval_homology(lat, pi)
        values = {
            j: sorted(
                (cycle_type(g), size, tr) for (g, size), tr in zip(char.classes, traces)
            )
            for j, traces in char.values.items()
        }
        return dims, values

    for lat in (full_lattice(5), build_pi_lambda(6, [Partition((3, 1, 1, 1))])):
        # the top, of the one-part type, is alone in its orbit
        for mu in [mu for mu in lat.types_present() if len(mu) > 1]:
            canonical = lat.canonical_of_type(mu)
            other = lat.elements_of_type(mu)[-1]
            assert other != canonical
            assert by_degree(lat, other) == by_degree(lat, canonical)
