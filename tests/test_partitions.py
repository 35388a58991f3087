import pytest

from arrstab.partitions import (
    LambdaSet,
    Partition,
    SetPartition,
    all_set_partitions,
    extend_lambda_set,
    partitions_of,
    set_partition_type,
)


def partition_counts(limit):
    """Independent p(n) table by the classical two-variable recurrence."""
    table = [[0] * (limit + 1) for _ in range(limit + 1)]
    for maxpart in range(limit + 1):
        table[0][maxpart] = 1
    for n in range(1, limit + 1):
        for maxpart in range(1, limit + 1):
            table[n][maxpart] = table[n][maxpart - 1]
            if n >= maxpart:
                table[n][maxpart] += table[n - maxpart][maxpart]
    return [table[n][limit] for n in range(limit + 1)]


def test_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    assert Partition(()) == ()


def test_rank():
    assert Partition((3, 1, 1)).rank == 2
    assert Partition((1, 1, 1, 1)).rank == 0
    for n in range(3, 8):
        for k in range(2, n + 1):
            assert Partition((k,) + (1,) * (n - k)).rank == k - 1


def test_add_box():
    assert Partition((2, 1)).add_box() == (3, 1)
    assert Partition(()).add_box() == (1,)
    assert Partition((4, 4, 2)).add_box() == (5, 4, 2)
    lam = Partition((3, 2))
    assert lam.add_box().size == lam.size + 1
    assert lam.add_box().rank == lam.rank + 1


def test_conjugate():
    assert Partition((2, 1)).conjugate() == (2, 1)
    assert Partition((5,)).conjugate() == (1,) * 5
    assert Partition((3, 2)).conjugate() == (2, 2, 1)
    for lam in partitions_of(7):
        assert lam.conjugate().conjugate() == lam
        assert lam.conjugate().size == lam.size


def test_partitions_of_counts():
    counts = partition_counts(12)
    for n in range(13):
        seen = list(partitions_of(n))
        assert len(seen) == counts[n]
        assert len(set(seen)) == len(seen)
    assert counts[4] == 5
    assert counts[10] == 42


def test_partitions_of_order_and_max_part():
    assert list(partitions_of(4)) == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]
    assert list(partitions_of(0)) == [()]
    assert list(partitions_of(5, max_part=2)) == [(2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)]


def test_parse_and_text():
    assert Partition.parse("[3,1,1]") == (3, 1, 1)
    assert Partition.parse("[2,1^4]") == (2, 1, 1, 1, 1)
    assert Partition.parse("[]") == ()
    assert Partition((3, 1)).text() == "[3,1]"
    with pytest.raises(ValueError):
        Partition.parse("3,1")
    with pytest.raises(ValueError):
        Partition.parse("[1,2]")


def test_set_partition_basics():
    pi = SetPartition(3, [[1, 2], [3]])
    assert set_partition_type(pi) == (2, 1)
    assert set_partition_type(SetPartition.bottom(3)) == (1, 1, 1)
    assert set_partition_type(SetPartition(5, [[1, 3, 5], [2, 4]])) == (3, 2)
    with pytest.raises(ValueError):
        SetPartition(3, [[1, 2]])
    with pytest.raises(ValueError):
        SetPartition(3, [[1, 2], [2, 3]])


def test_set_partition_order_and_join():
    a = SetPartition(4, [[1, 2], [3], [4]])
    b = SetPartition(4, [[1, 2], [3, 4]])
    assert a.is_refinement_of(b)
    assert not b.is_refinement_of(a)
    c = SetPartition(4, [[2, 3], [1], [4]])
    assert a.join(c) == SetPartition(4, [[1, 2, 3], [4]])
    for pi in all_set_partitions(4):
        assert SetPartition.bottom(4).is_refinement_of(pi)
        assert pi.type().size == 4
        assert pi.type().rank == 4 - len(pi.blocks)


def test_all_set_partitions_bell_numbers():
    for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203)]:
        parts = all_set_partitions(n)
        assert len(parts) == bell
        assert len(set(parts)) == bell


def test_set_partition_apply():
    pi = SetPartition(4, [[1, 2], [3, 4]])
    rotated = pi.apply((1, 2, 3, 0))  # 1->2, 2->3, 3->4, 4->1
    assert rotated == SetPartition(4, [[2, 3], [1, 4]])


def test_set_partition_labels_round_trip():
    assert SetPartition(5, [[1, 3, 5], [2, 4]]).labels() == (0, 1, 0, 1, 0)
    for n in range(1, 7):
        for pi in all_set_partitions(n):
            assert SetPartition.from_labels(pi.labels()) == pi


def test_lambda_set():
    lam = LambdaSet([(2,)])
    assert lam.n0 == 2 and lam.rank == 1
    assert extend_lambda_set(lam, 5) == frozenset({Partition((2, 1, 1, 1))})
    assert LambdaSet([(3,)]).extended(3) == frozenset({Partition((3,))})
    assert LambdaSet([(2, 2)]).extended(6) == frozenset({Partition((2, 2, 1, 1))})
    two = LambdaSet([(2, 2), (3, 1)])
    assert two.rank == 2
    for p in two.extended(7):
        assert p.size == 7
        assert p.strip_ones().rank == p.rank
    with pytest.raises(ValueError):
        LambdaSet([])
    with pytest.raises(ValueError):
        LambdaSet([(1, 1, 1)])
    with pytest.raises(ValueError):
        LambdaSet([(2,), (3,)])
    with pytest.raises(ValueError):
        LambdaSet([(2,)]).extended(1)


def test_lambda_set_parse():
    lam = LambdaSet.parse("[2,2];[3,1]")
    assert lam.parts == frozenset({Partition((2, 2)), Partition((3, 1))})
    assert lam.n0 == 4
