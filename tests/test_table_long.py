"""Table entries at the top of the paper's range.

Each summand needs only one degree of its core series, so even the
degree-28 k=5 entry and the k=9 rows certify in well under a second.
"""

from arrstab.stability import sharp_bound_certified


def test_table_k9_prefix():
    assert sharp_bound_certified(2, 9, 15).sharp_bound == 18
    assert sharp_bound_certified(2, 9, 16).sharp_bound == 19


def test_table_k5_late_entry():
    assert sharp_bound_certified(2, 5, 14).sharp_bound == 19


def test_table_k3_tail():
    assert sharp_bound_certified(2, 3, 7).sharp_bound == 13
    assert sharp_bound_certified(2, 3, 8).sharp_bound == 14


def test_table_k3_beyond_the_paper():
    # regression values taken from the library (the per-n comparison and
    # the degree-piece walk agree on them), not from the paper
    bounds = [sharp_bound_certified(2, 3, i).sharp_bound for i in range(9, 15)]
    assert bounds == [16, 18, 20, 21, 23, 25]
