"""Table entries at the top of the paper's range.

The k=3 tail (degree 16) runs with the default suite.  The slow-marked
entries go beyond the default acceptance scale: run them explicitly
with ``pytest -m slow tests/test_table_long.py -v``; the largest case
works at degree 28.
"""

import pytest

from arrstab.stability import sharp_bound_certified


@pytest.mark.slow
def test_table_k9_prefix():
    assert sharp_bound_certified(2, 9, 15).sharp_bound == 18
    assert sharp_bound_certified(2, 9, 16).sharp_bound == 19


@pytest.mark.slow
def test_table_k5_late_entry():
    assert sharp_bound_certified(2, 5, 14).sharp_bound == 19


def test_table_k3_tail():
    assert sharp_bound_certified(2, 3, 7).sharp_bound == 13
    assert sharp_bound_certified(2, 3, 8).sharp_bound == 14
