"""Exhaustive summand identities on the grid n <= 12, d in {2,3}, k <= 6.

Checks the recursion and vanishing laws of the summands and the d-even
first-row bound, with every summand evaluated through the plethysm
pipeline.
"""

import pytest

from helpers import check_first_row_bound, check_summand_laws

GRID = [(d, k) for d in (2, 3) for k in range(d + 1, 7)]
N_MAX = 12


@pytest.mark.parametrize("d,k", GRID)
def test_summand_laws(d, k):
    check_summand_laws(d, k, N_MAX)


@pytest.mark.parametrize("d,k", [(d, k) for d, k in GRID if d % 2 == 0])
def test_first_row_bound_even_d(d, k):
    check_first_row_bound(d, k, N_MAX)
