from itertools import combinations
from math import comb

import numpy as np
import pytest

from dsmseq import BinomialTable, InputError, complement_address, rank_subset, unrank_subset


@pytest.fixture(scope="module")
def table():
    return BinomialTable(12)


def test_table_matches_reference(table):
    for m in range(13):
        for k in range(m + 1):
            assert table.c(m, k) == comb(m, k)
    assert table.c(5, 7) == 0
    assert table.c(5, -1) == 0
    with pytest.raises(InputError):
        table.c(13, 2)
    with pytest.raises(InputError):
        BinomialTable(-1)


FIG_TABLE_N5_P3 = {
    1: (1, 2, 3),
    2: (1, 2, 4),
    3: (1, 2, 5),
    4: (1, 3, 4),
    5: (1, 3, 5),
    6: (1, 4, 5),
    7: (2, 3, 4),
    8: (2, 3, 5),
    9: (2, 4, 5),
    10: (3, 4, 5),
}


def test_full_address_table_for_five_activities(table):
    for ha, subset in FIG_TABLE_N5_P3.items():
        assert rank_subset(subset, 5, table) == ha
        assert unrank_subset(ha, 5, 3, table) == subset


def test_anchored_addresses(table):
    assert rank_subset((2, 4, 5), 5, table) == 9
    assert rank_subset((1, 4, 5), 5, table) == 6
    assert rank_subset((1, 2, 4), 5, table) == 2
    assert rank_subset((1, 2, 4), 6, table) == 2
    assert rank_subset((3, 5, 6), 6, table) == 19


def test_rank_ignores_input_order(table):
    for ids in ((5, 2, 4), (4, 5, 2), (2, 5, 4), (4, 2, 1)):
        assert rank_subset(ids, 6, table) == rank_subset(sorted(ids), 6, table)
    assert rank_subset((5, 2, 4), 5, table) == 9


def test_unrank_extremes(table):
    assert unrank_subset(1, 5, 3, table) == (1, 2, 3)
    assert unrank_subset(9, 5, 3, table) == (2, 4, 5)
    for n in range(1, 11):
        for p in range(1, n + 1):
            assert unrank_subset(table.c(n, p), n, p, table) == tuple(range(n - p + 1, n + 1))


def test_bijectivity_and_lex_order(table):
    for n in range(1, 11):
        for p in range(1, n + 1):
            expected = 1
            for subset in combinations(range(1, n + 1), p):
                ha = rank_subset(subset, n, table)
                assert ha == expected
                assert unrank_subset(ha, n, p, table) == subset
                expected += 1
            assert expected - 1 == table.c(n, p)


def test_complement_anchors(table):
    assert complement_address(2, 6, 3, table) == 19
    assert rank_subset((1, 3), 4, table) == 2
    assert complement_address(2, 4, 2, table) == 5
    assert rank_subset((2, 4), 4, table) == 5
    # the first subset {1..p} pairs with the lex-largest complement
    for n in range(2, 11):
        for p in range(1, n):
            assert complement_address(1, n, p, table) == table.c(n, p)


def test_complement_duality_exhaustive(table):
    for n in range(2, 11):
        universe = set(range(1, n + 1))
        for p in range(1, n):
            for subset in combinations(range(1, n + 1), p):
                ha = rank_subset(subset, n, table)
                other = tuple(sorted(universe - set(subset)))
                assert complement_address(ha, n, p, table) == rank_subset(other, n, table)


def test_row_space_is_largest_in_the_middle(table):
    for n in range(1, 13):
        assert max(table.c(n, p) for p in range(n + 1)) == table.c(n, n // 2)


def test_input_validation(table):
    with pytest.raises(InputError):
        rank_subset((), 5, table)
    with pytest.raises(InputError):
        rank_subset((1, 1, 2), 5, table)
    with pytest.raises(InputError):
        rank_subset((0, 1), 5, table)
    with pytest.raises(InputError):
        rank_subset((1, 6), 5, table)
    for ids in ((1.0, 2.0), (1, 2.5), ("1", "2")):
        with pytest.raises(InputError):
            rank_subset(ids, 5, table)
    assert rank_subset((np.int64(3), np.int32(1)), 5, table) == rank_subset((1, 3), 5, table)
    with pytest.raises(InputError):
        rank_subset((1, 2), 13, table)
    with pytest.raises(InputError):
        unrank_subset(0, 5, 3, table)
    with pytest.raises(InputError):
        unrank_subset(11, 5, 3, table)
    with pytest.raises(InputError):
        complement_address(1, 5, 5, table)
