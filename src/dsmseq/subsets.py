"""Lexicographic ranking of activity subsets onto dense 1-based addresses.

Partial schedules over the same activity set are interchangeable for
pruning, so each set is mapped to its position in the lexicographic
enumeration of same-size subsets of {1..n}.  The rank is a closed-form sum
of binomial coefficients, and the rank of a set's complement is available
in closed form, so results over complementary sets pair without any
searching.  One row of addresses needs at most C(n, floor(n/2)) slots.
These are the addresses of the CLI's ``rank`` and ``unrank`` commands and
of the scalar row helpers' ``RowStore``; the solver's array rows are
ordered colexicographically instead (see ``solver``).
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Sequence

from .errors import InputError
from .model import check_activities

__all__ = [
    "BinomialTable",
    "rank_subset",
    "rank_sorted",
    "unrank_subset",
    "complement_address",
]


class BinomialTable:
    """C(m, k) for 0 <= k <= m <= n_max, range-checked.

    Coefficients are exact arbitrary-precision integers from ``math.comb``,
    so addresses are never approximated; ``c`` returns 0 for k outside
    [0, m].
    """

    __slots__ = ("n_max",)

    def __init__(self, n_max: int) -> None:
        if n_max < 0:
            raise InputError(f"table size must be non-negative, got {n_max}")
        self.n_max = n_max

    def c(self, m: int, k: int) -> int:
        if not 0 <= m <= self.n_max:
            raise InputError(f"C({m}, {k}) outside table range 0..{self.n_max}")
        return comb(m, k) if k >= 0 else 0


def rank_sorted(ids: Sequence[int], n: int, table: BinomialTable) -> int:
    """Rank of an already-sorted, already-validated id sequence (fast path).

    The sets after c_0 < ... < c_(p-1) are those whose first difference is
    a larger id, C(n - c_j, p - j) of them for each j, so its rank is
    C(n, p) less their sum.
    """
    p = len(ids)
    c = table.c
    return c(n, p) - sum(c(n - a, p - j) for j, a in enumerate(ids))


def rank_subset(activities: Iterable[int], n: int, table: BinomialTable) -> int:
    """1-based lexicographic rank of an activity set among its size class.

    Input order is irrelevant: ids are sorted before encoding.  Over the
    p-subsets of {1..n} the mapping is a bijection onto [1, C(n, p)] that
    respects lexicographic order of the sorted sets.  An empty set, or ids
    that are not distinct integers in 1..n, raise InputError.
    """
    ids = tuple(activities)
    if not ids:
        raise InputError("empty activity set")
    if n > table.n_max:
        raise InputError(f"universe size {n} exceeds table maximum {table.n_max}")
    check_activities(ids, n, "activity set")
    return rank_sorted(sorted(ids), n, table)


def unrank_subset(ha: int, n: int, p: int, table: BinomialTable) -> tuple[int, ...]:
    """Sorted activity set whose rank is ``ha`` (inverse of ``rank_subset``)."""
    if not 1 <= p <= n <= table.n_max:
        raise InputError(f"need 1 <= p <= n <= {table.n_max}, got p={p}, n={n}")
    capacity = table.c(n, p)
    if not 1 <= ha <= capacity:
        raise InputError(f"address {ha} outside 1..C({n},{p}) = {capacity}")
    remaining = ha - 1
    out: list[int] = []
    value = 1
    for i in range(1, p + 1):
        while True:
            block = table.c(n - value, p - i)
            if remaining < block:
                break
            remaining -= block
            value += 1
        out.append(value)
        value += 1
    return tuple(out)


def complement_address(ha: int, n: int, p: int, table: BinomialTable) -> int:
    """Address of the set complement among the (n-p)-subsets.

    Lexicographic ranks of complementary sets mirror each other, so the
    pairing is C(n, p) + 1 - ha with no unranking needed.
    """
    if not 1 <= p < n or n > table.n_max:
        raise InputError(f"need 1 <= p < n <= {table.n_max}, got p={p}, n={n}")
    capacity = table.c(n, p)
    if not 1 <= ha <= capacity:
        raise InputError(f"address {ha} outside 1..C({n},{p}) = {capacity}")
    return capacity + 1 - ha
