"""Double-ended subset search over rank-addressed array rows.

The search grows schedule prefixes from the front and suffixes from the
back.  Within a tree level (a "row", all partial schedules of one length)
schedules over the same activity set are interchangeable: only the cheapest
can extend to an optimum, so every row collapses to one best schedule per
subset.  This is the Held-Karp/Bellman subset recursion split in the
meet-in-the-middle style: when both searches reach the meeting row, every
prefix is paired with the suffix over its complement and the cheapest
concatenation is the optimum.

Activity a is bit a - 1 of a set's mask.  Rows are numpy arrays of the
best schedule's value (float64), indexed by the colexicographic rank of
their activity set, which within a row is ascending mask order: the rank
of the set of bits c_0 < ... < c_(k-1) is the sum of C(c_i, i + 1), the
combinatorial number system.  It does not involve n, so row k of n
activities is the first C(n, k) sets of row k of any larger n.  The
sweeps keep values only.  A row is expanded by pulling: each child of k
members reads its k parents, one column at a time, and keeps the least
value, so no child depends on another's work and nothing is scattered.
Column j removes every child's j-th smallest activity and gathers those
parents by rank: one gather and one minimum.  Those ranks do not depend
on the instance: a row's grow by column from the row above's, copying one
slice per block of children that share their largest activity, and the
last column, which removes that activity, is one ramp per block.  Up to
n = 17, where every rank is an int16, every row's are kept read-only in
n's tables; above, each search grows its newest row's and drops them once
read.  The row's masks grow from the row above's by the same slices, one
activity added per block, and are kept read-only in n's tables, so the
colexicographic layout has one owner, ``_parent_blocks``.  The subset
addresses of ``subsets`` and the CLI stay lexicographic.

What a solve does that depends on (n, na, cn, variant) alone is built
once per key, as one plan that n's tables hold: the rows in round order,
each with its counters, its parent-column views and the masks its gains
are read at, and, up to n = 17, every array a solve writes, the cut
table's and the views its build writes through among them.  A solve
claims n's tables and gives them back after pairing; up to n = 17 they
are kept, plan and all, so the next solve of n builds none of it again
and allocates no row-sized array, and above, the plan holds no array and
goes with its solve.

``cn`` splits each row's parents into chunks, contiguous in lexicographic
order, whose counters report what each would hand to a merge: the chunks
reaching each child, summed.  Those counts depend only on (n, size,
chunks), so each plan works them out when it is made, by arithmetic on
the chunks' first sets (``_handovers``), and no sweep counts anything:
every sweep is the same for any ``cn``, cold or warm.  A child's parents
in lexicographic order meet the chunks in order, so one chunk reaches it
at its first parent and one more at each chunk start between two
consecutive parents, and those pairs are counted by binomials, a few per
member of each chunk start.
Rows run in a fixed round order on the calling thread, so the schedule,
objective and every counter are identical for any ``cn`` and meeting row.

Prefix values grow by cut(C), the dependence flowing out of the child set
C to its complement, and suffix values by cut of the complement of the
parent set, the dependence flowing into it.  So one cut table, built once
per solve over all 2**n subsets, serves both directions, and every row
reads it by mask.  It sums members ascending, each member's outflow over
non-members ascending, from 0.0 and never by differences: the summation
order of the scalar loop, so values equal by symmetry tie exactly.  Each
outflow extends the outflow into the same set without its largest
activity, so the whole table costs O(n 2**n) additions where summing each
cut afresh would cost O(n**2 2**n).  A prefix child's gain is added once,
to its least parent value: rounding to nearest is monotone, so that is the
least of the rounded sums, bit for bit.  A suffix child's gain depends on
its parent alone and is added to the parent row before the sweep.

Ties go to the lexicographically smaller schedule: the smaller (parent's
schedule, a) going forward, where children append ``a``, and the smaller
``a`` going backward, where they prepend it.  The one schedule that wins is
rebuilt after pairing, from the values.  A parent is tight when its value
plus the child's gain rounds to the child's value, and the tie rule keeps
for each set the smallest chain of tight steps from the empty set.  The
prefix witness keeps every prefix row, walks down from the tied pairings
marking the tight parents of marked sets, then up from the empty set, each
step adding the smallest activity whose set is marked and tight.  The walk
down stops at a row whose sets are all marked, as with an all-zero matrix,
below which any tight step will do unless it leads to a set with no tight
child.  The suffix witness walks suffix rows down from the set the prefix
leaves, taking in each row the first column whose parent holds the least
value.  Up to n = 17 those are the search's own rows, all kept, 1 MB at
most; above, where keeping them would cost about 0.5 GB at n = 26, the
suffix search runs again over the m = n - na activities the prefix leaves,
2**m sets, under 1% of a cold solve, on the first C(m, k) masks of n's
row k with its ranks grown, and the walk reads its rows.

Three ablation switches degrade single strategies in the counters alone,
and every variant returns the full solver's schedule and objective and
runs the same sweeps: ``no-second-decomposition`` keeps one chunk per
search, ``no-compression`` counts every chunk as handing over the whole
dense row instead of its occupied entries, and ``no-hash`` reports the
comparisons of scan stores, which find similar nodes by comparing activity
masks one by one instead of addressing them by rank.  Those counts depend
on (n, size, chunks) alone, so each plan works them out when it is made
(``_scans``).  The public row helpers (``seed_rows``,
``expand_and_prune_chunk``) run a scalar kernel on Node tuples, whose cuts
``_scalar_cut`` sums in the cut table's order.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate, chain
from math import comb, isfinite
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InputError, InternalInvariantError, ResourceLimitError
from .model import Dsm, check_activities, total_feedback_length
from .oracle import brute_force_optimum
from .subsets import BinomialTable, rank_sorted, unrank_subset

__all__ = [
    "FORWARD",
    "BACKWARD",
    "VARIANT_FULL",
    "VARIANT_NO_SECOND_DECOMPOSITION",
    "VARIANT_NO_COMPRESSION",
    "VARIANT_NO_HASH",
    "VARIANTS",
    "Node",
    "SolverConfig",
    "SolveTimeout",
    "RowStats",
    "SolveReport",
    "meeting_row",
    "RowStore",
    "CompressedChunk",
    "seed_rows",
    "partition_row",
    "expand_and_prune_chunk",
    "restore_and_merge",
    "solve",
]

FORWARD = "forward"
BACKWARD = "backward"

VARIANT_FULL = "full"
VARIANT_NO_SECOND_DECOMPOSITION = "no-second-decomposition"
VARIANT_NO_COMPRESSION = "no-compression"
VARIANT_NO_HASH = "no-hash"
VARIANTS = (
    VARIANT_FULL,
    VARIANT_NO_SECOND_DECOMPOSITION,
    VARIANT_NO_COMPRESSION,
    VARIANT_NO_HASH,
)

# A node is (feedback value, activities in schedule order).  Tuple comparison
# implements the pruning rule: lower value wins, exact ties go to the
# lexicographically smaller schedule.
Node = tuple[float, tuple[int, ...]]

_REL_TOL = 1e-9


@dataclass(frozen=True)
class SolverConfig:
    """Search knobs: chunk count, meeting row, limits, ablation switch.

    ``cn`` is the number of chunks a round's rows are split into, shared
    between the two searches; it changes the chunk counters, not the work
    done, which is one column sweep over each whole row.  ``na`` is
    the prefix length at which the two searches meet; ``solve`` clamps it
    with ``meeting_row``.  ``memory_cap`` is in bytes: a search whose arrays
    would need more is refused before any of them is allocated.  A
    ``cn`` or ``na`` that is not an integer (a bool is not), a ``cn`` below
    1, a ``time_limit`` or ``memory_cap`` that is not a number, or is
    negative or NaN, or an unknown ``variant`` raises InputError.
    """

    cn: int = 8
    na: int = 5
    time_limit: float | None = None
    memory_cap: int = 2**31
    variant: str = VARIANT_FULL

    def __post_init__(self) -> None:
        _check_integer(self.cn, "worker count", 1)
        _check_integer(self.na, "meeting row")
        if self.time_limit is not None and not _is_amount(self.time_limit):
            raise InputError(f"time limit must be a non-negative number of seconds, got {self.time_limit!r}")
        if not _is_amount(self.memory_cap):
            raise InputError(f"memory cap must be a non-negative number of bytes, got {self.memory_cap!r}")
        if self.variant not in VARIANTS:
            raise InputError(f"unknown variant {self.variant!r}")


def _check_integer(value: object, what: str, least: int | None = None) -> None:
    """Raise InputError unless ``value`` is an integer, a numpy one included but not a bool, and at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise InputError(f"{what} must be at least {least}, got {value}")


def _is_amount(value: object) -> bool:
    """Whether ``value`` is a real number, a numpy one included but not a bool, and at least 0, which NaN is not."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool) and value >= 0


def meeting_row(na: int, n: int) -> int:
    """The meeting row ``solve`` uses for ``na`` and n >= 4 activities: ``na`` clamped into [2, n - 2].

    Both searches then expand at least one row.
    """
    return min(max(na, 2), n - 2)


@dataclass
class RowStats:
    """Counters of one expanded row; ``seconds`` covers this row alone."""

    direction: str
    size: int
    workers: int
    chunks: int
    expanded: int
    pruned: int
    survivors: int
    transferred_records: int
    comparisons: int
    seconds: float


@dataclass
class SolveReport:
    """Outcome of one solve: schedule, objective, and per-row counters.

    ``na`` of 0 marks n < 4, where the double split is undefined and the
    brute-force oracle enumerates every schedule.  ``setup_seconds`` covers
    building the search (the row masks, the plan and the cut table); the
    forward and backward seconds sum the rows'.
    The phases run one at a time, so the setup, forward, backward and
    combination seconds add up to at most ``total_seconds``.
    """

    n: int
    cn: int
    na: int
    variant: str
    sequence: tuple[int, ...] | None
    objective: float | None
    rows: list[RowStats] = field(default_factory=list)
    setup_seconds: float = 0.0
    combination_seconds: float = 0.0
    total_seconds: float = 0.0
    combination_comparisons: int = 0
    timed_out: bool = False

    @property
    def forward_seconds(self) -> float:
        return sum(r.seconds for r in self.rows if r.direction == FORWARD)

    @property
    def backward_seconds(self) -> float:
        return sum(r.seconds for r in self.rows if r.direction == BACKWARD)

    @property
    def nodes_expanded(self) -> int:
        return sum(r.expanded for r in self.rows)

    @property
    def nodes_pruned(self) -> int:
        return sum(r.pruned for r in self.rows)

    @property
    def transferred_records(self) -> int:
        return sum(r.transferred_records for r in self.rows)

    @property
    def similar_comparisons(self) -> int:
        return self.combination_comparisons + sum(r.comparisons for r in self.rows)


class SolveTimeout(Exception):
    """Wall-clock limit hit before the search finished; carries the partial report."""

    def __init__(self, report: SolveReport) -> None:
        super().__init__("time limit exceeded before the search finished")
        self.report = report


class _Expired(Exception):
    """Internal: the deadline passed; ``solve`` turns it into SolveTimeout in one place."""


def _check(deadline: float | None) -> None:
    """Raise _Expired once ``deadline``, a ``time.monotonic`` reading, has passed."""
    if deadline is not None and time.monotonic() >= deadline:
        raise _Expired()


class RowStore:
    """Dense per-row map from subset rank to the best node over that subset."""

    __slots__ = ("n", "size", "slots", "occupied")

    def __init__(self, n: int, size: int, capacity: int) -> None:
        self.n = n
        self.size = size
        self.slots: list[Node | None] = [None] * capacity
        self.occupied = 0

    @property
    def capacity(self) -> int:
        return len(self.slots)

    def install(self, ha: int, node: Node) -> None:
        index = ha - 1
        current = self.slots[index]
        if current is None:
            self.slots[index] = node
            self.occupied += 1
        elif node < current:
            self.slots[index] = node

    def entries(self) -> list[Node]:
        """Occupied nodes in ascending address order."""
        return [node for node in self.slots if node is not None]


@dataclass
class CompressedChunk:
    """Sparse chunk result: the surviving (rank address, node) pairs plus counters.

    ``transferred_records`` is what the chunk hands to the merge step: its
    pair count.
    """

    direction: str
    size: int
    triples: list[tuple[int, Node]]
    expanded: int

    @property
    def transferred_records(self) -> int:
        return len(self.triples)


# ---------------------------------------------------------------- array kernel

_MASK = np.dtype(np.int32)  # activity bitmasks and subset ranks, for n <= 30
_VALUE = np.dtype(np.float64)
_INTP = np.dtype(np.intp)
_FLAG = np.dtype(np.bool_)
_MAX_N = 30
# bytes of a solve's objects beyond the arrays: its tracemalloc peak at n=8 measured 0.4-1.7 KB over the arrays alone
_SOLVE_OBJECTS = 16 * 1024
# bytes per object of a plan, counted as a few per row, per parent column and per activity: the objects of kept
# plans measured 16-44 KB at n=8..17, 125-150 bytes per object so counted
_PLAN_OBJECT = 160
# bytes numpy's buffered strided adds hold in a cut table's build, with ``_FOLD_BUFSIZE``: measured 15-17 KB from
# n=8 to 20, against 15-197 KB with the default size
_ADD_BUFFERS = 20 * 1024
# elements numpy's ufunc buffers hold while the cut table is built: with the default 8192 the held adds of members
# 4-11 took 450-500 µs of the n=16 build, with this 225-235 µs, and the head's 80-86 µs against 52-64 µs
_FOLD_BUFSIZE = 512
_HEAD_STEPS = 10  # outflow doublings the cut table builds for every member at once, in one (n, 1024) head
# up to this n every subset rank is an int16 (``_parent_dtype``), n's tables hold every row's parent columns,
# 1.05 MB at n=16 and 2.2 MB at n=17, and a solve's every suffix row, and they are kept for the next solve of n
_SMALL_N = 17
_ESTIMATES_CACHED = 1024  # (n, na) memory estimates ``_search_bytes`` holds
_WALK_BLOCK = 1 << 14  # parent ranks the prefix witness gathers at once, at most


class _Tables:
    """One n's row tables and its last solve's plan, kept from one solve of n to the next up to ``_SMALL_N``.

    The tables depend on n alone and are read-only: each row's masks
    (``masks``) and, up to ``_SMALL_N``, its parent columns
    (``parent_columns``), each row built from the one above.  ``plan`` is
    the last solve's ``_Plan``; a solve of another key replaces it.  A
    solve ``claim``s n's object with a dict ``pop``, which is atomic, so a
    concurrent solve of the same n lays out its own, and ``release``s it
    after pairing, however it ends: up to ``_SMALL_N`` it is then kept for
    the next solve of n, and above, it goes with its solve.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.kept = n <= _SMALL_N
        self.rows: list[np.ndarray] = []  # row k's masks at k - 1
        self.columns: list[np.ndarray] = []  # row k's parent columns at k - 1
        self.plan: _Plan | None = None

    @staticmethod
    def claim(n: int) -> _Tables:
        return _kept.pop(n, None) or _Tables(n)

    def release(self) -> None:
        if self.kept:
            _kept[self.n] = self

    def plan_for(self, na: int, cn: int, variant: str, deadline: float | None) -> _Plan:
        """The plan of a solve meeting at row ``na`` with ``cn`` chunks: the last one if its key is the same."""
        key = (na, cn, variant)
        if self.plan is None or self.plan.key != key:
            self.plan = None  # so that its arrays are freed before the new plan's are made
            rounds = _round_order(variant, cn, na, self.n - na)
            self.plan = _Plan(self, na, rounds, variant, deadline, key)
        return self.plan

    def masks(self, size: int) -> np.ndarray:
        """The ``size``-subsets of the n activities as bitmasks in rank order, read-only.

        Activity a is bit a - 1, and rank order is colexicographic, which
        is ascending masks, so row k is the first C(n, k) sets of row k of
        any larger n.  Row 1 is the lone activities; row k holds, per
        block of ``_parent_blocks``, the slice of row k - 1 that block's
        parents are cut from, with the block's largest activity added.
        The rows below are built first, each once.
        """
        n, rows = self.n, self.rows
        while len(rows) < size:
            if rows:
                counts = _parent_blocks(n, len(rows) + 1)
                masks = np.empty(sum(counts), dtype=_MASK)
                first = 0
                for bit, count in enumerate(counts, start=len(rows)):
                    np.bitwise_or(rows[-1][:count], 1 << bit, out=masks[first : first + count])
                    first += count
            else:
                masks = np.left_shift(1, np.arange(n, dtype=_MASK), dtype=_MASK)
            masks.flags.writeable = False
            rows.append(masks)
        return rows[size - 1]

    def parent_columns(self, size: int) -> np.ndarray:
        """Row ``size``'s parent ranks by column, for n <= ``_SMALL_N``, read-only: one row of the array per column.

        Column j ranks each child without its j-th smallest activity among
        the row above's sets, counted from 0, in ``_parent_dtype(n)``; row
        1's one column is the empty set's rank, 0.  Grown from the row
        above's columns, which are built first, each once.
        """
        n, rows = self.n, self.columns
        while len(rows) < size:
            columns = np.zeros((len(rows) + 1, comb(n, len(rows) + 1)), dtype=_parent_dtype(n))
            if rows:
                for column, ranks in enumerate(_grown_columns(n, len(columns), list(rows[-1]))):
                    columns[column] = ranks
            columns.flags.writeable = False
            rows.append(columns)
        return rows[size - 1]

    @cached_property
    def binomials(self) -> np.ndarray:
        """C(x, y) at [x, y] for 0 <= x, y <= n, zero where y > x."""
        return np.array([[comb(x, y) for y in range(self.n + 1)] for x in range(self.n + 1)], dtype=np.int64)


_kept: dict[int, _Tables] = {}  # by n <= _SMALL_N, each free for the next solve to claim


def _head_width(n: int) -> int:
    """Outflows the cut table's head holds per member: the top 2**10 of each member's 2**(n-1), or all of them."""
    return 1 << min(n - 1, _HEAD_STEPS)


class _CutViews:
    """The cut table of n activities, the buffers its build writes through and every view of them it uses.

    ``others`` row u is d[u][v] for every v != u, ascending, taken at
    ``offdiagonal``; ``doublings``, ``extensions`` and ``folds`` are the
    additions of the head, of a member's outflow past it and of member u's
    term into the table, as ``_cut_table`` describes them.
    """

    def __init__(self, n: int) -> None:
        width = _head_width(n)
        steps = min(n - 1, _HEAD_STEPS)
        self.total = total = np.empty(1 << n, dtype=_VALUE)
        self.outflow = outflow = np.empty(1 << (n - 1), dtype=_VALUE)
        self.head = head = np.empty((n, width), dtype=_VALUE)
        self.others = others = np.empty((n, n - 1), dtype=_VALUE)
        self.offdiagonal = np.arange(n * n).reshape(n, n)[~np.eye(n, dtype=bool)]
        self.offdiagonal.flags.writeable = False
        self.flat_others = others.reshape(-1)
        self.doublings = [
            (head[:, width - (1 << b) :], others[:, b : b + 1], head[:, width - (2 << b) : width - (1 << b)])
            for b in range(steps)
        ]
        self.top = outflow[-width:]
        self.extensions = [
            (outflow[len(outflow) - (1 << b) :], b, outflow[len(outflow) - (2 << b) : len(outflow) - (1 << b)])
            for b in range(steps, n - 1)
        ]
        self.folds = []  # member u's (held masks, outflows), read from its row of the head while that is all of them
        for u, outflows in enumerate(head if not self.extensions else [outflow] * n):
            if 1 <= u <= 3:  # a block of 2**(u+1) masks is 2**u pairs, the upper half holding u
                half, pairs = 1 << (u - 1), (total.view(np.complex128), outflows.view(np.complex128))
                self.folds.append([(pairs[0][half + pair :: 2 * half], pairs[1][pair::half]) for pair in range(half)])
            else:
                self.folds.append([(total.reshape(-1, 2, 1 << u)[:, 1, :], outflows.reshape(-1, 1 << u))])


def _cut_table(d: np.ndarray, deadline: float | None = None, views: _CutViews | None = None) -> np.ndarray:
    """cut(S) for all 2**n masks S, from the (n, n) matrix ``d``: the dependence of S's members on the others.

    Sums members ascending, each member's outflow over non-members
    ascending, each from 0.0: bit for bit the order of the scalar loop, so
    equal sets of terms give equal values.  Member u's term is read only by
    the 2**(n-1) masks that hold u (bit u); dropping bit u numbers them in
    ascending order, and outflow[i] is u's outflow into the complement of
    the i-th, which is the complement of i among the other n - 1
    activities.  It is the outflow into that complement without its largest
    activity plus d[u][largest].  The complements whose largest activity is
    the one at bit b of i are those of the 2**b indices just below the top
    2**b, and without it they are the complements of the top 2**b, in the
    same order: one contiguous add per other activity.  The first ten of
    those adds build the top 2**10 outflows of every member at once, in one
    (n, 2**10) head, and each member copies its row of the head into its
    outflow before the rest, unless that row is all of it, up to n = 11;
    every element still gets the same additions.
    The term then goes into the held masks in as few calls as their layout
    allows: bits 1-3 are strided complex pairs (complex addition is
    componentwise, so exact), and the others blocks of 2**u, every other
    mask for bit 0.  numpy buffers these strided adds, and with its default
    8192-element buffers the blocks of members 4-11 cost about twice what
    they do with ``_FOLD_BUFSIZE``; so the whole build runs with that size,
    which numpy keeps per thread, and the caller's is put back however the
    build ends.  The additions and their order are the same at any size.
    Writes through ``views``, or new ones, and returns their table.
    """
    n = len(d)
    views = views or _CutViews(n)
    total, head, others = views.total, views.head, views.others
    total.fill(0.0)
    np.take(d, views.offdiagonal, out=views.flat_others)
    head[:, -1] = 0.0  # into the empty complement
    bufsize = np.setbufsize(_FOLD_BUFSIZE)  # this thread's alone, and given back however the build ends
    try:
        for outflows, degrees, into in views.doublings:
            np.add(outflows, degrees, out=into)
        for u, folds in enumerate(views.folds):
            _check(deadline)
            if views.extensions:
                np.copyto(views.top, head[u])
            for outflows, b, into in views.extensions:
                np.add(outflows, others[u, b], out=into)
            for held, outflows in folds:
                np.add(held, outflows, out=held)
    finally:
        np.setbufsize(bufsize)
    return total


def _parent_dtype(n: int) -> np.dtype:
    """The narrowest signed integer that holds every subset rank of n activities: int16 up to n = 17."""
    return np.dtype(np.int16) if comb(n, n // 2) < 1 << 15 else _MASK


def _parent_blocks(n: int, size: int) -> tuple[int, ...]:
    """How row ``size`` in colexicographic order follows from row ``size - 1``: the size of each block.

    The children whose largest activity is at bit c, for c from size - 1
    to n - 1, form one block of C(c, size - 1), ordered by their other
    activities: the first C(c, size - 1) sets of the row above, in order,
    each with bit c added.  So the last column, which removes bit c, reads
    a ramp over those ranks.  Column j < size - 1 removes the j-th smallest
    of the others, and the row above's column j already ranks each of them
    without it; putting bit c back, the largest, adds its term C(c,
    size - 1), the block's size, to that rank.
    """
    return tuple(comb(c, size - 1) for c in range(size - 1, n))


def _grown_columns(n: int, size: int, above: list[np.ndarray | None]) -> Iterator[np.ndarray]:
    """Row ``size``'s parent ranks, column by column, grown from ``above``, row ``size - 1``'s, counted from 0.

    Column j is one concatenation of slices, one per block of
    ``_parent_blocks``: of the row above's column j plus each child's block
    size, or, for the last column, of a ramp.  Each column of ``above`` is
    set to None once the column grown from it is, so a caller that drops
    each column it has read holds at most one old and one new column
    beyond the rest.
    """
    counts = _parent_blocks(n, size)
    shift = np.array(counts, dtype=_parent_dtype(n)).repeat(counts)
    for column in range(size):
        if column < size - 1:
            ranks = np.concatenate([above[column][:count] for count in counts])
            ranks += shift
            above[column] = None
        else:
            ramp = np.arange(counts[-1], dtype=shift.dtype)
            ranks = np.concatenate([ramp[:count] for count in counts])
        yield ranks


def _drop_ranks(tables: _Tables, size: int, children: np.ndarray) -> np.ndarray:
    """The parent ranks of the children at ranks ``children`` of ``tables``' row ``size``, by column: ``size`` rows.

    Up to ``_SMALL_N``, where the tables are kept, they are the columns.
    Above, the rank of the set of bits c_0 < ... < c_(k-1) is the sum of
    C(c_i, i + 1), and dropping c_j leaves the terms of the members before
    it as they are and moves each member after it one place down, to
    C(c_i, i).
    """
    if tables.kept:
        return tables.parent_columns(size).take(children, axis=1)
    masks = tables.masks(size)[children]
    members = np.nonzero(masks[:, None] >> np.arange(tables.n, dtype=_MASK) & 1)[1].reshape(-1, size)
    index = np.arange(size)
    own = tables.binomials[members, index + 1]  # the child's own terms
    moved = tables.binomials[members, index]
    return (np.cumsum(own, axis=1) - own + moved.sum(axis=1, keepdims=True) - np.cumsum(moved, axis=1)).T


def _handovers(n: int, size: int, chunks: int) -> int:
    """What ``chunks`` contiguous ranges of row ``size``'s parents, in lexicographic order, hand to a merge.

    That is the children each range reaches, summed over the ranges.  A
    child's parents in lexicographic order drop its members from the
    largest down, and they meet the ranges in that order, so the ranges
    reaching a child are one more than the changes of range between its
    consecutive parents.  The range changes between T < T' just where a
    range starts in (T, T'].  With the starts B_1 < ... < B_(c-1), as sets
    by ``unrank_subset``, the sum is C(n, size) plus the consecutive pairs
    around each start, ``_spanned(B_i, B_i)``, less those around two
    adjacent starts, ``_spanned(B_i, B_(i+1))``, which the first sum counts
    twice (a pair around three starts, three times less twice).
    """
    k, table = size - 1, BinomialTable(n)
    starts = [unrank_subset(start + 1, n, k, table) for start, _ in _part_bounds(comb(n, k), chunks)[1:]]
    twice = sum(_spanned(n, x, y) for x, y in zip(starts, starts[1:]))
    return comb(n, size) + sum(_spanned(n, x, x) for x in starts) - twice


def _spanned(n: int, x: tuple[int, ...], y: tuple[int, ...]) -> int:
    """The consecutive parents T < T' of any child with T < x <= y <= T', for k-sets x <= y, ascending tuples.

    T and T' differ at one position j alone, where T' holds the child's
    next member, and every set between them shares their first j members:
    so do x and y, and j runs up to their first difference.  At j, T holds
    a member below x's, or x's with the rest below x's rest, and T' a
    member past y's, or y's with the rest at least y's rest; the rest is
    past T''s member.  Each case is a product of counts by binomials: rests
    of k - i members past b number C(n - b, k - i), summed over b by the
    hockey-stick identity, and those at least z's rest from i on, 1 plus
    the sum of C(n - z_l, k - l) over l >= i.
    """
    k = len(x)
    # the rests at least x's and y's from each position on
    tx, ty = ([*accumulate((comb(n - z[i], k - i) for i in reversed(range(k))), initial=1)][::-1] for z in (x, y))
    count = 0
    # x's member a at j, the one before it (or 0) and the one after it (or past every activity), and y's b
    for j, (below, a, after, b) in enumerate(zip((0, *x), x, (*x[1:], n + 1), y)):
        past = comb(n - b, k - j)  # T' with its member past b
        # T's member below a; T''s past b, or b with the rest at least y's
        count += (a - below - 1) * (past + ty[j + 1])
        if after > b + 1:  # T's member a; T''s past b and below x's next member, the rest below x's
            count += past - comb(n - after + 1, k - j) - (after - b - 1) * tx[j + 1]
        if a < b < after:  # T's member a and T''s b, the rest at least y's and below x's
            count += max(0, ty[j + 1] - tx[j + 1])
        if a != b:
            break
    return count


def _scans(n: int, columns: Sequence[np.ndarray], masks: np.ndarray, chunks: int, deadline: float | None) -> int:
    """The masks scan stores compare to grow a row of n activities from ``chunks`` ranges of its parents.

    ``columns`` are the row's parent columns and ``masks`` its masks.  A
    scan store lists sets in the order they come and finds one by comparing
    masks from the front.  Each contiguous range of the parents, in
    lexicographic order, fills a store parent by parent, each parent's
    children by the activity v added, ascending, and the ranges' stores
    then merge into one, in order.  A child's lexicographically smallest
    parent drops its largest member, so children order as those parents
    do, the first c ranges reach the row's first sets, and the merged store
    stays in lexicographic order: merging S scans to its lexicographic rank
    L(S), and one more if an earlier range reached it.  In a range's store,
    S, reached from m of the range's parents, scans the q sets before it
    when it comes first and q + 1 each later time.  Over a row of C sets of
    k activities the ones and the m - 1 sum to (k - 1) C, so the count is
    that plus, for each range, m q + L(S) summed over the children it
    reaches.
    A range's store orders its sets by their first parent P in the range,
    then by v.  S's parents before P drop its members past v, and the
    largest of them, S without the member after v, grows with v; so P
    comes first to its children for every v past its largest member and
    for each v up to a threshold below it.  Then q is the children that
    the range's parents before P come first to, plus P's non-members below
    v, less, if v is past P's largest member, those that P does not come
    first to.  The row is walked in the colexicographic order of the sets
    reflected by a -> n + 1 - a, whose column j drops the j-th largest
    member and whose lexicographic rank is C - 1 less the colexicographic
    rank of the reflection.
    """
    k, count = len(columns), len(masks)
    parents = comb(n, k - 1)
    bounds = _part_bounds(parents, chunks)
    starts = np.array([start for start, _ in bounds])
    block = max(1, _WALK_BLOCK // k)

    def walk() -> Iterator[tuple[np.ndarray, int, np.ndarray, np.ndarray]]:
        """Per block of children, column by column: their ranks, j, the parents' lexicographic ranks, and new ranges.

        The flags mark the children whose parent in column j is their
        first in its range.
        """
        for first in range(0, count, block):
            _check(deadline)
            children = np.arange(first, min(first + block, count))
            above = 0  # range indices start at 1, so each child's first parent starts one
            for j, ranks in enumerate(columns):
                lex = (parents - 1) - ranks[first : first + block].astype(np.int64)
                ranges = np.searchsorted(starts, lex, side="right")
                yield children, j, lex, ranges != above
                above = ranges

    firsts = np.zeros(parents, dtype=np.int64)  # per parent, the children it comes first to in its range
    for _, _, lex, new in walk():
        np.add.at(firsts, lex[new], 1)
    before = np.cumsum(firsts) - firsts
    before -= np.repeat(before[starts], [stop - start for start, stop in bounds])  # counted from its range's start
    total = (k - 1) * count
    for children, j, lex, new in walk():
        if j == 0:
            rest = masks[children]  # the reflections' members, dropped smallest first
        low = rest & -rest
        rest ^= low
        # the children the range's parents before P come first to, and P's non-members below v
        own = before[lex] + (n - k + j) - np.log2(low).astype(np.int64)
        if j == 0:  # v is past P's largest member: less the n - k + 1 non-members, plus those P comes first to
            own += firsts[lex] - (n - k + 1)
        q = own if j == 0 else np.where(new, own, q)
        total += int(q.sum()) + int((count - 1 - children)[new].sum())
    return total


def _check_size(n: int, na: int, table: BinomialTable, cap: int) -> None:
    """Refuse a search of n activities meeting at row ``na`` that int32 masks or ``cap`` bytes cannot hold.

    Raises ResourceLimitError, naming the widest row, before any array exists.
    """
    if n <= _MAX_N and (needed := _search_bytes(n, na)) <= cap:
        return
    worst_size = max(range(2, max(na, n - na) + 1), key=lambda s: table.c(n, s))
    widest = f"row {worst_size} needs C({n},{worst_size}) = {table.c(n, worst_size)} subsets"
    if n > _MAX_N:
        raise ResourceLimitError(f"{widest}; subset masks are int32, which limits n to {_MAX_N}")
    raise ResourceLimitError(f"{widest} and the search {needed} bytes, over the cap of {cap} bytes")


@lru_cache(maxsize=_ESTIMATES_CACHED)
def _search_bytes(n: int, na: int) -> int:
    """Bytes of the arrays an array-kernel solve holds at its peak, from their dtypes, with its tables built afresh.

    That is a solve that finds no tables kept for n, as every solve above
    ``_SMALL_N`` does, and none of its arrays outlives it.

    The search holds the row masks, at most an int per subset (each row is
    built straight into its own array), and the cut table, a float per
    subset; its build also holds an outflow half as large, the head and
    numpy's buffers for its strided adds, which ``_FOLD_BUFSIZE`` keeps
    small.  Every prefix row's values stay, for the prefix witness.  Up to
    ``_SMALL_N`` the tables and the plan keep all they hold, so the search
    holds every row's parent columns, the outflow and head, every suffix
    row's values and parents' complements, and per child of the widest row
    the gain and one column's values; on top of that come, one at a time,
    the table build's buffers, a sweep's gather indices or the prefix
    witness.  Above ``_SMALL_N`` the rows come after the build, with an
    intp gather index per child of the widest row, held to the end: the
    suffix search's last row and the widest column sweep
    (``_sweep_bytes``), while the other search holds the parent ranks of
    its newest row, then the prefix witness, then the suffix search again,
    over n's masks, with its sweep.  The prefix witness holds, at worst
    (every set good), every prefix row's good ranks, a row's gains and
    values and a flag per set of the row below, and one block's parent
    ranks, gather indices, values and flags, above ``_SMALL_N`` with the
    masks, members and binomial terms that rank them.  A fixed allowance
    covers the report, the row statistics and other small objects of a
    solve, and ``_PLAN_OBJECT`` bytes each the plan's: a few per row, and
    up to ``_SMALL_N`` one per parent column and a few per activity.
    """
    subsets = 1 << n
    masks = subsets * _MASK.itemsize
    cuts = subsets * _VALUE.itemsize
    outflows = cuts // 2 + n * _head_width(n) * _VALUE.itemsize
    buffers = min(_ADD_BUFFERS, 8 * cuts)
    m = n - na
    objects = _SOLVE_OBJECTS + _PLAN_OBJECT * 6 * (n - 2)  # n - 2 rows
    prefixes = sum(comb(n, size) for size in range(1, na + 1))
    forward = max(comb(n, size) for size in range(1, na + 1))
    # per element of a block: parent ranks, as intp too, the gathered values, flags and the tight ones' ranks;
    # above _SMALL_N, ranks made from each member's bit and two binomial terms each
    if n <= _SMALL_N:
        per_rank = _parent_dtype(n).itemsize + 2 * _INTP.itemsize + _VALUE.itemsize + _FLAG.itemsize
    else:
        per_rank = 8 * _INTP.itemsize + 4 * n
    walk = (
        _INTP.itemsize * prefixes
        + (2 * _VALUE.itemsize + _MASK.itemsize + _FLAG.itemsize) * forward
        + per_rank * min(na * forward, _WALK_BLOCK)
    )
    if n <= _SMALL_N:
        columns = sum(size * comb(n, size) for size in range(1, max(na, m) + 1)) * _parent_dtype(n).itemsize
        widest = max(comb(n, size) for size in range(1, max(na, m) + 1))
        rows = _VALUE.itemsize * (prefixes + sum(comb(n, size) for size in range(1, m + 1)))
        # the gains, one column's values and each suffix row's parents' complements
        shared = 2 * _VALUE.itemsize * widest + _MASK.itemsize * sum(comb(n, size) for size in range(1, m))
        objects += _PLAN_OBJECT * (sum(range(2, na + 1)) + sum(range(2, m + 1)) + 6 * n + 10)
        passing = max(buffers, _INTP.itemsize * widest, walk)
        return objects + masks + columns + cuts + outflows + rows + shared + passing
    # the suffix search again: its rows, the inflow and the global masks it is read at, and its widest sweep
    again = (1 << m) * (2 * _VALUE.itemsize + _MASK.itemsize) + _sweep_bytes(m, m, False)
    rank = _parent_dtype(n).itemsize
    newest = _VALUE.itemsize * comb(n, m)
    indices = _INTP.itemsize * max(comb(n, size) for size in range(1, max(na, m) + 1))
    # while one search sweeps, the other holds its newest row's parent ranks, unless that row is its last
    kept = {last: max((size * comb(n, size) for size in range(2, last)), default=0) * rank for last in (na, m)}
    sweeps = max(_sweep_bytes(n, na, True) + kept[m], _sweep_bytes(n, m, False) + kept[na])
    searching = _VALUE.itemsize * prefixes + newest + indices + max(sweeps, walk, again)
    return objects + masks + cuts + max(outflows + buffers, searching)


def _sweep_bytes(n: int, last: int, forward: bool) -> int:
    """Bytes of the widest column sweep of a search over n activities up to row ``last``, its ranks grown.

    For suffixes, the row of parents and the row swept; the parent ranks
    of the row above and of the row swept, as many as any column holds at
    once (each column of the row above is dropped once read, and a last
    row keeps none), with the last column's ramp and each child's block
    shift; and per child one column's values.  A prefix row's values are
    counted with the prefix rows, the gather indices with the search, and
    the gain added after a prefix sweep holds less than the sweep.
    """
    rank = _parent_dtype(n).itemsize
    row = 0 if forward else _VALUE.itemsize
    per_child = _VALUE.itemsize + row
    widest = 0
    for size in range(2, last + 1):
        parents, children = comb(n, size - 1), comb(n, size)
        # column 0 holds every column of the row above, the last column the ramp and every new column
        # kept; each holds the block shifts and one new column
        held = max((size - 1) * parents, parents + (size if size < last else 1) * children)
        ranks = (held + 2 * children) * rank
        widest = max(widest, parents * row + children * per_child + ranks)
    return widest


def _or_new(held: np.ndarray | None, count: int) -> np.ndarray:
    """``held``, a kept plan's array, or, where the plan holds none, a new one of ``count`` values."""
    return np.empty(count, dtype=_VALUE) if held is None else held


class _Plan:
    """What a solve of n activities does that depends on (n, na, cn, variant) alone, made once per key.

    ``steps`` are the rows both searches grow, in round order.  Up to
    ``_SMALL_N`` the plan is kept with n's tables and holds every array a
    solve writes, since arrays freed at each solve's end would let the
    allocator hand their pages back, to be faulted in again by the next:
    the cut table and its build's views (``_CutViews``), each row's values,
    and the gains and one column's values, which the rows share, the latter
    with the pairing's sums.  Above, it holds no array: each is made where
    it is used and dropped once read, as ``_search_bytes`` counts them.
    ``combination_comparisons`` is what pairing would compare for
    ``no-hash``, with scan stores.
    """

    def __init__(self, tables: _Tables, na: int, rounds: list, variant: str, deadline=None, key=None) -> None:
        n, kept, dense = tables.n, tables.kept, variant == VARIANT_NO_COMPRESSION
        self.key, self.kept = key, kept
        pairs = comb(n, na)  # each prefix's scan of the suffix store stops at its complement, at a position of its own
        self.combination_comparisons = pairs * (pairs + 1) // 2 if variant == VARIANT_NO_HASH else 0
        last = {FORWARD: na, BACKWARD: n - na}
        for size in range(1, max(last.values()) + 1):
            _check(deadline)
            tables.masks(size)
            if kept:
                tables.parent_columns(size)
        self.widest = max(comb(n, size) for size in range(1, max(last.values()) + 1))
        self.gain = np.empty(self.widest, dtype=_VALUE) if kept else None
        self.values = np.empty(self.widest, dtype=_VALUE) if kept else None
        self.pairing = self.values[: comb(n, na)] if kept else None
        self.steps = []
        sizes = {FORWARD: 1, BACKWARD: 1}
        for direction, workers in rounds:
            sizes[direction] += 1
            self.steps.append(_Step(self, tables, direction, workers, sizes[direction], last, dense))
        if variant == VARIANT_NO_HASH:
            self._count_scans(tables, deadline)
        self.cut = _CutViews(n) if kept else None  # made after the scan counts, so that they do not add to it

    def _count_scans(self, tables: _Tables, deadline: float | None) -> None:
        """Set each step's ``comparisons`` (``_scans``), a row at a time, above ``_SMALL_N`` with its columns grown."""
        n = tables.n
        columns: Sequence[np.ndarray] = [np.zeros(n, dtype=_parent_dtype(n))]
        for size in range(2, max(step.size for step in self.steps) + 1):
            columns = tables.parent_columns(size) if tables.kept else list(_grown_columns(n, size, columns))
            counts: dict[int, int] = {}  # by chunk count, which both searches' rows of a size often share
            for step in self.steps:
                if step.size == size:
                    if step.chunks not in counts:
                        counts[step.chunks] = _scans(n, columns, tables.masks(size), step.chunks, deadline)
                    step.comparisons = counts[step.chunks]


class _Step:
    """One row a plan grows: its direction, size and chunks, its counters and what its sweep reads and writes.

    ``index`` holds the masks the row's gains are read at: a prefix row's
    own or, read-only, a suffix row's parents' complements.  A kept plan's
    ``columns`` are the row's parent columns, ``best`` its values, and
    ``gain`` and ``values`` slices of the plan's buffers; above ``_SMALL_N``
    those and a suffix row's ``index`` are None, made in each sweep, and
    ``keep`` says whether the row keeps its grown columns for the next.
    ``transferred`` is what its chunks hand to a merge (``_handovers``),
    and ``comparisons``, for ``no-hash``, what scan stores would compare
    (``_scans``).
    """

    __slots__ = ("direction", "forward", "workers", "size", "chunks", "capacity", "expanded", "transferred",
                 "comparisons", "keep", "columns", "index", "best", "gain", "values")

    def __init__(self, plan: _Plan, tables: _Tables, direction: str, workers: int, size: int, last, dense) -> None:
        n, kept = tables.n, plan.kept
        parents, capacity = comb(n, size - 1), comb(n, size)
        self.direction, self.forward, self.workers, self.size = direction, direction == FORWARD, workers, size
        self.chunks = chunks = min(workers, parents)
        self.capacity, self.expanded = capacity, capacity * size
        self.transferred = chunks * capacity if dense else _handovers(n, size, chunks)
        self.comparisons = 0  # for no-hash, set by the plan
        self.keep = not kept and size < last[direction]
        self.columns = list(tables.parent_columns(size)) if kept else None
        self.index = tables.masks(size) if self.forward else None
        if kept and not self.forward:
            self.index = np.bitwise_xor(tables.masks(size - 1), (1 << n) - 1)
            self.index.flags.writeable = False
        self.best = np.empty(capacity, dtype=_VALUE) if kept else None
        self.gain = plan.gain[: capacity if self.forward else parents] if kept else None
        self.values = plan.values[:capacity] if kept else None


class _ArraySearch:
    """The array kernel: both searches' newest rows, every prefix row, and the witnesses.

    Grows the rows of ``plan`` over ``tables``.  The prefix witness reads
    every prefix row, so all are kept (``prefixes``); up to ``_SMALL_N`` the
    suffix witness reads every suffix row, so those are kept too
    (``suffixes``), and above, each is dropped once the next row is grown,
    as is each row's parent ranks (``ranks``).
    """

    def __init__(self, dsm: Dsm, tables: _Tables, plan: _Plan, deadline: float | None) -> None:
        n = dsm.n
        self.n, self.tables, self.plan, self.deadline = n, tables, plan, deadline
        matrix = np.fromiter(chain.from_iterable(dsm.d), dtype=_VALUE, count=n * n).reshape(n, n)
        self.cut = _cut_table(matrix, deadline, plan.cut)
        empty = np.zeros(n, dtype=_parent_dtype(n))  # a lone activity's parent, the empty set, has rank 0
        first = {FORWARD: self.cut[tables.masks(1)], BACKWARD: np.zeros(n, dtype=_VALUE)}
        self.values = dict(first)  # each search's newest row
        self.ranks = {FORWARD: [empty], BACKWARD: [empty]}  # above _SMALL_N, their parent ranks, if kept
        self.indices: np.ndarray | None = None  # above _SMALL_N, the sweeps' gather indices
        self.prefixes = [first[FORWARD]]  # row k's values at k - 1
        # up to _SMALL_N row k's values at k - 1, each with its inflow once the next row is grown; above, none
        self.suffixes = [first[BACKWARD]] if plan.kept else None

    def grow(self, step: _Step) -> RowStats:
        """Grow the newest row of ``step``'s search into the next, keeping the best value per subset.

        A prefix gains cut(child) and a suffix the inflow into its parent's
        set: the prefix sweep adds it once to each child's least parent
        value, which rounds as adding it to every parent's and taking the
        least would, and the suffix sweep adds it to each parent's value
        first.  Every sweep is the same for any ``step.chunks``: what the
        chunks hand over was counted when the plan was made.
        """
        direction, size, capacity = step.direction, step.size, step.capacity
        value = self.values[direction]
        best = _or_new(step.best, capacity)
        if not step.forward:
            complements = step.index if step.index is not None else self.tables.masks(size - 1) ^ ((1 << self.n) - 1)
            value += self.cut.take(complements, out=step.gain, mode="wrap")
            del complements  # so that above _SMALL_N the sweep does not hold it
        grown = step.columns is None
        columns = _grown_columns(self.n, size, self.ranks[direction]) if grown else step.columns
        ranks = self._sweep(columns, value, best, _or_new(step.values, capacity), step.keep, grown)
        if step.forward:
            best += self.cut.take(step.index, out=step.gain, mode="wrap")
            self.prefixes.append(best)
        elif self.suffixes is not None:
            self.suffixes.append(best)
        self.values[direction], self.ranks[direction] = best, ranks
        survivors = int(np.count_nonzero(best < np.inf))
        return RowStats(
            direction=direction, size=size, workers=step.workers, chunks=step.chunks, expanded=step.expanded,
            pruned=step.expanded - survivors, survivors=survivors, transferred_records=step.transferred,
            comparisons=step.comparisons, seconds=0.0,
        )

    def _sweep(self, columns: Iterable[np.ndarray], value, best, v, keep, grown=False) -> list:
        """Pull every child of the row after ``value``'s from its parents there, one column at a time, into ``best``.

        Each child's value is the least of its parents' in ``value``;
        column j of ``columns`` ranks each child's parent without its j-th
        smallest activity, so no two children share any work; ``v`` holds
        one column's values.  Grown columns (``_grown_columns``) are each
        copied into one intp buffer, the gather's own index type, made once
        per search as long as its widest row, and kept for the next row when
        ``keep`` holds.  It counts nothing, so it is the same for any chunk
        count: the plan's steps carry the hand-overs (``_handovers``).
        Returns the kept columns.
        """
        indices = None
        if grown:
            if self.indices is None:
                self.indices = np.empty(self.plan.widest, dtype=_INTP)
            indices = self.indices[: len(best)]
        ranks: list[np.ndarray] = []
        for column, p in enumerate(columns):
            _check(self.deadline)
            if keep:
                ranks.append(p)
            if indices is not None:
                np.copyto(indices, p)
                p = indices
            # indices are ranks, always in range, and "wrap" writes straight into ``out`` where "raise" buffers
            if column == 0:
                value.take(p, out=best, mode="wrap")
            else:
                value.take(p, out=v, mode="wrap")
                np.minimum(best, v, out=best)
        return ranks

    def pair(self) -> tuple[float, tuple[int, ...]]:
        """Pair every prefix with the suffix over its complement and rebuild the winning schedule.

        The complement of the prefix set at rank i has rank C - 1 - i.
        Ties go to the lexicographically smallest prefix.  Up to
        ``_SMALL_N`` its suffix is walked down the kept suffix rows from the
        set of the activities it leaves; above, it comes from the suffix
        search run again over those activities alone.
        """
        n = self.n
        prefixes = self.prefixes[-1]
        fl = _or_new(self.plan.pairing, len(prefixes))
        np.add(prefixes, self.values[BACKWARD][::-1], out=fl)
        best = fl.min()
        prefix, rank = self._prefix_witness(np.flatnonzero(fl == best))
        rest = [a for a in range(1, n + 1) if a not in prefix]
        if self.suffixes is not None:
            suffix = _suffix_walk(self.suffixes, rest, self.tables, len(prefixes) - 1 - rank)
        else:
            suffix = _suffix_walk(self._suffix_rows(rest), rest, self.tables, 0)
        return float(best), tuple(prefix + suffix)

    def _prefix_witness(self, ties: np.ndarray) -> tuple[list[int], int]:
        """The lexicographically smallest kept prefix among the sets at ranks ``ties`` of row na, and its rank.

        A parent P of a child C is tight when value(P) + cut(C) rounds to
        value(C).  The sweep's tie rule keeps for each set the smallest
        chain of tight steps from the empty set, so the smallest kept
        prefix among the ties is the smallest such chain that reaches any
        of them.  Walking down from the ties, a set is good when it is a
        tight parent of a good set (``_tight_parents``); walking up from the
        empty set, each step adds the smallest activity whose set is good
        and has the current set as a tight parent (``_walk_up``).  The walk
        down stops at the first row whose sets are all good: every chain
        that reaches that row goes on to a tie, so below it the walk up may
        take the smallest tight step to any set, and the chain it finds is
        the smallest to that row unless it meets a set with no tight child.
        Only then does the walk down go on to the lone activities and the
        walk up start again.
        """
        rows = self.prefixes
        good: list[np.ndarray | None] = [None] * (len(rows) - 1) + [ties]  # row k's good ranks at k - 1, if known
        bottom, to_full_row = len(rows), True
        while True:
            while bottom > 1 and not (to_full_row and len(good[bottom - 1]) == len(rows[bottom - 1])):
                _check(self.deadline)
                good[bottom - 2] = self._tight_parents(bottom, good[bottom - 1])
                bottom -= 1
            found = self._walk_up(good)
            if found is not None:
                return found
            to_full_row = False

    def _tight_parents(self, size: int, children: np.ndarray) -> np.ndarray:
        """The ranks of the tight parents of the prefixes at ranks ``children`` of row ``size``, ascending.

        Vectorised over the children, in blocks of at most ``_WALK_BLOCK``
        parent ranks.
        """
        masks, value, above = self.tables.masks(size), self.prefixes[size - 1], self.prefixes[size - 2]
        marks = np.zeros(len(above), dtype=_FLAG)
        step = max(1, _WALK_BLOCK // size)
        for start in range(0, len(children), step):
            block = children[start : start + step]
            parents = _drop_ranks(self.tables, size, block).astype(_INTP, copy=False)  # both index below
            reach = above.take(parents)
            reach += self.cut.take(masks.take(block))
            marks[parents[reach == value.take(block)]] = True
        return marks.nonzero()[0]

    def _walk_up(self, good: list[np.ndarray | None]) -> tuple[list[int], int] | None:
        """The smallest chain of tight steps through the sets ``good`` holds and its last set's rank, or None.

        ``good`` holds, for each prefix row, the ranks of the sets a step
        may reach, ascending, or None for any set of the row.  Among the
        children of a set, one of smaller rank adds a smaller activity.  A
        known good set has a good tight child, so a step only looks when
        there is a choice.
        """
        prefix = []
        mask, total, i = 0, 0.0, 0  # the empty set's, from which every lone activity's step is tight
        for size, ranks in enumerate(good, start=1):
            masks = self.tables.masks(size)
            known = ranks is not None
            if not known:
                ranks = np.flatnonzero(masks & mask == mask)  # the current set's children
            if len(ranks) > 1 or not known:
                held = masks.take(ranks)
                tight = (held & mask == mask) & (total + self.cut.take(held) == self.prefixes[size - 1].take(ranks))
                first = int(tight.argmax())
                if not tight[first]:
                    return None  # the current set has no tight child, so the chain ends early
                ranks = ranks[first:]
            i = int(ranks[0])
            prefix.append((int(masks[i]) ^ mask).bit_length())
            mask, total = int(masks[i]), self.prefixes[size - 1][i]
        return prefix, i

    def _suffix_rows(self, activities: list[int]) -> list[np.ndarray]:
        """The suffix search's rows over ``activities`` alone, each but the last with its inflow added.

        The sets of k of the m activities are the first C(m, k) of n's row
        k, read as local masks: local bit i stands for the i-th of
        ``activities``.  They map to global masks only to read the inflow
        into each parent set, the cut of its complement among all n
        activities, so every value equals the full search's bit for bit.
        The parent ranks are grown, as for any row over m activities.
        """
        n = self.n
        m = len(activities)
        # the complement of each local mask among all n activities, then the inflow into the local set
        outside = np.empty(1 << m, dtype=_MASK)
        outside[0] = (1 << n) - 1
        for bit, a in enumerate(activities):
            np.bitwise_xor(outside[: 1 << bit], 1 << (a - 1), out=outside[1 << bit : 2 << bit])
        inflow = self.cut.take(outside, mode="wrap")
        del outside
        value = np.zeros(m, dtype=_VALUE)
        rows, ranks = [value], [np.zeros(m, dtype=_parent_dtype(m))]
        for size in range(2, m + 1):
            value += inflow.take(self.tables.masks(size - 1)[: comb(m, size - 1)], mode="wrap")
            best = np.empty(comb(m, size), dtype=_VALUE)
            columns = _grown_columns(m, size, ranks)
            ranks = self._sweep(columns, value, best, np.empty(len(best), _VALUE), size < m, grown=True)
            rows.append(best)
            value = best
        return rows


def _suffix_walk(rows: list[np.ndarray], activities: list[int], tables: _Tables, rank: int) -> list[int]:
    """The kept suffix of all of ``activities``, ascending, the set at ``rank`` of ``tables``' row of their number.

    ``rows`` are a suffix search's rows, up to at least row
    ``len(activities) - 1``, over all n activities of ``tables`` (``rank``
    as it falls) or over ``activities`` alone (rank 0: their sets rank as
    the first sets of n's rows do).  Each of those rows has its inflow
    added, so a child's value is the least of its parents'.  The first
    column whose parent holds that least value is the kept suffix's first
    activity, which prepends the smaller activity on ties.
    """
    activities = list(activities)
    m = len(activities)
    suffix = []
    for size in range(m, 1, -1):
        if tables.kept:
            parents = tables.parent_columns(size)[:, rank]
        else:
            parents = _drop_ranks(tables, size, np.array([rank]))[:, 0]
        column = int(rows[size - 2].take(parents).argmin())
        suffix.append(activities.pop(column))
        rank = int(parents[column])
    return suffix + activities


# ---------------------------------------------------------------- scalar kernel of the row helpers


def _scalar_cut(d: Sequence[Sequence[float]], members: Sequence[int], others: Sequence[int]) -> float:
    """The dependence of ``members`` on ``others``, activities by 0-based id, both ascending.

    Sums each member's outflow over ``others`` from 0.0, then the outflows
    from 0.0: the order ``_cut_table`` sums in, so the scalar kernel's
    values equal the array kernel's bit for bit.
    """
    total = 0.0
    for u in members:
        row = d[u]
        outflow = 0.0
        for v in others:
            outflow += row[v]
        total += outflow
    return total


def _children(
    d: Sequence[Sequence[float]], parents: Iterable[tuple[int, Node]], direction: str, deadline: float | None
) -> Iterator[tuple[int, Node]]:
    """The scalar kernel: every child of the (mask, node) parents, as (mask, node), parent by parent.

    Each parent grows by every activity it lacks, in ascending order.  Child
    prefix values add ``_scalar_cut`` of the child's set into the unused
    activities left, child suffix values the cut of the unused activities
    into the parent's set (shared by all of its children).  Checks
    ``deadline`` once per parent.
    """
    n = len(d)
    forward = direction == FORWARD
    for parent_mask, (fv_parent, acts) in parents:
        _check(deadline)
        unused = [v for v in range(n) if not parent_mask >> v & 1]
        if not forward:
            members = [v for v in range(n) if parent_mask >> v & 1]
            fv_child = fv_parent + _scalar_cut(d, unused, members)
        for v in unused:
            mask = parent_mask | 1 << v
            if forward:
                child = [u for u in range(n) if mask >> u & 1]
                yield mask, (fv_parent + _scalar_cut(d, child, [u for u in unused if u != v]), acts + (v + 1,))
            else:
                yield mask, (fv_child, (v + 1,) + acts)


# the empty schedule, whose children are the lone activities
_ROOT: tuple[int, Node] = (0, (0.0, ()))


# ---------------------------------------------------------------- public row helpers


def seed_rows(dsm: Dsm) -> tuple[RowStore, RowStore]:
    """Build both length-1 rows: the children of the empty schedule.

    A lone prefix activity already owes its dependence on everything still
    unscheduled, one position away each: its ``_scalar_cut``.  A lone suffix
    activity owes nothing yet.  Singleton sets rank to their own id.
    """
    rows = []
    for direction in (FORWARD, BACKWARD):
        row = RowStore(dsm.n, 1, dsm.n)
        for mask, node in _children(dsm.d, [_ROOT], direction, None):
            row.install(mask.bit_length(), node)
        rows.append(row)
    return rows[0], rows[1]


def _part_bounds(count: int, workers: int) -> list[tuple[int, int]]:
    """``workers`` contiguous [start, stop) ranges over ``count`` entries, sizes differing by one at most."""
    base, extra = divmod(count, workers)
    bounds = []
    start = 0
    for i in range(workers):
        stop = start + base + (1 if i < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def partition_row(row: RowStore, workers: int) -> list[list]:
    """Split the row's entries into ``workers`` contiguous, near-equal parts.

    Part sizes differ by at most one; when there are fewer entries than
    workers the trailing parts come back empty.
    """
    _check_integer(workers, "worker count", 1)
    items = row.entries()
    return [items[start:stop] for start, stop in _part_bounds(len(items), workers)]


def expand_and_prune_chunk(
    dsm: Dsm,
    parents: Sequence[Node],
    direction: str,
    *,
    table: BinomialTable | None = None,
) -> CompressedChunk:
    """Expand one chunk of same-length parents and prune it to one node per subset.

    Runs the scalar kernel (``_children``): every parent grows by every
    activity it lacks, and each child subset keeps its lowest (value,
    schedule) node, whichever parents share a subset.  The children
    come back in address order.  A parent with the empty schedule grows
    into the row ``seed_rows`` builds.  Parents of different lengths,
    holding all n activities, of a value that is not finite, or with
    activity ids that are not distinct integers in 1..n raise InputError.
    An instance that ``solve`` with the default config refuses as too large
    raises ResourceLimitError.
    """
    if direction not in (FORWARD, BACKWARD):
        raise InputError(f"direction must be {FORWARD!r} or {BACKWARD!r}, got {direction!r}")
    if not parents:
        raise InputError("chunk has no parent nodes")
    lengths = {len(acts) for _, acts in parents}
    if len(lengths) != 1:
        raise InputError("parents of one chunk must all have the same length")
    size = lengths.pop() + 1
    n = dsm.n
    if size > n:
        raise InputError(f"parents of {size - 1} activities leave none of the {n} to add")
    if not all(isfinite(fv) for fv, _ in parents):
        raise InputError("parent values must be finite")
    if table is None or table.n_max < n:
        table = BinomialTable(n)
    _check_size(n, meeting_row(SolverConfig.na, n), table, SolverConfig.memory_cap)
    masked = [(check_activities(node[1], n, "parent"), node) for node in parents]
    best: dict[int, Node] = {}
    for mask, node in _children(dsm.d, masked, direction, None):
        if mask not in best or node < best[mask]:
            best[mask] = node
    activities = range(1, n + 1)
    triples = sorted(
        (rank_sorted([a for a in activities if mask >> (a - 1) & 1], n, table), node) for mask, node in best.items()
    )
    return CompressedChunk(direction=direction, size=size, triples=triples, expanded=len(parents) * (n - size + 1))


def restore_and_merge(row: RowStore, chunks: Sequence[CompressedChunk]) -> RowStore:
    """Fold chunk results into the merged row; lower value wins per address.

    The min rule is associative and commutative over totally ordered nodes,
    so the merged row is independent of chunk arrival order.
    """
    capacity = row.capacity
    for chunk in chunks:
        for ha, node in chunk.triples:
            if not 1 <= ha <= capacity:
                raise InternalInvariantError(f"address {ha} outside row capacity {capacity} (size {row.size})")
            row.install(ha, node)
    return row


# ---------------------------------------------------------------- solve


def _round_order(variant: str, cn: int, forward_last: int, backward_last: int) -> list[tuple[str, int]]:
    """The rows both searches grow from row 1 to their last, in order, as (direction, chunks asked for).

    Each round grows a row of each search that has rows left, prefix
    first.  While both have, each gets half the chunks, an odd spare going
    to the one with more rows left (forward on ties); a finished search
    hands everything to the other.  The single-decomposition variant pins
    each search to one chunk.
    """
    order = []
    left = {FORWARD: forward_last - 1, BACKWARD: backward_last - 1}
    while left[FORWARD] or left[BACKWARD]:
        if variant == VARIANT_NO_SECOND_DECOMPOSITION:
            shares = {FORWARD: 1, BACKWARD: 1}
        elif not (left[FORWARD] and left[BACKWARD]):
            shares = {FORWARD: cn, BACKWARD: cn}
        else:
            spare = FORWARD if left[FORWARD] >= left[BACKWARD] else BACKWARD
            shares = {direction: cn // 2 + (cn % 2 if direction == spare else 0) for direction in left}
        for direction in (FORWARD, BACKWARD):
            if left[direction] and shares[direction]:
                order.append((direction, shares[direction]))
                left[direction] -= 1
    return order


def solve(dsm: Dsm, config: SolverConfig | None = None, *, table: BinomialTable | None = None) -> SolveReport:
    """Find the optimal schedule and return it with counters and timings.

    Runs the prefix search up to the meeting row and the suffix search down
    to it, row by row in rounds, then pairs every prefix with its
    complement-addressed suffix and keeps the cheapest concatenation.  The
    reported objective re-evaluates the returned schedule with the
    canonical evaluator, and the paired value is required to agree with it
    to within 1e-9 relative.

    Raises SolveTimeout once the wall-clock limit passes (counters survive
    in the exception, no schedule does) and ResourceLimitError when the
    search's arrays would need more bytes than the configured cap.  Each
    finished row is logged at INFO to this module's logger: direction,
    size, survivors, the row's seconds and the seconds since the start.
    """
    config = config or SolverConfig()
    n = dsm.n

    started = time.perf_counter()
    deadline = None if config.time_limit is None else time.monotonic() + config.time_limit
    na = 0
    if n >= 4:
        na = meeting_row(config.na, n)
        if table is None or table.n_max < n:
            table = BinomialTable(n)
        _check_size(n, na, table, config.memory_cap)

    # unimported, logging has no handler to emit to; importing it would raise the first solve's peak
    logging = sys.modules.get("logging")
    variant = config.variant
    rows: list[RowStats] = []

    setup_started = time.perf_counter()
    setup_seconds: float | None = None  # set once the search is built
    timed_out: SolveReport | None = None
    tables = _Tables.claim(n) if n >= 4 else None
    try:
        if n < 4:
            setup_seconds = 0.0
            _check(deadline)
            sequence, objective = brute_force_optimum(dsm)
            return SolveReport(
                n=n, cn=config.cn, na=0, variant=variant, sequence=sequence, objective=objective,
                total_seconds=time.perf_counter() - started,
            )
        plan = tables.plan_for(na, config.cn, variant, deadline)
        search = _ArraySearch(dsm, tables, plan, deadline)
        setup_seconds = time.perf_counter() - setup_started
        for step in plan.steps:
            row_started = time.perf_counter()
            stats = search.grow(step)
            stats.seconds = time.perf_counter() - row_started
            capacity = table.c(n, stats.size)
            if stats.survivors != capacity:
                raise InternalInvariantError(
                    f"{stats.direction} row {stats.size} holds {stats.survivors} subsets, "
                    f"expected C({n},{stats.size}) = {capacity}"
                )
            rows.append(stats)
            if logging:
                logging.getLogger(__name__).info(
                    "%s row %d: %d survivors in %.3f s, %.3f s elapsed",
                    stats.direction, stats.size, stats.survivors, stats.seconds, time.perf_counter() - started,
                )
        _check(deadline)
        combination_started = time.perf_counter()
        best_fl, best_seq = search.pair()
    except _Expired:
        if setup_seconds is None:
            setup_seconds = time.perf_counter() - setup_started
        timed_out = SolveReport(
            n=n, cn=config.cn, na=na, variant=variant, sequence=None, objective=None, rows=rows,
            setup_seconds=setup_seconds, total_seconds=time.perf_counter() - started, timed_out=True,
        )
    finally:
        if tables is not None:  # pairing was the last to read them
            tables.release()
    if timed_out is not None:
        # raised out here, with the search dropped, so that neither its context (the _Expired, whose traceback
        # holds the search's frames) nor this frame, which the traceback holds, keeps the search alive: a
        # prefix step's index is its row's masks
        search = tables = plan = step = None
        raise SolveTimeout(timed_out)

    objective = total_feedback_length(dsm, best_seq)
    if abs(best_fl - objective) > _REL_TOL * max(1.0, abs(objective)):
        raise InternalInvariantError(f"paired value {best_fl!r} disagrees with schedule objective {objective!r}")

    finished = time.perf_counter()
    return SolveReport(
        n=n, cn=config.cn, na=na, variant=variant, sequence=best_seq, objective=objective, rows=rows,
        setup_seconds=setup_seconds, combination_seconds=finished - combination_started,
        total_seconds=finished - started, combination_comparisons=plan.combination_comparisons,
    )
