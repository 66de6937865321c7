import gc
import logging
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dsmseq
from dsmseq import (
    BACKWARD,
    FORWARD,
    VARIANT_FULL,
    VARIANT_NO_COMPRESSION,
    VARIANT_NO_HASH,
    VARIANT_NO_SECOND_DECOMPOSITION,
    BinomialTable,
    Dsm,
    InputError,
    InternalInvariantError,
    ResourceLimitError,
    RowStore,
    SolverConfig,
    SolveTimeout,
    best_prefix_value,
    best_suffix_value,
    brute_force_optimum,
    complement_address,
    expand_and_prune_chunk,
    generate_instance,
    partition_row,
    prefix_feedback_value,
    rank_subset,
    restore_and_merge,
    seed_rows,
    solve,
    suffix_feedback_value,
    unrank_subset,
)

from dsmseq import solver
from dsmseq.solver import (
    _ArraySearch,
    _cut_table,
    _drop_ranks,
    _kept,
    _parent_dtype,
    _part_bounds,
    _Plan,
    _round_order,
    _scalar_cut,
    _search_bytes,
    _SMALL_N,
    _suffix_walk,
    _Tables,
)
from scan_reference import scan_solve

REL = 1e-9


def _row_masks(n: int, size: int) -> np.ndarray:
    """Row ``size``'s masks of n activities, from tables built afresh."""
    return _Tables(n).masks(size)


def _parent_columns(n: int, size: int) -> np.ndarray:
    """Row ``size``'s parent columns of n activities, from tables built afresh."""
    return _Tables(n).parent_columns(size)


def _suffix_search(dsm: Dsm, na: int, tables: _Tables) -> _ArraySearch:
    """A search over ``tables`` whose suffix rows are grown to row n - na, and no prefix row."""
    plan = _Plan(tables, na, [(BACKWARD, 1)] * (dsm.n - na - 1), VARIANT_FULL)
    search = _ArraySearch(dsm, tables, plan, None)
    for step in plan.steps:
        search.grow(step)
    return search


# ---------------------------------------------------------------- seeding


def test_seed_rows_values(dsm3):
    forward, backward = seed_rows(dsm3)
    assert [node for node in forward.slots] == [
        (pytest.approx(0.7, rel=REL), (1,)),
        (pytest.approx(0.4, rel=REL), (2,)),
        (0.0, (3,)),
    ]
    assert all(node == (0.0, (a,)) for a, node in enumerate(backward.slots, start=1))
    assert forward.occupied == backward.occupied == 3


def test_seed_rows_zero_matrix(zero6):
    forward, backward = seed_rows(zero6)
    assert all(node[0] == 0.0 for node in forward.slots)
    assert all(node[0] == 0.0 for node in backward.slots)


# ---------------------------------------------------------------- expansion


def test_forward_expansion_keeps_best_per_subset(dsm3):
    forward, _ = seed_rows(dsm3)
    parents = [forward.slots[0], forward.slots[1]]  # prefixes (1) and (2)
    chunk = expand_and_prune_chunk(dsm3, parents, FORWARD)
    assert chunk.expanded == 4
    by_address = dict(chunk.triples)
    fv, acts = by_address[1]  # subset {1, 2}
    assert acts == (2, 1)
    assert fv == pytest.approx(1.0, rel=REL)
    # increments must agree with direct prefix evaluation
    for _, (fv, acts) in chunk.triples:
        assert fv == pytest.approx(prefix_feedback_value(dsm3, acts), rel=REL)


def test_backward_expansion_increment_depends_only_on_parent_set(dsm3):
    _, backward = seed_rows(dsm3)
    chunk = expand_and_prune_chunk(dsm3, [backward.slots[2]], BACKWARD)  # suffix (3)
    nodes = dict(chunk.triples)
    fv13, acts13 = nodes[2]  # subset {1, 3}
    fv23, acts23 = nodes[3]  # subset {2, 3}
    assert acts13 == (1, 3) and acts23 == (2, 3)
    assert fv13 == pytest.approx(0.6, rel=REL)
    assert fv23 == pytest.approx(0.6, rel=REL)
    assert fv13 == pytest.approx(suffix_feedback_value(dsm3, acts13), rel=REL)


def test_expansion_tie_break_is_lexicographic(zero6):
    forward, _ = seed_rows(zero6)
    chunk = expand_and_prune_chunk(dsm=zero6, parents=forward.entries(), direction=FORWARD)
    for ha, (fv, acts) in chunk.triples:
        assert fv == 0.0
        assert acts == tuple(sorted(acts))  # smallest ordering of each subset


@pytest.mark.parametrize(
    "degrees, direction",
    # the quarter-degree cases are labelled by direction alone
    [pytest.param("quarters", d, id=d) for d in (FORWARD, BACKWARD)]
    + [pytest.param("real", d, id=f"real-{d}") for d in (FORWARD, BACKWARD)],
)
def test_sparse_chunk_keeps_the_best_child_of_its_parents(degrees, direction):
    # every other parent of a full row; quarter degrees make every sum exact and give many ties
    n = 7
    dsm = generate_instance(n, 0.7, 11)
    if degrees == "quarters":
        dsm = _quantised(dsm, (0.25, 0.5, 0.75, 1.0))
    table = BinomialTable(n)
    forward, backward = seed_rows(dsm)
    row = (forward if direction == FORWARD else backward).entries()
    for _ in range(2):
        row = [node for _, node in expand_and_prune_chunk(dsm, row, direction, table=table).triples]
    # plus two parents over subsets already present in the other order: tied in value on quarters, one ulp
    # worse on real degrees, where a child of theirs can still round to a tie and win on its schedule
    ulps = 0 if degrees == "quarters" else 1
    parents = row[::2] + [(fv + ulps * math.ulp(fv), acts[::-1]) for fv, acts in row[:4:2]]
    full = (1 << n) - 1
    expected = {}  # address: the min (value, schedule) child over that subset
    for fv, acts in parents:
        mask = sum(1 << (a - 1) for a in acts)
        for a in (v for v in range(1, n + 1) if v not in acts):
            if direction == FORWARD:
                child = acts + (a,)  # gains the outflow of the child set
                gain = _cut_by_definition(dsm.d, mask | 1 << (a - 1))
            else:
                child = (a,) + acts  # gains the inflow into the parent set
                gain = _cut_by_definition(dsm.d, full ^ mask)
            node = (fv + gain, child)
            address = rank_subset(child, n, table)
            expected[address] = min(expected.get(address, node), node)
    chunk = expand_and_prune_chunk(dsm, parents, direction, table=table)
    assert chunk.expanded == len(parents) * (n - 3)
    assert [ha for ha, _ in chunk.triples] == sorted(expected)
    assert dict(chunk.triples) == expected


def test_expansion_validation(dsm3):
    with pytest.raises(InputError):
        expand_and_prune_chunk(dsm3, [], FORWARD)
    with pytest.raises(InputError):
        expand_and_prune_chunk(dsm3, [(0.0, (1,)), (0.0, (1, 2))], FORWARD)
    with pytest.raises(InputError):
        expand_and_prune_chunk(dsm3, [(0.0, (1,))], "sideways")
    dsm5 = generate_instance(5, 0.5, 1)
    for parents in ([(0.0, (6,))], [(0.0, (0,))], [(0.0, (1, 1))], [(0.1, (1.0, 2.0))], [(0.1, (1, 2.5))]):
        with pytest.raises(InputError):
            expand_and_prune_chunk(dsm5, parents, FORWARD)
    # numpy integers are ids too
    chunk = expand_and_prune_chunk(dsm5, [(0.0, (np.int64(1), np.int32(2)))], FORWARD)
    assert chunk.triples == expand_and_prune_chunk(dsm5, [(0.0, (1, 2))], FORWARD).triples
    # parents that hold every activity, and values that are not finite, refused in both directions
    for parents in (
        [(0.0, (1, 2, 3, 4, 5))],
        [(math.nan, (1, 2)), (0.0, (1, 3))],
        [(math.inf, (1, 2)), (0.0, (3, 4))],
        [(-math.inf, (1,))],
    ):
        for direction in (FORWARD, BACKWARD):
            with pytest.raises(InputError):
                expand_and_prune_chunk(dsm5, parents, direction)


@pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
def test_empty_schedule_chunk_is_the_seed_row(direction):
    dsm = generate_instance(6, 0.7, 50)
    seeded = seed_rows(dsm)[0 if direction == FORWARD else 1]
    chunk = expand_and_prune_chunk(dsm, [(0.0, ())], direction)
    assert chunk.size == 1 and chunk.expanded == 6
    assert chunk.triples == list(enumerate(seeded.slots, start=1))


@pytest.mark.parametrize("n", [27, 31])
def test_oversized_chunk_is_refused_before_any_array(n):
    # solve() refuses both with the default config: n=27 over the memory cap, n=31 over int32 masks
    dsm = Dsm.from_rows([[0.0] * n for _ in range(n)])
    with pytest.raises(ResourceLimitError):
        solve(dsm)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            expand_and_prune_chunk(dsm, [(0.0, (1,))], FORWARD)
        assert tracemalloc.get_traced_memory()[1] < 64 * 1024
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------- merge


def _chunk(direction, size, triples):
    from dsmseq import CompressedChunk

    return CompressedChunk(
        direction=direction,
        size=size,
        triples=triples,
        expanded=len(triples),
    )


def test_merge_keeps_lower_value():
    row = RowStore(4, 2, 6)
    a = _chunk(FORWARD, 2, [(5, (1.3, (1, 2)))])
    b = _chunk(FORWARD, 2, [(5, (1.0, (2, 1)))])
    restore_and_merge(row, [a, b])
    assert row.slots[4] == (1.0, (2, 1))
    # merge result must not depend on chunk arrival order
    row2 = RowStore(4, 2, 6)
    restore_and_merge(row2, [b, a])
    assert row2.slots == row.slots


def test_merge_ties_prefer_lexicographic_schedule():
    row = RowStore(4, 2, 6)
    restore_and_merge(row, [_chunk(FORWARD, 2, [(3, (1.0, (2, 1)))])])
    restore_and_merge(row, [_chunk(FORWARD, 2, [(3, (1.0, (1, 2)))])])
    assert row.slots[2] == (1.0, (1, 2))


def test_merge_disjoint_chunks_union():
    row = RowStore(4, 2, 6)
    restore_and_merge(
        row,
        [
            _chunk(FORWARD, 2, [(1, (0.5, (1, 2)))]),
            _chunk(FORWARD, 2, [(6, (0.25, (3, 4)))]),
        ],
    )
    assert row.occupied == 2
    assert row.slots[0] == (0.5, (1, 2))
    assert row.slots[5] == (0.25, (3, 4))


def test_merge_rejects_out_of_range_addresses():
    row = RowStore(4, 2, 6)
    with pytest.raises(InternalInvariantError):
        restore_and_merge(row, [_chunk(FORWARD, 2, [(7, (0.0, (1, 2)))])])


# ---------------------------------------------------------------- partitioning


def _dummy_row(count):
    row = RowStore(20, 1, 20)
    for i in range(1, count + 1):
        row.install(i, (0.0, (i,)))
    return row


def test_partition_sizes():
    assert [len(p) for p in partition_row(_dummy_row(10), 3)] == [4, 3, 3]
    assert [len(p) for p in partition_row(_dummy_row(5), 8)] == [1, 1, 1, 1, 1, 0, 0, 0]
    parts = partition_row(_dummy_row(7), 1)
    assert len(parts) == 1 and len(parts[0]) == 7
    for workers in (0, 2.5, "2"):
        with pytest.raises(InputError):
            partition_row(_dummy_row(3), workers)
    assert len(partition_row(_dummy_row(3), np.int64(2))) == 2


def test_partition_is_a_disjoint_cover():
    row = _dummy_row(11)
    parts = partition_row(row, 4)
    flattened = [node for part in parts for node in part]
    assert flattened == row.entries()


# ---------------------------------------------------------------- solve


def test_solve_zero_matrix(zero6):
    report = solve(zero6, SolverConfig(cn=2, na=3))
    assert report.sequence == (1, 2, 3, 4, 5, 6)
    assert report.objective == 0.0


def test_solve_isolated_activity(dsm4):
    report = solve(dsm4, SolverConfig(cn=2, na=2))
    assert report.objective == 0.0
    assert report.sequence == (3, 2, 1, 4)


def test_solve_small_instances_route_to_enumeration(dsm3):
    report = solve(dsm3, SolverConfig(cn=4))
    assert report.sequence == (3, 2, 1)
    assert report.objective == 0.0
    assert report.na == 0 and report.rows == []


def test_solve_matches_brute_force():
    for seed in (0, 1, 2):
        dsm = generate_instance(8, 0.5, seed)
        report = solve(dsm, SolverConfig(cn=2, na=4))
        seq, objective = brute_force_optimum(dsm)
        assert report.sequence == seq
        assert report.objective == objective


def test_results_invariant_under_cn_and_na():
    dsm = generate_instance(10, 0.6, 13)
    table = BinomialTable(10)
    outcomes = set()
    for cn in (1, 2, 4, 8):
        for na in (3, 5, 7):
            report = solve(dsm, SolverConfig(cn=cn, na=na), table=table)
            outcomes.add((report.sequence, report.objective))
    # and across every valid meeting row for a fixed worker count
    for na in range(2, 9):
        report = solve(dsm, SolverConfig(cn=2, na=na), table=table)
        outcomes.add((report.sequence, report.objective))
    assert len(outcomes) == 1


def test_na_is_clamped():
    dsm = generate_instance(6, 0.5, 3)
    wide = solve(dsm, SolverConfig(cn=2, na=15))
    assert wide.na == 4
    narrow = solve(dsm, SolverConfig(cn=2, na=-2))
    assert narrow.na == 2
    assert wide.sequence == narrow.sequence
    assert wide.objective == narrow.objective


def test_counter_laws():
    n = 9
    dsm = generate_instance(n, 0.7, 21)
    table = BinomialTable(n)
    report = solve(dsm, SolverConfig(cn=3, na=4), table=table)
    seen = set()
    for row in report.rows:
        assert row.expanded == table.c(n, row.size - 1) * (n - row.size + 1)
        assert row.survivors == table.c(n, row.size)
        assert row.expanded - row.pruned == row.survivors
        seen.add((row.direction, row.size))
    assert seen == {(FORWARD, s) for s in range(2, 5)} | {(BACKWARD, s) for s in range(2, 6)}


@pytest.mark.parametrize("n, na, seed", [(7, 4, 8), (8, 4, 31)])
def test_row_stores_hold_per_subset_optima(n, na, seed):
    # run the row pipeline by hand and compare every slot with the oracle
    dsm = generate_instance(n, 0.8, seed)
    table = BinomialTable(n)
    forward, backward = seed_rows(dsm)
    for direction, store, last in ((FORWARD, forward, na), (BACKWARD, backward, n - na)):
        for size in range(2, last + 1):
            parts = [part for part in partition_row(store, 3) if part]
            chunks = [expand_and_prune_chunk(dsm, part, direction, table=table) for part in parts]
            merged = RowStore(n, size, table.c(n, size))
            restore_and_merge(merged, chunks)
            store = merged
        oracle = best_prefix_value if direction == FORWARD else best_suffix_value
        for ha, node in enumerate(store.slots, start=1):
            assert node is not None
            subset = unrank_subset(ha, n, store.size, table)
            assert set(node[1]) == set(subset)
            assert node[0] == pytest.approx(oracle(dsm, subset), rel=REL)


def test_timeout_at_start():
    dsm = generate_instance(10, 0.5, 4)
    with pytest.raises(SolveTimeout) as err:
        solve(dsm, SolverConfig(cn=2, time_limit=0.0))
    report = err.value.report
    assert report.timed_out
    assert report.sequence is None and report.objective is None


def test_timeout_mid_search_keeps_counters():
    # the limit lies midway between the end of an untimed solve's first row and its end, so the deadline
    # passes mid-search on a machine of any speed
    dsm = generate_instance(21, 0.5, 4)
    untimed = solve(dsm, SolverConfig(cn=2))
    first_row_ends = untimed.setup_seconds + untimed.rows[0].seconds
    limit = (first_row_ends + untimed.total_seconds) / 2
    with pytest.raises(SolveTimeout) as err:
        solve(dsm, SolverConfig(cn=2, time_limit=limit))
    report = err.value.report
    assert report.timed_out and report.sequence is None
    assert report.rows
    assert report.nodes_expanded >= 0  # counters survive
    assert report.setup_seconds > 0


def test_timeout_while_building_the_cut_table():
    # n=22's cut table alone takes several times the limit, and its row masks a few milliseconds
    dsm = generate_instance(22, 0.5, 4)
    started = time.perf_counter()
    with pytest.raises(SolveTimeout) as err:
        solve(dsm, SolverConfig(cn=1, time_limit=0.05))
    assert time.perf_counter() - started < 0.3
    report = err.value.report
    assert report.timed_out and report.sequence is None
    assert report.rows == []
    assert report.setup_seconds > 0  # the build's time up to the deadline


def test_timeout_while_building_the_row_masks():
    # a cold build of n=25's rows 1..20 alone takes three to five times the limit (0.066-0.1 s on a 2-vCPU VM)
    dsm = generate_instance(25, 0.5, 4)
    _clear_caches()
    started = time.perf_counter()
    with pytest.raises(SolveTimeout) as err:
        solve(dsm, SolverConfig(cn=1, time_limit=0.02))
    assert time.perf_counter() - started < 0.3
    assert not _kept  # above _SMALL_N a build cut short goes with its solve
    report = err.value.report
    assert report.timed_out and report.sequence is None
    assert report.rows == []


def test_timeout_while_building_the_parent_columns(monkeypatch):
    # the deadline passes at the set-up's sixth check, after rows 1..5 of n=16's masks and parent columns
    checks = []

    def check(deadline):
        checks.append(deadline)
        if len(checks) == 6:
            raise solver._Expired()

    _clear_caches()
    monkeypatch.setattr(solver, "_check", check)
    with pytest.raises(SolveTimeout):
        solve(generate_instance(16, 0.5, 4), SolverConfig(cn=2, time_limit=60.0))
    monkeypatch.undo()
    # n's tables are kept with whole rows only, each equal to a fresh build, and reading them builds nothing
    tables, fresh = _kept[16], _Tables(16)
    assert len(tables.rows) == len(tables.columns) == 5
    for size in range(1, 6):
        assert np.array_equal(tables.masks(size), fresh.masks(size))
        assert np.array_equal(tables.parent_columns(size), fresh.parent_columns(size))
    assert len(tables.rows) == len(tables.columns) == 5
    _clear_caches()


def test_a_kept_timeout_does_not_keep_the_search(monkeypatch):
    # n=22's cut table and rows take several times the limit; a caller holding the exception holds its traceback
    dsm = generate_instance(22, 0.5, 1)

    def held_after_timeout(config):
        tracemalloc.start()
        try:
            with pytest.raises(SolveTimeout) as err:
                solve(dsm, config)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert err.value.report.timed_out and err.value.__context__ is None
        return held

    assert held_after_timeout(SolverConfig(cn=2, na=5, time_limit=0.2)) < 1 << 20
    grow = _ArraySearch.grow

    def expire_at_forward_row_11(search, step):
        if step.forward and step.size == 11:  # a prefix step holds its row's masks, 2.8 MB here
            raise solver._Expired()
        return grow(search, step)

    monkeypatch.setattr(_ArraySearch, "grow", expire_at_forward_row_11)
    assert held_after_timeout(SolverConfig(cn=2, na=11)) < 1 << 20


def test_the_cut_tables_buffer_size_is_its_threads_alone_and_given_back(monkeypatch):
    default = np.getbufsize()
    dsm = generate_instance(12, 0.5, 1)
    seen = {}
    check = solver._check

    def probe(deadline):
        # inside the cut table's fold another thread reads numpy's default buffer size
        if np.getbufsize() == solver._FOLD_BUFSIZE and not seen:
            reader = threading.Thread(target=lambda: seen.setdefault("other", np.getbufsize()))
            reader.start()
            reader.join()
            seen["solving"] = np.getbufsize()
        check(deadline)

    monkeypatch.setattr(solver, "_check", probe)
    solve(dsm, SolverConfig(cn=1, na=5))
    assert seen == {"other": default, "solving": solver._FOLD_BUFSIZE}
    assert np.getbufsize() == default

    def expire_in_the_fold(deadline):
        if np.getbufsize() == solver._FOLD_BUFSIZE:
            raise solver._Expired()

    monkeypatch.setattr(solver, "_check", expire_in_the_fold)
    with pytest.raises(SolveTimeout) as err:
        solve(dsm, SolverConfig(cn=1, na=5, time_limit=60.0))
    assert err.value.report.rows == []
    assert np.getbufsize() == default


def test_memory_cap():
    dsm = generate_instance(10, 0.5, 4)
    with pytest.raises(ResourceLimitError, match=r"C\(10,5\) = 252"):
        solve(dsm, SolverConfig(cn=2, memory_cap=100))


@pytest.mark.parametrize(
    "n, na",
    # n=16 is labelled by na alone; n=17 is the last n that keeps every suffix row, n=18 the first n whose
    # parent ranks are int32, and (19, 2) runs the widest suffix search again, over 17 activities
    [pytest.param(16, na, id=str(na)) for na in (2, 5, 14)]
    + [
        pytest.param(n, na, id=f"{n}-{na}")
        for n, na in ((8, 3), (8, 5), (12, 5), (17, 2), (17, 5), (18, 5), (18, 9), (19, 2))
    ],
)
def test_memory_cap_counts_bytes(n, na):
    table = BinomialTable(n)
    estimate = _search_bytes(n, na)
    dsm = generate_instance(n, 0.5, 4)
    for cn in (1, 3):
        _clear_caches()  # so the solve pays for its tables too
        tracemalloc.start()
        try:
            solve(dsm, SolverConfig(cn=cn, na=na), table=table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= estimate <= 2 * peak
    # one byte short is refused before any array exists
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=rf"C\({n},{n // 2}\) = {math.comb(n, n // 2)}"):
            solve(dsm, SolverConfig(cn=1, na=na, memory_cap=estimate - 1), table=table)
        assert tracemalloc.get_traced_memory()[1] < 64 * 1024
    finally:
        tracemalloc.stop()


def _clear_caches() -> None:
    """Empty what solves keep: every kept n's tables."""
    _kept.clear()


def _fresh_interpreter(code: str) -> None:
    """Run ``code`` in a new interpreter that imports this checkout's package; it fails by raising."""
    src = str(Path(dsmseq.__file__).parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


def test_first_solve_of_a_process_stays_within_the_estimate():
    # pytest has imported logging already, so the first solve of a process is measured in a fresh one
    _fresh_interpreter(
        "import tracemalloc\n"
        "from dsmseq import BinomialTable, SolverConfig, generate_instance, solve\n"
        "from dsmseq.solver import _search_bytes\n"
        "dsm = generate_instance(14, 0.5, 4)\n"
        "tracemalloc.start()\n"
        "solve(dsm, SolverConfig(cn=1, na=2))\n"
        "peak = tracemalloc.get_traced_memory()[1]\n"
        "estimate = _search_bytes(14, 2)\n"
        "assert peak <= estimate <= 2 * peak, (peak, estimate)\n"
    )


def test_a_no_hash_solve_stays_within_the_estimate():
    # the plan counts the scan stores' comparisons, above _SMALL_N with the columns of each row grown, before the
    # search makes its arrays
    _fresh_interpreter(
        "import tracemalloc\n"
        "from dsmseq import SolverConfig, generate_instance, solve\n"
        "from dsmseq.solver import _search_bytes\n"
        "dsm = generate_instance(19, 0.5, 4)\n"
        "tracemalloc.start()\n"
        "solve(dsm, SolverConfig(cn=3, na=5, variant='no-hash'))\n"
        "peak = tracemalloc.get_traced_memory()[1]\n"
        "estimate = _search_bytes(19, 5)\n"
        "assert peak <= estimate <= 2 * peak, (peak, estimate)\n"
    )


def test_a_first_solve_of_many_chunks_peaks_as_the_next():
    # chunk counts are worked out when a plan is made and hold no array, so the first solve of a process at
    # cn=3, above _SMALL_N where every solve makes its plan, peaks within 64 KB of the second one
    _fresh_interpreter(
        "import tracemalloc\n"
        "from dsmseq import SolverConfig, generate_instance, solve\n"
        "dsm = generate_instance(19, 0.5, 4)\n"
        "peaks = []\n"
        "for _ in range(2):\n"
        "    tracemalloc.start()\n"
        "    solve(dsm, SolverConfig(cn=3))\n"
        "    peaks.append(tracemalloc.get_traced_memory()[1])\n"
        "    tracemalloc.stop()\n"
        "assert abs(peaks[0] - peaks[1]) <= 64 * 1024, peaks\n"
    )


def test_importing_the_package_leaves_logging_unloaded():
    # a solve's set-up time includes the package import, and logging would add milliseconds to it
    _fresh_interpreter("import sys, dsmseq\nassert 'logging' not in sys.modules, 'dsmseq imports logging'\n")


def test_default_memory_cap_admits_n_22():
    cap = SolverConfig().memory_cap
    assert all(_search_bytes(22, na) <= cap for na in range(2, 21))
    assert [na for na in range(2, 25) if _search_bytes(26, na) <= cap] == list(range(2, 11))
    assert all(_search_bytes(27, na) > cap for na in range(2, 26))


def test_phase_timings_add_up():
    report = solve(generate_instance(12, 0.5, 9), SolverConfig(cn=2, na=5))
    assert report.setup_seconds > 0
    phases = (
        report.setup_seconds + report.forward_seconds + report.backward_seconds
        + report.combination_seconds
    )
    assert phases <= report.total_seconds
    for direction, total in ((FORWARD, report.forward_seconds), (BACKWARD, report.backward_seconds)):
        rows = [row.seconds for row in report.rows if row.direction == direction]
        assert all(seconds > 0 for seconds in rows)
        assert sum(rows) == pytest.approx(total, rel=REL)


def test_solve_logs_each_row(caplog):
    with caplog.at_level(logging.INFO, logger="dsmseq.solver"):
        report = solve(generate_instance(10, 0.5, 9), SolverConfig(cn=2, na=4))
    records = [r for r in caplog.records if r.name == "dsmseq.solver"]
    assert len(records) == len(report.rows) == 8
    elapsed = 0.0
    for record, row in zip(records, report.rows):
        assert record.levelno == logging.INFO
        assert record.args[:4] == (row.direction, row.size, row.survivors, row.seconds)
        assert record.args[4] >= max(elapsed, row.seconds)
        elapsed = record.args[4]
        assert row.direction in record.getMessage()


def test_config_validation(dsm4):
    with pytest.raises(InputError):
        solve(dsm4, SolverConfig(cn=0))
    for bad in ({"cn": 2.5}, {"cn": "2"}, {"cn": True}, {"na": 3.5}, {"na": "3"}, {"na": None}, {"na": True}):
        with pytest.raises(InputError):
            SolverConfig(**bad)
    assert solve(dsm4, SolverConfig(cn=np.int64(2), na=np.int32(2))).sequence is not None
    with pytest.raises(InputError):
        solve(dsm4, SolverConfig(variant="fancy"))
    for time_limit in (math.nan, -1.0, -math.inf, "5"):
        with pytest.raises(InputError):
            SolverConfig(time_limit=time_limit)
    for memory_cap in (math.nan, -1, -math.inf, "big", None):  # a NaN cap would admit every search
        with pytest.raises(InputError):
            SolverConfig(memory_cap=memory_cap)
    assert solve(dsm4, SolverConfig(time_limit=math.inf)).sequence is not None


# ---------------------------------------------------------------- variants


def test_variants_preserve_results_and_change_counters():
    dsm = generate_instance(9, 0.5, 3)
    table = BinomialTable(9)
    full = solve(dsm, SolverConfig(cn=4, na=4), table=table)
    for variant in (VARIANT_NO_SECOND_DECOMPOSITION, VARIANT_NO_COMPRESSION, VARIANT_NO_HASH):
        report = solve(dsm, SolverConfig(cn=4, na=4, variant=variant), table=table)
        assert report.sequence == full.sequence
        assert report.objective == full.objective
        assert report.nodes_expanded == full.nodes_expanded
    no_hash = solve(dsm, SolverConfig(cn=4, na=4, variant=VARIANT_NO_HASH), table=table)
    assert no_hash.similar_comparisons > full.similar_comparisons
    no_compression = solve(
        dsm, SolverConfig(cn=4, na=4, variant=VARIANT_NO_COMPRESSION), table=table
    )
    full_rows = {(r.direction, r.size): r.transferred_records for r in full.rows}
    for row in no_compression.rows:
        assert row.transferred_records >= full_rows[(row.direction, row.size)]


def test_single_decomposition_uses_one_worker_per_direction():
    dsm = generate_instance(8, 0.5, 6)
    report = solve(dsm, SolverConfig(cn=8, na=4, variant=VARIANT_NO_SECOND_DECOMPOSITION))
    assert all(row.workers == 1 for row in report.rows)
    full = solve(dsm, SolverConfig(cn=8, na=4))
    assert report.sequence == full.sequence and report.objective == full.objective


def test_no_hash_work_does_not_grow_with_cn():
    # a row of k entries splits into at most k chunks, and cn=20 already splits every row here that far
    dsm = generate_instance(6, 0.5, 3)
    few, many = (solve(dsm, SolverConfig(cn=cn, na=4, variant=VARIANT_NO_HASH)) for cn in (20, 10**6))
    assert many.total_seconds < 0.5
    assert many.sequence == few.sequence and many.objective == few.objective
    counters = [
        [(r.direction, r.size, r.chunks, r.expanded, r.survivors, r.transferred_records, r.comparisons) for r in rows]
        for rows in (few.rows, many.rows)
    ]
    assert counters[0] == counters[1]


# ---------------------------------------------------------------- exact ties


@st.composite
def _tie_heavy_dsm(draw):
    """n <= 8 with degrees in {0, 0.5, 1}, half of them symmetric: full of exact ties."""
    n = draw(st.integers(min_value=4, max_value=8))
    symmetric = draw(st.booleans())
    degree = st.sampled_from((0.0, 0.5, 1.0))
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i < j or (i > j and not symmetric):
                rows[i][j] = draw(degree)
            elif i > j:
                rows[i][j] = rows[j][i]
    return Dsm.from_rows(rows)


# all six pairings tie, so the prefix witness's walk down stops at once, but {1}, the walk up's first step, is no
# child's tight parent, so the walk down goes on and the walk up starts again
_DEAD_END = Dsm.from_rows([[0.0, 0.0, 0.5, 1.0], [1.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0], [0.0, 0.5, 0.5, 0.0]])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(dsm=_tie_heavy_dsm(), cn=st.integers(min_value=1, max_value=3), na=st.integers(min_value=2, max_value=6))
@example(dsm=_DEAD_END, cn=1, na=2)
def test_tie_heavy_sequences_match_brute_force(dsm, cn, na):
    report = solve(dsm, SolverConfig(cn=cn, na=na))
    seq, objective = brute_force_optimum(dsm)
    assert report.sequence == seq
    assert report.objective == objective


def _quantised(dsm, levels):
    """Rate every nonzero degree by the part of (0, 1] it falls in and replace it by that level."""
    return Dsm.from_rows(
        [[levels[math.ceil(v * len(levels)) - 1] if v else 0.0 for v in row] for row in dsm.d]
    )


def _counters(report, comparisons=True):
    """Every counter of ``report``'s rows but ``seconds``, with the comparisons or without them, and the pairing's."""
    rows = [
        (r.direction, r.size, r.workers, r.chunks, r.expanded, r.pruned, r.survivors, r.transferred_records)
        + ((r.comparisons,) if comparisons else ())
        for r in report.rows
    ]
    return rows, report.combination_comparisons if comparisons else None


@pytest.mark.parametrize("n", [10, 11, 12])
@pytest.mark.parametrize("levels", [(0.25, 0.5, 0.75), (0.5, 1.0)])
def test_array_kernel_matches_scalar_reference_on_ties(n, levels):
    dsm = _quantised(generate_instance(n, 0.6, 500 + n), levels)
    table = BinomialTable(n)
    for cn in (1, 2, 3):
        scalar = scan_solve(dsm, cn, 5)
        for variant in (VARIANT_FULL, VARIANT_NO_HASH):
            report = solve(dsm, SolverConfig(cn=cn, na=5, variant=variant), table=table)
            assert report.sequence == scalar.sequence
            assert report.objective == scalar.objective
            no_hash = variant == VARIANT_NO_HASH
            assert _counters(report, no_hash) == _counters(scalar, no_hash)


def test_no_hash_counts_the_scalar_references_comparisons(monkeypatch):
    # the counts do not depend on the instance, so one per n covers every chunk count and meeting row
    for n in range(4, 12):
        dsm = generate_instance(n, 0.5, 40 + n)
        table = BinomialTable(n)
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_SMALL_N", 3)
            grown = _Tables(n)  # as above _SMALL_N, where a plan grows each row's parent columns to count
        for cn in range(1, 9):
            for na in range(2, n - 1):
                expected = _counters(scan_solve(dsm, cn, na))
                report = solve(dsm, SolverConfig(cn=cn, na=na, variant=VARIANT_NO_HASH), table=table)
                assert _counters(report) == expected, (n, cn, na)
                plan = _Plan(grown, na, _round_order(VARIANT_NO_HASH, cn, na, n - na), VARIANT_NO_HASH)
                assert [step.comparisons for step in plan.steps] == [row[-1] for row in expected[0]]


@st.composite
def _quarter_dsm(draw):
    """n <= 8 with degrees in {0, 1/4, 1/2, 3/4, 1} and some rows and columns all zero: exact sums, many ties."""
    n = draw(st.integers(min_value=4, max_value=8))
    degree = st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0))
    silent = draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n // 2))  # zero rows
    deaf = draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n // 2))  # zero columns
    return Dsm.from_rows(
        [[0.0 if i == j or i in silent or j in deaf else draw(degree) for j in range(n)] for i in range(n)]
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(dsm=_quarter_dsm())
def test_quarter_degree_sequences_match_brute_force_at_every_meeting_row(dsm):
    # the witnesses rebuild the lexicographically smallest optimum wherever the searches meet
    seq, objective = brute_force_optimum(dsm)
    for na in range(2, dsm.n - 1):
        for cn in (1, 3):
            report = solve(dsm, SolverConfig(cn=cn, na=na))
            assert (report.sequence, report.objective) == (seq, objective)


def _isolated(n: int) -> Dsm:
    """Quarter degrees with every third activity isolated: no dependence into or out of it."""
    rows = [list(row) for row in _quantised(generate_instance(n, 0.3, 300 + n), (0.25, 0.5, 0.75, 1.0)).d]
    for a in range(0, n, 3):
        for b in range(n):
            rows[a][b] = rows[b][a] = 0.0
    return Dsm.from_rows(rows)


@pytest.mark.parametrize("n", range(12, 17))
def test_tied_optima_give_one_sequence_for_every_meeting_row_and_chunk_count(n):
    table = BinomialTable(n)
    zero = Dsm.from_rows([[0.0] * n for _ in range(n)])
    for dsm, expected in ((zero, tuple(range(1, n + 1))), (_isolated(n), None)):
        sequences = {
            solve(dsm, SolverConfig(cn=cn, na=na), table=table).sequence for na in range(2, n - 1) for cn in (1, 2, 8)
        }
        assert len(sequences) == 1
        if expected:
            assert sequences == {expected}


@pytest.mark.parametrize("small_n", [_SMALL_N, 3])
@pytest.mark.parametrize("n, seed", [(9, 1), (11, 2), (12, 3)])
def test_suffix_search_over_a_subset_reproduces_the_full_rows(monkeypatch, small_n, n, seed):
    # with _SMALL_N at 3 the full search grows its parent ranks too, as the search over the subset always does
    monkeypatch.setattr(solver, "_SMALL_N", small_n)
    dsm = _quantised(generate_instance(n, 0.6, seed), (1 / 3, 2 / 3, 1.0))
    tables = _Tables(n)
    plan = _Plan(tables, 0, [(BACKWARD, 1)] * (n - 1), VARIANT_FULL)
    search = _ArraySearch(dsm, tables, plan, None)
    rows = [search.values[BACKWARD].copy()]
    for step in plan.steps:
        search.grow(step)
        rows.append(search.values[BACKWARD].copy())  # before the next row adds the inflow
    rank = _rank_map(n)
    full = (1 << n) - 1
    rng = np.random.default_rng(seed)
    for m in (3, n - 3, n - 1):
        activities = sorted(int(a) for a in rng.choice(np.arange(1, n + 1), size=m, replace=False))
        again = search._suffix_rows(activities)
        assert len(again) == m
        for size in range(1, m + 1):
            local = _row_masks(m, size)
            spread = np.zeros(len(local), dtype=np.int64)
            for bit, a in enumerate(activities):
                spread |= (local >> bit & 1).astype(np.int64) << (a - 1)
            expected = rows[size - 1][rank[spread]]
            if size < m:  # every row but the last holds its inflow
                expected = expected + search.cut[full ^ spread]
            assert again[size - 1].view(np.int64).tolist() == expected.view(np.int64).tolist()


@pytest.mark.parametrize("kind", ["zero", "quarters", "thirds"])
@pytest.mark.parametrize("n", [9, 13, _SMALL_N])
def test_suffix_walked_on_kept_rows_equals_the_search_run_again(monkeypatch, kind, n):
    # up to _SMALL_N pairing walks the main search's suffix rows; above, it runs the search again over the rest,
    # on the first sets of n's rows, and walks that on tables that hold no parent columns, so the walk ranks
    # each parent by _drop_ranks' closed form, as it does here with _SMALL_N patched below n
    dsm = Dsm.from_rows([[0.0] * n for _ in range(n)]) if kind == "zero" else generate_instance(n, 0.6, 60 + n)
    if kind != "zero":
        dsm = _quantised(dsm, (0.25, 0.5, 0.75, 1.0) if kind == "quarters" else (1 / 3, 2 / 3, 1.0))
    with monkeypatch.context() as patch:
        patch.setattr(solver, "_SMALL_N", 3)
        unkept = _Tables(n)
    assert not unkept.kept
    for na in (2, 5, n - 2):
        m = n - na
        tables = _Tables(n)
        search = _suffix_search(dsm, na, tables)
        assert len(search.suffixes) == m
        count = math.comb(n, m)
        for rank in range(0, count, max(1, count // 12)):  # sets the prefix could leave, ranks spread out
            mask = int(tables.masks(m)[rank])
            rest = [a for a in range(1, n + 1) if mask >> (a - 1) & 1]
            rows = search._suffix_rows(rest)
            again = _suffix_walk(rows, rest, unkept, 0)
            assert _suffix_walk(search.suffixes, rest, tables, rank) == again == _suffix_walk(rows, rest, tables, 0)
            if kind == "zero":
                assert again == rest  # every suffix ties, and the smaller activity goes first


# ---------------------------------------------------------------- cut table


def _cut_by_definition(d: list[list[float]], mask: int) -> float:
    """cut(S) summed as a double loop: members ascending, each one's outflow over non-members ascending."""
    n = len(d)
    members = [u for u in range(n) if mask >> u & 1]
    others = [v for v in range(n) if not mask >> v & 1]
    total = 0.0
    for u in members:
        outflow = 0.0
        for v in others:
            outflow += d[u][v]
        total += outflow
    return total


def _cut_matrices() -> dict[str, Dsm]:
    matrices = {}
    for n in range(2, 11):
        real = generate_instance(n, 0.7, 40 + n)
        matrices[f"real-{n}"] = real
        matrices[f"quarters-{n}"] = _quantised(real, (0.25, 0.5, 0.75, 1.0))
        matrices[f"thirds-{n}"] = _quantised(real, (1 / 3, 2 / 3, 1.0))
    matrices["zero"] = Dsm.from_rows([[0.0] * 5 for _ in range(5)])
    signed = [list(row) for row in generate_instance(6, 0.8, 7).d]
    signed[1][4] = signed[3][0] = -0.0
    matrices["negative-zero"] = Dsm.from_rows(signed)
    return matrices


_CUT_MATRICES = _cut_matrices()


@pytest.mark.parametrize("name", list(_CUT_MATRICES))
def test_cut_table_keeps_the_summation_order(name):
    # bit for bit, so a table summed in any other order fails on the real and thirds matrices
    d = [list(row) for row in _CUT_MATRICES[name].d]
    expected = np.array([_cut_by_definition(d, mask) for mask in range(1 << len(d))])
    table = _cut_table(np.array(d))
    assert table.view(np.int64).tolist() == expected.view(np.int64).tolist()
    n = len(d)
    seeded = np.array([fv for fv, _ in seed_rows(_CUT_MATRICES[name])[0].entries()])
    singletons = expected[1 << np.arange(n)]
    assert seeded.view(np.int64).tolist() == singletons.view(np.int64).tolist()
    # the scalar reference kernel's cut, which also sums the no-hash rows
    scalar = np.array([
        _scalar_cut(d, [u for u in range(n) if mask >> u & 1], [v for v in range(n) if not mask >> v & 1])
        for mask in range(1 << n)
    ])
    assert scalar.view(np.int64).tolist() == expected.view(np.int64).tolist()


def _rank_map(n: int) -> np.ndarray:
    """The 0-based rank of every mask within its size class, from the rows."""
    rank = np.zeros(1 << n, dtype=np.int64)
    for size in range(1, n + 1):
        masks = _row_masks(n, size)
        rank[masks] = np.arange(len(masks))
    return rank


def _colex_rank(mask: int) -> int:
    """The sum of C(c_i, i + 1) over the set bits c_0 < c_1 < ... of ``mask``."""
    bits = [c for c in range(mask.bit_length()) if mask >> c & 1]
    return sum(math.comb(c, i + 1) for i, c in enumerate(bits))


def test_row_masks_agree_with_rank_and_complement_address():
    # the array kernel ranks subsets by mask, in colexicographic order, which does not involve n
    widest = _Tables(17)
    for n in range(1, 13):
        full = (1 << n) - 1
        for size in range(1, n + 1):
            capacity = math.comb(n, size)
            masks = _row_masks(n, size)
            assert len(masks) == capacity and (np.diff(masks) > 0).all()
            assert masks.tolist() == widest.masks(size)[:capacity].tolist()
            for i, mask in enumerate(masks.tolist()):
                assert mask.bit_count() == size and _colex_rank(mask) == i
                if size < n:
                    # pair() reads the suffix of prefix rank i at C - 1 - i
                    assert _colex_rank(full ^ mask) == capacity - 1 - i
    for n in range(13, 17):
        for size in range(1, n + 1):
            assert _row_masks(n, size).tolist() == widest.masks(size)[: math.comb(n, size)].tolist()
    # the CLI's addresses stay lexicographic: 1-based positions in the enumeration, complements mirrored
    for n in range(1, 11):
        table = BinomialTable(n)
        for size in range(1, n + 1):
            capacity = table.c(n, size)
            for i, members in enumerate(combinations(range(1, n + 1), size)):
                assert rank_subset(members, n, table) == i + 1
                assert unrank_subset(i + 1, n, size, table) == members
                if size < n:
                    rest = tuple(a for a in range(1, n + 1) if a not in members)
                    assert complement_address(i + 1, n, size, table) == capacity - i == rank_subset(rest, n, table)


def test_parent_ranks_grown_row_by_row_match_the_rank_map():
    # column j of a row ranks each child without its j-th lowest bit, as the row's sweep reads it
    widest = _Tables(17)
    for n in range(4, 17):
        rank = _rank_map(n)
        assert _parent_columns(n, 1)[0].tolist() == [0] * n  # the empty set
        for size in range(2, n + 1):
            masks = _row_masks(n, size)
            columns = _parent_columns(n, size)
            assert len(columns) == size
            assert columns.tolist() == widest.parent_columns(size)[:, : len(masks)].tolist()
            if n > 12:
                continue
            rest = masks.copy()
            for column, parents in enumerate(columns):
                assert parents.dtype == _parent_dtype(n)
                low = rest & -rest
                rest ^= low
                assert parents.tolist() == rank[masks ^ low].tolist()
                if column:
                    # descending across columns, so the chunk labels count hand-overs
                    assert (parents < columns[column - 1]).all()
            # a set's children rank in the order of the activity added, which _walk_up relies on
            for parent in _row_masks(n, size - 1).tolist():
                children = [rank[parent | 1 << b] for b in range(n) if not parent >> b & 1]
                assert children == sorted(children)


def test_parent_ranks_from_the_masks_match_the_cached_columns(monkeypatch):
    # above _SMALL_N the prefix witness and the suffix walk rank each child's parents from its mask
    monkeypatch.setattr(solver, "_SMALL_N", 3)
    rng = np.random.default_rng(5)
    for n in range(4, 13):
        for size in range(2, n + 1):
            count = math.comb(n, size)
            children = np.unique(rng.integers(0, count, size=min(count, 40)))
            expected = _parent_columns(n, size)[:, children]
            assert _drop_ranks(_Tables(n), size, children).tolist() == expected.tolist()


def test_every_rank_of_a_small_n_fits_the_cached_columns():
    assert _parent_dtype(_SMALL_N) == np.int16
    assert _parent_dtype(_SMALL_N + 1) == np.int32


@pytest.mark.parametrize("n, na", [(10, 4), (12, 5), (13, 9)])
def test_grown_parent_ranks_solve_as_the_cached_ones(monkeypatch, n, na):
    # above _SMALL_N each sweep grows its rows' parent ranks
    dsm = _quantised(generate_instance(n, 0.6, 70 + n), (0.25, 0.5, 0.75))
    table = BinomialTable(n)

    def run(cn):
        report = solve(dsm, SolverConfig(cn=cn, na=na), table=table)
        rows = [(r.direction, r.size, r.chunks, r.survivors, r.transferred_records) for r in report.rows]
        return report.sequence, report.objective.hex(), rows

    cached = {cn: run(cn) for cn in (1, 2, 3, 8)}
    monkeypatch.setattr(solver, "_SMALL_N", 3)
    _kept.clear()  # so that n's tables, and their plans, are laid out afresh above the patched bound
    for cn, expected in cached.items():
        assert run(cn) == expected


@lru_cache(maxsize=1)
def _lexicographic_ranks(n: int) -> np.ndarray:
    """The 0-based lexicographic rank of every mask of n activities within its size class, by ``rank_subset``."""
    table = BinomialTable(n)
    rank = np.zeros(1 << n, dtype=np.int64)
    for mask in range(1, 1 << n):
        rank[mask] = rank_subset([a for a in range(1, n + 1) if mask >> (a - 1) & 1], n, table) - 1
    return rank


def _direct_handovers(n: int, size: int, chunks: int) -> int:
    """Chunks reaching each child of row ``size``, summed: the distinct chunks among each child's parents.

    The chunks are contiguous ranges of the parents in lexicographic order, whatever order the rows are in.
    """
    rank = _lexicographic_ranks(n)
    label = np.zeros(math.comb(n, size - 1), dtype=np.int64)
    for chunk, (start, stop) in enumerate(_part_bounds(len(label), chunks)):
        label[start:stop] = chunk
    total = 0
    for mask in _row_masks(n, size).tolist():
        total += len({int(label[rank[mask ^ 1 << b]]) for b in range(n) if mask >> b & 1})
    return total


def test_chunk_counts_equal_a_direct_label_count():
    for n in range(4, 15):
        tables = _Tables(n)
        for variant in (VARIANT_FULL, VARIANT_NO_COMPRESSION):
            for chunks in range(1, 9):
                # the suffix search's steps run to row n
                plan = _Plan(tables, 0, [(BACKWARD, chunks)] * (n - 1), variant)
                for size, step in enumerate(plan.steps, start=2):
                    assert step.chunks == min(chunks, math.comb(n, size - 1))
                    if variant == VARIANT_NO_COMPRESSION:
                        assert step.transferred == step.chunks * math.comb(n, size)
                    else:
                        assert step.transferred == _direct_handovers(n, size, step.chunks)


def test_cached_rows_are_read_only_and_unchanged_by_a_solve():
    n = 10
    dsm = generate_instance(n, 0.5, 3)
    _kept.clear()
    solve(dsm, SolverConfig(cn=2, na=4))
    tables = _kept[n]
    rows = {size: tables.masks(size).copy() for size in range(1, n + 1)}
    columns = {size: tables.parent_columns(size).copy() for size in range(1, n + 1)}
    solve(dsm, SolverConfig(cn=2, na=4))
    parents = seed_rows(dsm)[0].entries()
    expand_and_prune_chunk(dsm, parents, FORWARD)
    assert _kept[n] is tables
    for size, before in rows.items():
        masks = tables.masks(size)
        assert not masks.flags.writeable
        assert masks.tolist() == before.tolist()
        cached = tables.parent_columns(size)
        assert not cached.flags.writeable
        assert cached.tolist() == columns[size].tolist()


def _cut_tables(monkeypatch) -> list:
    """Record the views each solve hands the cut table from now on, and the table it gets back."""
    seen = []
    build = solver._cut_table

    def recording(d, deadline=None, views=None):
        table = build(d, deadline, views)
        seen.append((views, table))
        return table

    monkeypatch.setattr(solver, "_cut_table", recording)
    return seen


def _plan_arrays(tables: _Tables) -> list[np.ndarray]:
    """Every array the plan of ``tables`` holds, by the array owning its memory, each once, n's row tables left out."""
    tabled = {id(a) for a in [*tables.rows, *tables.columns]}
    owners: dict[int, np.ndarray] = {}
    seen, todo = set(), [tables.plan]
    while todo:
        item = todo.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            owner = item if item.base is None else item.base
            if id(owner) not in tabled:
                owners[id(owner)] = owner
        elif isinstance(item, (_Plan, solver._Step, solver._CutViews, list, tuple, dict)):
            todo.extend(gc.get_referents(item))
    return list(owners.values())


def _outcome(report) -> tuple:
    """A report's sequence, objective bits and every row counter."""
    fields = ("direction", "size", "workers", "chunks", "expanded", "survivors", "transferred_records")
    rows = [tuple(getattr(row, name) for name in fields) for row in report.rows]
    return report.sequence, report.objective.hex(), rows


def test_warm_solves_reuse_one_workspace(monkeypatch):
    n = 12
    dsms = [generate_instance(n, 0.5, seed) for seed in (5, 6)]
    _kept.clear()
    fresh = [solve(dsm, SolverConfig(cn=2, na=5)) for dsm in dsms]
    kept = _kept[n]
    plan = kept.plan
    cut = plan.cut
    seen = _cut_tables(monkeypatch)
    # what the last solve left in the plan's arrays changes nothing, and the rest are read-only
    for array in _plan_arrays(kept):
        if array.flags.writeable:
            array.fill(np.nan if array.dtype.kind == "f" else 1)
    warm = [solve(dsm, SolverConfig(cn=2, na=5)) for dsm in dsms]
    assert kept.plan is plan and _kept[n] is kept
    assert [views for views, _ in seen] == [cut, cut]
    assert all(table is cut.total for _, table in seen)
    assert [_outcome(report) for report in warm] == [_outcome(report) for report in fresh]
    # a change of na or cn builds a new plan, which solves as one laid out with nothing kept
    for config in (SolverConfig(cn=2, na=4), SolverConfig(cn=3, na=5), SolverConfig(cn=2, na=5)):
        before = kept.plan
        for dsm in dsms:
            got = solve(dsm, config)
            _kept.clear()
            assert _outcome(got) == _outcome(solve(dsm, config))
            _kept[n] = kept
        assert kept.plan is not before and kept.plan.key == (config.na, config.cn, VARIANT_FULL)
    plan = kept.plan
    # a solve that finds the tables claimed lays out its own, and one that times out still gives them back
    claimed = _Tables.claim(n)
    assert claimed is kept and n not in _kept
    assert solve(dsms[0], SolverConfig(cn=2, na=5)).sequence == fresh[0].sequence
    other = _kept[n]
    assert other is not kept and seen[-1][0] is other.plan.cut
    claimed.release()
    with pytest.raises(SolveTimeout):
        solve(dsms[0], SolverConfig(cn=2, time_limit=0.0))
    assert _kept[n] is kept
    solve(dsms[1], SolverConfig(cn=2, na=5))
    assert seen[-1] == (plan.cut, plan.cut.total) and kept.plan is plan and _kept[n] is kept


def test_solves_at_varied_meeting_rows_keep_one_plans_arrays():
    # n's kept object holds the last plan's arrays alone, so varied meeting rows leave what one solve does
    n = 16
    dsm = generate_instance(n, 0.5, 1)
    held = []
    for rows in ([5], [5, 2, 14, 5]):
        _kept.clear()
        for na in rows:
            solve(dsm, SolverConfig(cn=1, na=na))
        held.append(sum(array.nbytes for array in _plan_arrays(_kept[n])))
    assert held[0] == held[1]


def test_large_n_keeps_no_workspace():
    # a solve above _SMALL_N leaves nothing behind, its suffix search run again over n - na = 17 activities included
    dsm = generate_instance(22, 0.5, 1)
    _kept.clear()
    tracemalloc.start()
    try:
        report = solve(dsm, SolverConfig(cn=2, na=5))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert report.sequence is not None and not _kept
    assert held < 64 * 1024, held


def test_concurrent_solves_never_share_a_workspace():
    # more threads than cores and a short switch interval, so solves of one n interleave mid-table; n's
    # tables shared by two of them would corrupt one's cut table
    dsms = [generate_instance(11, 0.5, seed) for seed in range(6)]
    expected = [solve(dsm, SolverConfig(cn=2)) for dsm in dsms]
    results: list[list[tuple]] = [[] for _ in range(6)]

    def work(i):
        for _ in range(5):
            report = solve(dsms[i], SolverConfig(cn=2))
            results[i].append((report.sequence, report.objective))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for i, report in enumerate(expected):
        assert results[i] == [(report.sequence, report.objective)] * 5
