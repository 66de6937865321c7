"""Traced run: spans around the calls into each dsmseq module, and a row replay.

Nothing inside ``src/dsmseq`` is instrumented.  The traced run calls the
package's public functions and times them from outside:

* ``cli.main`` runs with its ``read_dsm``, ``solve`` and ``write_solution``
  names replaced by timing wrappers, giving the ``cli``, ``dsmio`` and
  ``solver.solve`` spans and the solve's ``SolveReport``;
* the report's rows are then replayed in order through ``seed_rows``,
  ``partition_row``, ``expand_and_prune_chunk`` and ``restore_and_merge``
  with each row's direction, size and worker count, and every replayed
  row's expanded, survivor and transferred counts must equal the report's;
* ``model``, ``subsets`` and ``generate`` calls are timed on the same
  instances.

Spans (name, start, end, parent, request) are kept in memory and written
out when the run ends.  A span's self time is its duration minus that of
its children; children never overlap, because all traced calls are made
from one thread.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import statistics
import time
import tracemalloc
from dataclasses import asdict, dataclass
from pathlib import Path

from dsmseq import (
    BACKWARD,
    FORWARD,
    RowStore,
    expand_and_prune_chunk,
    partition_row,
    quadratic_objective,
    restore_and_merge,
    seed_rows,
    sequence_to_order_vars,
    solve,
    total_feedback_length,
)
from dsmseq import cli
from dsmseq.subsets import BinomialTable, rank_sorted

from harness import Outcome, Run
from workloads import CLI

MODEL_REPEATS = 10  # model evaluators take microseconds; time several calls each
TABLE_REPEATS = 200


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.request = -1

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.request))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, name: str, fn, captured: dict):
        def traced(*args, **kwargs):
            with self.span(name):
                captured[name] = fn(*args, **kwargs)
            return captured[name]

        return traced

    def total(self, name: str, since: int = 0) -> float:
        """Summed duration of the spans called ``name``, from span number ``since`` on."""
        return sum(s.seconds for s in self.spans[since:] if s.name == name)

    def durations(self, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the children's durations."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        totals: dict[str, float] = {}
        for s, seconds in zip(self.spans, own):
            totals[s.name] = totals.get(s.name, 0.0) + seconds
        return totals

    def write(self, path: Path) -> None:
        """Write every span and each span name's total self time as JSON."""
        payload = {"spans": [asdict(s) for s in self.spans], "self_s": self.self_times()}
        path.write_text(json.dumps(payload) + "\n")


def traced_cli_call(run: Run, i: int, tracer: Tracer) -> tuple[Outcome, object]:
    """``cli.main`` on instance ``i`` with its file and solver calls traced; returns the report too."""
    captured: dict = {}
    names = {"read_dsm": "dsmio.read_dsm", "solve": "solver.solve", "write_solution": "dsmio.write_solution"}
    originals = {attr: getattr(cli, attr) for attr in names}

    def main(argv):
        for attr, name in names.items():
            setattr(cli, attr, tracer.wrap(name, originals[attr], captured))
        try:
            with tracer.span("cli.main"):
                return cli.main(argv)
        finally:
            for attr, fn in originals.items():
                setattr(cli, attr, fn)

    outcome = run.call_cli(i, main)
    return outcome, captured.get("solver.solve")


def replay(run: Run, i: int, report, tracer: Tracer) -> list[str]:
    """Re-run the report's rows through the public row functions; return count mismatches."""
    dsm = run.dsms[i]
    n = dsm.n
    table = run.table
    problems = []
    with tracer.span("replay"):
        with tracer.span("solver.seed_rows"):
            stores = dict(zip((FORWARD, BACKWARD), seed_rows(dsm)))
        for row in report.rows:
            with tracer.span("solver.partition_row"):
                parts = [part for part in partition_row(stores[row.direction], row.workers) if part]
            chunks = []
            for part in parts:
                with tracer.span(f"solver.expand_and_prune_chunk.{row.direction}"):
                    chunks.append(expand_and_prune_chunk(dsm, part, row.direction, table=table))
            with tracer.span("solver.restore_and_merge"):
                merged = restore_and_merge(RowStore(n, row.size, table.c(n, row.size)), chunks)
            replayed = (
                len(chunks),
                sum(c.expanded for c in chunks),
                merged.occupied,
                sum(c.transferred_records for c in chunks),
            )
            reported = (row.chunks, row.expanded, row.survivors, row.transferred_records)
            if replayed != reported:
                problems.append(
                    f"{row.direction} row {row.size}: replayed (chunks, expanded, survivors, "
                    f"transferred) {replayed}, report says {reported}"
                )
            stores[row.direction] = merged
    return problems


def _rank_ns_per_call(n: int, table: BinomialTable) -> float:
    subsets = list(itertools.combinations(range(1, n + 1), n // 2))
    started = time.perf_counter()
    for ids in subsets:
        rank_sorted(ids, n, table)
    return (time.perf_counter() - started) / len(subsets) * 1e9


def _table_build_s(n: int) -> float:
    started = time.perf_counter()
    for _ in range(TABLE_REPEATS):
        BinomialTable(n)
    return (time.perf_counter() - started) / TABLE_REPEATS


def _peak_alloc_mb(run: Run) -> float:
    largest = max(run.dsms, key=lambda dsm: dsm.n)
    tracemalloc.start()
    try:
        solve(largest, run.config(), table=run.table)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def traced_run(run: Run, spans_path: Path) -> tuple[list[Outcome], int, list[str], dict[str, float]]:
    """One traced pass over the pool.

    Returns the solve outcomes, the number of replays, one problem line per
    instance whose replay or report went wrong, and the per-layer metrics.

    Every instance is solved through ``cli.main`` twice, untraced and then
    traced, so the tracing overhead is the difference of the two calls.
    """
    tracer = Tracer()
    outcomes: list[Outcome] = []
    problems: list[str] = []
    reports = []
    overheads = []
    unaccounted = []
    for i in range(len(run.members)):
        tracer.request = i
        since = len(tracer.spans)
        plain = run.call(i, CLI)
        traced, report = traced_cli_call(run, i, tracer)
        outcomes += [plain, traced]
        overheads.append(traced.seconds - plain.seconds)
        if report is None:  # the traced outcome carries the failure
            continue
        reports.append(report)
        mismatches = replay(run, i, report, tracer)
        if mismatches:
            problems.append(f"{run.workload.name}[{run.members[i].index}]: " + "; ".join(mismatches))
        replayed = sum(
            tracer.total(name, since)
            for name in (
                "solver.seed_rows",
                "solver.partition_row",
                "solver.expand_and_prune_chunk.forward",
                "solver.expand_and_prune_chunk.backward",
                "solver.restore_and_merge",
            )
        )
        unaccounted.append(tracer.total("solver.solve", since) - replayed - report.combination_seconds)
        order = sequence_to_order_vars(report.sequence)
        for _ in range(MODEL_REPEATS):
            with tracer.span("model.total_feedback_length"):
                total_feedback_length(run.dsms[i], report.sequence)
            with tracer.span("model.quadratic_objective"):
                quadratic_objective(run.dsms[i], order)
    tracer.write(spans_path)
    if not reports:
        return outcomes, 0, problems, {}

    solves = len(reports)
    expanded = sum(r.nodes_expanded for r in reports)
    survivors = sum(row.survivors for r in reports for row in r.rows)
    expand_fwd = tracer.total("solver.expand_and_prune_chunk.forward")
    expand_bwd = tracer.total("solver.expand_and_prune_chunk.backward")
    self_times = tracer.self_times()
    metrics = {
        "solver.expand_s.forward": expand_fwd / solves,
        "solver.expand_s.backward": expand_bwd / solves,
        "solver.expand_ns_per_node": (expand_fwd + expand_bwd) / expanded * 1e9,
        "solver.partition_s": tracer.total("solver.partition_row") / solves,
        "solver.merge_s": tracer.total("solver.restore_and_merge") / solves,
        "solver.seed_s": tracer.total("solver.seed_rows") / solves,
        "solver.pair_s": statistics.fmean(r.combination_seconds for r in reports),
        "solver.unaccounted_s": statistics.fmean(unaccounted),
        "solver.expanded": expanded / solves,
        "solver.survivors": survivors / solves,
        "solver.transferred_records": sum(r.transferred_records for r in reports) / solves,
        "solver.survivor_ratio": survivors / expanded,
        "solver.peak_alloc_mb": _peak_alloc_mb(run),
        "subsets.table_build_s": _table_build_s(run.workload.n_max),
        "subsets.rank_ns_per_call": _rank_ns_per_call(run.workload.n_max, run.table),
        "generate.instance_s": run.instance_s,
        "model.evaluate_s": statistics.fmean(tracer.durations("model.total_feedback_length")),
        "model.quadratic_s": statistics.fmean(tracer.durations("model.quadratic_objective")),
        "dsmio.read_s": statistics.fmean(tracer.durations("dsmio.read_dsm")),
        "dsmio.write_solution_s": statistics.fmean(tracer.durations("dsmio.write_solution")),
        "cli.overhead_s": self_times["cli.main"] / len(tracer.durations("cli.main")),
        "trace.overhead_s": statistics.fmean(overheads),
    }
    return outcomes, solves, problems, metrics
