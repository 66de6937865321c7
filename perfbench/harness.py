"""Set-up, timed solves and the correctness gate of one workload run.

Only the solve calls are timed.  Every outcome is checked afterwards,
untimed: a solve that raised, timed out or exited non-zero is bad, and so
is any result that disagrees with the quadratic-formulation objective,
with the brute-force optimum (n <= 9), with the result recorded from the
seed commit in ``reference.json``, or with an earlier solve of the same
instance in the same run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy
from dsmseq import (
    BinomialTable,
    Dsm,
    SolverConfig,
    brute_force_optimum,
    quadratic_objective,
    sequence_to_order_vars,
    solve,
    write_dsm,
)
from dsmseq import cli

from workloads import CLI, Member, Workload, build, digest

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

SOLVE_TIMEOUT_S = 60.0  # a solve slower than this counts as failed
ORACLE_MAX_N = 9
REL_TOL = 1e-9

# (sequence, objective, nodes_expanded, nodes_pruned)
Result = tuple[tuple[int, ...], float, int, int]


@dataclass
class Outcome:
    member: Member
    seconds: float
    result: Result | None
    error: str | None = None


class Run:
    """The set-up state of one run: its pool, matrices, files and binomial table."""

    def __init__(self, workload: Workload, members: list[Member], workdir: Path, write_files: bool) -> None:
        self.workload = workload
        self.members = members
        started = time.perf_counter()
        self.dsms = [build(m) for m in self.members]
        self.instance_s = (time.perf_counter() - started) / len(self.members)
        self.inputs: list[Path] = []
        self.outputs: list[Path] = []
        if write_files:
            inputs = workdir / "inputs"
            outputs = workdir / "solutions"
            inputs.mkdir(parents=True, exist_ok=True)
            outputs.mkdir(parents=True, exist_ok=True)
            for i, dsm in enumerate(self.dsms):
                path = inputs / f"{i}.txt"
                write_dsm(dsm, path)
                self.inputs.append(path)
                self.outputs.append(outputs / f"{i}.json")
        self.table = BinomialTable(workload.n_max)

    def config(self) -> SolverConfig:
        return SolverConfig(cn=self.workload.cn, na=self.workload.na)

    def cli_argv(self, i: int) -> list[str]:
        return [
            "solve", "--input", str(self.inputs[i]),
            "--cores", str(self.workload.cn), "--na", str(self.workload.na),
            "--output", str(self.outputs[i]),
        ]

    def call(self, i: int, entry: str | None = None) -> Outcome:
        """Solve pool instance ``i`` through the workload's entry point, timing only the call."""
        if (entry or self.workload.entry) == CLI:
            return self.call_cli(i, cli.main)
        member = self.members[i]
        started = time.perf_counter()
        try:
            report = solve(self.dsms[i], self.config(), table=self.table)
        except Exception as exc:  # any escape is a failed solve, reported by the gate
            return Outcome(member, time.perf_counter() - started, None, repr(exc))
        seconds = time.perf_counter() - started
        result = (report.sequence, report.objective, report.nodes_expanded, report.nodes_pruned)
        return _timed_out(Outcome(member, seconds, result))

    def call_cli(self, i: int, main) -> Outcome:
        """Run ``main`` (``cli.main`` or a traced stand-in) on instance ``i`` and read its file."""
        member = self.members[i]
        output = self.outputs[i]
        output.unlink(missing_ok=True)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            started = time.perf_counter()
            try:
                code = main(self.cli_argv(i))
            except Exception as exc:
                return Outcome(member, time.perf_counter() - started, None, repr(exc))
            seconds = time.perf_counter() - started
        if code != 0:
            return Outcome(member, seconds, None, f"exit code {code}: {sink.getvalue().strip()}")
        try:
            payload = json.loads(output.read_text())
            result = (
                tuple(payload["sequence"]),
                payload["objective"],
                payload["nodes_expanded"],
                payload["nodes_pruned"],
            )
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return Outcome(member, seconds, None, f"unreadable solution file: {exc!r}")
        return _timed_out(Outcome(member, seconds, result))


def _timed_out(outcome: Outcome) -> Outcome:
    if outcome.seconds > SOLVE_TIMEOUT_S:
        outcome.error = f"timeout: {outcome.seconds:.1f} s > {SOLVE_TIMEOUT_S} s"
    return outcome


def warm_up(run: Run) -> None:
    """One untimed solve of the smallest pool instance, so lazy start-up costs are paid."""
    smallest = min(range(len(run.members)), key=lambda i: run.members[i].n)
    if run.members[smallest].n > 12:
        dsm = Dsm.from_rows([[0.5 if i != j else 0.0 for j in range(8)] for i in range(8)])
        solve(dsm, run.config(), table=run.table)
    else:
        run.call(smallest)


def measure(run: Run, seconds: float) -> list[Outcome]:
    """Whole passes over the pool, ending at the pass boundary nearest to ``seconds``.

    Whole passes keep the instance mix of every run identical; at least one
    pass runs, so every pool instance is solved and checked.  A large-workload
    pass takes about ten seconds, so stopping at the first boundary past
    ``seconds`` would overshoot by up to a whole pass.
    """
    outcomes: list[Outcome] = []
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        for i in range(len(run.members)):
            outcomes.append(run.call(i))
        now = time.perf_counter()
        if now - started + (now - pass_started) / 2 >= seconds:
            return outcomes


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def result_problems(dsm: Dsm, result: Result) -> list[str]:
    """Disagreements of one result with the quadratic form and, for n <= 9, brute force."""
    sequence, objective, _, _ = result
    problems: list[str] = []
    try:
        quadratic = quadratic_objective(dsm, sequence_to_order_vars(sequence))
        if abs(objective - quadratic) > REL_TOL * max(1.0, abs(quadratic)):
            problems.append(f"objective {objective!r} but quadratic form gives {quadratic!r}")
    except Exception as exc:
        problems.append(f"sequence {sequence} cannot be evaluated: {exc!r}")
    if dsm.n <= ORACLE_MAX_N:
        oracle = brute_force_optimum(dsm)
        if (tuple(sequence), objective) != oracle:
            problems.append(f"result {(sequence, objective)} but brute force gives {oracle}")
    return problems


def reference_entry(dsm: Dsm, result: Result) -> dict:
    """What ``reference.json`` records for one instance; floats as exact hex."""
    sequence, objective, expanded, pruned = result
    return {
        "digest": digest(dsm),
        "sequence": list(sequence),
        "objective": float(objective).hex(),
        "nodes_expanded": expanded,
        "nodes_pruned": pruned,
    }


@dataclass
class Verdict:
    attempted: int
    failed: int
    reference_mismatches: int
    failures: list[str]


def check(run: Run, outcomes: list[Outcome], reference: dict) -> Verdict:
    """Apply the correctness gate to every outcome of a run (untimed)."""
    first: dict[int, Result] = {}
    bad: set[int] = set()
    failures: list[str] = []
    for k, outcome in enumerate(outcomes):
        index = outcome.member.index
        if outcome.error is not None:
            bad.add(k)
            failures.append(f"{run.workload.name}[{index}]: {outcome.error}")
            continue
        if index not in first:
            first[index] = outcome.result
        elif outcome.result != first[index]:
            bad.add(k)
            failures.append(f"{run.workload.name}[{index}]: {outcome.result} differs from {first[index]}")
    positions = {m.index: i for i, m in enumerate(run.members)}
    recorded = reference.get(run.workload.name, {})
    mismatches = 0
    for index, result in first.items():
        dsm = run.dsms[positions[index]]
        problems = result_problems(dsm, result)
        actual = reference_entry(dsm, result)
        if actual != recorded.get(str(index)):
            mismatches += 1
            problems.append(f"reference mismatch: got {actual}, recorded {recorded.get(str(index))}")
        if problems:
            failures.extend(f"{run.workload.name}[{index}]: {p}" for p in problems)
            bad.update(k for k, o in enumerate(outcomes) if o.member.index == index)
    return Verdict(len(outcomes), len(bad), mismatches, failures)


def end_to_end(outcomes: list[Outcome]) -> dict[str, float]:
    """Latency percentiles and node throughput of the timed solves."""
    latencies = [o.seconds for o in outcomes]
    nodes = sum(o.result[2] for o in outcomes if o.result is not None)
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8] if len(latencies) > 1 else latencies[0]
    return {
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": p90,
        "nodes_per_s": nodes / sum(latencies),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(workload: Workload) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "cn": workload.cn,
        "na": workload.na,
    }
