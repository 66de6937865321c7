"""Golden files of what ``solve()`` reports, bit for bit, over grids of configurations.

``solve_counters.json`` covers n in {5, 8, 11}, real and quarter-quantised
degrees, cn in {1, 2, 3, 8}, na in {2, 5} and every variant.
``solve_counters_large.json`` covers the sizes the benchmark runs, the
last size whose suffix rows are all kept for pairing and the first size
whose parent ranks are int32 and whose pairing runs the suffix search
again: n in {14, 16, 17, 18}, real and quarter-quantised degrees, cn in
{1, 2}, na in {5, 7} and the ``full`` variant.  For each solve a file
holds the sequence, the objective's hex form, ``combination_comparisons``
and every row's counters (all but ``seconds``).  ``solve_counters_ties.json`` covers instances full of
exact ties: all-zero matrices and density-0.05 matrices with
quarter-quantised degrees, n in 12..16, cn in {1, 2}, na in {2, 5, n - 5}
and the ``full`` variant.  A change to the search that is meant to keep
results and counters must reproduce every file exactly.

Run this module as a script to rewrite every file from the current code:

    PYTHONPATH=src python tests/test_solve_counters.py

A new grid point is recorded from the code before the change it is meant
to check, so that the change is tested against it.
"""

import json
import math
from itertools import product
from pathlib import Path

from dsmseq import BinomialTable, Dsm, SolverConfig, generate_instance, solve
from dsmseq.solver import VARIANT_FULL, VARIANTS

DATA = Path(__file__).parent / "data"

# file name: (n values, degree kinds, cn values, na values of n, variants)
GRIDS = {
    "solve_counters.json": ((5, 8, 11), ("real", "quarters"), (1, 2, 3, 8), lambda n: (2, 5), VARIANTS),
    "solve_counters_large.json": ((14, 16, 17, 18), ("real", "quarters"), (1, 2), lambda n: (5, 7), (VARIANT_FULL,)),
    "solve_counters_ties.json": (
        range(12, 17), ("zero", "sparse-quarters"), (1, 2), lambda n: (2, 5, n - 5), (VARIANT_FULL,)
    ),
}
QUARTERS = (0.25, 0.5, 0.75, 1.0)


def _instance(n: int, kind: str) -> Dsm:
    if kind == "zero":
        return Dsm.from_rows([[0.0] * n for _ in range(n)])
    dsm = generate_instance(n, 0.05 if kind == "sparse-quarters" else 0.6, 900 + n)
    if kind == "real":
        return dsm
    return Dsm.from_rows(
        [[QUARTERS[math.ceil(v * len(QUARTERS)) - 1] if v else 0.0 for v in row] for row in dsm.d]
    )


def record(name: str) -> list[dict]:
    """Solve every configuration of the named grid and return what its file stores, in grid order."""
    n_values, kinds, cn_values, na_of, variants = GRIDS[name]
    entries = []
    for n, kind in product(n_values, kinds):
        dsm = _instance(n, kind)
        table = BinomialTable(n)
        for cn, na, variant in product(cn_values, na_of(n), variants):
            report = solve(dsm, SolverConfig(cn=cn, na=na, variant=variant), table=table)
            entries.append(
                {
                    "config": [n, kind, cn, na, variant],
                    "sequence": list(report.sequence),
                    "objective": report.objective.hex(),
                    "combination_comparisons": report.combination_comparisons,
                    "rows": [
                        [
                            r.direction, r.size, r.workers, r.chunks, r.expanded, r.pruned,
                            r.survivors, r.transferred_records, r.comparisons,
                        ]
                        for r in report.rows
                    ],
                }
            )
    return entries


def _check(name: str) -> None:
    expected = json.loads((DATA / name).read_text())
    actual = record(name)
    assert [e["config"] for e in actual] == [e["config"] for e in expected]
    mismatched = [a["config"] for a, e in zip(actual, expected) if a != e]
    assert not mismatched, f"{len(mismatched)} of {len(expected)} solves differ, first {mismatched[:3]}"


def test_solve_reproduces_the_recorded_counters():
    _check("solve_counters.json")


def test_solve_reproduces_the_recorded_counters_at_benchmark_sizes():
    _check("solve_counters_large.json")


def test_solve_reproduces_the_recorded_counters_on_tie_heavy_instances():
    _check("solve_counters_ties.json")


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for name in GRIDS:
        lines = ",\n".join(json.dumps(entry, separators=(",", ":")) for entry in record(name))
        (DATA / name).write_text(f"[\n{lines}\n]\n")
        print(f"wrote {DATA / name}")
