"""Golden file of what ``solve()`` reports, bit for bit, over a grid of configurations.

The grid is n in {5, 8, 11}, real and quarter-quantised degrees, cn in
{1, 2, 3, 8}, na in {2, 5} and every variant.  For each solve the file holds
the sequence, the objective's hex form, ``combination_comparisons`` and every
row's counters (all but ``seconds``).  A change to the search that is meant
to keep results and counters must reproduce it exactly.

Run this module as a script to rewrite the file from the current code:

    PYTHONPATH=src python tests/test_solve_counters.py
"""

import json
import math
from itertools import product
from pathlib import Path

from dsmseq import BinomialTable, Dsm, SolverConfig, generate_instance, solve
from dsmseq.solver import VARIANTS

DATA = Path(__file__).parent / "data" / "solve_counters.json"

N_VALUES = (5, 8, 11)
KINDS = ("real", "quarters")
CN_VALUES = (1, 2, 3, 8)
NA_VALUES = (2, 5)
QUARTERS = (0.25, 0.5, 0.75, 1.0)


def _instance(n: int, kind: str) -> Dsm:
    dsm = generate_instance(n, 0.6, 900 + n)
    if kind == "real":
        return dsm
    return Dsm.from_rows(
        [[QUARTERS[math.ceil(v * len(QUARTERS)) - 1] if v else 0.0 for v in row] for row in dsm.d]
    )


def record() -> list[dict]:
    """Solve every configuration of the grid and return what the file stores, in grid order."""
    entries = []
    for n, kind in product(N_VALUES, KINDS):
        dsm = _instance(n, kind)
        table = BinomialTable(n)
        for cn, na, variant in product(CN_VALUES, NA_VALUES, VARIANTS):
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


def test_solve_reproduces_the_recorded_counters():
    expected = json.loads(DATA.read_text())
    actual = record()
    assert [e["config"] for e in actual] == [e["config"] for e in expected]
    mismatched = [a["config"] for a, e in zip(actual, expected) if a != e]
    assert not mismatched, f"{len(mismatched)} of {len(expected)} solves differ, first {mismatched[:3]}"


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    lines = ",\n".join(json.dumps(entry, separators=(",", ":")) for entry in record())
    DATA.write_text(f"[\n{lines}\n]\n")
    print(f"wrote {DATA}")
