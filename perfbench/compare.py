"""Compare two sets of benchmark runs, or summarise one.

    python3 perfbench/compare.py BASE.jsonl [CHANGE.jsonl]

Each file holds run records as ``run.py --results FILE`` appends them.  For
every workload and metric it prints the median and quartiles of each side
(quartiles as ``statistics.quantiles(values, n=4)`` gives them) and the
spread, the quartile distance as a share of the median.  With two files it
flags every end-to-end metric whose change median is worse than the base
median by more than the bound in ``BENCHMARK.json``, and marks a metric
unresolved where the base's own spread exceeds that bound.  It also flags
every run that failed a check or disagreed with the recorded reference.
The exit code is 1 when anything is flagged.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from layers import LAYER_EFFECTS

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median


def worse_by(base: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``base``, as a share of ``base`` (negative: better)."""
    return (change - base) / base if better == "lower" else (base - change) / base


def failed_runs(name: str, records: list[dict]) -> list[str]:
    flags = []
    for r in records:
        if not r["correct"] or r["reference_mismatches"]:
            flags.append(
                f"FLAG {name}: {r['workload']} seed {r['seed']} trace {r['trace']}: "
                f"{r['failed']} of {r['attempted']} failed, "
                f"{r['reference_mismatches']} reference mismatches"
            )
            flags += [f"     {f}" for f in r["failures"][:5]]
    return flags


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = [load(path) for path in argv]
    flags: list[str] = []
    for path, records in zip(argv, sides):
        flags += failed_runs(path, records)
        for key in ("src_digest", "git_sha", "python", "numpy", "cpu_count"):
            seen = sorted({str(r["environment"].get(key)) for r in records})
            print(f"{path}: {key} {', '.join(seen)}")

    for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        for workload in [w["name"] for w in spec["workloads"]]:
            groups = [[r for r in records if r["workload"] == workload and r["trace"] == trace]
                      for records in sides]
            if not any(groups):
                continue
            print(f"\n{workload} ({'traced, per layer' if trace else 'end to end'}); runs "
                  + " vs ".join(str(len(g)) for g in groups))
            for metric in listed:
                name = metric["name"]
                cells = []
                stats = []
                for group in groups:
                    values = [r["metrics"][name] for r in group if name in r["metrics"]]
                    if not values:
                        cells.append(f"{'-':>40s}")
                        stats.append(None)
                        continue
                    q1, median, q3 = quartiles(values)
                    cells.append(f"{median:12.6g} [{q1:.4g}, {q3:.4g}] spread {spread(values):5.3f}")
                    stats.append((median, values))
                line = f"  {name:28s} {metric['unit']:6s} " + " | ".join(cells)
                if len(stats) == 2 and all(stats):
                    (base, base_values), (change, _) = stats
                    line += f" | change/base {change / base:.4f}"
                    bound = metric.get("bound")
                    if bound is not None:
                        worse = worse_by(base, change, metric["better"])
                        if worse > bound:
                            line += "  REGRESSION"
                            flags.append(f"FLAG {workload} {name}: worse by {worse:.1%}, bound {bound:.0%}")
                        elif spread(base_values) > bound:
                            line += "  unresolved (base spread above bound)"
                if trace:
                    line += f"  -> {LAYER_EFFECTS[name]}"
                print(line)

    if flags:
        print()
        print("\n".join(flags))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
