"""Record ``reference.json``: the solver's result on every member of every workload universe.

    PYTHONPATH=src python3 perfbench/record_reference.py

Each member is solved through its workload's entry point and settings.
The file holds, per member, the matrix digest, sequence, objective (as
exact float hex) and node counters; the benchmark requires every later run
to reproduce them bit for bit.  Results are recorded as the solver gives
them; any disagreement with the quadratic form or brute force is listed on
stderr and makes the exit code 1, and the benchmark's gate reports it on
every run.  Re-record only when a change is meant to alter results.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from harness import REFERENCE_PATH, Run, reference_entry, result_problems
from workloads import CLI, WORKLOADS


def main() -> int:
    reference: dict[str, dict[str, dict]] = {}
    problems = []
    scratch = REFERENCE_PATH.parent.parent / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for workload in WORKLOADS.values():
            members = list(workload.universe)
            run = Run(workload, members, Path(tmp) / workload.name, write_files=workload.entry == CLI)
            entries = reference[workload.name] = {}
            for i, member in enumerate(members):
                outcome = run.call(i)
                if outcome.error is not None:
                    problems.append(f"{workload.name}[{member.index}]: {outcome.error}")
                    continue
                problems += [f"{workload.name}[{member.index}]: {p}"
                             for p in result_problems(run.dsms[i], outcome.result)]
                entries[str(member.index)] = reference_entry(run.dsms[i], outcome.result)
            print(f"{workload.name}: {len(entries)} instances recorded", file=sys.stderr)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print("\n".join(problems), file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
