"""Time two revisions' solvers against each other in one process, with their results asserted equal.

    python tools/ab.py A_REV B_REV [--n 16] [--densities 0.1,0.5,1.0] [--instances 3]
                                   [--cn 1] [--na 5] [--variant full] [--quarters] [--rounds 10]
    python tools/ab.py A_REV B_REV --cli 150 [--cn 1] [--na 5] [--rounds 10]

Each revision's ``src/dsmseq`` is exported with ``git archive`` into a
temporary directory as a package of its own, ``dsmseq_a`` or ``dsmseq_b``;
every import inside the package is relative, so both load side by side.
One untimed round warms both up, then each round solves every instance
with both, A first in even rounds and B first in odd ones, so that drifts
of the machine's speed fall on both alike.

The default mode calls ``solve`` on ``generate_instance(n, density,
seed)`` for each density and seeds 1..instances, with ``--quarters``
rounding each degree up to a quarter, as the benchmark's tie workload
does.  It asserts that both revisions return the same sequence, objective
bits, pairing comparisons and every ``RowStats`` field but ``seconds``,
and compares the reports' setup, rows (forward and backward), pairing and
total seconds.  ``--cli FILES`` writes FILES matrix files like the
benchmark's batch, n = 8..12, half of them with quarter degrees, and times
``cli.main(["solve", ...])`` on each, asserting equal solution files.

For each measure it prints the median over rounds of each revision's
round total, and of the ratio B/A with its quartiles and the rounds B won.
It is a tool, not a gate: it exits 1 only if the results differ.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("a", "b")
QUARTERS = (0.25, 0.5, 0.75, 1.0)


def export(rev: str, name: str, into: Path):
    """Import revision ``rev``'s ``src/dsmseq`` as package ``name``, exported into ``into``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev, "src/dsmseq"], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        for member in tar.getmembers():
            if member.isfile():
                target = into / name / Path(member.name).relative_to("src/dsmseq")
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(tar.extractfile(member).read())
    return importlib.import_module(name)


def quartered(rows):
    """Each nonzero degree rounded up to the next quarter."""
    return [[QUARTERS[math.ceil(v * 4) - 1] if v else 0.0 for v in row] for row in rows]


def solve_once(package, rows, args):
    """One solve of ``rows``: its times and what both revisions must agree on."""
    config = package.SolverConfig(cn=args.cn, na=args.na, variant=args.variant)
    report = package.solve(package.Dsm.from_rows(rows), config)
    result = (
        report.sequence,
        report.objective.hex(),
        report.combination_comparisons,
        [(r.direction, r.size, r.workers, r.chunks, r.expanded, r.pruned, r.survivors,
          r.transferred_records, r.comparisons) for r in report.rows],
    )
    times = {
        "setup": report.setup_seconds,
        "rows": report.forward_seconds + report.backward_seconds,
        "pairing": report.combination_seconds,
        "total": report.total_seconds,
    }
    return times, result


def cli_once(package, path: Path, out: Path, args):
    """One ``cli.main`` solve of the file at ``path``: its time and the solution file it wrote."""
    argv = ["solve", "--input", str(path), "--cores", str(args.cn), "--na", str(args.na), "--output", str(out)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        started = time.perf_counter()
        code = importlib.import_module(f"{package.__name__}.cli").main(argv)
        seconds = time.perf_counter() - started
    if code != 0:
        raise SystemExit(f"{package.__name__}: cli.main exited {code} on {path}")
    payload = json.loads(out.read_text())
    return {"total": seconds}, (payload["sequence"], payload["objective"], payload["nodes_expanded"])


def cases(packages, args, workdir: Path):
    """The calls one round makes, each a function of a package returning (times, result)."""
    generate = packages["a"].generate_instance
    if args.cli:
        calls = []
        for i in range(args.cli):
            rows = generate(8 + i % 5, (0.1, 0.5, 1.0)[i // 5 % 3], 7000 + i).d
            path = workdir / f"m{i}.json"
            packages["a"].write_dsm(packages["a"].Dsm.from_rows(quartered(rows) if i % 2 else rows), path)
            calls.append(lambda package, path=path, out=workdir / f"s{i}.json": cli_once(package, path, out, args))
        return calls
    instances = [
        generate(args.n, density, seed).d for density in args.densities for seed in range(1, args.instances + 1)
    ]
    return [
        lambda package, rows=quartered(rows) if args.quarters else rows: solve_once(package, rows, args)
        for rows in instances
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a_rev")
    parser.add_argument("b_rev")
    parser.add_argument("--n", type=int, default=16)
    parser.add_argument("--densities", type=lambda text: [float(d) for d in text.split(",")],
                        default=[0.1, 0.5, 1.0])
    parser.add_argument("--instances", type=int, default=3, help="seeds per density")
    parser.add_argument("--cn", type=int, default=1)
    parser.add_argument("--na", type=int, default=5)
    parser.add_argument("--variant", default="full")
    parser.add_argument("--quarters", action="store_true", help="round every degree up to a quarter")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--cli", type=int, default=0, metavar="FILES", help="time cli.main on FILES files instead")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        sys.path.insert(0, str(workdir))
        revisions = dict(zip(SIDES, (args.a_rev, args.b_rev)))
        packages = {side: export(rev, f"dsmseq_{side}", workdir) for side, rev in revisions.items()}
        calls = cases(packages, args, workdir)
        totals = {side: [] for side in SIDES}  # per timed round, each measure summed over the calls
        for round_ in range(args.rounds + 1):
            sums = {side: {} for side in SIDES}
            for call in calls:
                outcomes = {}
                for side in SIDES if round_ % 2 == 0 else SIDES[::-1]:
                    outcomes[side] = call(packages[side])
                if outcomes["a"][1] != outcomes["b"][1]:
                    print(f"results differ: A {outcomes['a'][1]!r}, B {outcomes['b'][1]!r}", file=sys.stderr)
                    return 1
                for side in SIDES:
                    for measure, seconds in outcomes[side][0].items():
                        sums[side][measure] = sums[side].get(measure, 0.0) + seconds
            if round_:  # the first round warms both up
                for side in SIDES:
                    totals[side].append(sums[side])

    print(f"{len(calls)} calls per round, {args.rounds} rounds; A {args.a_rev}, B {args.b_rev}; seconds per round")
    print(f"{'measure':<8} {'A median':>10} {'B median':>10} {'B/A':>6} {'quartiles':>13} {'B won':>6}")
    for measure in totals["a"][0]:
        a = [t[measure] for t in totals["a"]]
        b = [t[measure] for t in totals["b"]]
        ratios = [y / x if x else math.inf for x, y in zip(a, b)]
        q1, _, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else (ratios[0],) * 3
        wins = sum(y < x for x, y in zip(a, b))
        print(
            f"{measure:<8} {statistics.median(a):>10.5f} {statistics.median(b):>10.5f} "
            f"{statistics.median(ratios):>6.3f} {q1:>6.3f}-{q3:<6.3f} {wins:>3}/{len(ratios)}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
