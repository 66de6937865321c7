"""One workload run in its own process; ``run.py`` starts it and reads its result file.

With ``--setup-only`` the process only sets up (import, instance generation,
file writing, binomial table) and reports how long that took, so the parent
can take the median of several set-ups.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    started = time.perf_counter()
    import harness  # imports dsmseq, so the import counts as set-up
    from workloads import CLI, WORKLOADS, pool

    workload = WORKLOADS[args.workload]
    members = pool(workload, args.seed)
    run = harness.Run(workload, members, Path(args.workdir), write_files=bool(args.trace) or workload.entry == CLI)
    result: dict = {"setup_s": time.perf_counter() - started, "environment": harness.environment(workload)}

    if not args.setup_only:
        reference = harness.load_reference()
        harness.warm_up(run)
        if args.trace:
            import tracing

            outcomes, replays, problems, metrics = tracing.traced_run(run, Path(args.spans))
            verdict = harness.check(run, outcomes, reference)
            verdict.attempted += replays
            verdict.failed += len(problems)
            verdict.failures += problems
        else:
            outcomes = harness.measure(run, args.seconds)
            rss = harness.peak_rss_mb()  # before the checks, whose oracle allocates a lot
            metrics = harness.end_to_end(outcomes)
            metrics["peak_rss_mb"] = rss
            verdict = harness.check(run, outcomes, reference)
        result.update(
            metrics=metrics,
            latencies=[o.seconds for o in outcomes],
            attempted=verdict.attempted,
            failed=verdict.failed,
            reference_mismatches=verdict.reference_mismatches,
            failures=verdict.failures,
        )
    Path(args.out).write_text(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
