"""dsmseq benchmark: one workload, one seed, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload large-random --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ``src/`` as it
stands; nothing is installed.  The workload runs in a child process
(``child.py``), after several set-up-only children whose median set-up time
is ``setup_s``.  Every solve is checked (``harness.py``); with ``--trace 1``
the run is traced and replayed row by row instead (``tracing.py``).

Output: a human-readable summary (every metric with its unit, the failure
rate and the environment), then, as the last line, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record, environment included, is appended to ``--results`` for
``compare.py``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 4  # set-up-only children; with the workload child's own set-up, 5 samples
RUN_TIMEOUT_S = 170.0


def git_sha() -> str | None:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    """Hash of every source file of the package, to tell builds apart without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run_child(args: argparse.Namespace, workdir: Path, deadline: float, *extra: str) -> dict:
    out = workdir / "child.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", str(workdir), "--out", str(out), *extra,
    ]
    completed = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if completed.returncode != 0:
        raise RuntimeError(f"workload process exited with {completed.returncode}:\n{completed.stderr}")
    return json.loads(out.read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description="dsmseq benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=str(ROOT / ".perfbench_out" / "results.jsonl"),
                        help="JSON-lines file the full run record is appended to")
    args = parser.parse_args()

    deadline = time.monotonic() + RUN_TIMEOUT_S
    load_1m = os.getloadavg()[0]
    if not (ROOT / "src" / "dsmseq" / "__init__.py").is_file():
        print(f"error: no dsmseq package under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench_out"
    workdir = out_dir / f"work-{os.getpid()}"
    spans = out_dir / f"spans-{args.workload}-s{args.seed}.json"
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        setups = [run_child(args, workdir, deadline, "--setup-only")["setup_s"] for _ in range(SETUP_REPEATS)]
        child = run_child(args, workdir, deadline, "--spans", str(spans))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = dict(child["metrics"])
    values["setup_s"] = statistics.median(setups + [child["setup_s"]])
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    environment = dict(child["environment"], load_1m=load_1m, git_sha=git_sha(), src_digest=source_digest())
    attempted, failed = child["attempted"], child["failed"]
    correct = failed == 0

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"solves {len(child['latencies'])} in {sum(child['latencies']):.3f} s  attempted {attempted}  failed {failed}  "
          f"reference mismatches {child['reference_mismatches']}")
    print("environment " + "  ".join(f"{k} {v}" for k, v in environment.items()))
    for failure in child["failures"][:20]:
        print(f"FAIL {failure}")
    if args.trace:
        from layers import LAYER_EFFECTS

        for name, m in metrics.items():
            print(f"{name:28s} {m['value']:14.6g} {m['unit']:6s} -> {LAYER_EFFECTS[name]}")
    else:
        for name, m in metrics.items():
            print(f"{name:28s} {m['value']:14.6g} {m['unit']}")
        print(f"{'fail_rate':28s} {failed / attempted:14.6g} ratio")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "correct": correct, "attempted": attempted, "failed": failed,
        "reference_mismatches": child["reference_mismatches"], "failures": child["failures"][:20],
        "latencies": child["latencies"], "setup_runs": setups + [child["setup_s"]],
        "metrics": {name: m["value"] for name, m in metrics.items()},
        "environment": environment,
    }
    results = Path(args.results)
    results.parent.mkdir(parents=True, exist_ok=True)
    with results.open("a") as f:
        f.write(json.dumps(record) + "\n")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
