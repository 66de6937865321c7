"""Self-tests of the benchmark: reproducible inputs, real ties, capped cores, a passing gate."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from itertools import permutations
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from dsmseq import (  # noqa: E402
    SolverConfig,
    generate_instance,
    solve,
    total_feedback_length,
)

import harness  # noqa: E402
import tracing  # noqa: E402
from layers import LAYER_EFFECTS  # noqa: E402
from workloads import LEVELS, WORKLOADS, build, digest, pool, quantise  # noqa: E402


def test_a_seed_reproduces_bit_identical_matrices():
    for workload in WORKLOADS.values():
        first = [digest(build(m)) for m in pool(workload, 7)]
        again = [digest(build(m)) for m in pool(workload, 7)]
        assert first == again
    batch = WORKLOADS["batch-small"]
    assert [m.index for m in pool(batch, 7)] != [m.index for m in pool(batch, 8)]
    assert sorted(m.stratum for m in pool(batch, 7)) == sorted(m.stratum for m in pool(batch, 8))


def test_quantised_generator_produces_ties():
    for member in pool(WORKLOADS["large-ties-2core"], 3):
        degrees = {v for row in build(member).d for v in row if v}
        assert degrees == set(LEVELS)
    small = quantise(generate_instance(6, 0.5, 11))
    values = [total_feedback_length(small, p) for p in permutations(range(1, 7))]
    assert values.count(min(values)) >= 2


def test_requested_cores_never_exceed_the_machine(monkeypatch):
    for cpus in (1, 2, 64, None):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        for workload in WORKLOADS.values():
            assert 1 <= workload.cn <= (cpus or 1)
            assert workload.cn <= workload.cores


def _small_run(tmp_path: Path) -> harness.Run:
    workload = WORKLOADS["batch-small"]
    members = [m for m in pool(workload, 1) if m.n <= 9][::10]
    return harness.Run(workload, members, tmp_path, write_files=True)


def test_smoke_run_passes_the_correctness_gate(tmp_path):
    run = _small_run(tmp_path)
    reference = harness.load_reference()
    outcomes = harness.measure(run, 0.0)
    verdict = harness.check(run, outcomes, reference)
    assert all(o.error is None for o in outcomes)
    assert (verdict.attempted, verdict.failed, verdict.reference_mismatches) == (len(run.members), 0, 0)
    assert any(m.kind == "quantised" for m in run.members)

    wrong = outcomes[0].result
    outcomes[0].result = (wrong[0][::-1],) + wrong[1:]
    verdict = harness.check(run, outcomes, reference)
    assert verdict.failed >= 1 and verdict.reference_mismatches == 1
    assert any("reference mismatch" in f for f in verdict.failures)


def test_traced_replay_reproduces_the_report(tmp_path):
    run = _small_run(tmp_path)
    outcomes, replays, problems, metrics = tracing.traced_run(run, tmp_path / "spans.json")
    assert problems == [] and replays == len(run.members)
    assert harness.check(run, outcomes, harness.load_reference()).reference_mismatches == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == set(LAYER_EFFECTS) == {m["name"] for m in spec["per_layer"]}
    written = json.loads((tmp_path / "spans.json").read_text())
    assert written["spans"] and written["self_s"]["cli.main"] > 0

    report = solve(run.dsms[0], SolverConfig(cn=1, na=5))
    report.rows[0].expanded += 1
    assert tracing.replay(run, 0, report, tracing.Tracer())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "batch-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0 and completed.stdout == ""
