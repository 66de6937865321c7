import json

import pytest

from dsmseq import (
    brute_force_optimum,
    generate_instance,
    read_dsm,
    read_solution,
    total_feedback_length,
    write_dsm,
)
from dsmseq import cli
from dsmseq.cli import main


def _write_instance(tmp_path, n, density, seed, name="inst.txt"):
    path = tmp_path / name
    write_dsm(generate_instance(n, density, seed), path)
    return path


def test_generate_is_deterministic(tmp_path):
    out = tmp_path / "a"
    assert main(["generate", "--n", "6", "--density", "0.4", "--seed", "3",
                 "--count", "2", "--out-dir", str(out)]) == 0
    first = sorted(p.name for p in out.iterdir())
    assert first == ["dsm_n6_d0.4_s3.txt", "dsm_n6_d0.4_s4.txt"]
    blobs = [(out / name).read_bytes() for name in first]
    out2 = tmp_path / "b"
    assert main(["generate", "--n", "6", "--density", "0.4", "--seed", "3",
                 "--count", "2", "--out-dir", str(out2)]) == 0
    assert [(out2 / name).read_bytes() for name in first] == blobs
    dsm = read_dsm(out / first[0])
    assert sum(1 for row in dsm.d for v in row if v) == 12  # round(0.4 * 30)


def test_generate_rejects_bad_density(tmp_path):
    assert main(["generate", "--n", "6", "--density", "1.4", "--seed", "1",
                 "--out-dir", str(tmp_path)]) == 1


def test_solve_zero_matrix(tmp_path, zero6, capsys):
    path = tmp_path / "zero.txt"
    write_dsm(zero6, path)
    out_file = tmp_path / "sol.json"
    assert main(["solve", "--input", str(path), "--output", str(out_file)]) == 0
    printed = capsys.readouterr().out
    assert "objective 0" in printed
    assert "sequence 1 2 3 4 5 6" in printed
    solution = read_solution(out_file)
    assert solution.sequence == (1, 2, 3, 4, 5, 6)
    assert solution.objective == 0.0


def test_solve_clamps_na_with_warning(tmp_path, capsys):
    path = _write_instance(tmp_path, 6, 0.5, 17)
    assert main(["solve", "--input", str(path), "--na", "15"]) == 0
    captured = capsys.readouterr()
    assert "clamp" in captured.err or "using 4" in captured.err
    objective = float(captured.out.splitlines()[0].split()[1])
    _, expected = brute_force_optimum(read_dsm(path))
    assert objective == pytest.approx(expected, rel=1e-6)


def test_solve_timeout_leaves_no_solution_file(tmp_path):
    path = _write_instance(tmp_path, 12, 0.5, 8)
    out_file = tmp_path / "sol.json"
    code = main(["solve", "--input", str(path), "--time-limit", "0",
                 "--output", str(out_file)])
    assert code == 2
    assert not out_file.exists()


@pytest.mark.parametrize("limit", ["nan", "-1"])
def test_solve_refuses_a_bad_time_limit(tmp_path, limit):
    # an input error, not a timeout; a NaN deadline would never pass
    path = _write_instance(tmp_path, 8, 0.5, 8)
    assert main(["solve", "--input", str(path), "--time-limit", limit]) == 1


def test_solve_missing_file(tmp_path):
    assert main(["solve", "--input", str(tmp_path / "nope.txt")]) == 1


def test_solution_file_revalidates(tmp_path):
    path = _write_instance(tmp_path, 7, 0.8, 23)
    out_file = tmp_path / "sol.json"
    assert main(["solve", "--input", str(path), "--output", str(out_file)]) == 0
    solution = read_solution(out_file)
    recomputed = total_feedback_length(read_dsm(path), solution.sequence)
    assert abs(solution.objective - recomputed) <= 1e-9 * max(1.0, abs(recomputed))


@pytest.mark.parametrize("n, seed", [(6, 42), (8, 42), (9, 42)])
def test_verify_match(tmp_path, capsys, n, seed):
    path = _write_instance(tmp_path, n, 0.5, seed)
    assert main(["verify", "--input", str(path)]) == 0
    assert "match" in capsys.readouterr().out


def test_verify_zero_matrix(tmp_path, zero6, capsys):
    path = tmp_path / "zero.txt"
    write_dsm(zero6, path)
    assert main(["verify", "--input", str(path)]) == 0
    assert "match" in capsys.readouterr().out


def test_verify_refuses_large_instances(tmp_path):
    path = _write_instance(tmp_path, 11, 0.3, 1)
    assert main(["verify", "--input", str(path)]) == 1


def test_rank_and_unrank(capsys):
    assert main(["rank", "--n", "5", "--subset", "2,4,5"]) == 0
    assert capsys.readouterr().out.strip() == "9"
    assert main(["rank", "--n", "6", "--subset", "4,2,1", "--complement"]) == 0
    assert capsys.readouterr().out.strip() == "19"
    assert main(["unrank", "--n", "5", "--p", "3", "--ha", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1,2,3"
    assert main(["unrank", "--n", "6", "--p", "3", "--ha", "2", "--complement"]) == 0
    assert capsys.readouterr().out.strip() == "3,5,6"
    assert main(["rank", "--n", "5", "--subset", "2,2,4"]) == 1
    assert main(["unrank", "--n", "5", "--p", "3", "--ha", "99"]) == 1


def test_cores_resolution(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("dsmseq.cli.os.cpu_count", lambda: 8)
    path = _write_instance(tmp_path, 6, 0.5, 5)
    out_file = tmp_path / "sol.json"

    monkeypatch.setenv("DSMSEQ_CORES", "4")
    assert main(["solve", "--input", str(path), "--output", str(out_file)]) == 0
    assert read_solution(out_file).cores_used == 4

    # an explicit flag beats the environment
    assert main(["solve", "--input", str(path), "--cores", "2",
                 "--output", str(out_file)]) == 0
    assert read_solution(out_file).cores_used == 2

    monkeypatch.delenv("DSMSEQ_CORES")
    assert main(["solve", "--input", str(path), "--output", str(out_file)]) == 0
    assert read_solution(out_file).cores_used == 8  # default, capped at hardware

    monkeypatch.setenv("DSMSEQ_CORES", "many")
    assert main(["solve", "--input", str(path)]) == 1
    capsys.readouterr()


def test_unknown_flags_are_input_errors(tmp_path):
    assert main(["solve", "--frobnicate"]) == 1
    assert main(["no-such-command"]) == 1
    # chunk counts do not change a verification, and a bench grid runs the full solver
    path = _write_instance(tmp_path, 6, 0.5, 5)
    assert main(["verify", "--input", str(path), "--cores", "2"]) == 1
    assert main(["bench", "--n-list", "6", "--densities", "0.5", "--instances", "1",
                 "--variant", "no-hash", "--out-dir", str(tmp_path)]) == 1


def test_one_parser_serves_every_call(tmp_path, capsys):
    # the parser is built once per process; each call must exit and print as it does with a fresh parser
    path = _write_instance(tmp_path, 8, 0.5, 11)
    calls = [
        ["solve", "--input", str(path), "--cores", "1"],
        ["rank", "--n", "6", "--subset", "4,2,1", "--complement"],
        ["solve", "--input", str(path), "--frobnicate"],
        ["solve", "--input", str(path), "--cores", "1"],
    ]

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        # the time line is the only one that differs from run to run
        out = [line for line in captured.out.splitlines() if not line.startswith("time ")]
        return code, out, captured.err

    alone = []
    for argv in calls:
        cli._shared_parser.cache_clear()
        alone.append(run(argv))
    cli._shared_parser.cache_clear()
    assert [run(argv) for argv in calls] == alone
    assert [code for code, _, _ in alone] == [0, 0, 1, 0]
    assert alone[1][1] == ["19"]


def test_oversized_search_is_a_resource_error(tmp_path):
    # C(35, 17) exceeds the default slot cap; refused before any work starts
    path = _write_instance(tmp_path, 35, 0.05, 3)
    assert main(["solve", "--input", str(path)]) == 3


def test_bench_writes_reports(tmp_path, capsys):
    out = tmp_path / "bench"
    assert main(["bench", "--n-list", "5,6", "--densities", "0.2,0.7",
                 "--instances", "1", "--seed-base", "4", "--out-dir", str(out)]) == 0
    text_files = list(out.glob("bench_*.txt"))
    json_files = list(out.glob("bench_*.json"))
    assert len(text_files) == 1 and len(json_files) == 1
    payload = json.loads(json_files[0].read_text())
    assert len(payload["cells"]) == 4
    assert payload["spec"]["n_list"] == [5, 6]
    assert "mean time" in capsys.readouterr().out


def test_bench_ablation_mode(tmp_path):
    out = tmp_path / "bench"
    assert main(["bench", "--n-list", "6", "--densities", "0.5", "--instances", "1",
                 "--seed-base", "2", "--ablation", "no-hash", "--out-dir", str(out)]) == 0
    payload = json.loads(next(out.glob("bench_*.json")).read_text())
    assert payload["ablation"] == "no-hash"
    assert payload["objectives_match"] is True
