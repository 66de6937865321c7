import dataclasses
import json

import pytest

from dsmseq import (
    ParseError,
    Solution,
    generate_instance,
    read_dsm,
    read_solution,
    total_feedback_length,
    write_dsm,
    write_solution,
)


def test_read_minimal_file(tmp_path):
    path = tmp_path / "two.txt"
    path.write_text("2\n0 0.3\n0.7 0\n")
    dsm = read_dsm(path)
    assert dsm.n == 2
    assert dsm.d[0][1] == 0.3
    assert dsm.d[1][0] == 0.7


def test_round_trip_is_bit_exact(tmp_path):
    dsm = generate_instance(15, 0.6, 99)
    path = tmp_path / "round.txt"
    write_dsm(dsm, path)
    assert read_dsm(path).d == dsm.d
    # writing the re-read matrix reproduces the file byte for byte
    again = tmp_path / "again.txt"
    write_dsm(read_dsm(path), again)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize(
    "content, line",
    [
        ("x\n0 0.3\n0.7 0\n", 1),  # bad header
        ("3\n0 0.3\n0.7 0\n", 3),  # short row for n=3 (second data row short too)
        ("2\n0 0.3 0.1\n0.7 0\n", 2),  # long row
        ("2\n0 abc\n0.7 0\n", 2),  # unparseable value
        ("2\n0 1.5\n0.7 0\n", 2),  # out of range
        ("2\n0.2 0.3\n0.7 0\n", 2),  # nonzero diagonal
        ("2\n0 0.3\n", 2),  # missing row
    ],
)
def test_parse_errors_carry_line_numbers(tmp_path, content, line):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(ParseError) as err:
        read_dsm(path)
    assert err.value.line == line
    assert f":{line}" in str(err.value)


def test_solution_round_trip(tmp_path):
    solution = Solution(
        n=4,
        objective=1.25,
        sequence=(3, 2, 1, 4),
        time_ms=12.5,
        nodes_expanded=24,
        nodes_pruned=12,
        cores_used=2,
        na=2,
    )
    path = tmp_path / "sol.json"
    write_solution(solution, path)
    assert read_solution(path) == solution
    payload = json.loads(path.read_text())
    assert payload["sequence"] == [3, 2, 1, 4]


def test_solution_file_bytes_are_unchanged(tmp_path):
    # the payload as the dataclass's own deep copy builds it, so the file's bytes stay those of earlier releases
    solution = Solution(
        n=5,
        objective=0.1 + 0.2,
        sequence=(5, 3, 1, 2, 4),
        time_ms=1e-5,
        nodes_expanded=2**40,
        nodes_pruned=0,
        cores_used=3,
        na=2,
    )
    path = tmp_path / "sol.json"
    write_solution(solution, path)
    payload = dataclasses.asdict(solution)
    payload["sequence"] = list(solution.sequence)
    assert path.read_bytes() == (json.dumps(payload, indent=2) + "\n").encode()


def test_solution_objective_revalidates(tmp_path, dsm4):
    # a solution file read back must reproduce its objective from the sequence
    seq = (3, 2, 1, 4)
    solution = Solution(
        n=4,
        objective=total_feedback_length(dsm4, seq),
        sequence=seq,
        time_ms=1.0,
        nodes_expanded=24,
        nodes_pruned=12,
        cores_used=1,
        na=2,
    )
    path = tmp_path / "sol.json"
    write_solution(solution, path)
    loaded = read_solution(path)
    recomputed = total_feedback_length(dsm4, loaded.sequence)
    assert abs(loaded.objective - recomputed) <= 1e-9 * max(1.0, abs(recomputed))


def test_solution_validation(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        read_solution(path)
    path.write_text(json.dumps({"n": 3, "objective": 0.0}))
    with pytest.raises(ParseError, match="missing fields"):
        read_solution(path)
    payload = {
        "n": 3,
        "objective": 0.0,
        "sequence": [1, 2, 2],
        "time_ms": 0.0,
        "nodes_expanded": 0,
        "nodes_pruned": 0,
        "cores_used": 1,
        "na": 2,
    }
    path.write_text(json.dumps(payload))
    with pytest.raises(ParseError):
        read_solution(path)
