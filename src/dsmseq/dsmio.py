"""File formats: plain-text matrices and JSON solution records.

Matrix files carry the activity count on the first line followed by one
whitespace-separated row per activity; values are written with 17
significant digits so write-then-read round-trips bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import InputError, ParseError
from .model import Dsm, check_sequence

__all__ = ["Solution", "read_dsm", "write_dsm", "read_solution", "write_solution"]


def write_dsm(dsm: Dsm, path: str | Path) -> None:
    lines = [str(dsm.n)]
    for row in dsm.d:
        lines.append(" ".join(format(v, ".17g") for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_dsm(path: str | Path) -> Dsm:
    path = Path(path)
    text = path.read_text()
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ParseError("empty file", str(path), 1)
    header = lines[0].strip()
    try:
        n = int(header)
    except ValueError:
        raise ParseError(f"expected activity count, got {header!r}", str(path), 1) from None
    if n < 2:
        raise ParseError(f"activity count must be at least 2, got {n}", str(path), 1)
    if len(lines) - 1 != n:
        raise ParseError(f"expected {n} matrix rows, found {len(lines) - 1}", str(path), len(lines))
    rows: list[tuple[float, ...]] = []
    for i in range(n):
        lineno = i + 2
        fields = lines[i + 1].split()
        if len(fields) != n:
            raise ParseError(f"row has {len(fields)} values, expected {n}", str(path), lineno)
        row: list[float] = []
        for j, field in enumerate(fields):
            try:
                value = float(field)
            except ValueError:
                raise ParseError(f"bad value {field!r} in column {j + 1}", str(path), lineno) from None
            if not 0.0 <= value <= 1.0:
                raise ParseError(
                    f"value {field} in column {j + 1} outside [0, 1]", str(path), lineno
                )
            row.append(value)
        if row[i] != 0.0:
            raise ParseError(f"diagonal entry in column {i + 1} must be 0", str(path), lineno)
        rows.append(tuple(row))
    # the values are floats already, so the rows go in as they are, without ``Dsm.from_rows`` converting each again
    return Dsm(tuple(rows))


@dataclass(frozen=True)
class Solution:
    """Solver outcome as stored in a solution file."""

    n: int
    objective: float
    sequence: tuple[int, ...]
    time_ms: float
    nodes_expanded: int
    nodes_pruned: int
    cores_used: int
    na: int


def write_solution(solution: Solution, path: str | Path) -> None:
    # the fields hold numbers and a tuple of ints, so no copy is needed, as ``asdict`` would make
    payload = {f.name: getattr(solution, f.name) for f in fields(solution)}
    payload["sequence"] = list(solution.sequence)
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def read_solution(path: str | Path) -> Solution:
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc.msg}", str(path), exc.lineno) from None
    if not isinstance(payload, dict):
        raise ParseError("expected a JSON object", str(path))
    missing = [f.name for f in fields(Solution) if f.name not in payload]
    if missing:
        raise ParseError(f"missing fields: {', '.join(missing)}", str(path))
    try:
        solution = Solution(
            n=int(payload["n"]),
            objective=float(payload["objective"]),
            sequence=tuple(int(a) for a in payload["sequence"]),
            time_ms=float(payload["time_ms"]),
            nodes_expanded=int(payload["nodes_expanded"]),
            nodes_pruned=int(payload["nodes_pruned"]),
            cores_used=int(payload["cores_used"]),
            na=int(payload["na"]),
        )
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad field value: {exc}", str(path)) from None
    try:
        check_sequence(solution.sequence, solution.n)
    except InputError as exc:
        raise ParseError(str(exc), str(path)) from None
    return solution
