"""Benchmark grids, ablation comparisons, and the paired sign test.

Grid cells run sequentially so per-solve timings stay honest.  Counters
aggregate per cell, and reproducing a grid with the same spec reproduces
every objective and counter (times excluded).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields, replace
from itertools import product

from .errors import InputError
from .generate import generate_instance
from .solver import VARIANT_FULL, SolveReport, SolverConfig, SolveTimeout, solve

__all__ = [
    "GridSpec",
    "CellResult",
    "AblationResult",
    "run_grid",
    "ablation_run",
    "sign_test_cv",
    "sign_test_decision",
    "format_grid_report",
    "grid_report_payload",
]


@dataclass(frozen=True)
class GridSpec:
    """One benchmark campaign: instance grid plus solver configuration."""

    n_list: tuple[int, ...]
    density_list: tuple[float, ...]
    instances_per_cell: int = 10
    seed_base: int = 1
    time_limit: float | None = None
    cn: int = SolverConfig.cn
    na: int = SolverConfig.na
    variant: str = VARIANT_FULL

    def __post_init__(self) -> None:
        if not self.n_list:
            raise InputError("n_list is empty")
        if not self.density_list:
            raise InputError("density_list is empty")
        if self.instances_per_cell < 1:
            raise InputError(f"instances_per_cell must be at least 1, got {self.instances_per_cell}")
        for density in self.density_list:
            if not 0.0 <= density <= 1.0:
                raise InputError(f"density {density!r} outside [0, 1]")
        self.config()  # checks the solver fields

    def config(self) -> SolverConfig:
        """The solver configuration every cell runs with."""
        return SolverConfig(cn=self.cn, na=self.na, time_limit=self.time_limit, variant=self.variant)


@dataclass
class CellResult:
    """Aggregated outcome of one (n, density) cell.

    ``objectives`` and ``times`` align with ``seeds``; both hold None where
    the run timed out, and the mean time covers finished runs only.
    """

    n: int
    density: float
    seeds: list[int]
    objectives: list[float | None]
    times: list[float | None]
    timeout_count: int
    expanded: int = 0
    pruned: int = 0
    transferred_records: int = 0
    similar_comparisons: int = 0
    reports: list[SolveReport] = field(default_factory=list)

    @property
    def mean_time(self) -> float | None:
        finished = [t for t in self.times if t is not None]
        return sum(finished) / len(finished) if finished else None

    @property
    def mean_objective(self) -> float | None:
        finished = [v for v in self.objectives if v is not None]
        return sum(finished) / len(finished) if finished else None


def run_grid(spec: GridSpec) -> list[CellResult]:
    """Generate, solve, and aggregate every cell of the grid.

    Instance seeds derive deterministically from the seed base, the cell
    index, and the instance index, so a repeated spec reruns the identical
    instances.  Timeouts are recorded per instance and never abort the grid.
    """
    results: list[CellResult] = []
    for cell_index, (n, density) in enumerate(product(spec.n_list, spec.density_list)):
        seeds: list[int] = []
        objectives: list[float | None] = []
        times: list[float | None] = []
        timeout_count = 0
        cell = CellResult(
            n=n, density=density, seeds=seeds, objectives=objectives,
            times=times, timeout_count=0,
        )
        config = spec.config()
        for instance_index in range(spec.instances_per_cell):
            seed = spec.seed_base + cell_index * spec.instances_per_cell + instance_index
            seeds.append(seed)
            dsm = generate_instance(n, density, seed)
            started = time.perf_counter()
            try:
                report = solve(dsm, config)
            except SolveTimeout as exc:
                report = exc.report
                objectives.append(None)
                times.append(None)
                timeout_count += 1
            else:
                objectives.append(report.objective)
                times.append(time.perf_counter() - started)
            cell.expanded += report.nodes_expanded
            cell.pruned += report.nodes_pruned
            cell.transferred_records += report.transferred_records
            cell.similar_comparisons += report.similar_comparisons
            cell.reports.append(report)
        cell.timeout_count = timeout_count
        results.append(cell)
    return results


def sign_test_cv(n_comparisons: int) -> float:
    """Critical win count of the two-tailed paired sign test at the 0.05 level."""
    if n_comparisons < 1:
        raise InputError(f"comparison count must be at least 1, got {n_comparisons}")
    return n_comparisons / 2 + 1.96 * math.sqrt(n_comparisons) / 2


def sign_test_decision(wins: int, n_comparisons: int) -> bool:
    """Whether ``wins`` out of ``n_comparisons`` is significant at the 0.05 level."""
    if not 0 <= wins <= n_comparisons:
        raise InputError(f"wins must lie in 0..{n_comparisons}, got {wins}")
    return wins >= sign_test_cv(n_comparisons)


@dataclass
class AblationResult:
    """Paired grids for one ablation variant against the full solver."""

    variant: str
    full_cells: list[CellResult]
    variant_cells: list[CellResult]
    objectives_match: bool


def ablation_run(spec: GridSpec, variant: str) -> AblationResult:
    """Run the grid under the full solver and one degraded variant.

    Both runs draw identical instances.  The variants trade performance
    only, so per-instance objectives must coincide; the result records
    whether they did, along with full per-instance reports for counter
    comparisons.  Passing ``full`` pairs the solver against itself.
    """
    variant_spec = replace(spec, variant=variant)  # refuses an unknown variant before any solve
    full_cells = run_grid(replace(spec, variant=VARIANT_FULL))
    variant_cells = run_grid(variant_spec)
    matches = all(
        full.objectives == degraded.objectives
        for full, degraded in zip(full_cells, variant_cells)
    )
    return AblationResult(
        variant=variant,
        full_cells=full_cells,
        variant_cells=variant_cells,
        objectives_match=matches,
    )


def format_grid_report(cells: list[CellResult], title: str = "benchmark grid") -> str:
    """Aligned plain-text table over the grid cells."""
    header = (
        f"{'n':>4} {'density':>8} {'runs':>5} {'timeouts':>9} {'mean time (s)':>14} "
        f"{'mean objective':>15} {'expanded':>10} {'pruned':>10} {'records':>10} {'compares':>10}"
    )
    lines = [title, "=" * len(header), header, "-" * len(header)]
    for cell in cells:
        mean_time = f"{cell.mean_time:.6g}" if cell.mean_time is not None else "-"
        mean_obj = f"{cell.mean_objective:.6g}" if cell.mean_objective is not None else "-"
        lines.append(
            f"{cell.n:>4} {cell.density:>8g} {len(cell.seeds):>5} {cell.timeout_count:>9} "
            f"{mean_time:>14} {mean_obj:>15} {cell.expanded:>10} {cell.pruned:>10} "
            f"{cell.transferred_records:>10} {cell.similar_comparisons:>10}"
        )
    return "\n".join(lines)


def _plain_fields(record: GridSpec | CellResult, skip: str = "") -> dict:
    """The record's dataclass fields except ``skip``, in declaration order, tuples as lists."""
    payload = {}
    for f in fields(record):
        if f.name != skip:
            value = getattr(record, f.name)
            payload[f.name] = list(value) if isinstance(value, tuple) else value
    return payload


def grid_report_payload(spec: GridSpec, cells: list[CellResult]) -> dict:
    """Machine-readable mirror of the spec and the cell results (reports omitted)."""
    return {
        "spec": _plain_fields(spec),
        "cells": [{**_plain_fields(cell, "reports"), "mean_time": cell.mean_time} for cell in cells],
    }
