"""Command-line interface: solve, generate, verify, rank/unrank, bench.

Exit codes: 0 success, 1 input error, 2 timeout, 3 resource refusal,
4 internal invariant violation (including verification mismatches).
Console numbers print with 6 significant digits; files keep full precision.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .bench import GridSpec, ablation_run, format_grid_report, grid_report_payload, run_grid
from .dsmio import Solution, read_dsm, write_dsm, write_solution
from .errors import InputError, InternalInvariantError, ResourceLimitError
from .generate import generate_instance
from .oracle import MAX_BRUTE_FORCE_N, brute_force_optimum
from .solver import VARIANT_FULL, VARIANTS, SolverConfig, SolveTimeout, meeting_row, solve
from .subsets import BinomialTable, complement_address, rank_subset, unrank_subset

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_TIMEOUT = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

CORES_ENV = "DSMSEQ_CORES"
DEFAULT_CORES = SolverConfig.cn
DEFAULT_NA = SolverConfig.na


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2) on bad flags; 2 is reserved for timeouts.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise InputError(message)


def _resolve_cores(flag_value: int | None) -> int:
    if flag_value is not None:
        cores = flag_value
    else:
        env = os.environ.get(CORES_ENV)
        if env is not None:
            try:
                cores = int(env)
            except ValueError:
                raise InputError(f"{CORES_ENV} must be an integer, got {env!r}") from None
        else:
            cores = DEFAULT_CORES
    return min(cores, os.cpu_count() or 1)


def _warn_if_na_clamped(na: int, n: int) -> None:
    # n < 4 is solved by enumeration, which has no meeting row
    clamped = meeting_row(na, n)
    if n >= 4 and clamped != na:
        low, high = meeting_row(0, n), meeting_row(n, n)
        print(
            f"warning: --na {na} outside [{low}, {high}] for {n} activities, using {clamped}",
            file=sys.stderr,
        )


def cmd_solve(args: argparse.Namespace) -> int:
    dsm = read_dsm(args.input)
    config = SolverConfig(cn=_resolve_cores(args.cores), na=args.na, time_limit=args.time_limit)
    _warn_if_na_clamped(args.na, dsm.n)
    report = solve(dsm, config)
    assert report.sequence is not None and report.objective is not None
    print(f"objective {report.objective:.6g}")
    print("sequence " + " ".join(str(a) for a in report.sequence))
    print(
        f"nodes expanded {report.nodes_expanded} pruned {report.nodes_pruned} "
        f"transferred {report.transferred_records}"
    )
    print(
        f"time {report.total_seconds:.6g}s (setup {report.setup_seconds:.6g}s, "
        f"forward {report.forward_seconds:.6g}s, backward {report.backward_seconds:.6g}s, "
        f"combination {report.combination_seconds:.6g}s) cores {config.cn} na {report.na}"
    )
    if args.output:
        solution = Solution(
            n=dsm.n,
            objective=report.objective,
            sequence=report.sequence,
            time_ms=report.total_seconds * 1000.0,
            nodes_expanded=report.nodes_expanded,
            nodes_pruned=report.nodes_pruned,
            cores_used=config.cn,
            na=report.na,
        )
        write_solution(solution, args.output)
        print(f"solution written to {args.output}")
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise InputError(f"count must be at least 1, got {args.count}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i in range(args.count):
        seed = args.seed + i
        dsm = generate_instance(args.n, args.density, seed)
        path = out_dir / f"dsm_n{args.n}_d{args.density:g}_s{seed}.txt"
        write_dsm(dsm, path)
        print(str(path))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    dsm = read_dsm(args.input)
    if dsm.n > MAX_BRUTE_FORCE_N:
        raise InputError(
            f"verification enumerates every schedule and is limited to "
            f"n <= {MAX_BRUTE_FORCE_N}, got {dsm.n}"
        )
    _warn_if_na_clamped(args.na, dsm.n)
    report = solve(dsm, SolverConfig(na=args.na))
    oracle_seq, oracle_obj = brute_force_optimum(dsm)
    if report.sequence == oracle_seq and report.objective == oracle_obj:
        print(
            f"match: objective {report.objective:.6g}, sequence "
            + " ".join(str(a) for a in oracle_seq)
        )
        return EXIT_OK
    print(
        f"MISMATCH: solver {report.objective!r} {report.sequence}, "
        f"enumeration {oracle_obj!r} {oracle_seq}",
        file=sys.stderr,
    )
    return EXIT_INTERNAL


def _parse_list(text: str, what: str, kind: type = int) -> tuple:
    """Comma- or space-separated ``kind`` values; InputError if one does not parse or there are none."""
    try:
        values = tuple(kind(part) for part in text.replace(",", " ").split())
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise InputError(f"{what} expects comma-separated {noun}, got {text!r}") from None
    if not values:
        raise InputError(f"{what} is empty")
    return values


def cmd_rank(args: argparse.Namespace) -> int:
    ids = _parse_list(args.subset, "--subset")
    table = BinomialTable(args.n)
    ha = rank_subset(ids, args.n, table)
    if args.complement:
        print(complement_address(ha, args.n, len(ids), table))
    else:
        print(ha)
    return EXIT_OK


def cmd_unrank(args: argparse.Namespace) -> int:
    table = BinomialTable(args.n)
    if args.complement:
        ha = complement_address(args.ha, args.n, args.p, table)
        subset = unrank_subset(ha, args.n, args.n - args.p, table)
    else:
        subset = unrank_subset(args.ha, args.n, args.p, table)
    print(",".join(str(a) for a in subset))
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    spec = GridSpec(
        n_list=_parse_list(args.n_list, "--n-list"),
        density_list=_parse_list(args.densities, "--densities", float),
        instances_per_cell=args.instances,
        seed_base=args.seed_base,
        time_limit=args.time_limit,
        cn=_resolve_cores(args.cores),
        na=args.na,
    )
    stamp = time.strftime("%Y%m%d_%H%M%S")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.ablation:
        result = ablation_run(spec, args.ablation)
        text = "\n\n".join(
            [
                format_grid_report(result.full_cells, title=f"full solver (vs {args.ablation})"),
                format_grid_report(result.variant_cells, title=f"variant {args.ablation}"),
                f"objectives match: {result.objectives_match}",
            ]
        )
        payload = {
            "ablation": args.ablation,
            "objectives_match": result.objectives_match,
            "full": grid_report_payload(spec, result.full_cells),
            "variant": grid_report_payload(spec, result.variant_cells),
        }
    else:
        cells = run_grid(spec)
        text = format_grid_report(cells)
        payload = grid_report_payload(spec, cells)
    text_path = out_dir / f"bench_{stamp}.txt"
    json_path = out_dir / f"bench_{stamp}.json"
    text_path.write_text(text + "\n")
    json_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(text)
    print(f"reports written to {text_path} and {json_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dsmseq", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("solve", help="solve one matrix file to optimality")
    p.add_argument("--input", required=True, help="matrix file to solve")
    p.add_argument("--cores", type=int, default=None,
                   help=f"chunks per row (default {DEFAULT_CORES}, or ${CORES_ENV}; capped at hardware)")
    p.add_argument("--na", type=int, default=DEFAULT_NA, help="meeting row of the two searches")
    p.add_argument("--time-limit", type=float, default=None, help="wall-clock limit in seconds")
    p.add_argument("--output", default=None, help="write a JSON solution file here")
    p.set_defaults(func=cmd_solve)

    p = commands.add_parser("generate", help="write seeded random instances")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--density", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_generate)

    p = commands.add_parser("verify", help="cross-check the solver against full enumeration")
    p.add_argument("--input", required=True)
    p.add_argument("--na", type=int, default=DEFAULT_NA)
    p.set_defaults(func=cmd_verify)

    p = commands.add_parser("rank", help="address of an activity subset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--subset", required=True, help='comma-separated ids, e.g. "2,4,5"')
    p.add_argument("--complement", action="store_true", help="print the complement's address")
    p.set_defaults(func=cmd_rank)

    p = commands.add_parser("unrank", help="activity subset at an address")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--ha", type=int, required=True)
    p.add_argument("--complement", action="store_true",
                   help="print the complement subset at the mirrored address")
    p.set_defaults(func=cmd_unrank)

    p = commands.add_parser("bench", help="run a benchmark grid and write reports")
    p.add_argument("--n-list", required=True, help='e.g. "8,10,12"')
    p.add_argument("--densities", required=True, help='e.g. "0.1,0.5,1.0"')
    p.add_argument("--instances", type=int, default=10)
    p.add_argument("--seed-base", type=int, default=1)
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--cores", type=int, default=None)
    p.add_argument("--na", type=int, default=DEFAULT_NA)
    p.add_argument("--ablation", choices=[v for v in VARIANTS if v != VARIANT_FULL],
                   default=None, help="run the grid under full and this variant, paired")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_bench)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on the first ``main`` call rather than at import, and reused after it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SolveTimeout as exc:
        report = exc.report
        print(
            f"timeout: no schedule proven optimal within the limit "
            f"(expanded {report.nodes_expanded}, pruned {report.nodes_pruned})",
            file=sys.stderr,
        )
        return EXIT_TIMEOUT
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
