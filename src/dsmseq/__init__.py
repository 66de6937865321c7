"""Exact activity sequencing for design structure matrices.

Finds the activity order that minimizes total length-weighted feedback:
a double-ended breadth-first search prunes partial schedules per activity
subset, pairs prefix and suffix results through complement addressing,
and returns a proven optimum.  Ships with a seeded instance generator,
a brute-force oracle for cross-checking, and a benchmark harness.
"""

from .bench import (
    GridSpec,
    ablation_run,
    format_grid_report,
    run_grid,
    sign_test_cv,
    sign_test_decision,
)
from .dsmio import Solution, read_dsm, read_solution, write_dsm, write_solution
from .errors import (
    ConstraintViolation,
    InputError,
    InternalInvariantError,
    ParseError,
    ResourceLimitError,
)
from .generate import generate_instance
from .model import (
    Dsm,
    OrderVars,
    prefix_feedback_value,
    quadratic_objective,
    sequence_to_order_vars,
    split_components,
    suffix_feedback_value,
    total_feedback_length,
)
from .oracle import best_prefix_value, best_suffix_value, brute_force_optimum
from .solver import (
    BACKWARD,
    FORWARD,
    VARIANT_FULL,
    VARIANT_NO_COMPRESSION,
    VARIANT_NO_HASH,
    VARIANT_NO_SECOND_DECOMPOSITION,
    CompressedChunk,
    RowStore,
    SolveReport,
    SolverConfig,
    SolveTimeout,
    expand_and_prune_chunk,
    partition_row,
    restore_and_merge,
    seed_rows,
    solve,
)
from .subsets import BinomialTable, complement_address, rank_subset, unrank_subset

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BACKWARD",
    "BinomialTable",
    "CompressedChunk",
    "ConstraintViolation",
    "Dsm",
    "FORWARD",
    "GridSpec",
    "InputError",
    "InternalInvariantError",
    "OrderVars",
    "ParseError",
    "ResourceLimitError",
    "RowStore",
    "Solution",
    "SolveReport",
    "SolverConfig",
    "SolveTimeout",
    "VARIANT_FULL",
    "VARIANT_NO_COMPRESSION",
    "VARIANT_NO_HASH",
    "VARIANT_NO_SECOND_DECOMPOSITION",
    "ablation_run",
    "best_prefix_value",
    "best_suffix_value",
    "brute_force_optimum",
    "complement_address",
    "expand_and_prune_chunk",
    "format_grid_report",
    "generate_instance",
    "partition_row",
    "prefix_feedback_value",
    "quadratic_objective",
    "rank_subset",
    "read_dsm",
    "read_solution",
    "restore_and_merge",
    "run_grid",
    "seed_rows",
    "sequence_to_order_vars",
    "sign_test_cv",
    "sign_test_decision",
    "solve",
    "split_components",
    "suffix_feedback_value",
    "total_feedback_length",
    "unrank_subset",
    "write_dsm",
    "write_solution",
]
