"""Exhaustive ground truth for small instances.

Everything here enumerates candidate orderings outright and re-evaluates
them from their defining sums; none of the incremental bookkeeping used by
the search code is shared, so these results are an independent check on it.
Enumeration is lexicographic and ties keep the first ordering seen, which
matches the solver's tie rule.  ``solve`` itself calls ``brute_force_optimum``
for n < 4, where there is no split to search, so this module must not
import the solver.
"""

from __future__ import annotations

from itertools import permutations
from typing import Callable, Iterable

import numpy as np

from .errors import InputError
from .model import Dsm, prefix_feedback_value, suffix_feedback_value, total_feedback_length

__all__ = ["MAX_BRUTE_FORCE_N", "MAX_SUBSET_SIZE", "brute_force_optimum", "best_prefix_value", "best_suffix_value"]

MAX_BRUTE_FORCE_N = 10  # 10! schedule evaluations is the hard ceiling
MAX_SUBSET_SIZE = 9

_BATCH = 120_960  # permutations scored per vectorized batch (bounds memory)
_CACHED_N = 9  # up to this n the permutations are kept for the next call, 3.3 MB at n = 9; n = 10's are 36 MB
_cached: dict[int, np.ndarray] = {}  # the last such n's permutations, one n at a time


def brute_force_optimum(dsm: Dsm) -> tuple[tuple[int, ...], float]:
    """Optimal schedule and objective by full enumeration (n <= 10 only).

    Schedules are enumerated in lexicographic order and scored in batches
    whose accumulation order matches the scalar evaluator term for term, so
    the winning value is bit-identical to ``total_feedback_length`` on the
    winning schedule (which is what gets returned).  The schedules of the
    last n <= 9 asked for are kept, built once, for the next call.
    """
    n = dsm.n
    if n > MAX_BRUTE_FORCE_N:
        raise InputError(
            f"brute force would evaluate {n}! schedules; limited to n <= {MAX_BRUTE_FORCE_N}. "
            "Use the branch-and-prune solver for larger instances."
        )
    d = np.asarray(dsm.d, dtype=np.float64)
    best_value: float | None = None
    best_seq: tuple[int, ...] | None = None
    perms = _cached.get(n)
    if perms is None:
        perms = _permutations(n)
        if n <= _CACHED_N:
            _cached.clear()
            _cached[n] = perms
    for start in range(0, len(perms), _BATCH):
        batch = perms[start : start + _BATCH]
        values = _batch_objective(d, batch)
        index = int(np.argmin(values))  # first minimum: lexicographically smallest
        value = float(values[index])
        if best_value is None or value < best_value:
            best_value = value
            best_seq = tuple(int(a) + 1 for a in batch[index])
    assert best_seq is not None
    return best_seq, total_feedback_length(dsm, best_seq)


def _permutations(n: int) -> np.ndarray:
    """Every ordering of range(n) in lexicographic order, one int8 row each, read-only.

    The orderings of range(k) that start with f are f followed by the
    orderings of the other k - 1, in order: those of range(k - 1), each
    renamed through the ascending list of the others.
    """
    perms = np.zeros((1, 0), dtype=np.int8)
    for k in range(1, n + 1):
        rest = perms
        perms = np.empty((k * len(rest), k), dtype=np.int8)
        for first, block in enumerate(perms.reshape(k, len(rest), k)):
            block[:, 0] = first
            block[:, 1:] = np.array([a for a in range(k) if a != first], dtype=np.int8)[rest]
    perms.flags.writeable = False
    return perms


def _batch_objective(d: np.ndarray, perms: np.ndarray) -> np.ndarray:
    # Accumulates in ascending (h, k) position order, mirroring the scalar
    # evaluator so per-schedule values agree bit for bit.
    n = perms.shape[1]
    values = np.zeros(len(perms), dtype=np.float64)
    for h in range(n - 1):
        src = perms[:, h]
        for k in range(h + 1, n):
            values += d[src, perms[:, k]] * float(k - h)
    return values


def _best_ordering_value(evaluate: Callable[..., float], dsm: Dsm, subset: Iterable[int]) -> float:
    """Minimum of ``evaluate`` over all orderings of ``subset`` (at most ``MAX_SUBSET_SIZE`` activities)."""
    ids = tuple(sorted(subset))
    if len(ids) > MAX_SUBSET_SIZE:
        raise InputError(
            f"subset of size {len(ids)} would need {len(ids)}! ordering evaluations; "
            f"limited to {MAX_SUBSET_SIZE}"
        )
    return min(evaluate(dsm, ordering) for ordering in permutations(ids))


def best_prefix_value(dsm: Dsm, subset: Iterable[int]) -> float:
    """Minimum prefix feedback value over all orderings of ``subset``."""
    return _best_ordering_value(prefix_feedback_value, dsm, subset)


def best_suffix_value(dsm: Dsm, subset: Iterable[int]) -> float:
    """Minimum suffix feedback value over all orderings of ``subset``."""
    return _best_ordering_value(suffix_feedback_value, dsm, subset)
