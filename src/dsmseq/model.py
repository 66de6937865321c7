"""Core problem model: dependence matrices, schedules, and objective evaluation.

An instance is a square matrix of dependence degrees between activities:
entry d[i][j] says how strongly activity i relies on information produced
by activity j.  Once the activities are laid out in a sequence, every
dependence on a later-positioned activity becomes a feedback whose cost is
its degree times the number of positions it spans; dependences pointing
backwards are feedforwards and cost nothing.  This module holds the matrix
and order-variable types, the objective, its decomposition around a split
position, and the direct prefix/suffix evaluators whose best orderings the
brute-force oracle searches.

Every evaluator sums the feedback among a sequence's own activities with
one helper, in ascending (h, k) positions from 0.0, and its other terms in
ascending positions too, so repeated evaluations are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from numbers import Integral
from typing import Iterable, Sequence

from .errors import ConstraintViolation, InputError

__all__ = [
    "Dsm",
    "OrderVars",
    "SplitDecomposition",
    "check_sequence",
    "total_feedback_length",
    "prefix_feedback_value",
    "suffix_feedback_value",
    "split_components",
    "sequence_to_order_vars",
    "quadratic_objective",
]


@dataclass(frozen=True)
class Dsm:
    """Square matrix of dependence degrees in [0, 1] with a zero diagonal.

    Immutable after construction.
    """

    d: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.d)
        if n < 2:
            raise InputError(f"need at least 2 activities, got {n}")
        for i, row in enumerate(self.d):
            if len(row) != n:
                raise InputError(f"row {i + 1} has {len(row)} entries, expected {n}")
            for j, value in enumerate(row):
                if not isfinite(value) or not 0.0 <= value <= 1.0:
                    raise InputError(
                        f"dependence degree d[{i + 1}][{j + 1}] = {value!r} outside [0, 1]"
                    )
            if row[i] != 0.0:
                raise InputError(f"diagonal entry d[{i + 1}][{i + 1}] must be 0, got {row[i]!r}")

    @property
    def n(self) -> int:
        return len(self.d)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[float]]) -> "Dsm":
        return cls(tuple(tuple(float(v) for v in row) for row in rows))


def check_activities(ids: Iterable[int], n: int, what: str) -> int:
    """Raise InputError unless ``ids`` are distinct integers in 1..n; return their mask, activity a at bit a - 1.

    numpy integers count as integers; ``what`` names the ids in the message.
    """
    mask = 0
    for a in ids:
        if type(a) is not int:  # the exact type first: an abstract-class check costs far more
            if not isinstance(a, Integral):
                raise InputError(f"{what} contains {a!r}, which is not an integer activity id")
            a = int(a)
        if not 1 <= a <= n:
            raise InputError(f"{what} contains activity {a}, outside 1..{n}")
        bit = 1 << (a - 1)
        if mask & bit:
            raise InputError(f"{what} repeats activity {a}")
        mask |= bit
    return mask


def check_sequence(seq: Sequence[int], n: int) -> None:
    """Validate that ``seq`` is a permutation of the activities 1..n."""
    if len(seq) != n:
        raise InputError(f"sequence has {len(seq)} activities, expected {n}")
    check_activities(seq, n, "sequence")


def _check_partial(part: Sequence[int], n: int, what: str) -> None:
    check_activities(part, n, what)
    if not part:
        raise InputError(f"{what} is empty")


def _internal_feedback(d: Sequence[Sequence[float]], part: Sequence[int]) -> float:
    """Feedback among ``part``'s own activities at their full spans, summed ascending (h, k) from 0.0."""
    m = len(part)
    total = 0.0
    for h in range(m - 1):
        row = d[part[h] - 1]
        for k in range(h + 1, m):
            total += row[part[k] - 1] * (k - h)
    return total


def total_feedback_length(dsm: Dsm, seq: Sequence[int]) -> float:
    """Total length-weighted feedback of a complete schedule.

    Every dependence of an earlier-positioned activity on a later one
    contributes its degree times the positional distance it spans.
    """
    check_sequence(seq, dsm.n)
    return _internal_feedback(dsm.d, seq)


def prefix_feedback_value(dsm: Dsm, prefix: Sequence[int]) -> float:
    """Feedback value accumulated by a schedule prefix occupying positions 1..p.

    Counts feedbacks inside the prefix at their full span plus, for each
    prefix member, its dependence on every still-unscheduled activity,
    spanning from the member's position to the first open position.  The
    result depends only on the prefix ordering, not on how the remaining
    activities are eventually arranged.
    """
    n = dsm.n
    _check_partial(prefix, n, "prefix")
    d = dsm.d
    p = len(prefix)
    inside = set(prefix)
    total = _internal_feedback(d, prefix)
    for h in range(p):
        row = d[prefix[h] - 1]
        span = p - h  # distance from position h+1 to the first open position p+1
        acc = 0.0
        for b in range(1, n + 1):
            if b not in inside:
                acc += row[b - 1]
        total += acc * span
    return total


def suffix_feedback_value(dsm: Dsm, suffix: Sequence[int]) -> float:
    """Feedback value accumulated by a schedule suffix occupying the last positions.

    Counts feedbacks inside the suffix at their full span plus, for each
    dependence of a still-unscheduled activity on a suffix member, the
    member's offset past the first suffix position.  Like the prefix value,
    it is independent of how the other region gets ordered.
    """
    n = dsm.n
    _check_partial(suffix, n, "suffix")
    d = dsm.d
    m = len(suffix)
    inside = set(suffix)
    total = _internal_feedback(d, suffix)
    for k in range(m):
        col = suffix[k] - 1
        if k == 0:
            continue  # zero offset, contributes nothing
        acc = 0.0
        for a in range(1, n + 1):
            if a not in inside:
                acc += d[a - 1][col]
        total += acc * k
    return total


@dataclass(frozen=True)
class SplitDecomposition:
    """Objective components around a split position.

    ``fv_a``/``fv_b`` are the region feedback values (prefix and suffix);
    ``fl_a``/``fl_b`` the feedback lengths internal to each region;
    ``fl_c`` the cross-region feedback length, which splits into the
    prefix-side and suffix-side parts ``fv_ca``/``fv_cb``.  They satisfy
    fv_a + fv_b = fl_a + fl_b + fl_c = total, fv_a = fl_a + fv_ca and
    fv_b = fl_b + fv_cb (up to float rounding of the different groupings).
    """

    p: int
    fv_a: float
    fv_b: float
    fl_a: float
    fl_b: float
    fl_c: float
    fv_ca: float
    fv_cb: float


def split_components(dsm: Dsm, seq: Sequence[int], p: int) -> SplitDecomposition:
    """Evaluate all split components directly from their defining sums."""
    n = dsm.n
    check_sequence(seq, n)
    if not 1 < p < n:
        raise InputError(f"split position must satisfy 1 < p < {n}, got {p}")
    d = dsm.d

    fl_a = _internal_feedback(d, seq[:p])
    fl_b = _internal_feedback(d, seq[p:])

    # Region values are the internal part plus the cross terms, each sum in its own ascending (h, k) order.
    fl_c = fv_ca = fv_cb = 0.0
    fv_a = fl_a
    fv_b = fl_b
    for h in range(p):
        row = d[seq[h] - 1]
        for k in range(p, n):
            degree = row[seq[k] - 1]
            fl_c += degree * (k - h)
            fv_ca += degree * (p - h)
            fv_cb += degree * (k - p)
            fv_a += degree * (p - h)
            fv_b += degree * (k - p)

    return SplitDecomposition(
        p=p, fv_a=fv_a, fv_b=fv_b, fl_a=fl_a, fl_b=fl_b, fl_c=fl_c, fv_ca=fv_ca, fv_cb=fv_cb
    )


@dataclass(frozen=True)
class OrderVars:
    """Pairwise precedence variables: x[i][j] = 1 iff activity i+1 precedes j+1.

    A consistent assignment is antisymmetric (exactly one of x[i][j],
    x[j][i] is set) and transitive (no directed 3-cycles).
    """

    x: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.x)

    def validate(self) -> None:
        """Raise ConstraintViolation naming the first violated constraint."""
        n = self.n
        x = self.x
        for i in range(n):
            if len(x[i]) != n:
                raise InputError(f"order-variable row {i + 1} has {len(x[i])} entries, expected {n}")
            for j in range(n):
                if x[i][j] not in (0, 1):
                    raise InputError(f"x[{i + 1}][{j + 1}] = {x[i][j]!r} is not binary")
            if x[i][i] != 0:
                raise InputError(f"x[{i + 1}][{i + 1}] must be 0")
        for i in range(n):
            for j in range(i + 1, n):
                if x[i][j] + x[j][i] != 1:
                    raise ConstraintViolation(
                        f"antisymmetry violated for activities ({i + 1}, {j + 1}): "
                        f"x[{i + 1}][{j + 1}] + x[{j + 1}][{i + 1}] must equal 1"
                    )
        for i in range(n):
            for j in range(n):
                if j == i:
                    continue
                for k in range(n):
                    if k == i or k == j:
                        continue
                    if x[i][j] + x[j][k] + x[k][i] > 2:
                        raise ConstraintViolation(
                            f"transitivity violated for activities ({i + 1}, {j + 1}, {k + 1}): "
                            f"precedence cycle {i + 1} -> {j + 1} -> {k + 1} -> {i + 1}"
                        )


def sequence_to_order_vars(seq: Sequence[int]) -> OrderVars:
    """Encode a schedule as precedence variables (consistent by construction)."""
    n = len(seq)
    check_sequence(seq, n)
    position = [0] * (n + 1)
    for pos, a in enumerate(seq):
        position[a] = pos
    x = tuple(
        tuple(1 if i != j and position[i + 1] < position[j + 1] else 0 for j in range(n))
        for i in range(n)
    )
    return OrderVars(x)


def quadratic_objective(dsm: Dsm, order: OrderVars) -> float:
    """Objective in the precedence-variable formulation.

    Each set dependence x[i][j] contributes d[i][j] times the difference of
    predecessor counts of j and i, which is the positional span of the
    feedback.  For variables encoding a schedule this equals
    ``total_feedback_length`` on that schedule; it serves as an independent
    cross-check evaluator.
    """
    n = dsm.n
    if order.n != n:
        raise InputError(f"order variables cover {order.n} activities, matrix has {n}")
    order.validate()
    x = order.x
    d = dsm.d
    preds = [sum(x[k][j] for k in range(n)) for j in range(n)]
    total = 0.0
    for i in range(n):
        row = d[i]
        xi = x[i]
        for j in range(n):
            if j != i and xi[j]:
                total += row[j] * (preds[j] - preds[i])
    return total
