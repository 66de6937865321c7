from itertools import permutations

import pytest

from dsmseq import (
    Dsm,
    InputError,
    best_prefix_value,
    best_suffix_value,
    brute_force_optimum,
    generate_instance,
    total_feedback_length,
)
from dsmseq import oracle


def test_three_activity_example(dsm3):
    seq, objective = brute_force_optimum(dsm3)
    assert seq == (3, 2, 1)
    assert objective == 0.0


def test_two_activity_example():
    dsm = Dsm.from_rows([[0, 0.3], [0.7, 0]])
    assert brute_force_optimum(dsm) == ((1, 2), 0.3)


def test_zero_matrix_breaks_ties_lexicographically():
    dsm = Dsm.from_rows([[0.0] * 5 for _ in range(5)])
    assert brute_force_optimum(dsm) == ((1, 2, 3, 4, 5), 0.0)


def test_size_guard():
    dsm = generate_instance(11, 0.5, 0)
    with pytest.raises(InputError, match="n <= 10"):
        brute_force_optimum(dsm)


def test_objective_uses_canonical_arithmetic():
    dsm = generate_instance(7, 0.7, 5)
    seq, objective = brute_force_optimum(dsm)
    assert objective == total_feedback_length(dsm, seq)


def test_agrees_with_scalar_enumeration():
    # independent scalar re-enumeration of the same lexicographic scan
    for seed in (1, 2, 3):
        dsm = generate_instance(6, 0.6, seed)
        best = min(
            (total_feedback_length(dsm, seq), seq) for seq in permutations(range(1, 7))
        )
        assert brute_force_optimum(dsm) == (best[1], best[0])


def test_orderings_are_lexicographic_and_kept_for_one_n():
    for n in range(8):
        assert oracle._permutations(n).tolist() == [list(seq) for seq in permutations(range(n))]
    dsm = generate_instance(7, 0.6, 3)
    first = brute_force_optimum(dsm)
    kept = oracle._cached[7]
    assert not kept.flags.writeable
    assert brute_force_optimum(dsm) == first and oracle._cached[7] is kept
    brute_force_optimum(generate_instance(6, 0.6, 3))
    assert list(oracle._cached) == [6]


def test_best_prefix_value_example(dsm3):
    assert best_prefix_value(dsm3, (1, 2)) == pytest.approx(1.0, rel=1e-9)
    # singleton suffixes owe nothing
    for a in (1, 2, 3):
        assert best_suffix_value(dsm3, (a,)) == 0.0


def test_full_set_prefix_collapses_to_global_optimum():
    dsm = generate_instance(6, 0.8, 11)
    _, objective = brute_force_optimum(dsm)
    assert best_prefix_value(dsm, range(1, 7)) == pytest.approx(objective, rel=1e-9)


def test_subset_size_guard():
    dsm = generate_instance(12, 0.5, 0)
    with pytest.raises(InputError):
        best_prefix_value(dsm, range(1, 11))
