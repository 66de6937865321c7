import random
from itertools import permutations

import numpy as np
import pytest

from dsmseq import (
    ConstraintViolation,
    Dsm,
    InputError,
    OrderVars,
    generate_instance,
    prefix_feedback_value,
    quadratic_objective,
    sequence_to_order_vars,
    split_components,
    suffix_feedback_value,
    total_feedback_length,
)

REL = 1e-9


def test_dsm_validation():
    with pytest.raises(InputError):
        Dsm.from_rows([[0.0]])  # too few activities
    with pytest.raises(InputError):
        Dsm.from_rows([[0, 0.5], [0.5, 0.1]])  # nonzero diagonal
    with pytest.raises(InputError):
        Dsm.from_rows([[0, 1.5], [0.5, 0]])  # out of range
    with pytest.raises(InputError):
        Dsm.from_rows([[0, 0.5], [0.5]])  # ragged row
    with pytest.raises(InputError):
        Dsm.from_rows([[0, float("nan")], [0.5, 0]])


def test_total_feedback_length_zero_matrix(zero6):
    assert total_feedback_length(zero6, (1, 2, 3, 4, 5, 6)) == 0.0
    assert total_feedback_length(zero6, (6, 5, 4, 3, 2, 1)) == 0.0


def test_total_feedback_length_examples(dsm3):
    assert total_feedback_length(dsm3, (1, 2, 3)) == pytest.approx(1.3, rel=REL)
    assert total_feedback_length(dsm3, (3, 2, 1)) == 0.0


def test_total_feedback_length_rejects_bad_sequences(dsm3):
    with pytest.raises(InputError):
        total_feedback_length(dsm3, (1, 2))
    with pytest.raises(InputError):
        total_feedback_length(dsm3, (1, 2, 2))
    with pytest.raises(InputError):
        total_feedback_length(dsm3, (1, 2, 4))
    # ids are integers: floats are refused, numpy integers accepted
    for seq in ((1.0, 2.0, 3.0), (1, 2, 3.5)):
        with pytest.raises(InputError):
            total_feedback_length(dsm3, seq)
        with pytest.raises(InputError):
            sequence_to_order_vars(seq)
    assert total_feedback_length(dsm3, tuple(np.arange(1, 4))) == total_feedback_length(dsm3, (1, 2, 3))


def test_split_position_validation(dsm3):
    for p in (0, 1, 3, 4):
        with pytest.raises(InputError):
            split_components(dsm3, (1, 2, 3), p)


def test_split_components_example(dsm3):
    parts = split_components(dsm3, (1, 2, 3), 2)
    assert parts.fv_a == pytest.approx(1.3, rel=REL)
    assert parts.fv_b == 0.0
    assert parts.fl_a == pytest.approx(0.5, rel=REL)
    assert parts.fl_b == 0.0
    assert parts.fl_c == pytest.approx(0.8, rel=REL)
    assert parts.fv_ca == pytest.approx(0.8, rel=REL)
    assert parts.fv_cb == 0.0


def test_split_components_zero_matrix(zero6):
    for p in range(2, 6):
        parts = split_components(zero6, (1, 2, 3, 4, 5, 6), p)
        assert (parts.fv_a, parts.fv_b, parts.fl_a, parts.fl_b, parts.fl_c) == (0, 0, 0, 0, 0)


def test_split_identities_random():
    rng = random.Random(2024)
    for _ in range(60):
        n = rng.randint(4, 9)
        dsm = generate_instance(n, rng.choice([0.2, 0.6, 1.0]), rng.randrange(10_000))
        seq = list(range(1, n + 1))
        rng.shuffle(seq)
        seq = tuple(seq)
        total = total_feedback_length(dsm, seq)
        for p in range(2, n):
            parts = split_components(dsm, seq, p)
            assert parts.fv_a + parts.fv_b == pytest.approx(total, rel=REL)
            assert parts.fl_a + parts.fl_b + parts.fl_c == pytest.approx(total, rel=REL)
            assert parts.fv_ca + parts.fv_cb == pytest.approx(parts.fl_c, rel=REL)
            assert parts.fl_a + parts.fv_ca == pytest.approx(parts.fv_a, rel=REL)
            assert parts.fl_b + parts.fv_cb == pytest.approx(parts.fv_b, rel=REL)


def test_region_independence():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(4, 9)
        dsm = generate_instance(n, 0.8, rng.randrange(10_000))
        seq = list(range(1, n + 1))
        rng.shuffle(seq)
        p = rng.randint(2, n - 1)
        parts = split_components(dsm, tuple(seq), p)
        shuffled = seq[:p]
        rng.shuffle(shuffled)
        reordered_prefix = tuple(shuffled + seq[p:])
        assert split_components(dsm, reordered_prefix, p).fv_b == pytest.approx(
            parts.fv_b, rel=REL
        )
        shuffled = seq[p:]
        rng.shuffle(shuffled)
        reordered_suffix = tuple(seq[:p] + shuffled)
        assert split_components(dsm, reordered_suffix, p).fv_a == pytest.approx(
            parts.fv_a, rel=REL
        )


def test_prefix_and_suffix_values(dsm3):
    assert prefix_feedback_value(dsm3, (1,)) == pytest.approx(0.7, rel=REL)
    assert prefix_feedback_value(dsm3, (3,)) == 0.0
    assert prefix_feedback_value(dsm3, (1, 2)) == pytest.approx(1.3, rel=REL)
    assert prefix_feedback_value(dsm3, (2, 1)) == pytest.approx(1.0, rel=REL)
    assert suffix_feedback_value(dsm3, (3,)) == 0.0
    assert suffix_feedback_value(dsm3, (1, 3)) == pytest.approx(0.6, rel=REL)
    assert suffix_feedback_value(dsm3, (2, 3)) == pytest.approx(0.6, rel=REL)
    # a full-length prefix is just the whole schedule
    assert prefix_feedback_value(dsm3, (1, 2, 3)) == pytest.approx(
        total_feedback_length(dsm3, (1, 2, 3)), rel=REL
    )


def test_partial_value_validation(dsm3):
    with pytest.raises(InputError):
        prefix_feedback_value(dsm3, ())
    with pytest.raises(InputError):
        prefix_feedback_value(dsm3, (1, 1))
    with pytest.raises(InputError):
        suffix_feedback_value(dsm3, (0,))
    with pytest.raises(InputError):
        prefix_feedback_value(dsm3, (1.5,))
    with pytest.raises(InputError):
        suffix_feedback_value(dsm3, (1.0, 2.0))


def test_sequence_to_order_vars_examples():
    order = sequence_to_order_vars((1, 2, 3))
    assert order.x[0][1] == order.x[0][2] == order.x[1][2] == 1
    assert order.x[1][0] == order.x[2][0] == order.x[2][1] == 0
    order = sequence_to_order_vars((3, 1, 2))
    assert order.x[2][0] == order.x[2][1] == order.x[0][1] == 1
    order.validate()  # consistent by construction


def test_order_vars_validation_names_the_constraint():
    x = [[0, 1, 1], [1, 0, 1], [0, 0, 0]]  # x[1][2] and x[2][1] both set
    with pytest.raises(ConstraintViolation, match=r"antisymmetry.*\(1, 2\)"):
        OrderVars(tuple(tuple(r) for r in x)).validate()
    # precedence cycle 1 -> 2 -> 3 -> 1
    x = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    with pytest.raises(ConstraintViolation, match=r"transitivity.*\(1, 2, 3\)"):
        OrderVars(tuple(tuple(r) for r in x)).validate()


def test_quadratic_objective_examples(dsm3, zero6):
    assert quadratic_objective(dsm3, sequence_to_order_vars((1, 2, 3))) == pytest.approx(
        1.3, rel=REL
    )
    assert quadratic_objective(zero6, sequence_to_order_vars((2, 4, 6, 1, 3, 5))) == 0.0
    bad = [[0, 1, 1], [1, 0, 1], [0, 0, 0]]
    with pytest.raises(ConstraintViolation):
        quadratic_objective(dsm3, OrderVars(tuple(tuple(r) for r in bad)))


def test_model_equivalence_all_permutations():
    for seed, density in ((5, 0.3), (6, 0.8)):
        dsm = generate_instance(5, density, seed)
        for seq in permutations(range(1, 6)):
            direct = total_feedback_length(dsm, seq)
            encoded = quadratic_objective(dsm, sequence_to_order_vars(seq))
            assert encoded == pytest.approx(direct, rel=REL)
