from __future__ import annotations

import numpy as np
import pytest

from streamvox.schedule import (
    READ,
    WRITE,
    Action,
    SchedulePolicy,
    actions_from_records,
    actions_to_records,
    build_sequence,
    format_actions,
    implied_read_counts,
    parse_actions,
    training_mask,
    validate_sequence,
    visible_prefix,
)


def policy(r: int, w: int) -> SchedulePolicy:
    return SchedulePolicy(read_block=r, write_block=w)


def test_visible_prefix_formula_values() -> None:
    assert visible_prefix(1, 50, policy(3, 10)) == 3
    assert visible_prefix(11, 50, policy(3, 10)) == 6
    assert visible_prefix(1000, 50, policy(3, 10)) == 50
    assert visible_prefix(6, 50, policy(1, 5)) == 2


def test_visible_prefix_rejects_nonpositive_positions() -> None:
    with pytest.raises(ValueError):
        visible_prefix(0, 10, policy(3, 10))
    with pytest.raises(ValueError):
        visible_prefix(-2, 10, policy(3, 10))


@pytest.mark.parametrize("call, message", [
    (lambda p: training_mask(True, 3, p), "total_reps must be a positive integer, got True"),
    (lambda p: training_mask(1.5, 3, p), "total_reps must be a positive integer, got 1.5"),
    (lambda p: training_mask(0, 3, p), "total_reps must be a positive integer, got 0"),
    (lambda p: training_mask(2, 2.5, p), "total_tokens must be a non-negative integer, got 2.5"),
    (lambda p: training_mask(2, False, p), "total_tokens must be a non-negative integer, got False"),
    (lambda p: training_mask(2, -1, p), "total_tokens must be a non-negative integer, got -1"),
    (lambda p: build_sequence(True, 3, p), "total_reps must be a positive integer, got True"),
    (lambda p: build_sequence(2.0, 3, p), "total_reps must be a positive integer, got 2.0"),
    (lambda p: build_sequence(2, 3.0, p), "total_tokens must be a non-negative integer, got 3.0"),
    (lambda p: build_sequence(2, np.int64(3), p), "total_tokens must be a non-negative integer, got np.int64(3)"),
    (lambda p: visible_prefix(1.5, 3, p), "position must be a positive integer, got 1.5"),
    (lambda p: visible_prefix(True, 3, p), "position must be a positive integer, got True"),
    (lambda p: visible_prefix(0, 3, p), "position must be a positive integer, got 0"),
    (lambda p: visible_prefix(2, 3.0, p), "total_reps must be a non-negative integer, got 3.0"),
    (lambda p: visible_prefix(2, True, p), "total_reps must be a non-negative integer, got True"),
    (lambda p: visible_prefix(2, -1, p), "total_reps must be a non-negative integer, got -1"),
    # True sums like the one read of 1, so only the type check catches it
    (lambda p: validate_sequence([Action(READ, 1)], True, 0, p), "total_reps must be a non-negative integer, got True"),
])
def test_schedule_lengths_and_positions_must_be_ints(call, message) -> None:
    with pytest.raises(ValueError) as excinfo:
        call(policy(2, 3))
    assert str(excinfo.value) == message


def test_schedule_lengths_at_their_bounds() -> None:
    assert training_mask(1, 0, policy(2, 3)) == []
    assert build_sequence(1, 0, policy(2, 3)) == [Action(READ, 1)]
    assert visible_prefix(1, 0, policy(2, 3)) == 0


def test_policy_rejects_nonpositive_blocks() -> None:
    with pytest.raises(ValueError):
        SchedulePolicy(0, 10)
    with pytest.raises(ValueError):
        SchedulePolicy(3, 0)


@pytest.mark.parametrize("value", [True, False, 2.5, 3.0, "3", None, np.int64(3)])
def test_policy_rejects_non_integer_blocks(value) -> None:
    with pytest.raises(ValueError, match="read_block must be a positive integer"):
        SchedulePolicy(value, 2)
    with pytest.raises(ValueError, match="write_block must be a positive integer"):
        SchedulePolicy(2, value)


def test_build_sequence_reference_case() -> None:
    actions = build_sequence(6, 25, policy(3, 10))
    assert actions == [
        Action(READ, 3),
        Action(WRITE, 10),
        Action(READ, 3),
        Action(WRITE, 10),
        Action(WRITE, 5),
    ]
    validate_sequence(actions, 6, 25, policy(3, 10))


def test_build_sequence_partial_first_read() -> None:
    assert build_sequence(2, 1, policy(3, 10)) == [Action(READ, 2), Action(WRITE, 1)]


def test_build_sequence_write_free() -> None:
    assert build_sequence(3, 0, policy(3, 10)) == [Action(READ, 3)]


def test_build_sequence_rejects_zero_reps() -> None:
    with pytest.raises(ValueError):
        build_sequence(0, 5, policy(3, 10))


def test_training_mask_reference_cases() -> None:
    assert training_mask(6, 12, policy(3, 10)) == [3] * 10 + [6, 6]
    assert training_mask(3, 5, policy(3, 10)) == [3] * 5
    assert training_mask(50, 0, policy(3, 10)) == []


def test_mask_monotone_bounded_and_step_structure() -> None:
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(1, 60))
        m = int(rng.integers(0, 80))
        pol = policy(int(rng.integers(1, 8)), int(rng.integers(1, 8)))
        mask = training_mask(n, m, pol)
        for i, value in enumerate(mask):
            assert 0 < value <= n
            if i:
                step = value - mask[i - 1]
                assert step >= 0
                if step:
                    # increments happen only at block starts and are one read
                    # block (or the remainder up to the cap)
                    assert i % pol.write_block == 0
                    assert step == min(pol.read_block, n - mask[i - 1])


def test_sequence_matches_mask_on_random_instances() -> None:
    rng = np.random.default_rng(11)
    for _ in range(500):
        n = int(rng.integers(1, 60))
        m = int(rng.integers(0, 80))
        pol = policy(int(rng.integers(1, 8)), int(rng.integers(1, 8)))
        actions = build_sequence(n, m, pol)
        validate_sequence(actions, n, m, pol)
        assert implied_read_counts(actions) == training_mask(n, m, pol)


def test_conservation_over_random_instances() -> None:
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(1, 50))
        m = int(rng.integers(0, 60))
        pol = policy(int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        actions = build_sequence(n, m, pol)
        assert sum(a.count for a in actions if a.kind == READ) == n
        assert sum(a.count for a in actions if a.kind == WRITE) == m


def test_writes_exhausted_before_reads_flushes_remainder() -> None:
    actions = build_sequence(50, 5, policy(3, 10))
    assert actions == [Action(READ, 3), Action(WRITE, 5), Action(READ, 47)]
    validate_sequence(actions, 50, 5, policy(3, 10))


def test_text_serialization_round_trip() -> None:
    actions = build_sequence(6, 25, policy(3, 10))
    text = format_actions(actions)
    assert text == "R3 W10 R3 W10 W5"
    assert parse_actions(text) == actions


def test_record_serialization_round_trip() -> None:
    actions = build_sequence(7, 9, policy(2, 4))
    assert actions_from_records(actions_to_records(actions)) == actions


@pytest.mark.parametrize(
    "rows, message",
    [
        ([{"kind": "read", "count": 2}, {"count": 3}], r"actions\[1\]: action kind"),
        ([{"kind": "read"}], r"actions\[0\]: action count"),
        ([{"kind": "read", "count": 2}, 5], r"actions\[1\]: action record must be an object"),
        ([{"kind": "write", "count": 2.0}], r"actions\[0\]: action count"),
        ([{"kind": "skip", "count": 2}], r"actions\[0\]: action kind"),
    ],
)
def test_record_parser_names_index_and_field(rows, message) -> None:
    with pytest.raises(ValueError, match=message):
        actions_from_records(rows)


def test_parse_rejects_malformed_tokens() -> None:
    with pytest.raises(ValueError):
        parse_actions("R3 X10")
    with pytest.raises(ValueError):
        parse_actions("R")


def test_validate_sequence_catches_wrong_visibility() -> None:
    # block sizes and totals are fine, but the second read lands too late
    bad = [Action(READ, 3), Action(WRITE, 10), Action(WRITE, 2), Action(READ, 3)]
    with pytest.raises(ValueError, match="write position 11"):
        validate_sequence(bad, 6, 12, policy(3, 10))
