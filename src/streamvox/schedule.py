"""Read/write interleaving policy: action sequences, visibility, training masks.

A streaming speech-token generator consumes fused input representations in
blocks of ``read_block`` and emits speech tokens in blocks of ``write_block``.
Everything in this module is a pure function of the block sizes and the two
sequence lengths, so a schedule can be built, audited, and serialized without
touching any model code.

Positions are 1-based throughout: speech-token position ``i`` is the i-th
token emitted, and ``visible_prefix(i, ...)`` is the number of fused
representations that may condition it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .records import nonneg_int, positive_int, prefixed

READ = "read"
WRITE = "write"

_ACTION_TOKEN = re.compile(r"^([RW])([0-9]+)$")


@dataclass(frozen=True)
class SchedulePolicy:
    """Block sizes of the interleaved cadence: read ``read_block`` fused
    representations, then write ``write_block`` speech tokens."""

    read_block: int
    write_block: int

    def __post_init__(self) -> None:
        positive_int("read_block", self.read_block)
        positive_int("write_block", self.write_block)

    @classmethod
    def from_record(cls, record) -> "SchedulePolicy":
        """Parse ``{"read_block": R, "write_block": W}``; a missing field reads as None."""
        fields = record if isinstance(record, Mapping) else {}
        return cls(fields.get("read_block"), fields.get("write_block"))


@dataclass(frozen=True)
class Action:
    """One scheduler step: read or write ``count`` items."""

    kind: str
    count: int

    def __post_init__(self) -> None:
        if self.kind not in (READ, WRITE):
            raise ValueError(f"action kind must be {READ!r} or {WRITE!r}, got {self.kind!r}")
        positive_int("action count", self.count)


def visible_prefix(position: int, total_reps: int, policy: SchedulePolicy) -> int:
    """Number of fused representations visible to speech-token ``position``.

    Equals ``min((floor((position - 1) / write_block) + 1) * read_block,
    total_reps)``: every completed write block unlocks one more read block,
    capped at the number of representations that exist.  ``position`` must
    be an int >= 1 and ``total_reps`` an int >= 0, neither a bool.
    """
    positive_int("position", position)
    nonneg_int("total_reps", total_reps)
    return _visible_prefix(position, total_reps, policy)


def _visible_prefix(position: int, total_reps: int, policy: SchedulePolicy) -> int:
    """:func:`visible_prefix` of arguments already checked."""
    return min(((position - 1) // policy.write_block + 1) * policy.read_block, total_reps)


def training_mask(total_reps: int, total_tokens: int, policy: SchedulePolicy) -> list[int]:
    """Per-position visibility counts for a training pair of lengths
    (``total_reps`` fused representations, ``total_tokens`` speech tokens)."""
    _check_lengths(total_reps, total_tokens)
    return [_visible_prefix(i, total_reps, policy) for i in range(1, total_tokens + 1)]


def build_sequence(total_reps: int, total_tokens: int, policy: SchedulePolicy) -> list[Action]:
    """Materialize the action sequence for the given lengths.

    Reads come in ``read_block``-sized actions (the last one may be partial),
    writes in ``write_block``-sized actions (likewise).  Once the read side is
    exhausted the remaining writes follow back to back; if the write side ends
    first, one final read flushes the unread remainder.
    """
    _check_lengths(total_reps, total_tokens)
    actions: list[Action] = []
    reads_done = 0
    writes_done = 0
    block = 0
    while writes_done < total_tokens:
        block += 1
        target = min(block * policy.read_block, total_reps)
        if target > reads_done:
            actions.append(Action(READ, target - reads_done))
            reads_done = target
        step = min(policy.write_block, total_tokens - writes_done)
        actions.append(Action(WRITE, step))
        writes_done += step
    if reads_done < total_reps:
        actions.append(Action(READ, total_reps - reads_done))
    return actions


def implied_read_counts(actions: Sequence[Action]) -> list[int]:
    """Reads completed before each write position, in emission order."""
    counts: list[int] = []
    reads = 0
    for action in actions:
        if action.kind == READ:
            reads += action.count
        else:
            counts.extend([reads] * action.count)
    return counts


def validate_sequence(
    actions: Sequence[Action],
    total_reps: int,
    total_tokens: int,
    policy: SchedulePolicy,
) -> None:
    """Check every action-sequence invariant; raise ValueError on the first violation.

    Checks conservation (reads sum to ``total_reps``, writes to
    ``total_tokens``), block sizing (all reads equal ``read_block`` except the
    last, likewise writes), ordering (a read never directly follows a read
    while writes remain), and per-position visibility against
    :func:`visible_prefix`.
    """
    reads = [a.count for a in actions if a.kind == READ]
    writes = [a.count for a in actions if a.kind == WRITE]
    if sum(reads) != total_reps:
        raise ValueError(f"read counts sum to {sum(reads)}, expected {total_reps}")
    if sum(writes) != total_tokens:
        raise ValueError(f"write counts sum to {sum(writes)}, expected {total_tokens}")
    if actions and actions[0].kind != READ:
        raise ValueError("sequence must start with a read")
    for count in reads[:-1]:
        if count != policy.read_block:
            raise ValueError(f"non-final read of size {count}, expected {policy.read_block}")
    for count in writes[:-1]:
        if count != policy.write_block:
            raise ValueError(f"non-final write of size {count}, expected {policy.write_block}")
    for prev, cur in zip(actions, actions[1:]):
        if prev.kind == READ and cur.kind == READ:
            raise ValueError("consecutive read actions")
    nonneg_int("total_reps", total_reps)
    for i, got in enumerate(implied_read_counts(actions), start=1):
        expected = _visible_prefix(i, total_reps, policy)
        if got != expected:
            raise ValueError(
                f"write position {i} sees {got} representations, expected {expected}"
            )


def format_actions(actions: Iterable[Action]) -> str:
    """Compact text form, e.g. ``"R3 W10 R3 W10 W5"``."""
    return " ".join(f"{'R' if a.kind == READ else 'W'}{a.count}" for a in actions)


def parse_actions(text: str) -> list[Action]:
    """Inverse of :func:`format_actions`."""
    actions: list[Action] = []
    for token in text.split():
        match = _ACTION_TOKEN.match(token)
        if match is None:
            raise ValueError(f"malformed action token {token!r}")
        kind = READ if match.group(1) == "R" else WRITE
        actions.append(Action(kind, int(match.group(2))))
    return actions


def actions_to_records(actions: Iterable[Action]) -> list[dict]:
    """Structured record form, suitable for JSON serialization."""
    return [{"kind": a.kind, "count": a.count} for a in actions]


def actions_from_records(records: Iterable) -> list[Action]:
    """Parse ``schedule/v1`` actions, each ``{"kind": "read" | "write", "count": n}``;
    a missing field reads as None.  Errors name the record index and field."""
    actions = []
    for i, r in enumerate(records):
        with prefixed(f"actions[{i}]: "):
            if not isinstance(r, Mapping):
                raise ValueError(f"action record must be an object, got {r!r}")
            actions.append(Action(r.get("kind"), r.get("count")))
    return actions


def _check_lengths(total_reps: int, total_tokens: int) -> None:
    """At least one fused representation and no negative token count, both ints and not bools."""
    positive_int("total_reps", total_reps)
    nonneg_int("total_tokens", total_tokens)
