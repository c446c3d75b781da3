"""Multi-turn dialogue corpus synthesis with pluggable turn generators.

Turn counts are drawn from Poisson(lambda=2) clipped to [1, 5].  Each
dialogue gets a fresh random prompt-voice id (varied instruction voices)
while every response across a corpus shares one response-voice id; voices are
carried as metadata only, no audio is produced.  Turn text comes from a
``GeneratorClient``: a deterministic offline stub by default, or an adapter
speaking a small JSON protocol to an external generation service.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Protocol, Sequence

import numpy as np

from . import records

TURN_RATE = 2.0
MIN_TURNS = 1
MAX_TURNS = 5

DEFAULT_RESPONSE_VOICE = "response-voice-0"
DEFAULT_TIMEOUT_S = 10.0
DEFAULT_RETRIES = 2

CORPUS_SCHEMA = "dialogue/v1"


def sample_turn_count(rng: np.random.Generator) -> int:
    """Poisson(2) draw clipped to [1, 5]."""
    return int(min(max(rng.poisson(TURN_RATE), MIN_TURNS), MAX_TURNS))


def turn_count_pmf() -> dict[int, float]:
    """Analytic distribution of :func:`sample_turn_count`."""
    base = {k: TURN_RATE**k * math.exp(-TURN_RATE) / math.factorial(k) for k in range(MAX_TURNS)}
    pmf = {MIN_TURNS: base[0] + base[1]}
    for k in range(MIN_TURNS + 1, MAX_TURNS):
        pmf[k] = base[k]
    pmf[MAX_TURNS] = 1.0 - sum(base.values())
    return pmf


class GeneratorClient(Protocol):
    def next_turn(self, history: Sequence[tuple[str, str]]) -> tuple[str, str]:
        """Produce the next (instruction, response) given the prior turns."""
        ...


class GenerationError(RuntimeError):
    """Turn generation failed after retries; carries the partial transcript."""

    def __init__(self, message: str, partial_turns: list[tuple[str, str]]):
        super().__init__(f"{message} (after {len(partial_turns)} completed turns)")
        self.partial_turns = partial_turns


_TOPICS = (
    "planning a weekend hike",
    "fixing a slow laptop",
    "learning to bake bread",
    "organizing a book club",
    "watering houseplants",
    "budgeting a small trip",
    "writing a short story",
    "setting up a home network",
)

_FOLLOWUPS = (
    "Can you expand on that?",
    "What should I watch out for?",
    "How long will that take?",
    "Is there a cheaper option?",
)


@dataclass
class StubGenerator:
    """Offline template-based generator; deterministic under a fixed seed."""

    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    def next_turn(self, history: Sequence[tuple[str, str]]) -> tuple[str, str]:
        turn = len(history) + 1
        if turn == 1:
            topic = _TOPICS[int(self._rng.integers(len(_TOPICS)))]
            instruction = f"I need help with {topic}."
            response = f"Happy to help with {topic}. Let's start with the basics."
        else:
            followup = _FOLLOWUPS[int(self._rng.integers(len(_FOLLOWUPS)))]
            instruction = f"{followup}"
            response = f"Building on turn {turn - 1}: here is the next step, in more detail."
        return instruction, response


@dataclass
class ExternalServiceClient:
    """Adapter for an external turn-generation service.

    Wire format: the request is ``{"type": "turn_request", "turn_index": i,
    "history": [{"instruction": ..., "response": ...}, ...]}`` and the reply
    must be ``{"instruction": ..., "response": ...}``.  ``transport`` performs
    one request/reply exchange (an HTTP POST in production, a fake in tests)
    and is retried up to ``retries`` extra times on any exception it raises.
    A reply that arrives malformed raises ``ValueError`` without a retry.
    """

    transport: Callable[[dict, float], dict]
    timeout_s: float = DEFAULT_TIMEOUT_S
    retries: int = DEFAULT_RETRIES

    def next_turn(self, history: Sequence[tuple[str, str]]) -> tuple[str, str]:
        request = {
            "type": "turn_request",
            "turn_index": len(history) + 1,
            "history": [{"instruction": i, "response": r} for i, r in history],
        }
        failure: Exception | None = None
        for _ in range(self.retries + 1):
            try:
                reply = self.transport(request, self.timeout_s)
            except Exception as exc:
                failure = exc
                continue
            if not isinstance(reply, Mapping) or not {"instruction", "response"} <= reply.keys():
                raise ValueError(
                    f"malformed turn reply: expected a mapping with 'instruction' and 'response', got {reply!r}"
                )
            return str(reply["instruction"]), str(reply["response"])
        raise RuntimeError(f"turn generation failed after {self.retries + 1} attempts: {failure}")


@dataclass(frozen=True)
class DialogueRecord:
    """One multi-turn dialogue with its voice metadata."""

    id: str
    voice_prompt_id: str
    response_voice_id: str
    turns: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if not MIN_TURNS <= len(self.turns) <= MAX_TURNS:
            raise ValueError(
                f"turn count must lie in [{MIN_TURNS}, {MAX_TURNS}], got {len(self.turns)}"
            )

    def to_record(self) -> dict:
        return {
            "schema": CORPUS_SCHEMA,
            "id": self.id,
            "voice_prompt_id": self.voice_prompt_id,
            "response_voice_id": self.response_voice_id,
            "turns": [{"instruction": i, "response": r} for i, r in self.turns],
        }

    @classmethod
    def from_record(cls, record: Mapping) -> "DialogueRecord":
        """Parse one ``dialogue/v1`` row; errors name the field path."""
        turns = record.get("turns")
        if not isinstance(turns, list):
            raise ValueError(f"turns must be a list, got {turns!r}")
        for i, turn in enumerate(turns):
            if not isinstance(turn, Mapping):
                raise ValueError(f"turns[{i}] must be an object, got {turn!r}")
        return cls(
            id=records.string("id", record.get("id")),
            voice_prompt_id=records.string("voice_prompt_id", record.get("voice_prompt_id")),
            response_voice_id=records.string("response_voice_id", record.get("response_voice_id")),
            turns=tuple(
                (records.string(f"turns[{i}].instruction", t.get("instruction")),
                 records.string(f"turns[{i}].response", t.get("response")))
                for i, t in enumerate(turns)
            ),
        )


def build_dialogue(
    client: GeneratorClient,
    rng: np.random.Generator,
    dialogue_id: str | None = None,
    response_voice_id: str = DEFAULT_RESPONSE_VOICE,
    turn_count: int | None = None,
) -> DialogueRecord:
    """Generate one dialogue: sample the turn count, then ask the client for
    each turn with the full prior history.

    A client failure propagates as :class:`GenerationError` carrying the
    turns completed so far.
    """
    if turn_count is None:
        turn_count = sample_turn_count(rng)
    if not MIN_TURNS <= turn_count <= MAX_TURNS:
        raise ValueError(f"turn_count must lie in [{MIN_TURNS}, {MAX_TURNS}], got {turn_count}")
    voice_prompt_id = f"prompt-voice-{rng.integers(2**32):08x}"
    if dialogue_id is None:
        dialogue_id = f"dlg-{rng.integers(2**32):08x}"
    turns: list[tuple[str, str]] = []
    for _ in range(turn_count):
        try:
            turns.append(client.next_turn(tuple(turns)))
        except Exception as exc:
            raise GenerationError(str(exc), turns) from exc
    return DialogueRecord(
        id=dialogue_id,
        voice_prompt_id=voice_prompt_id,
        response_voice_id=response_voice_id,
        turns=tuple(turns),
    )


def generate_corpus(
    count: int,
    seed: int,
    client: GeneratorClient | None = None,
    response_voice_id: str = DEFAULT_RESPONSE_VOICE,
) -> list[DialogueRecord]:
    """Generate ``count`` dialogues; with no client supplied, each dialogue
    uses a stub generator seeded from the corpus seed."""
    records.positive_int("count", count)
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        dialogue_client = client if client is not None else StubGenerator(seed=seed * 100003 + i)
        out.append(
            build_dialogue(
                dialogue_client,
                rng,
                dialogue_id=f"dlg-{seed}-{i:06d}",
                response_voice_id=response_voice_id,
            )
        )
    return out


def write_corpus(path, dialogues: Sequence[DialogueRecord]) -> None:
    records.write_jsonl(path, [d.to_record() for d in dialogues])


def read_corpus(path) -> list[DialogueRecord]:
    return records.read_jsonl(path, schema=CORPUS_SCHEMA, parse=DialogueRecord.from_record)
