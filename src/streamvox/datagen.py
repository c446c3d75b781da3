"""Multi-turn dialogue corpus synthesis with a deterministic stub generator.

Turn counts are drawn from Poisson(lambda=2) clipped to [1, 5].  Each
dialogue gets a fresh random prompt-voice id (varied instruction voices)
while every response across a corpus shares one response-voice id; voices are
carried as metadata only, no audio is produced.  Turn text comes from an
offline template generator seeded per dialogue from the corpus seed, which
must be a non-negative int (not a bool).  Dialogue ``i`` picks its turns with
the draws of ``np.random.default_rng(seed * 100003 + i).integers(n)``; the
stub draws them from its PCG64 stream in Python ints, so no numpy
``Generator`` is moved for each dialogue.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from itertools import permutations, product
from typing import Mapping, Sequence

import numpy as np

from . import records

TURN_RATE = 2.0
MIN_TURNS = 1
MAX_TURNS = 5

DEFAULT_RESPONSE_VOICE = "response-voice-0"

CORPUS_SCHEMA = "dialogue/v1"

_SURROGATE_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")


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


# The constants of numpy's SeedSequence (random/bit_generator.pyx: M. O'Neill's
# seed_seq hash over a pool of 4 uint32 words) and of PCG64's pcg64_set_seed.
# NumPy's compatibility policy (NEP 19) keeps the streams they seed fixed.
_MASK32 = 2**32 - 1
_MASK64 = 2**64 - 1
_MASK128 = 2**128 - 1
_HASH_INIT_A = 0x43B0D7E5
_HASH_MULT_A = 0x931E8875
_HASH_INIT_B = 0x8B51F9DD
_HASH_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_STATE_BLOCK = 1024  # seeds per vectorized pass in generate_corpus


def _pcg64_states(seeds: Sequence[int]) -> list[dict]:
    """``np.random.default_rng(s).bit_generator.state`` for each non-negative
    int ``s``.  Seeds of one uint32 word count (0 is the one word ``[0]``) share
    one hash over a ``(seeds, words)`` array; all wrapping is on uint32 arrays."""
    const = _HASH_INIT_A

    def hashmix(value: np.ndarray, mult: int = _HASH_MULT_A) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ value >> 16

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = x * _MIX_MULT_L - y * _MIX_MULT_R
        return x ^ x >> 16

    groups: dict[int, list[int]] = {}
    for k, seed in enumerate(seeds):
        groups.setdefault((seed.bit_length() + 31) // 32 or 1, []).append(k)
    states: list = [None] * len(seeds)
    for width, ks in groups.items():
        const = _HASH_INIT_A
        flat = [seeds[k] >> 32 * j & _MASK32 for k in ks for j in range(width)]
        entropy = np.array(flat, np.uint32).reshape(len(ks), width)
        pool = [hashmix(entropy[:, i] if i < width else np.zeros(len(ks), np.uint32)) for i in range(4)]
        for src, dst in permutations(range(4), 2):
            pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for src, dst in product(range(4, width), range(4)):  # entropy beyond the pool
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
        const = _HASH_INIT_B  # generate_state(4, np.uint64): 8 words, little-endian pairs
        words = np.stack([hashmix(pool[i % 4], _HASH_MULT_B) for i in range(8)], axis=1).astype(np.uint64)
        halves = (words[:, 0::2] | words[:, 1::2] << np.uint64(32)).tolist()
        for k, (seed_hi, seed_lo, inc_hi, inc_lo) in zip(ks, halves):
            inc = (inc_hi << 65 | inc_lo << 1 | 1) % 2**128
            state = (((seed_hi << 64 | seed_lo) + inc) * _PCG64_MULT + inc) % 2**128
            states[k] = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                         "has_uint32": 0, "uinteger": 0}
    return states


@dataclass
class StubGenerator:
    """Offline template-based generator; deterministic under a fixed seed, a
    non-negative int (not a bool).  Its turn picks are the draws of
    ``np.random.default_rng(seed).integers(n)``, made in Python ints from the
    seed's PCG64 ``(state, inc)``; it holds no numpy ``Generator``.  A
    stand-alone stub reads its state from numpy's ``PCG64(seed)``;
    :func:`generate_corpus` re-points one stub per dialogue to the states
    that :func:`_pcg64_states` computes."""

    seed: int = 0
    _state: int = field(init=False, repr=False)
    _inc: int = field(init=False, repr=False)
    _spare: int | None = field(init=False, repr=False)  # numpy's buffered high half

    def __post_init__(self) -> None:
        records.nonneg_int("seed", self.seed)
        self._restart(np.random.PCG64(self.seed).state)

    def _restart(self, state: dict) -> None:
        """Move to the start of a stream given as a ``bit_generator.state`` dict."""
        self._state, self._inc = state["state"]["state"], state["state"]["inc"]
        self._spare = state["uinteger"] if state["has_uint32"] else None

    def _next_uint32(self) -> int:
        """numpy's ``pcg64_next32``: step the 128-bit LCG and take its XSL-RR
        output (O'Neill 2014), which gives two draws, the low half first."""
        if self._spare is not None:
            out, self._spare = self._spare, None
            return out
        self._state = state = (self._state * _PCG64_MULT + self._inc) & _MASK128
        x, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        out = (x >> rot | x << 64 - rot) & _MASK64
        self._spare = out >> 32
        return out & _MASK32

    def _integers(self, n: int) -> int:
        """``Generator.integers(n)`` for ``1 <= n <= 2**32``: Lemire's bounded
        draw (ACM TOMACS 2019) with numpy's rejection threshold ``2**32 % n``;
        ``n == 1`` draws nothing."""
        if n == 1:
            return 0
        m = self._next_uint32() * n
        if m & _MASK32 < n:
            threshold = 2**32 % n
            while m & _MASK32 < threshold:
                m = self._next_uint32() * n
        return m >> 32

    def next_turn(self, history: Sequence[tuple[str, str]]) -> tuple[str, str]:
        turn = len(history) + 1
        if turn == 1:
            topic = _TOPICS[self._integers(len(_TOPICS))]
            instruction = f"I need help with {topic}."
            response = f"Happy to help with {topic}. Let's start with the basics."
        else:
            followup = _FOLLOWUPS[self._integers(len(_FOLLOWUPS))]
            instruction = f"{followup}"
            response = f"Building on turn {turn - 1}: here is the next step, in more detail."
        return instruction, response


@dataclass(frozen=True)
class DialogueRecord:
    """One multi-turn dialogue with its voice metadata; every id and turn
    text must be a str holding no high surrogate followed by a low one (it
    would not read back as written), and errors name the field path."""

    id: str
    voice_prompt_id: str
    response_voice_id: str
    turns: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        records.string("id", self.id)
        records.string("voice_prompt_id", self.voice_prompt_id)
        records.string("response_voice_id", self.response_voice_id)
        for i, turn in enumerate(self.turns):
            if not (isinstance(turn, tuple) and len(turn) == 2):
                raise ValueError(f"turns[{i}] must be an (instruction, response) pair, got {turn!r}")
            if not (isinstance(turn[0], str) and isinstance(turn[1], str)):
                records.string(f"turns[{i}].instruction", turn[0])
                records.string(f"turns[{i}].response", turn[1])
        if not MIN_TURNS <= len(self.turns) <= MAX_TURNS:
            raise ValueError(
                f"turn count must lie in [{MIN_TURNS}, {MAX_TURNS}], got {len(self.turns)}"
            )
        texts = [self.id, self.voice_prompt_id, self.response_voice_id, *[t for turn in self.turns for t in turn]]
        if not "".join(texts).isascii():
            names = ["id", "voice_prompt_id", "response_voice_id"]
            names += [f"turns[{i}].{part}" for i in range(len(self.turns)) for part in ("instruction", "response")]
            for name, text in zip(names, texts):
                if _SURROGATE_PAIR.search(text):
                    raise ValueError(f"{name} must not hold a high surrogate followed by a low one, got {text!r}")

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
            id=record.get("id"),
            voice_prompt_id=record.get("voice_prompt_id"),
            response_voice_id=record.get("response_voice_id"),
            turns=tuple((t.get("instruction"), t.get("response")) for t in turns),
        )


def dialogue_line(dialogue: DialogueRecord) -> str:
    """The dialogue's ``dialogue/v1`` record as ``records.dumps_canonical``
    writes it: keys sorted, each string as :func:`records.quote` writes it."""
    quote = records.quote
    turns = ",".join([f'{{"instruction":{quote(i)},"response":{quote(r)}}}' for i, r in dialogue.turns])
    return (f'{{"id":{quote(dialogue.id)},"response_voice_id":{quote(dialogue.response_voice_id)},'
            f'"schema":"dialogue/v1","turns":[{turns}],"voice_prompt_id":{quote(dialogue.voice_prompt_id)}}}')


def build_dialogue(
    generator: StubGenerator,
    rng: np.random.Generator,
    dialogue_id: str | None = None,
    response_voice_id: str = DEFAULT_RESPONSE_VOICE,
    turn_count: int | None = None,
) -> DialogueRecord:
    """Generate one dialogue: sample the turn count, then ask the generator
    (any object with ``next_turn(history)``) for each turn with the full
    prior history."""
    if turn_count is None:
        turn_count = sample_turn_count(rng)
    if not MIN_TURNS <= turn_count <= MAX_TURNS:
        raise ValueError(f"turn_count must lie in [{MIN_TURNS}, {MAX_TURNS}], got {turn_count}")
    voice_prompt_id = f"prompt-voice-{rng.integers(2**32):08x}"
    if dialogue_id is None:
        dialogue_id = f"dlg-{rng.integers(2**32):08x}"
    turns: list[tuple[str, str]] = []
    for _ in range(turn_count):
        turns.append(generator.next_turn(tuple(turns)))
    return DialogueRecord(
        id=dialogue_id,
        voice_prompt_id=voice_prompt_id,
        response_voice_id=response_voice_id,
        turns=tuple(turns),
    )


def generate_corpus(
    count: int,
    seed: int,
    response_voice_id: str = DEFAULT_RESPONSE_VOICE,
) -> list[DialogueRecord]:
    """Generate ``count`` dialogues from one stub generator, re-pointed for
    dialogue ``i`` to the start of ``StubGenerator(seed * 100003 + i)``'s
    stream; the corpus seed is a non-negative int."""
    records.positive_int("count", count)
    records.nonneg_int("seed", seed)
    rng = np.random.default_rng(seed)
    seeds = range(seed * 100003, seed * 100003 + count)
    stub = StubGenerator(seed=seeds[0])
    dialogues = []
    for start in range(0, count, _STATE_BLOCK):
        for i, state in enumerate(_pcg64_states(seeds[start:start + _STATE_BLOCK]), start):
            stub.seed = seeds[i]
            stub._restart(state)
            dialogues.append(build_dialogue(stub, rng, dialogue_id=f"dlg-{seed}-{i:06d}",
                                            response_voice_id=response_voice_id))
    return dialogues


def write_corpus(path, dialogues: Sequence[DialogueRecord]) -> None:
    records.write_jsonl(path, dialogues, encode=dialogue_line)


def read_corpus(path) -> list[DialogueRecord]:
    return records.read_jsonl(path, schema=CORPUS_SCHEMA, parse=DialogueRecord.from_record)
