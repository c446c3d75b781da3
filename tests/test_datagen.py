from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamvox import datagen, records
from streamvox.datagen import (
    MAX_TURNS,
    MIN_TURNS,
    DialogueRecord,
    StubGenerator,
    build_dialogue,
    dialogue_line,
    generate_corpus,
    read_corpus,
    sample_turn_count,
    turn_count_pmf,
    write_corpus,
)


# ---------------------------------------------------------------------------
# turn-count sampling


def test_samples_stay_in_clip_range() -> None:
    rng = np.random.default_rng(0)
    draws = {sample_turn_count(rng) for _ in range(5000)}
    assert draws <= set(range(MIN_TURNS, MAX_TURNS + 1))
    assert draws == set(range(MIN_TURNS, MAX_TURNS + 1))  # all values reachable


def test_fixed_seed_reproduces_sequence() -> None:
    first = [sample_turn_count(np.random.default_rng(123)) for _ in range(1)]
    for _ in range(3):
        again = [sample_turn_count(np.random.default_rng(123)) for _ in range(1)]
        assert again == first
    a = np.random.default_rng(9)
    b = np.random.default_rng(9)
    assert [sample_turn_count(a) for _ in range(200)] == [sample_turn_count(b) for _ in range(200)]


def test_analytic_pmf_values() -> None:
    pmf = turn_count_pmf()
    e2 = math.exp(-2.0)
    assert pmf[1] == pytest.approx(3 * e2, rel=1e-12)
    assert pmf[2] == pytest.approx(2 * e2, rel=1e-12)
    assert pmf[3] == pytest.approx(4 / 3 * e2, rel=1e-12)
    assert pmf[4] == pytest.approx(2 / 3 * e2, rel=1e-12)
    assert pmf[5] == pytest.approx(1 - 7 * e2, rel=1e-12)
    assert sum(pmf.values()) == pytest.approx(1.0, abs=1e-12)
    assert [round(pmf[k], 4) for k in range(1, 6)] == [0.4060, 0.2707, 0.1804, 0.0902, 0.0527]


def test_empirical_distribution_matches_pmf() -> None:
    # smaller-n version of the acceptance goodness-of-fit check
    rng = np.random.default_rng(20240511)
    n = 20000
    counts = np.bincount([sample_turn_count(rng) for _ in range(n)], minlength=6)[1:]
    pmf = turn_count_pmf()
    expected = np.array([pmf[k] * n for k in range(1, 6)])
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < 18.467  # chi-square 0.999 quantile, 4 degrees of freedom


# ---------------------------------------------------------------------------
# dialogue building


def test_stub_dialogue_regression_locked() -> None:
    rng = np.random.default_rng(7)
    record = build_dialogue(StubGenerator(seed=7), rng).to_record()
    # frozen from the first run of this configuration
    assert record == {
        "schema": "dialogue/v1",
        "id": "dlg-4cd7b299",
        "voice_prompt_id": "prompt-voice-0e375145",
        "response_voice_id": "response-voice-0",
        "turns": [
            {
                "instruction": "I need help with setting up a home network.",
                "response": "Happy to help with setting up a home network. Let's start with the basics.",
            },
            {
                "instruction": "How long will that take?",
                "response": "Building on turn 1: here is the next step, in more detail.",
            },
            {
                "instruction": "How long will that take?",
                "response": "Building on turn 2: here is the next step, in more detail.",
            },
        ],
    }


def test_history_is_threaded_to_the_client() -> None:
    class EchoClient:
        def next_turn(self, history):
            return f"instruction after {len(history)} turns", "ok"

    rng = np.random.default_rng(11)
    record = build_dialogue(EchoClient(), rng, turn_count=4)
    for i, (instruction, _) in enumerate(record.turns):
        assert instruction == f"instruction after {i} turns"


def test_forced_single_turn_is_valid() -> None:
    rng = np.random.default_rng(13)
    record = build_dialogue(StubGenerator(seed=1), rng, turn_count=1)
    assert len(record.turns) == 1


def test_turn_count_override_validated() -> None:
    rng = np.random.default_rng(17)
    with pytest.raises(ValueError):
        build_dialogue(StubGenerator(seed=1), rng, turn_count=6)


# ---------------------------------------------------------------------------
# corpus invariants and persistence


def test_corpus_voice_policy() -> None:
    dialogues = generate_corpus(25, seed=3, response_voice_id="narrator-1")
    assert len({d.response_voice_id for d in dialogues}) == 1
    assert all(d.response_voice_id == "narrator-1" for d in dialogues)
    # prompt voices vary across dialogues (one random id per dialogue)
    assert len({d.voice_prompt_id for d in dialogues}) > 1
    assert len({d.id for d in dialogues}) == len(dialogues)
    assert all(MIN_TURNS <= len(d.turns) <= MAX_TURNS for d in dialogues)


def test_corpus_generation_is_deterministic() -> None:
    a = [d.to_record() for d in generate_corpus(10, seed=21)]
    b = [d.to_record() for d in generate_corpus(10, seed=21)]
    assert a == b


def test_corpus_round_trip(tmp_path) -> None:
    dialogues = generate_corpus(100, seed=5)
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, dialogues)
    loaded = read_corpus(path)
    assert [d.to_record() for d in loaded] == [d.to_record() for d in dialogues]
    # byte-for-byte stable rewrite
    second = tmp_path / "again.jsonl"
    write_corpus(second, loaded)
    assert second.read_bytes() == path.read_bytes()


def test_empty_corpus_round_trip(tmp_path) -> None:
    path = tmp_path / "empty.jsonl"
    write_corpus(path, [])
    assert read_corpus(path) == []


def test_malformed_corpus_line_is_reported(tmp_path) -> None:
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, generate_corpus(2, seed=1))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("{truncated\n")
    with pytest.raises(records.RecordFormatError, match="line 3"):
        read_corpus(path)


# ---------------------------------------------------------------------------
# the dialogue/v1 writer and the record's checks


def fields_of(text):
    """``DialogueRecord`` fields whose ids and turn texts are drawn from ``text``."""
    return st.fixed_dictionaries({
        "id": text,
        "voice_prompt_id": text,
        "response_voice_id": text,
        "turns": st.lists(st.tuples(text, text), min_size=MIN_TURNS, max_size=MAX_TURNS).map(tuple),
    })


def texts_of(fields: dict) -> list[str]:
    ids = [fields["id"], fields["voice_prompt_id"], fields["response_voice_id"]]
    return ids + [text for turn in fields["turns"] for text in turn]


def holds_surrogate_pair(text: str) -> bool:
    """Whether a high surrogate is followed by a low one in ``text``."""
    return any(0xD800 <= ord(a) <= 0xDBFF and 0xDC00 <= ord(b) <= 0xDFFF for a, b in zip(text, text[1:]))


# Every code point, surrogates included, paired or lone: quotes,
# backslashes, control and format characters, non-BMP characters.  A high
# surrogate followed by a low one is written as two escapes, which JSON reads
# back as one non-BMP character, so a record holding one is rejected.
ANY_TEXT = st.text(st.characters(codec="utf-8") | st.characters(categories=["Cs"]), max_size=12)
# The text a record may hold.
RECORD_TEXT = ANY_TEXT.filter(lambda text: not holds_surrogate_pair(text))


@settings(max_examples=80, deadline=None)
@given(dialogue=fields_of(RECORD_TEXT).map(lambda fields: DialogueRecord(**fields)))
def test_dialogue_line_is_the_canonical_text_of_the_record(dialogue) -> None:
    assert dialogue_line(dialogue) == records.dumps_canonical(dialogue.to_record())


def test_dialogue_line_escapes_like_the_canonical_encoder() -> None:
    dialogue = DialogueRecord('q"b\\s', "\x01\n\u2028", "\U0001F600é", (("\ud800", "</tag>"),))
    assert dialogue_line(dialogue) == (
        '{"id":"q\\"b\\\\s","response_voice_id":"\\ud83d\\ude00\\u00e9","schema":"dialogue/v1",'
        '"turns":[{"instruction":"\\ud800","response":"</tag>"}],"voice_prompt_id":"\\u0001\\n\\u2028"}'
    )
    assert dialogue_line(dialogue) == records.dumps_canonical(dialogue.to_record())


@settings(max_examples=80, deadline=None)
@given(corpus=st.lists(fields_of(ANY_TEXT), max_size=4))
def test_written_corpus_reads_back_as_written(corpus) -> None:
    dialogues = []
    for fields in corpus:
        if any(holds_surrogate_pair(text) for text in texts_of(fields)):
            with pytest.raises(ValueError, match="must not hold a high surrogate followed by a low one"):
                DialogueRecord(**fields)
        else:
            dialogues.append(DialogueRecord(**fields))
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "corpus.jsonl"
        write_corpus(path, dialogues)
        assert read_corpus(path) == dialogues


HIGH, LOW = chr(0xD800), chr(0xDC00)  # one high and one low surrogate


@pytest.mark.parametrize(
    "fields, name",
    [
        ({"id": HIGH + LOW}, "id"),
        ({"voice_prompt_id": "é" + HIGH + LOW + "x"}, "voice_prompt_id"),
        ({"turns": (("a", "b"), ("c", "é" + HIGH + LOW))}, "turns[1].response"),
    ],
    ids=["id", "voice_prompt_id", "turn"],
)
def test_dialogue_record_rejects_a_surrogate_pair_by_name(fields, name) -> None:
    valid = {"id": "d", "voice_prompt_id": "v", "response_voice_id": "r", "turns": (("a", "b"), ("c", "e"))}
    text = fields["turns"][1][1] if name.startswith("turns") else fields[name]
    with pytest.raises(ValueError) as info:
        DialogueRecord(**{**valid, **fields})
    assert str(info.value) == f"{name} must not hold a high surrogate followed by a low one, got {text!r}"


def test_lone_surrogates_read_back_as_written() -> None:
    dialogue = DialogueRecord(LOW + HIGH, HIGH, "r", ((HIGH + "x" + LOW, LOW),))
    assert DialogueRecord.from_record(json.loads(dialogue_line(dialogue))) == dialogue


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"id": 7}, "id must be a string, got 7"),
        ({"voice_prompt_id": None}, "voice_prompt_id must be a string, got None"),
        ({"response_voice_id": b"r"}, "response_voice_id must be a string, got b'r'"),
        ({"turns": (("a", "b"), ("c", 3))}, "turns[1].response must be a string, got 3"),
        ({"turns": (("a", "b"), (True, "d"))}, "turns[1].instruction must be a string, got True"),
        ({"turns": (("a", "b", "c"),)}, "turns[0] must be an (instruction, response) pair, got ('a', 'b', 'c')"),
        ({"turns": ("ab",)}, "turns[0] must be an (instruction, response) pair, got 'ab'"),
        ({"turns": ()}, f"turn count must lie in [{MIN_TURNS}, {MAX_TURNS}], got 0"),
    ],
)
def test_dialogue_record_rejects_non_string_fields_by_name(fields, message) -> None:
    valid = {"id": "d", "voice_prompt_id": "v", "response_voice_id": "r", "turns": (("a", "b"),)}
    with pytest.raises(ValueError) as info:
        DialogueRecord(**{**valid, **fields})
    assert str(info.value) == message


@pytest.mark.parametrize("seed", [True, False, 2.0, "1", None, np.int64(3), -1])
def test_corpus_seed_must_be_a_non_negative_int(seed) -> None:
    with pytest.raises(ValueError) as info:
        generate_corpus(1, seed)
    assert str(info.value) == f"seed must be a non-negative integer, got {seed!r}"


def test_corpus_seed_zero_and_large_seeds_are_accepted() -> None:
    assert generate_corpus(1, 0)[0].id == "dlg-0-000000"
    assert generate_corpus(1, 2**70)[0].id == f"dlg-{2**70}-000000"


# ---------------------------------------------------------------------------
# the per-dialogue stub streams


def seeds_of_width(words: int):
    """Non-negative ints of exactly ``words`` uint32 words; 0 is one word."""
    return st.integers(0 if words == 1 else 2 ** (32 * (words - 1)), 2 ** (32 * words) - 1)


BOUNDARY_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 - 1, 2**128, 2**160]


@settings(max_examples=80, deadline=None)
@given(seeds=st.lists(st.integers(1, 7).flatmap(seeds_of_width) | st.sampled_from(BOUNDARY_SEEDS), min_size=1,
                     max_size=12))
def test_vectorized_states_equal_default_rng_states(seeds) -> None:
    assert datagen._pcg64_states(seeds) == [np.random.default_rng(s).bit_generator.state for s in seeds]


@pytest.mark.parametrize("seed", BOUNDARY_SEEDS)
def test_vectorized_state_at_a_word_boundary(seed) -> None:
    assert datagen._pcg64_states([seed]) == [np.random.default_rng(seed).bit_generator.state]


def test_vectorized_states_of_a_batch_mixing_word_counts() -> None:
    seeds = [*BOUNDARY_SEEDS, 10**30, 10**60, 7, 2**200 + 5, 0]
    assert datagen._pcg64_states(seeds) == [np.random.default_rng(s).bit_generator.state for s in seeds]


def reference_corpus(count: int, seed: int) -> list[DialogueRecord]:
    """The corpus built with one ``StubGenerator`` per dialogue."""
    rng = np.random.default_rng(seed)
    return [build_dialogue(StubGenerator(seed * 100003 + i), rng, dialogue_id=f"dlg-{seed}-{i:06d}")
            for i in range(count)]


@pytest.mark.parametrize(
    "count, seed",
    [(40, 0), (40, 42950), (40, 2**40), (40, 2**63 - 1), (40, 10**30), (40, 10**60), (datagen._STATE_BLOCK + 3, 7)],
)
def test_corpus_draws_each_dialogue_from_its_own_stub_stream(count, seed) -> None:
    assert generate_corpus(count, seed) == reference_corpus(count, seed)


def test_corpus_builds_its_stub_through_the_module_name(monkeypatch) -> None:
    seeds = []

    class RecordingStub(StubGenerator):
        def next_turn(self, history):
            seeds.append(self.seed)
            return super().next_turn(history)

    monkeypatch.setattr(datagen, "StubGenerator", RecordingStub)
    corpus = generate_corpus(30, 11)
    assert corpus == reference_corpus(30, 11)
    # One next_turn per turn, each from the stub named by its dialogue's seed.
    assert seeds == [11 * 100003 + i for i, dialogue in enumerate(corpus) for _ in dialogue.turns]


# ---------------------------------------------------------------------------
# the stub's draws against numpy's Generator


def numpy_turns(seed: int, count: int = 5) -> list[str]:
    """The instructions of ``count`` stub turns, picked by
    ``np.random.default_rng(seed)``: ``integers(8)``, then ``integers(4)``."""
    rng = np.random.default_rng(seed)
    first = f"I need help with {datagen._TOPICS[rng.integers(8)]}."
    return [first, *(datagen._FOLLOWUPS[rng.integers(4)] for _ in range(count - 1))]


def stub_turns(seed: int, count: int = 5) -> list[str]:
    stub, turns = StubGenerator(seed), []
    for _ in range(count):
        turns.append(stub.next_turn(tuple(turns)))
    return [instruction for instruction, _ in turns]


@pytest.mark.parametrize("seed", BOUNDARY_SEEDS)
def test_stub_turns_are_default_rng_draws_at_a_word_boundary(seed) -> None:
    assert stub_turns(seed) == numpy_turns(seed)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(1, 7).flatmap(seeds_of_width))
def test_stub_turns_are_default_rng_draws(seed) -> None:
    assert stub_turns(seed) == numpy_turns(seed)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 1000, 2**31 + 1, 2**32])
@pytest.mark.parametrize("seed", [0, 5, 2**64 + 1, 10**30])
def test_stub_draw_is_generator_integers(n, seed) -> None:
    # 2**31 + 1 rejects about a quarter of its 32-bit draws; 1 draws nothing.
    stub, rng = StubGenerator(seed), np.random.default_rng(seed)
    assert [stub._integers(n) for _ in range(50)] == [int(rng.integers(n)) for _ in range(50)]
    # The draws after it (both 32-bit halves of each output) still agree.
    assert [stub._integers(m) for m in (8, 4, 3, 2**32)] == [int(rng.integers(m)) for m in (8, 4, 3, 2**32)]


@pytest.mark.parametrize("seed", [True, 2.0, "1", None, np.int64(3), -1])
def test_stub_seed_must_be_a_non_negative_int(seed) -> None:
    with pytest.raises(ValueError) as info:
        StubGenerator(seed)
    assert str(info.value) == f"seed must be a non-negative integer, got {seed!r}"


def test_stub_holds_no_numpy_generator() -> None:
    stub = StubGenerator(3)
    stub.next_turn(())
    assert not any(isinstance(value, (np.random.Generator, np.random.BitGenerator)) for value in vars(stub).values())
