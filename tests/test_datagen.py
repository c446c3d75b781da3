from __future__ import annotations

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamvox import records
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


def dialogues_of(text):
    """Valid dialogues whose ids and turn texts are drawn from ``text``."""
    return st.builds(
        DialogueRecord,
        id=text,
        voice_prompt_id=text,
        response_voice_id=text,
        turns=st.lists(st.tuples(text, text), min_size=MIN_TURNS, max_size=MAX_TURNS).map(tuple),
    )


# Every code point but the surrogates: quotes, backslashes, control and
# format characters, non-BMP characters.
UTF8_TEXT = st.text(st.characters(codec="utf-8"), max_size=12)
# Surrogates as well, paired or lone.  A high surrogate followed by a low one
# is written as two escapes, which JSON reads back as one non-BMP character,
# so such text does not read back as written.
ANY_TEXT = st.text(st.characters(codec="utf-8") | st.characters(categories=["Cs"]), max_size=12)


@settings(max_examples=80, deadline=None)
@given(dialogue=dialogues_of(ANY_TEXT))
def test_dialogue_line_is_the_canonical_text_of_the_record(dialogue) -> None:
    assert dialogue_line(dialogue) == records.dumps_canonical(dialogue.to_record())


def test_dialogue_line_escapes_like_the_canonical_encoder() -> None:
    dialogue = DialogueRecord('q"b\\s', "\x01\n\u2028", "\U0001F600é", (("\ud800", "</tag>"),))
    assert dialogue_line(dialogue) == (
        '{"id":"q\\"b\\\\s","response_voice_id":"\\ud83d\\ude00\\u00e9","schema":"dialogue/v1",'
        '"turns":[{"instruction":"\\ud800","response":"</tag>"}],"voice_prompt_id":"\\u0001\\n\\u2028"}'
    )
    assert dialogue_line(dialogue) == records.dumps_canonical(dialogue.to_record())


@settings(max_examples=60, deadline=None)
@given(corpus=st.lists(dialogues_of(UTF8_TEXT), max_size=4))
def test_written_corpus_reads_back_as_written(corpus) -> None:
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "corpus.jsonl"
        write_corpus(path, corpus)
        assert read_corpus(path) == corpus


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
