from __future__ import annotations

import math

import numpy as np
import pytest

from streamvox import records
from streamvox.datagen import (
    MAX_TURNS,
    MIN_TURNS,
    ExternalServiceClient,
    GenerationError,
    StubGenerator,
    build_dialogue,
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


def test_client_failure_carries_partial_transcript() -> None:
    class FlakyClient:
        def __init__(self):
            self.calls = 0

        def next_turn(self, history):
            self.calls += 1
            if self.calls >= 3:
                raise RuntimeError("backend unavailable")
            return f"turn {self.calls}", "ok"

    rng = np.random.default_rng(19)
    with pytest.raises(GenerationError) as info:
        build_dialogue(FlakyClient(), rng, turn_count=5)
    assert len(info.value.partial_turns) == 2
    assert "2 completed turns" in str(info.value)


def test_external_client_retries_then_succeeds() -> None:
    attempts = []

    def transport(request, timeout):
        attempts.append(request["turn_index"])
        if len(attempts) < 3:
            raise TimeoutError("slow")
        assert request["type"] == "turn_request"
        assert timeout == 10.0
        return {"instruction": f"turn {request['turn_index']}", "response": "fine"}

    client = ExternalServiceClient(transport=transport, retries=2)
    instruction, response = client.next_turn(())
    assert instruction == "turn 1"
    assert response == "fine"
    assert len(attempts) == 3


def test_external_client_exhausts_retries() -> None:
    def transport(request, timeout):
        raise ConnectionError("down")

    client = ExternalServiceClient(transport=transport, retries=1)
    with pytest.raises(RuntimeError, match="after 2 attempts"):
        client.next_turn(())


@pytest.mark.parametrize(
    "reply", [["turn", "fine"], "turn", None, {"instruction": "turn"}, {"response": "fine"}]
)
def test_external_client_does_not_retry_malformed_replies(reply) -> None:
    calls = []

    def transport(request, timeout):
        calls.append(request["turn_index"])
        return reply

    client = ExternalServiceClient(transport=transport, retries=2)
    with pytest.raises(ValueError, match="malformed turn reply"):
        client.next_turn(())
    assert calls == [1]


def test_external_client_sends_history() -> None:
    seen = {}

    def transport(request, timeout):
        seen.update(request)
        return {"instruction": "i", "response": "r"}

    ExternalServiceClient(transport=transport).next_turn((("q1", "a1"), ("q2", "a2")))
    assert seen["turn_index"] == 3
    assert seen["history"] == [
        {"instruction": "q1", "response": "a1"},
        {"instruction": "q2", "response": "a2"},
    ]


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
