from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamvox import records
from streamvox.evalkit import (
    aggregate_report,
    edit_distance,
    normalize,
    normalize_text,
    report_from_files,
    spokenqa_accuracy,
    wer,
)


# ---------------------------------------------------------------------------
# normalization


def test_normalize_basic() -> None:
    assert normalize("Hello, World!") == ["hello", "world"]
    assert normalize("  a\tb\nc  ") == ["a", "b", "c"]
    assert normalize("don't stop-me_now") == ["don", "t", "stop", "me", "now"]


def test_normalize_idempotent() -> None:
    rng = np.random.default_rng(3)
    alphabet = list("abc XYZ.,!?'-_09\t")
    for _ in range(200):
        text = "".join(rng.choice(alphabet, size=rng.integers(0, 40)))
        once = normalize_text(text)
        assert normalize_text(once) == once


def test_normalize_empty_tokens_dropped() -> None:
    assert normalize("...!!!") == []


# ---------------------------------------------------------------------------
# word error rate


def test_wer_identity_is_zero() -> None:
    for text in ("hello", "The quick brown fox.", "a b c d"):
        assert wer(text, text) == 0.0


def test_wer_single_insertion() -> None:
    assert wer("hello world", "hello there world") == 0.5


def test_wer_all_deletions() -> None:
    assert wer("a b c", "") == 1.0


def test_wer_rejects_empty_reference() -> None:
    with pytest.raises(ValueError):
        wer("?!", "anything")


def _oracle_distance(ref, hyp):
    # independent full-matrix dynamic program
    n, m = len(ref), len(hyp)
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        table[i][0] = i
    for j in range(m + 1):
        table[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            sub = table[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1])
            table[i][j] = min(sub, table[i - 1][j] + 1, table[i][j - 1] + 1)
    return table[n][m]


def random_tokens(rng, max_len=12, alphabet=("a", "b", "c", "d", "ee", "f")):
    return [str(rng.choice(alphabet)) for _ in range(rng.integers(0, max_len))]


def test_edit_distance_matches_oracle_on_random_pairs() -> None:
    rng = np.random.default_rng(5)
    for _ in range(300):
        ref = random_tokens(rng)
        hyp = random_tokens(rng)
        assert edit_distance(ref, hyp) == _oracle_distance(ref, hyp)


@st.composite
def token_pairs(draw):
    """Two token lists of 0-300 tokens, so the bitmasks cross 64 and 128 bits,
    over a small alphabet (many matches) or a large one (few matches)."""
    alphabet = draw(st.sampled_from([2, 3, 5, 1000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ref, hyp = (
        [str(t) for t in rng.integers(0, alphabet, size=draw(st.integers(0, 300)))] for _ in range(2)
    )
    return ref, hyp


@settings(max_examples=40, deadline=None)
@given(token_pairs())
def test_edit_distance_matches_oracle_on_long_pairs(pair) -> None:
    ref, hyp = pair
    expected = _oracle_distance(ref, hyp)
    assert edit_distance(ref, hyp) == expected
    assert edit_distance(hyp, ref) == expected


def test_edit_distance_matches_oracle_at_word_boundaries() -> None:
    rng = np.random.default_rng(11)
    for m in (1, 29, 30, 31, 63, 64, 65, 127, 128, 129, 200):
        for n in (0, 1, m // 2, m, m + 1):
            for alphabet in (("a", "b"), tuple(f"w{i}" for i in range(500))):
                ref = [str(t) for t in rng.choice(alphabet, size=m)]
                hyp = [str(t) for t in rng.choice(alphabet, size=n)]
                expected = _oracle_distance(ref, hyp)
                assert edit_distance(ref, hyp) == expected
                assert edit_distance(hyp, ref) == expected


def test_edit_distance_with_empty_sides() -> None:
    assert edit_distance([], []) == 0
    assert edit_distance([], ["a", "b", "c"]) == 3
    assert edit_distance(["a"] * 130, []) == 130


def test_edit_distance_of_identical_sequences_is_zero() -> None:
    seq = [f"w{i % 7}" for i in range(257)]
    assert edit_distance(seq, list(seq)) == 0


def test_edit_distance_of_disjoint_sequences_is_the_longer_length() -> None:
    for m, n in ((1, 1), (64, 3), (70, 130), (129, 129)):
        assert edit_distance(["a"] * m, ["b"] * n) == max(m, n)
        assert edit_distance([f"x{i}" for i in range(m)], [f"y{i}" for i in range(n)]) == max(m, n)


def test_edit_distance_accepts_strings() -> None:
    assert edit_distance("kitten", "sitting") == 3
    assert edit_distance("flaw", "lawn") == 2
    assert edit_distance("", "abc") == 3


def test_edit_distance_with_repeats_at_the_top_bit() -> None:
    # the last token of the longer side (bit m - 1) also occurs earlier
    assert edit_distance(["b"] + ["a"] * 63 + ["b"], ["b"]) == 64
    assert edit_distance(["t"] * 129, ["t"]) == 128
    assert edit_distance(["a", "b", "a"], ["a"]) == 2
    for m in (63, 64, 65, 128):
        ref = ["a", "b"] * (m // 2) + ["a"] * (m % 2) + ["b"]
        hyp = ["b", "a", "b"]
        assert edit_distance(ref, hyp) == _oracle_distance(ref, hyp)


def test_edit_distance_is_a_metric() -> None:
    rng = np.random.default_rng(7)
    for _ in range(150):
        a = random_tokens(rng, max_len=8)
        b = random_tokens(rng, max_len=8)
        c = random_tokens(rng, max_len=8)
        assert edit_distance(a, b) == edit_distance(b, a)
        assert edit_distance(a, b) == 0 if a == b else edit_distance(a, b) > 0
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


def test_wer_and_report_share_one_scoring_path() -> None:
    items = [("The cat sat.", "the cat sat on"), ("a b c d", "a x c")]
    report = aggregate_report(wer_items=items)
    assert report.per_item_wer == [wer(r, h) for r, h in items]
    assert report.total_edit_distance == 3
    assert report.total_reference_tokens == 7
    for score in (lambda: wer("?!", "x"), lambda: aggregate_report(wer_items=[("a", "a"), ("...", "x")])):
        with pytest.raises(ValueError, match="^reference normalizes to zero tokens$"):
            score()


# ---------------------------------------------------------------------------
# containment accuracy


def test_containment_case_folds() -> None:
    assert spokenqa_accuracy([("the capital is paris", ["Paris"])]) == 1.0


def test_containment_miss() -> None:
    assert spokenqa_accuracy([("unknown", ["Paris"])]) == 0.0


def test_containment_mixed_set() -> None:
    items = [
        ("The answer is forty-two.", ["42", "forty two"]),
        ("paris, of course", ["Paris"]),
        ("no idea", ["Rome"]),
    ]
    assert spokenqa_accuracy(items) == pytest.approx(2 / 3)


def test_containment_rejects_empty_items() -> None:
    with pytest.raises(ValueError):
        spokenqa_accuracy([])


# ---------------------------------------------------------------------------
# report aggregation


def test_single_item_pass_through() -> None:
    report = aggregate_report(wer_items=[("a b", "a b")])
    assert report.per_item_wer == [0.0]
    assert report.corpus_wer == 0.0
    assert report.qa_accuracy is None


def test_corpus_wer_weights_by_reference_length() -> None:
    report = aggregate_report(wer_items=[("a", "b"), ("x y z", "x y z")])
    assert report.per_item_wer == [1.0, 0.0]
    assert report.corpus_wer == pytest.approx(0.25)


def test_report_without_wer_keeps_qa() -> None:
    report = aggregate_report(qa_items=[("paris", ["Paris"])])
    assert report.corpus_wer is None
    assert report.qa_accuracy == 1.0
    record = report.to_record()
    assert record["corpus_wer"] is None
    assert record["qa_accuracy"] == 1.0


def test_report_passes_latency_and_opaque_scores_through() -> None:
    latency = [{"schema": "latency-breakdown/v1", "total_ms": 582.92}]
    report = aggregate_report(latency_breakdowns=latency, judge_scores=[4.0, 5.0], mos_scores=[4.2])
    assert report.latency == latency
    assert report.judge_score_mean == pytest.approx(4.5)
    assert report.mos_mean == pytest.approx(4.2)


def test_report_from_files(tmp_path) -> None:
    wer_path = tmp_path / "wer.jsonl"
    qa_path = tmp_path / "qa.jsonl"
    records.write_jsonl(
        wer_path,
        [
            {"schema": "wer-item/v1", "reference": "a b", "hypothesis": "a c"},
            {"schema": "wer-item/v1", "reference": "x", "hypothesis": "x"},
        ],
    )
    records.write_jsonl(
        qa_path,
        [{"schema": "qa-item/v1", "response": "it is paris", "answers": ["Paris"], "judge_score": 4.5}],
    )
    report = report_from_files(wer_path, qa_path, None)
    assert report.wer_items == 2
    assert report.corpus_wer == pytest.approx(1 / 3)
    assert report.qa_accuracy == 1.0
    assert report.judge_score_mean == pytest.approx(4.5)


def test_report_rows_include_items_and_corpus(tmp_path) -> None:
    report = aggregate_report(wer_items=[("a", "b"), ("x y z", "x y z")])
    rows = report.to_rows()
    assert [r["kind"] for r in rows] == ["item", "item", "corpus"]
    assert rows[0]["wer"] == 1.0
    assert rows[-1]["corpus_wer"] == pytest.approx(0.25)
    path = tmp_path / "rows.jsonl"
    records.write_jsonl(path, rows)
    assert records.read_jsonl(path, schema="metric-report-row/v1") == rows


def test_jsonl_reader_names_bad_line(tmp_path) -> None:
    path = tmp_path / "broken.jsonl"
    path.write_text('{"schema": "wer-item/v1", "reference": "a", "hypothesis": "a"}\nnot json\n')
    with pytest.raises(records.RecordFormatError, match="line 2"):
        records.read_jsonl(path, schema="wer-item/v1")
