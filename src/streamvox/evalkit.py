"""Text-side evaluation: word error rate, answer-containment accuracy, reports.

Normalization is deliberately simple and applied identically to both sides of
every comparison: case-fold, replace punctuation with spaces, collapse
whitespace.  It is not a full English text normalizer; scores computed here
are consistent within this toolkit but not comparable to pipelines using a
richer normalizer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from . import records

_PUNCT = re.compile(r"[^\w\s]|_")


def normalize(text: str) -> list[str]:
    """Token list after case-folding, punctuation removal, and whitespace
    collapsing.  Idempotent: normalizing the rejoined tokens is a no-op."""
    return _PUNCT.sub(" ", text.casefold()).split()


def normalize_text(text: str) -> str:
    return " ".join(normalize(text))


def edit_distance(ref: Sequence[str], hyp: Sequence[str]) -> int:
    """Levenshtein distance over token sequences (unit costs).

    Bit-parallel: Myers' bit-vector algorithm (J. ACM 1999) in Hyyrö's
    global-distance form (2001).  Bit ``j`` of ``peq[tok]`` marks the
    positions where the longer sequence holds ``tok``.  ``pv``/``mv`` flag the
    +1/-1 vertical deltas of one DP column, and ``ph``/``mh`` the horizontal
    ones; ``score`` follows the bottom row, read from the top bit.  Each token
    of the shorter sequence (length n) updates the whole column of the longer
    one (length m) in a dozen operations on m-bit Python ints.  Cost:
    O(n * ceil(m / 30)) digit operations and O(m) memory.
    """
    if len(ref) < len(hyp):
        ref, hyp = hyp, ref
    m = len(ref)
    peq: dict = {}
    for j, tok in enumerate(ref):
        peq[tok] = peq.get(tok, 0) | 1 << j
    full = (1 << m) - 1
    top = m - 1
    pv, mv, score = full, 0, m
    for tok in hyp:
        eq = peq.get(tok, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = (mv | ~(xh | pv)) & full
        mh = pv & xh
        score += (ph >> top) - (mh >> top)
        ph = ph << 1 | 1  # row 0 of the DP is 0, 1, 2, ...: every step adds +1
        pv = (mh << 1 | ~(xv | ph)) & full
        mv = ph & xv
    return score


def _distance_and_length(reference: str, hypothesis: str) -> tuple[int, int]:
    """(edit distance, reference length) on normalized tokens."""
    ref = normalize(reference)
    if not ref:
        raise ValueError("reference normalizes to zero tokens")
    return edit_distance(ref, normalize(hypothesis)), len(ref)


def wer(reference: str, hypothesis: str) -> float:
    """(substitutions + insertions + deletions) / reference length, on
    normalized tokens."""
    distance, ref_len = _distance_and_length(reference, hypothesis)
    return distance / ref_len


def spokenqa_accuracy(items: Sequence[tuple[str, Sequence[str]]]) -> float:
    """Fraction of items whose normalized response contains any normalized
    reference answer as a substring."""
    if not items:
        raise ValueError("no items to score")
    hits = sum(1 for response, answers in items if _contains_answer(response, answers))
    return hits / len(items)


def _contains_answer(response: str, answers: Sequence[str]) -> bool:
    normalized = normalize_text(response)
    return any(normalize_text(answer) in normalized for answer in answers)


@dataclass
class MetricReport:
    """Aggregated evaluation results.  WER fields are None when no text pairs
    were scored; QA fields likewise.  Latency breakdown records and opaque
    externally produced scores pass through untouched."""

    per_item_wer: list[float] = field(default_factory=list)
    corpus_wer: float | None = None
    total_edit_distance: int | None = None
    total_reference_tokens: int | None = None
    qa_accuracy: float | None = None
    qa_items: int = 0
    wer_items: int = 0
    latency: list[dict] = field(default_factory=list)
    judge_score_mean: float | None = None
    mos_mean: float | None = None

    def to_record(self) -> dict:
        return {
            "schema": "metric-report/v1",
            "wer_items": self.wer_items,
            "per_item_wer": self.per_item_wer,
            "corpus_wer": self.corpus_wer,
            "total_edit_distance": self.total_edit_distance,
            "total_reference_tokens": self.total_reference_tokens,
            "qa_items": self.qa_items,
            "qa_accuracy": self.qa_accuracy,
            "latency": self.latency,
            "judge_score_mean": self.judge_score_mean,
            "mos_mean": self.mos_mean,
        }

    def to_rows(self) -> list[dict]:
        """Line-delimited export: one row per scored item plus a corpus row."""
        rows = [
            {"schema": "metric-report-row/v1", "kind": "item", "index": i, "wer": value}
            for i, value in enumerate(self.per_item_wer)
        ]
        corpus = dict(self.to_record())
        corpus["schema"] = "metric-report-row/v1"
        corpus["kind"] = "corpus"
        del corpus["per_item_wer"]
        rows.append(corpus)
        return rows


def aggregate_report(
    wer_items: Sequence[tuple[str, str]] = (),
    qa_items: Sequence[tuple[str, Sequence[str]]] = (),
    latency_breakdowns: Sequence[dict] = (),
    judge_scores: Sequence[float] = (),
    mos_scores: Sequence[float] = (),
) -> MetricReport:
    """Deterministic aggregation; corpus WER weights items by reference length.

    ``judge_scores`` and ``mos_scores`` are opaque per-item numbers produced
    by external models; they are averaged for reporting, never computed here.
    """
    report = MetricReport(latency=list(latency_breakdowns))
    if wer_items:
        distance_total = 0
        ref_total = 0
        for reference, hypothesis in wer_items:
            distance, ref_len = _distance_and_length(reference, hypothesis)
            report.per_item_wer.append(distance / ref_len)
            distance_total += distance
            ref_total += ref_len
        report.wer_items = len(wer_items)
        report.total_edit_distance = distance_total
        report.total_reference_tokens = ref_total
        report.corpus_wer = distance_total / ref_total
    if qa_items:
        report.qa_items = len(qa_items)
        report.qa_accuracy = spokenqa_accuracy(qa_items)
    if judge_scores:
        report.judge_score_mean = sum(judge_scores) / len(judge_scores)
    if mos_scores:
        report.mos_mean = sum(mos_scores) / len(mos_scores)
    return report


# ---------------------------------------------------------------------------
# record-file front ends

def wer_item(row: Mapping) -> tuple[str, str]:
    """Parse one ``wer-item/v1`` row into ``(reference, hypothesis)``."""
    return records.string("reference", row.get("reference")), records.string("hypothesis", row.get("hypothesis"))


def qa_item(row: Mapping) -> tuple[str, list[str], float | None, float | None]:
    """Parse one ``qa-item/v1`` row into ``(response, answers, judge_score,
    mos)``; an absent score is None.  An answer that normalizes to nothing
    is rejected, since every response would contain it."""
    answers = row.get("answers")
    if not isinstance(answers, list):
        raise ValueError(f"answers must be a list of strings, got {answers!r}")
    for i, answer in enumerate(answers):
        if not normalize(records.string(f"answers[{i}]", answer)):
            raise ValueError(f"answers[{i}] normalizes to zero tokens, got {answer!r}")
    scores = [records.finite_nonneg(key, row[key]) if key in row else None for key in ("judge_score", "mos")]
    return (records.string("response", row.get("response")), answers, *scores)


def latency_row(row: Mapping) -> Mapping:
    """Check one ``latency-breakdown/v1`` row and return it unchanged.
    ``total_ms`` is required; it and any present ``llm_ms``, ``tts_ms`` or
    ``fm_voc_ms`` must be finite and non-negative, and ``fm_ms`` and
    ``voc_ms`` may also be null."""
    records.finite_nonneg("total_ms", row.get("total_ms"))
    for key in ("llm_ms", "tts_ms", "fm_voc_ms"):
        if key in row:
            records.finite_nonneg(key, row[key])
    for key in ("fm_ms", "voc_ms"):
        if row.get(key) is not None:
            records.finite_nonneg(key, row[key])
    return row


def report_from_files(
    wer_path=None, qa_path=None, latency_path=None
) -> MetricReport:
    wer_items = records.read_jsonl(wer_path, schema="wer-item/v1", parse=wer_item) if wer_path else []
    qa = records.read_jsonl(qa_path, schema="qa-item/v1", parse=qa_item) if qa_path else []
    latency = records.read_jsonl(latency_path, schema="latency-breakdown/v1", parse=latency_row) if latency_path else []
    return aggregate_report(
        wer_items=wer_items,
        qa_items=[(response, answers) for response, answers, _, _ in qa],
        latency_breakdowns=latency,
        judge_scores=[judge for _, _, judge, _ in qa if judge is not None],
        mos_scores=[mos for _, _, _, mos in qa if mos is not None],
    )
