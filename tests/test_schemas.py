"""One parser per record schema: round trips, and mutations that each parser
must reject with a ValueError naming the field path."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamvox import records
from streamvox.datagen import DialogueRecord
from streamvox.evalkit import latency_row, normalize, qa_item, wer_item
from streamvox.pipeline import STAGES, LatencyBreakdown, StageTimingModel, StageTimings, parse_point
from streamvox.schedule import SchedulePolicy
from streamvox.ttslm import pair_from_record

COSTS = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False) | st.integers(0, 10**6)
COUNTS = st.integers(1, 10**6)
TEXT = st.text(max_size=12)
WORDY = TEXT.filter(lambda s: bool(normalize(s)))


def json_trip(record):
    """The record as a reader sees it: canonical JSON text, parsed back."""
    return json.loads(records.dumps_canonical(record))


def timing_models(stage=st.sampled_from(STAGES)):
    lookup = st.builds(StageTimingModel.lookup, stage, st.dictionaries(COUNTS, COSTS, min_size=1, max_size=5))
    return lookup | st.builds(StageTimingModel.affine, stage, COSTS, COSTS)


@st.composite
def stage_timings(draw):
    models = {s: draw(timing_models(st.just(s))) for s in ("llm", "tts")}
    synthesis = ("fm_voc",) if draw(st.booleans()) else ("fm", "voc")
    models.update({s: draw(timing_models(st.just(s))) for s in synthesis})
    return StageTimings(**models)


dialogues = st.builds(
    DialogueRecord,
    id=TEXT,
    voice_prompt_id=TEXT,
    response_voice_id=TEXT,
    turns=st.lists(st.tuples(TEXT, TEXT), min_size=1, max_size=5).map(tuple),
)


@settings(max_examples=60, deadline=None)
@given(model=timing_models())
def test_timing_model_round_trip(model) -> None:
    assert StageTimingModel.from_record(json_trip(model.to_record())) == model


@settings(max_examples=40, deadline=None)
@given(timings=stage_timings())
def test_timing_document_round_trip(timings) -> None:
    stages = [m.to_record() for m in vars(timings).values() if m is not None]
    assert StageTimings.from_record(json_trip({"stages": stages})) == timings


@given(point=st.tuples(COUNTS, COSTS))
def test_point_round_trip(point) -> None:
    assert parse_point("p", json_trip(list(point))) == point


@given(read_block=COUNTS, write_block=COUNTS)
def test_policy_round_trip(read_block, write_block) -> None:
    policy = SchedulePolicy(read_block, write_block)
    assert SchedulePolicy.from_record({"read_block": read_block, "write_block": write_block}) == policy


@given(reference=TEXT, hypothesis=TEXT)
def test_wer_item_round_trip(reference, hypothesis) -> None:
    row = {"schema": "wer-item/v1", "reference": reference, "hypothesis": hypothesis}
    assert wer_item(json_trip(row)) == (reference, hypothesis)


@given(response=TEXT, answers=st.lists(WORDY, max_size=3), judge=st.none() | COSTS, mos=st.none() | COSTS)
def test_qa_item_round_trip(response, answers, judge, mos) -> None:
    row = {"schema": "qa-item/v1", "response": response, "answers": answers}
    row.update({k: v for k, v in (("judge_score", judge), ("mos", mos)) if v is not None})
    assert qa_item(json_trip(row)) == (response, answers, judge, mos)


@given(costs=st.tuples(COSTS, COSTS, COSTS, COSTS), fm=st.none() | COSTS, voc=st.none() | COSTS)
def test_latency_row_round_trip(costs, fm, voc) -> None:
    row = LatencyBreakdown(*costs, fm_ms=fm, voc_ms=voc).to_record()
    assert latency_row(json_trip(row)) == row


@given(
    fused=st.integers(1, 4).flatmap(lambda d: st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=d, max_size=d), min_size=1, max_size=4)),
    tokens=st.lists(st.integers(0, 10**4), max_size=6),
)
def test_fused_pair_round_trip(fused, tokens) -> None:
    C, Y = pair_from_record(json_trip({"schema": "fused-pairs/v1", "fused": fused, "tokens": tokens}))
    np.testing.assert_array_equal(C, np.asarray(fused, dtype=float))
    assert Y == tokens


@settings(max_examples=40)
@given(dialogue=dialogues)
def test_dialogue_round_trip(dialogue) -> None:
    assert DialogueRecord.from_record(json_trip(dialogue.to_record())) == dialogue


# ---------------------------------------------------------------------------
# mutations: one field replaced by a wrong type, NaN, inf or a bool


def _lookup():
    return {"schema": "timing/v1", "stage": "llm", "form": "lookup", "points": [[3, 231.16]]}


def _affine():
    return {"schema": "timing/v1", "stage": "tts", "form": "affine", "intercept_ms": 1.0, "per_token_ms": 2.0}


def _doc():
    stages = [_lookup(), _affine(), {**_affine(), "stage": "fm_voc"}]
    return {"stages": stages}


PARSERS = {
    "timing/v1 lookup": (StageTimingModel.from_record, _lookup),
    "timing/v1 affine": (StageTimingModel.from_record, _affine),
    "timing document": (StageTimings.from_record, _doc),
    "point": (lambda p: parse_point("sample 0", p), lambda: [3, 1.5]),
    "policy": (SchedulePolicy.from_record, lambda: {"read_block": 3, "write_block": 10}),
    "wer-item/v1": (wer_item, lambda: {"schema": "wer-item/v1", "reference": "a b", "hypothesis": "a"}),
    "qa-item/v1": (qa_item, lambda: {
        "schema": "qa-item/v1", "response": "paris", "answers": ["Paris"], "judge_score": 4.5, "mos": 4.0,
    }),
    "latency-breakdown/v1": (latency_row, lambda: {
        "schema": "latency-breakdown/v1", "llm_ms": 164.3, "tts_ms": 16.7, "fm_ms": 150.0, "voc_ms": 33.4,
        "fm_voc_ms": 183.4, "total_ms": 364.4,
    }),
    "fused-pairs/v1": (pair_from_record, lambda: {
        "schema": "fused-pairs/v1", "fused": [[0.5, -1.0], [2.0, 0.0]], "tokens": [3, 1],
    }),
    "dialogue/v1": (DialogueRecord.from_record, lambda: DialogueRecord(
        "dlg-0", "prompt-voice-0", "response-voice-0", (("hi", "hello"), ("more?", "yes"))
    ).to_record()),
}

# (parser, path into the valid record, what the message must name).  The
# ``schema`` field of a JSONL row is checked by the file reader (below).
MUTATIONS = [
    ("timing/v1 lookup", ("schema",), "schema"),
    ("timing/v1 lookup", ("stage",), "stage"),
    ("timing/v1 lookup", ("form",), "form"),
    ("timing/v1 lookup", ("points",), "points"),
    ("timing/v1 lookup", ("points", 0), "lookup point"),
    ("timing/v1 lookup", ("points", 0, 0), "lookup count"),
    ("timing/v1 lookup", ("points", 0, 1), "lookup cost"),
    ("timing/v1 affine", ("intercept_ms",), "intercept_ms"),
    ("timing/v1 affine", ("per_token_ms",), "per_token_ms"),
    ("timing document", ("stages",), "stages"),
    ("timing document", ("stages", 1), "stages[1]: "),
    ("timing document", ("stages", 1, "per_token_ms"), "stages[1]: stage 'tts' per_token_ms"),
    ("point", (0,), "sample 0 count"),
    ("point", (1,), "sample 0 cost"),
    ("policy", ("read_block",), "read_block"),
    ("policy", ("write_block",), "write_block"),
    ("wer-item/v1", ("reference",), "reference"),
    ("wer-item/v1", ("hypothesis",), "hypothesis"),
    ("qa-item/v1", ("response",), "response"),
    ("qa-item/v1", ("answers",), "answers"),
    ("qa-item/v1", ("answers", 0), "answers[0]"),
    ("qa-item/v1", ("judge_score",), "judge_score"),
    ("qa-item/v1", ("mos",), "mos"),
    ("fused-pairs/v1", ("fused",), "fused"),
    ("fused-pairs/v1", ("fused", 1), "fused"),
    ("fused-pairs/v1", ("fused", 1, 0), "fused"),
    ("fused-pairs/v1", ("tokens",), "tokens"),
    ("fused-pairs/v1", ("tokens", 0), "tokens"),
    ("dialogue/v1", ("id",), "id"),
    ("dialogue/v1", ("voice_prompt_id",), "voice_prompt_id"),
    ("dialogue/v1", ("response_voice_id",), "response_voice_id"),
    ("dialogue/v1", ("turns",), "turns"),
    ("dialogue/v1", ("turns", 1), "turns[1]"),
    ("dialogue/v1", ("turns", 1, "response"), "turns[1].response"),
    ("latency-breakdown/v1", ("llm_ms",), "llm_ms"),
    ("latency-breakdown/v1", ("tts_ms",), "tts_ms"),
    ("latency-breakdown/v1", ("fm_ms",), "fm_ms"),
    ("latency-breakdown/v1", ("voc_ms",), "voc_ms"),
    ("latency-breakdown/v1", ("fm_voc_ms",), "fm_voc_ms"),
    ("latency-breakdown/v1", ("total_ms",), "total_ms"),
]


BAD = pytest.mark.parametrize("bad", [{}, math.nan, math.inf, True], ids=["object", "nan", "inf", "bool"])


@BAD
@pytest.mark.parametrize("schema, path, named", MUTATIONS)
def test_mutated_field_is_rejected_by_name(schema, path, named, bad) -> None:
    parse, valid = PARSERS[schema]
    parse(valid())
    record = valid()
    target = record
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = bad
    with pytest.raises(ValueError) as info:
        parse(record)
    assert named in str(info.value)


@BAD
@pytest.mark.parametrize("schema", ["wer-item/v1", "qa-item/v1", "latency-breakdown/v1", "fused-pairs/v1", "dialogue/v1"])
def test_mutated_row_schema_is_rejected_by_the_reader(schema, bad, tmp_path) -> None:
    parse, valid = PARSERS[schema]
    path = tmp_path / "rows.jsonl"
    # json.dumps, unlike the canonical encoder, writes NaN and Infinity.
    path.write_text("".join(json.dumps(row) + "\n" for row in [valid(), {**valid(), "schema": bad}]))
    # NaN and Infinity are rejected as they are decoded, before the schema check.
    if isinstance(bad, float):
        message = r"line 2: invalid JSON \((NaN|Infinity) is not a finite number\)"
    else:
        message = r"line 2: schema .*, expected"
    with pytest.raises(records.RecordFormatError, match=message):
        records.read_jsonl(path, schema=schema, parse=parse)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_a_file_that_is_not_utf8_is_rejected_naming_the_line(tmp_path, newline) -> None:
    path = tmp_path / "rows.jsonl"
    rows = [{"schema": "wer-item/v1", "reference": "a", "hypothesis": "a"}] * 2
    path.write_bytes(newline.join([json.dumps(rows[0]), '{"reference": "caf\xff"}', json.dumps(rows[1])]).encode("latin-1"))
    with pytest.raises(records.RecordFormatError) as info:
        records.read_jsonl(path, schema="wer-item/v1")
    assert str(info.value) == f"{path}: line 2: not UTF-8 (invalid start byte at byte 18 of the line)"
    path.write_bytes(b'{"points":\n "\xe9"}')
    with pytest.raises(records.RecordFormatError) as info:
        records.read_json(path)
    assert str(info.value) == f"{path}: line 2: not UTF-8 (invalid continuation byte at byte 2 of the line)"


def test_reader_splits_lines_as_text_mode_does(tmp_path) -> None:
    path = tmp_path / "rows.jsonl"
    rows = [{"schema": "s", "n": n} for n in range(4)]
    path.write_bytes("\n".join([json.dumps(rows[0]), json.dumps(rows[1]) + "\r\n" + json.dumps(rows[2]),
                                 "\r" + json.dumps(rows[3])]).encode("utf-8"))
    assert records.read_jsonl(path, schema="s") == rows


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


def _text_or_error(encode, value):
    try:
        return encode(value)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(value=JSON_VALUES)
def test_canonical_text_is_sorted_compact_json(value) -> None:
    # Values holding NaN or an infinity raise the same error as json.dumps with allow_nan=False.
    expected = _text_or_error(lambda v: json.dumps(v, sort_keys=True, separators=(",", ":"), allow_nan=False), value)
    assert _text_or_error(records.dumps_canonical, value) == expected


def test_canonical_text_of_special_values() -> None:
    value = {"z": [-0.0, 1e308], "é": "ü\u2028\ud800", "a": {"b": 1, "a": [{"y": 2, "x": 1}]}}
    text = records.dumps_canonical(value)
    assert text == json.dumps(value, sort_keys=True, separators=(",", ":"))
    assert text == '{"a":{"a":[{"x":1,"y":2}],"b":1},"z":[-0.0,1e+308],"\\u00e9":"\\u00fc\\u2028\\ud800"}'
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            records.dumps_canonical({"z": [-0.0, bad]})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_write_json_rejects_non_finite_numbers_and_writes_nothing(tmp_path, bad) -> None:
    with pytest.raises(ValueError, match="not JSON compliant"):
        records.write_json(tmp_path / "doc.json", {"v": bad})
    with pytest.raises(ValueError, match="not JSON compliant"):
        records.write_jsonl(tmp_path / "rows.jsonl", [{"v": 1.0}, {"v": bad}])
    assert list(tmp_path.iterdir()) == []
