from __future__ import annotations

import hashlib
import json
import re

import pytest

from streamvox import datagen, pipeline, records
from streamvox.cli import OUT_DIR_ENV, build_parser, main, validate_config


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# simulate


def test_simulate_preset_breakdown(capsys) -> None:
    code, out, _ = run(capsys, "simulate", "--timing", "table7b", "--R", "3", "--W", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "latency-breakdown/v1"
    assert abs(payload["total_ms"] - 582.92) <= 0.02


def test_simulate_writes_breakdown_and_timeline(tmp_path, capsys) -> None:
    out_path = tmp_path / "breakdown.json"
    timeline_path = tmp_path / "timeline.jsonl"
    code, _, _ = run(
        capsys,
        "simulate",
        "--timing",
        "table0.5b",
        "--R",
        "3",
        "--W",
        "10",
        "--timeline",
        str(timeline_path),
        "--out",
        str(out_path),
    )
    assert code == 0
    assert json.loads(out_path.read_text())["total_ms"] == pytest.approx(542.71)
    chunks = records.read_jsonl(timeline_path, schema="timeline-chunk/v1")
    assert len(chunks) == 1


def test_simulate_accepts_timing_file(tmp_path, capsys) -> None:
    timing_doc = {
        "schema": "timing-set/v1",
        "stages": [
            {"schema": "timing/v1", "stage": "llm", "form": "affine", "intercept_ms": 100.0, "per_token_ms": 10.0},
            {"schema": "timing/v1", "stage": "tts", "form": "affine", "intercept_ms": 0.0, "per_token_ms": 5.0},
            {"schema": "timing/v1", "stage": "fm_voc", "form": "affine", "intercept_ms": 50.0, "per_token_ms": 1.0},
        ],
    }
    path = tmp_path / "timing.json"
    records.write_json(path, timing_doc)
    code, out, _ = run(capsys, "simulate", "--timing", str(path), "--R", "2", "--W", "4")
    assert code == 0
    assert json.loads(out)["total_ms"] == pytest.approx(120.0 + 20.0 + 54.0)


def test_failed_timeline_writes_nothing(tmp_path, capsys) -> None:
    # the lookup presets only cover first-chunk counts: chunk 2 has no llm entry at 6
    timeline_path = tmp_path / "timeline.jsonl"
    code, out, err = run(
        capsys, "simulate", "--timing", "table7b", "--R", "3", "--W", "10",
        "--n-text", "9", "--m-speech", "30", "--timeline", str(timeline_path),
    )
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "per_token_ms, counts, message",
    [
        # the first chunk's total overflows
        (1e308, "3", "error: first-chunk latency is not finite: llm 1e+308 + tts 1e+308 + synthesis 2.0 ms\n"),
        # the first chunk is finite; chunk 17's tts finish is not
        (1e307, "30", "error: chunk 17: stage tts time is not finite (1.7000000000000001e+308, inf)\n"),
    ],
)
def test_overflowing_costs_exit_1_and_write_nothing(tmp_path, capsys, per_token_ms, counts, message) -> None:
    timing = tmp_path / "timing.json"
    records.write_json(timing, {"stages": [
        {"schema": "timing/v1", "stage": "llm", "form": "affine", "intercept_ms": 1.0, "per_token_ms": per_token_ms},
        {"schema": "timing/v1", "stage": "tts", "form": "affine", "intercept_ms": 1.0, "per_token_ms": per_token_ms},
        {"schema": "timing/v1", "stage": "fm_voc", "form": "affine", "intercept_ms": 1.0, "per_token_ms": 1.0},
    ]})
    code, out, err = run(capsys, "simulate", "--timing", str(timing), "--R", "1", "--W", "1", "--n-text", counts,
                         "--m-speech", counts, "--timeline", str(tmp_path / "t.jsonl"), "--out", str(tmp_path / "o.json"))
    assert (code, out, err) == (1, "", message)
    assert list(tmp_path.iterdir()) == [timing]


def test_lookup_miss_exits_1_with_an_unquoted_line(tmp_path, capsys) -> None:
    code, out, err = run(capsys, "simulate", "--timing", "table7b", "--R", "3", "--W", "10", "--m-speech", "30",
                         "--timeline", str(tmp_path / "t.jsonl"))
    assert (code, out, err) == (1, "", "error: stage 'tts' lookup has no entry for count 30\n")
    assert list(tmp_path.iterdir()) == []


def test_input_that_is_not_utf8_exits_1_with_one_line(tmp_path, capsys) -> None:
    wer = tmp_path / "wer.jsonl"
    line = b'{"schema": "wer-item/v1", "reference": "a", "hypothesis": "a"}\n'
    wer.write_bytes(line + line.replace(b'"a",', b'"\xff",', 1))
    code, out, err = run(capsys, "eval", "--wer", str(wer))
    assert (code, out, err) == (1, "", f"error: {wer}: line 2: not UTF-8 (invalid start byte at byte 40 of the line)\n")
    points = tmp_path / "points.json"
    points.write_bytes(b"[[1, 2.0], [2, 3.0]] \xff")
    code, out, err = run(capsys, "calibrate", "--stage", "llm", "--points", str(points))
    assert (code, out, err) == (1, "", f"error: {points}: line 1: not UTF-8 (invalid start byte at byte 21 of the line)\n")


def test_simulate_rejects_non_object_timing_record(tmp_path, capsys) -> None:
    path = tmp_path / "timing.json"
    records.write_json(path, {"stages": [5]})
    code, out, err = run(capsys, "simulate", "--timing", str(path), "--R", "3", "--W", "10")
    assert (code, out, err) == (1, "", "error: stages[0]: timing record must be an object, got 5\n")


def _simulate_digest(tmp_path, capsys, timing: str, cases) -> str:
    """sha256 over the timeline bytes, then the breakdown bytes, of each
    ``simulate --R --W --n-text --m-speech`` call in ``cases``."""
    digest = hashlib.sha256()
    for r, w, n_text, m_speech in cases:
        timeline, breakdown = tmp_path / "timeline.jsonl", tmp_path / "breakdown.json"
        code, _, _ = run(capsys, "simulate", "--timing", timing, "--R", str(r), "--W", str(w),
                         "--n-text", str(n_text), "--m-speech", str(m_speech),
                         "--timeline", str(timeline), "--out", str(breakdown))
        assert code == 0
        digest.update(timeline.read_bytes())
        digest.update(breakdown.read_bytes())
    return digest.hexdigest()


def test_simulate_bytes_on_calibrated_models(tmp_path, capsys) -> None:
    """The benchmark's simulate calls: llm, tts and fm_voc fitted by
    ``calibrate`` from the bundled points, then 10000 speech tokens at each
    (R, W) of the measured sweep."""
    stages = []
    for stage in ("llm", "tts", "fm_voc"):
        points, fitted = tmp_path / f"points_{stage}.json", tmp_path / f"calibrated_{stage}.json"
        points.write_text(json.dumps([list(p) for p in pipeline.calibration_points(stage)]))
        assert run(capsys, "calibrate", "--points", str(points), "--stage", stage, "--out", str(fitted))[0] == 0
        stages.append(json.loads(fitted.read_text())["model"])
    timing = tmp_path / "timing.json"
    timing.write_text(json.dumps({"stages": stages}))
    sweep = [(1, 5), (2, 10), (3, 10), (3, 15), (4, 15), (5, 20)]
    cases = [(r, w, -(-10000 // w) * r, 10000) for r, w in sweep]
    assert _simulate_digest(tmp_path, capsys, str(timing), cases) == (
        "85e5a7c13eb180ff7f7d8c69fc64a6bc3ad96f04f344576bbed44f29cf3c78fc")


def test_simulate_bytes_on_a_lookup_preset_and_separate_synthesis(tmp_path, capsys) -> None:
    assert _simulate_digest(tmp_path, capsys, "table7b", [(1, 5, 4, 20), (3, 10, 3, 10)]) == (
        "9dfa0546a7a7bbb49eae0fdaf0ed58d5b3a4f331691c8c033cbbb58404baf256")
    timing = tmp_path / "timing.json"
    timing.write_text(json.dumps({"stages": [
        {"schema": "timing/v1", "stage": "llm", "form": "affine", "intercept_ms": 164.32, "per_token_ms": 21.61},
        {"schema": "timing/v1", "stage": "tts", "form": "affine", "intercept_ms": 0.0, "per_token_ms": 16.68},
        {"schema": "timing/v1", "stage": "fm", "form": "affine", "intercept_ms": 12.5, "per_token_ms": 3.3},
        {"schema": "timing/v1", "stage": "voc", "form": "affine", "intercept_ms": 1.25, "per_token_ms": 0.7},
    ]}))
    assert _simulate_digest(tmp_path, capsys, str(timing), [(2, 7, 300, 1000), (3, 4, 5, 30)]) == (
        "6ac4d813650d150226648e433a57d9e3a6d884eadc840cf9035ac7f36e9f5a62")


def _affine_doc(*stages: str) -> dict:
    return {"stages": [
        {"schema": "timing/v1", "stage": s, "form": "affine", "intercept_ms": 1.0, "per_token_ms": 0.5} for s in stages
    ]}


def _qa(**fields) -> list[dict]:
    return [{"schema": "qa-item/v1", "response": "hello", "answers": ["hello"], **fields}]


@pytest.mark.parametrize(
    "content, argv",
    [
        ({"stages": 5}, ["simulate", "--timing", "IN", "--R", "3", "--W", "10"]),
        ([1], ["simulate", "--timing", "IN", "--R", "3", "--W", "10"]),
        ([{"schema": "wer-item/v1", "reference": 5, "hypothesis": "a"}], ["eval", "--wer", "IN"]),
        (_qa(answers=[1]), ["eval", "--qa", "IN"]),
        (_qa(answers="no way"), ["eval", "--qa", "IN"]),
        (_qa(answers=["?"]), ["eval", "--qa", "IN"]),
        (_qa(judge_score="a"), ["eval", "--qa", "IN"]),
        (_qa(mos=True), ["eval", "--qa", "IN"]),
        ([{"schema": "fused-pairs/v1", "fused": [[1.0]], "tokens": "ab"}], ["train-toy", "--dataset", "IN"]),
        ([{"schema": "fused-pairs/v1", "fused": [[1.0]], "tokens": [0.5]}], ["train-toy", "--dataset", "IN"]),
        ([{"schema": "fused-pairs/v1", "fused": [1.0], "tokens": [0]}], ["train-toy", "--dataset", "IN"]),
        (None, ["train-toy", "--epochs", "0"]),
        (None, ["train-toy", "--epochs", "-1"]),
        (None, ["datagen", "--count", "-3", "--out", "corpus.jsonl"]),
        # the update overflows the forward pass; no RuntimeWarning, no params file
        (None, ["train-toy", "--lr", "1e308", "--epochs", "1", "--copy-samples", "4", "--params-out", "p.tensors"]),
        ([[10**400 - 1, 1.0], [2, 3.0]], ["calibrate", "--points", "IN"]),
        (_affine_doc("llm", "tts", "fm_voc"), ["simulate", "--timing", "IN", "--R", "9" * 400, "--W", "10"]),
    ],
)
@pytest.mark.filterwarnings("error")
def test_bad_input_exits_one_with_one_line(tmp_path, capsys, monkeypatch, content, argv) -> None:
    monkeypatch.chdir(tmp_path)
    rows = isinstance(content, list) and isinstance(content[0], dict)
    if rows:
        records.write_jsonl("IN", content)
    elif content is not None:
        records.write_json("IN", content)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: IN: line 1: " if rows else "error: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == (["IN"] if content is not None else [])


def _timing_doc(*stages: str) -> dict:
    counts = {"llm": 3, "tts": 10, "fm": 10, "voc": 20, "fm_voc": 10}
    return {"stages": [
        {"schema": "timing/v1", "stage": s, "form": "lookup", "points": [[counts[s], 1.5]]} for s in stages
    ]}


@pytest.mark.parametrize(
    "doc",
    [
        _timing_doc("llm", "tts", "fm_voc"),
        _timing_doc("llm", "tts", "fm", "voc"),
        _timing_doc("llm", "fm_voc"),
        _timing_doc("tts", "fm_voc"),
        _timing_doc("llm", "tts", "fm"),
        _timing_doc("llm", "tts"),
        _timing_doc("llm", "tts", "fm", "voc", "fm_voc"),
        _timing_doc("llm", "tts", "fm_voc", "llm"),
        {"stages": []},
        {"stages": 5},
        {"stages": [5]},
        {"stages": [{"stage": "llm", "form": "affine", "intercept_ms": 1.0}]},
        [1],
        None,
    ],
)
def test_validate_config_and_simulate_agree_on_timing(tmp_path, capsys, doc) -> None:
    # Lookups cover R=3, W=10, so a valid document simulates without a missing count.
    config = good_config()
    config["timing"] = doc
    flagged = any(v.startswith("timing.") for v in validate_config(config))
    path = tmp_path / "timing.json"
    records.write_json(path, doc)
    code, _, _ = run(capsys, "simulate", "--timing", str(path), "--R", "3", "--W", "10")
    assert code in (0, 1)
    assert flagged == (code == 1)


def test_simulate_missing_timing_file(capsys) -> None:
    code, _, err = run(capsys, "simulate", "--timing", "nowhere.json", "--R", "3", "--W", "10")
    assert code == 3
    assert "missing file" in err


# ---------------------------------------------------------------------------
# schedule


def test_schedule_compact_text(capsys) -> None:
    code, out, _ = run(capsys, "schedule", "--N", "6", "--M", "25", "--R", "3", "--W", "10")
    assert code == 0
    assert out.strip() == "R3 W10 R3 W10 W5"


def test_schedule_records_format(capsys) -> None:
    code, out, _ = run(
        capsys, "schedule", "--N", "2", "--M", "1", "--R", "3", "--W", "10", "--format", "records"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["actions"] == [{"count": 2, "kind": "read"}, {"count": 1, "kind": "write"}]


def test_schedule_invalid_policy_exits_one(capsys) -> None:
    code, _, err = run(capsys, "schedule", "--N", "6", "--M", "5", "--R", "0", "--W", "10")
    assert code == 1
    assert "read_block" in err


# ---------------------------------------------------------------------------
# calibrate


def test_calibrate_from_points_file(tmp_path, capsys) -> None:
    path = tmp_path / "points.json"
    records.write_json(path, [[1, 185.93], [2, 206.03], [3, 231.16], [4, 251.26], [5, 271.36]])
    code, out, _ = run(capsys, "calibrate", "--points", str(path), "--stage", "llm")
    assert code == 0
    payload = json.loads(out)
    assert payload["model"]["per_token_ms"] == pytest.approx(21.609, abs=1e-3)
    assert payload["max_residual_ms"] <= 2.1


def test_calibrate_degenerate_points_exit_one(tmp_path, capsys) -> None:
    path = tmp_path / "points.json"
    records.write_json(path, [[3, 10.0], [3, 11.0]])
    code, _, err = run(capsys, "calibrate", "--points", str(path))
    assert code == 1
    assert "degenerate" in err


@pytest.mark.parametrize("points", [[[2.7, 1.0], [True, 2.0], [4, 3.0]], [[1, 1.0], 5, [4, 3.0]]])
def test_calibrate_malformed_points_exit_one(tmp_path, capsys, points) -> None:
    path = tmp_path / "points.json"
    records.write_json(path, points)
    code, out, err = run(capsys, "calibrate", "--points", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: sample ") and err.count("\n") == 1


@pytest.mark.filterwarnings("error")
def test_calibrate_overflowing_fit_exit_one_with_one_line(tmp_path, capsys) -> None:
    path = tmp_path / "points.json"
    records.write_json(path, [[1, 0], [2, 1.7e308]])
    code, out, err = run(capsys, "calibrate", "--stage", "llm", "--points", str(path))
    assert (code, out, err) == (1, "", "error: stage 'llm' fit residual is not finite (inf)\n")


# ---------------------------------------------------------------------------
# train-toy / eval / datagen round trip


def test_train_toy_copy_task_and_saved_params(tmp_path, capsys) -> None:
    params_path = tmp_path / "predictor.tensors"
    code, out, _ = run(
        capsys,
        "train-toy",
        "--copy-samples",
        "16",
        "--seq-len",
        "4",
        "--alphabet",
        "6",
        "--epochs",
        "30",
        "--lr",
        "0.3",
        "--seed",
        "5",
        "--params-out",
        str(params_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["final_loss"] < payload["first_loss"]
    assert payload["next_token_accuracy"] >= 0.95
    assert params_path.exists()
    from streamvox.ttslm import load_predictor

    assert load_predictor(params_path).vocab.speech_size == 6


def test_eval_requires_at_least_one_input(capsys) -> None:
    code, _, err = run(capsys, "eval")
    assert code == 1
    assert "at least one" in err


def test_eval_report(tmp_path, capsys) -> None:
    wer_path = tmp_path / "wer.jsonl"
    records.write_jsonl(
        wer_path, [{"schema": "wer-item/v1", "reference": "a b", "hypothesis": "a b"}]
    )
    rows_path = tmp_path / "rows.jsonl"
    code, out, _ = run(capsys, "eval", "--wer", str(wer_path), "--rows-out", str(rows_path))
    assert code == 0
    assert json.loads(out)["corpus_wer"] == 0.0
    rows = records.read_jsonl(rows_path, schema="metric-report-row/v1")
    assert [r["kind"] for r in rows] == ["item", "corpus"]


def test_datagen_writes_corpus(tmp_path, capsys) -> None:
    path = tmp_path / "corpus.jsonl"
    code, _, _ = run(capsys, "datagen", "--count", "5", "--seed", "3", "--out", str(path))
    assert code == 0
    rows = records.read_jsonl(path, schema="dialogue/v1")
    assert len(rows) == 5


def test_datagen_stdout_and_file_hold_the_same_lines(tmp_path, capsys) -> None:
    path = tmp_path / "corpus.jsonl"
    assert run(capsys, "datagen", "--count", "4", "--seed", "2", "--out", str(path))[0] == 0
    code, out, _ = run(capsys, "datagen", "--count", "4", "--seed", "2")
    assert code == 0 and out == path.read_text(encoding="utf-8")
    assert [json.loads(line) for line in out.splitlines()] == [
        d.to_record() for d in datagen.generate_corpus(4, 2)]


@pytest.mark.parametrize("seed", ["-1", "-7"])
def test_datagen_negative_seed_exits_one_naming_the_seed(tmp_path, capsys, monkeypatch, seed) -> None:
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "datagen", "--count", "2", "--seed", seed, "--out", "corpus.jsonl")
    assert (code, out, err) == (1, "", f"error: seed must be a non-negative integer, got {seed}\n")
    assert list(tmp_path.iterdir()) == []


def test_train_toy_negative_seed_exits_one_naming_the_seed(tmp_path, capsys, monkeypatch) -> None:
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "train-toy", "--seed", "-1", "--epochs", "1", "--params-out", "p.tensors")
    assert (code, out, err) == (1, "", "error: seed must be a non-negative integer, got -1\n")
    assert list(tmp_path.iterdir()) == []


def test_train_toy_dataset_names_a_pair_of_the_wrong_width(tmp_path, capsys, monkeypatch) -> None:
    monkeypatch.chdir(tmp_path)
    pair = lambda *rows: {"schema": "fused-pairs/v1", "fused": [list(r) for r in rows], "tokens": [1, 2]}
    records.write_jsonl("good.jsonl", [pair((0.5, 1.0)), pair((1.0, 0.0), (0.0, 1.0))])
    records.write_jsonl("bad.jsonl", [pair((0.5, 1.0)), pair((1.0, 0.0, 2.0))])
    argv = ["--speech-size", "8", "--epochs", "2"]
    code, out, err = run(capsys, "train-toy", "--dataset", "good.jsonl", *argv)
    assert (code, err, out.count("\n")) == (0, "", 1)
    assert json.loads(out)["epochs"] == 2
    code, out, err = run(capsys, "train-toy", "--dataset", "bad.jsonl", *argv, "--params-out", "p.tensors")
    assert (code, out) == (1, "")
    assert err == "error: pair 1: fused representations have width 3, the predictor's fused_dim is 2\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl", "good.jsonl"]


# JSON text of numbers that are not finite: NaN and Infinity are not JSON
# (RFC 8259), and 1e400 is beyond the float range.
NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"]


@pytest.mark.parametrize("number", NON_FINITE)
def test_non_finite_number_in_an_input_row_exits_one(tmp_path, capsys, monkeypatch, number) -> None:
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rows.jsonl").write_text(
        '{"schema": "latency-breakdown/v1", "total_ms": 1.5}\n'
        f'{{"schema": "latency-breakdown/v1", "total_ms": {number}}}\n'
    )
    code, out, err = run(capsys, "eval", "--latency", "rows.jsonl", "--out", "report.json")
    assert (code, out, err) == (1, "", f"error: rows.jsonl: line 2: invalid JSON ({number} is not a finite number)\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.jsonl"]


@pytest.mark.parametrize(
    "row, message",
    [
        ('{"schema": "latency-breakdown/v1", "total_ms": true, "llm_ms": "abc"}',
         "total_ms must be finite and non-negative, got True"),
        ('{"schema": "latency-breakdown/v1", "total_ms": 1.0, "llm_ms": "abc"}',
         "llm_ms must be finite and non-negative, got 'abc'"),
        ('{"schema": "latency-breakdown/v1", "llm_ms": 1.0}', "total_ms must be finite and non-negative, got None"),
        ('{"schema": "latency-breakdown/v1", "total_ms": 1.0, "fm_ms": -2}',
         "fm_ms must be finite and non-negative, got -2"),
    ],
)
def test_malformed_latency_row_exits_one_naming_the_field(tmp_path, capsys, monkeypatch, row, message) -> None:
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rows.jsonl").write_text('{"schema": "latency-breakdown/v1", "total_ms": 1.5}\n' + row + "\n")
    code, out, err = run(capsys, "eval", "--latency", "rows.jsonl", "--out", "report.json")
    assert (code, out, err) == (1, "", f"error: rows.jsonl: line 2: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.jsonl"]


@pytest.mark.parametrize("number", NON_FINITE)
def test_non_finite_number_in_an_input_document_exits_one(tmp_path, capsys, monkeypatch, number) -> None:
    monkeypatch.chdir(tmp_path)
    (tmp_path / "points.json").write_text(f"[[1, 2.0],\n [2, {number}]]")
    code, out, err = run(capsys, "calibrate", "--points", "points.json")
    assert (code, out, err) == (1, "", f"error: points.json: invalid JSON ({number} is not a finite number)\n")


# ---------------------------------------------------------------------------
# exit codes, determinism, atomicity


def test_unknown_subcommand_exits_two_and_writes_nothing(tmp_path, capsys, monkeypatch) -> None:
    monkeypatch.chdir(tmp_path)
    code = main(["transmogrify"])
    capsys.readouterr()
    assert code == 2
    assert list(tmp_path.iterdir()) == []


def test_unknown_flag_exits_two(capsys) -> None:
    code = main(["schedule", "--N", "1", "--M", "1", "--R", "1", "--W", "1", "--frobnicate"])
    capsys.readouterr()
    assert code == 2


def test_identical_invocations_produce_identical_bytes(tmp_path, capsys) -> None:
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for path in (a, b):
        code, _, _ = run(capsys, "datagen", "--count", "8", "--seed", "11", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_parser_is_built_once() -> None:
    assert build_parser() is build_parser()


SHARED_PARSER_CALLS = {
    "simulate": ["simulate", "--timing", "timing.json", "--R", "3", "--W", "10", "--n-text", "9",
                 "--m-speech", "25", "--timeline", "timeline.jsonl"],
    "datagen": ["datagen", "--count", "6", "--seed", "4"],
    "eval": ["eval", "--wer", "wer.jsonl", "--rows-out", "rows.jsonl", "--out", "report.json"],
    "calibrate": ["calibrate", "--points", "points.json", "--stage", "tts", "--pretty"],
    "schedule": ["schedule", "--N", "7", "--M", "25", "--R", "3", "--W", "10", "--format", "records"],
}


@pytest.mark.parametrize("kind", sorted(SHARED_PARSER_CALLS))
def test_repeated_in_process_calls_give_identical_bytes(tmp_path, capsys, monkeypatch, kind) -> None:
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUT_DIR_ENV, raising=False)
    records.write_json("timing.json", _affine_doc("llm", "tts", "fm_voc"))
    records.write_json("points.json", [[5, 85.43], [10, 165.83], [15, 246.23]])
    records.write_jsonl("wer.jsonl", [{"schema": "wer-item/v1", "reference": "a b c", "hypothesis": "a c d"}])
    (tmp_path / "broken.json").write_text("[[1, 2.0],")
    inputs = {p.name for p in tmp_path.iterdir()}
    argv = SHARED_PARSER_CALLS[kind]

    def call() -> tuple[str, dict]:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        outputs = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir()) if p.name not in inputs}
        for name in outputs:
            (tmp_path / name).unlink()
        return out, outputs

    first = call()
    assert bool(first[0]) == ("--out" not in argv)
    assert sorted(first[1]) == sorted(a for a in argv if a in ("timeline.jsonl", "rows.jsonl", "report.json"))
    assert run(capsys, *argv, "--frobnicate")[:2] == (2, "")
    code, out, err = run(capsys, "calibrate", "--points", "broken.json")
    assert (code, out) == (1, "") and err.startswith("error: ")
    assert {p.name for p in tmp_path.iterdir()} == inputs
    assert call() == first


def test_failed_run_leaves_no_partial_output(tmp_path, capsys) -> None:
    out_path = tmp_path / "never.json"
    # R=0 fails validation before any write
    code, _, _ = run(
        capsys, "simulate", "--timing", "table7b", "--R", "0", "--W", "10", "--out", str(out_path)
    )
    assert code == 1
    assert not out_path.exists()
    assert not list(tmp_path.glob("*.tmp"))


def test_out_dir_environment_override(tmp_path, capsys, monkeypatch) -> None:
    monkeypatch.setenv("STREAMVOX_OUT_DIR", str(tmp_path / "sandbox"))
    code, _, _ = run(capsys, "datagen", "--count", "2", "--seed", "1", "--out", "corpus.jsonl")
    assert code == 0
    assert (tmp_path / "sandbox" / "corpus.jsonl").exists()


# ---------------------------------------------------------------------------
# validate-config


def good_config() -> dict:
    return {
        "schema": "engine-config/v1",
        "policy": {"read_block": 3, "write_block": 10},
        "timing": {
            "stages": [
                {"schema": "timing/v1", "stage": "llm", "form": "lookup", "points": [[3, 231.16]]},
                {"schema": "timing/v1", "stage": "tts", "form": "lookup", "points": [[10, 165.83]]},
                {
                    "schema": "timing/v1",
                    "stage": "fm_voc",
                    "form": "lookup",
                    "points": [[10, 185.93]],
                },
            ]
        },
        "seed": 0,
    }


def test_validate_config_accepts_well_formed(tmp_path, capsys) -> None:
    path = tmp_path / "config.json"
    records.write_json(path, good_config())
    code, out, _ = run(capsys, "validate-config", str(path))
    assert code == 0
    assert json.loads(out) == {"schema": "config-check/v1", "ok": True, "violations": []}


def test_validate_config_flags_zero_read_block(tmp_path, capsys) -> None:
    config = good_config()
    config["policy"]["read_block"] = 0
    path = tmp_path / "config.json"
    records.write_json(path, config)
    code, out, _ = run(capsys, "validate-config", str(path))
    assert code == 1
    violations = json.loads(out)["violations"]
    assert any("policy.read_block" in v for v in violations)


@pytest.mark.parametrize("value", [True, 2.5, "3", None])
def test_validate_config_flags_non_integer_blocks(value) -> None:
    for key in ("read_block", "write_block"):
        config = good_config()
        config["policy"][key] = value
        assert validate_config(config) == [f"policy.{key} must be a positive integer, got {value!r}"]


def test_validate_config_flags_duplicate_lookup_counts(tmp_path, capsys) -> None:
    config = good_config()
    config["timing"]["stages"][0]["points"] = [[3, 231.16], [3, 999.0]]
    path = tmp_path / "config.json"
    records.write_json(path, config)
    code, out, _ = run(capsys, "validate-config", str(path))
    assert code == 1
    assert any("duplicate" in v for v in json.loads(out)["violations"])


@pytest.mark.parametrize(
    "seed, violations",
    [
        (True, ["seed must be a non-negative integer, got True"]),
        (7, []),
        (-1, ["seed must be a non-negative integer, got -1"]),
        (2.0, ["seed must be a non-negative integer, got 2.0"]),
        (0, []),
    ],
)
def test_validate_config_checks_seed(seed, violations) -> None:
    assert validate_config({**good_config(), "seed": seed}) == violations
    if violations:
        with pytest.raises(ValueError, match=re.escape(violations[0])):
            datagen.generate_corpus(1, seed)


def test_validate_config_flags_duplicate_stage_models() -> None:
    config = good_config()
    config["timing"]["stages"].append(config["timing"]["stages"][0])
    violations = validate_config(config)
    assert any("duplicate stage" in v for v in violations)


@pytest.mark.parametrize(
    "points, message",
    [
        ([[-3, 1.0]], "lookup count must be a positive integer, got -3"),
        ([[0, 1.0]], "lookup count must be a positive integer, got 0"),
        ([[2.7, 1.0]], "lookup count must be a positive integer, got 2.7"),
        ([[True, 1.0]], "lookup count must be a positive integer, got True"),
        ([[3, True]], "lookup cost at count 3 must be finite and non-negative, got True"),
        ([[3, "231"]], "lookup cost at count 3 must be finite and non-negative, got '231'"),
        ([[[3], 1.0]], "lookup count must be a positive integer, got [3]"),
        ([[3]], "lookup point must be a [count, cost] pair, got (3,)"),
    ],
)
def test_validate_config_flags_bad_lookup_points(tmp_path, capsys, points, message) -> None:
    config = good_config()
    config["timing"]["stages"][0]["points"] = points
    path = tmp_path / "config.json"
    records.write_json(path, config)
    code, out, _ = run(capsys, "validate-config", str(path))
    assert code == 1
    assert json.loads(out)["violations"] == [f"timing.stages[0]: stage 'llm' {message}"]


@pytest.mark.parametrize("value", [True, "164.3"])
def test_validate_config_flags_bad_affine_coefficients(tmp_path, capsys, value) -> None:
    config = good_config()
    config["timing"]["stages"][0] = {
        "schema": "timing/v1", "stage": "llm", "form": "affine", "intercept_ms": value, "per_token_ms": 21.6,
    }
    path = tmp_path / "config.json"
    records.write_json(path, config)
    code, out, _ = run(capsys, "validate-config", str(path))
    assert code == 1
    assert json.loads(out)["violations"] == [
        f"timing.stages[0]: stage 'llm' intercept_ms must be finite and non-negative, got {value!r}"
    ]


def test_simulate_has_no_sample_rate_flag(capsys) -> None:
    code, _, err = run(capsys, "simulate", "--timing", "table7b", "--R", "3", "--W", "10", "--sample-rate", "16000")
    assert code == 2
    assert "unrecognized arguments: --sample-rate" in err


def test_validate_config_rejects_non_object_document(tmp_path, capsys) -> None:
    path = tmp_path / "config.json"
    path.write_text("[1, 2]\n", encoding="utf-8")
    code, out, err = run(capsys, "validate-config", str(path))
    assert code == 1
    assert json.loads(out) == {
        "schema": "config-check/v1",
        "ok": False,
        "violations": ["config: expected a JSON object"],
    }
    assert err == ""


def test_validate_config_is_pure(tmp_path, capsys, monkeypatch) -> None:
    path = tmp_path / "config.json"
    records.write_json(path, good_config())
    work = tmp_path / "cwd"
    work.mkdir()
    monkeypatch.chdir(work)
    run(capsys, "validate-config", str(path))
    assert list(work.iterdir()) == []
