"""Every ``streamvox ...`` line of the README's "Command line" block runs as written."""

from __future__ import annotations

import json
import shlex
from pathlib import Path

import pytest

from streamvox import pipeline, records
from streamvox.cli import main
from streamvox.schedule import SchedulePolicy

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
SECTION = README.split("## Command line", 1)[1].split("\n## ", 1)[0]


def command_lines() -> list[list[str]]:
    block = SECTION.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("streamvox ")]


def readme_timing_document() -> dict:
    """The ``json`` block that follows the README's mention of ``timing.json``."""
    after = SECTION.split("`timing.json`", 1)[1]
    return json.loads(after.split("```json\n", 1)[1].split("```", 1)[0])


def write_inputs(work: Path) -> None:
    timing = readme_timing_document()
    records.write_json(work / "timing.json", timing)
    records.write_json(work / "points.json", [list(p) for p in pipeline.calibration_points(pipeline.STAGE_LLM)])
    records.write_jsonl(work / "wer.jsonl", [
        {"schema": "wer-item/v1", "reference": "the cat sat", "hypothesis": "the cat sat down"},
        {"schema": "wer-item/v1", "reference": "hello world", "hypothesis": "hello word"},
    ])
    records.write_jsonl(work / "qa.jsonl", [
        {"schema": "qa-item/v1", "response": "It is Paris.", "answers": ["Paris"], "judge_score": 4.0, "mos": 3.9},
    ])
    breakdown = pipeline.first_chunk_latency(pipeline.timing_preset("table7b"), SchedulePolicy(3, 10))
    records.write_jsonl(work / "breakdowns.jsonl", [breakdown.to_record()])
    records.write_json(work / "config.json", {
        "schema": "engine-config/v1", "policy": {"read_block": 3, "write_block": 10}, "timing": timing, "seed": 0,
    })


def test_command_block_is_found() -> None:
    assert [argv[0] for argv in command_lines()] == [
        "simulate", "simulate", "schedule", "calibrate", "train-toy", "eval", "datagen", "validate-config",
    ]


@pytest.mark.parametrize("argv", command_lines(), ids=lambda argv: " ".join(argv))
def test_readme_command_runs(argv, tmp_path, capsys, monkeypatch) -> None:
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("STREAMVOX_OUT_DIR", raising=False)
    write_inputs(tmp_path)
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
