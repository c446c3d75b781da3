"""Command-line front end over the documented record formats.

Subcommands: ``simulate``, ``calibrate``, ``schedule``, ``train-toy``,
``eval``, ``datagen``, ``validate-config``.  Output is machine-readable JSON
by default (``--pretty`` for indented form) and deterministic given the same
arguments, seed, and inputs.  Exit codes: 0 success, 1 computation or
validation failure, 2 invalid arguments, 3 missing input file.  Setting
``STREAMVOX_OUT_DIR`` redirects relative output paths into that directory.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import datagen, evalkit, pipeline, records, schedule, ttslm

OUT_DIR_ENV = "STREAMVOX_OUT_DIR"


def _resolve_out(path: str) -> Path:
    base = os.environ.get(OUT_DIR_ENV)
    target = Path(path)
    if base and not target.is_absolute():
        target = Path(base) / target
    target.parent.mkdir(parents=True, exist_ok=True)
    return target


def _emit(args, payload: dict) -> None:
    if getattr(args, "out", None):
        records.write_json(_resolve_out(args.out), payload)
    else:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) if args.pretty else records.dumps_canonical(payload)
        print(text)


def _load_timings(source: str) -> pipeline.StageTimings:
    try:
        return pipeline.timing_preset(source)
    except ValueError:
        pass
    return pipeline.StageTimings.from_record(records.read_json(source))


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_simulate(args) -> int:
    timings = _load_timings(args.timing)
    policy = schedule.SchedulePolicy(args.R, args.W)
    breakdown = pipeline.first_chunk_latency(timings, policy)
    timeline = None
    if args.timeline:
        scenario = pipeline.ScenarioConfig(
            policy=policy,
            n_text=args.n_text if args.n_text is not None else args.R,
            m_speech=args.m_speech if args.m_speech is not None else args.W,
        )
        timeline = pipeline.simulate_stream(scenario, timings)
    _emit(args, breakdown.to_record())
    if timeline is not None:
        records.write_jsonl(_resolve_out(args.timeline), pipeline.chunk_lines(timeline), encode=str)
    return 0


def _cmd_calibrate(args) -> int:
    model, residual = pipeline.calibrate_affine(records.read_json(args.points), stage=args.stage)
    _emit(args, {"schema": "calibration/v1", "model": model.to_record(), "max_residual_ms": residual})
    return 0


def _cmd_schedule(args) -> int:
    policy = schedule.SchedulePolicy(args.R, args.W)
    actions = schedule.build_sequence(args.N, args.M, policy)
    if args.format == "text":
        text = schedule.format_actions(actions)
        if args.out:
            target = _resolve_out(args.out)
            records._atomic_write(target, text + "\n")
        else:
            print(text)
    else:
        _emit(args, {"schema": "schedule/v1", "actions": schedule.actions_to_records(actions)})
    return 0


def _cmd_train_toy(args) -> int:
    records.nonneg_int("seed", args.seed)
    policy = schedule.SchedulePolicy(args.R, args.W)
    if args.dataset:
        pairs = ttslm.load_pairs(args.dataset)
        vocab = ttslm.ExtendedVocab(text_size=args.text_size, speech_size=args.speech_size)
    else:
        vocab = ttslm.ExtendedVocab(text_size=0, speech_size=args.alphabet)
        rng = np.random.default_rng(args.seed)
        pairs = ttslm.copy_task_dataset(vocab, args.copy_samples, args.seq_len, args.alphabet, rng)
    params, curve = ttslm.train_toy(
        pairs, policy, epochs=args.epochs, lr=args.lr, vocab=vocab, seed=args.seed
    )
    accuracy = ttslm.next_token_accuracy(pairs, policy, params)
    if args.params_out:
        ttslm.save_predictor(_resolve_out(args.params_out), params)
    _emit(
        args,
        {
            "schema": "train-toy/v1",
            "epochs": args.epochs,
            "first_loss": curve[0],
            "final_loss": curve[-1],
            "next_token_accuracy": accuracy,
            "curve": curve,
        },
    )
    return 0


def _cmd_eval(args) -> int:
    if not (args.wer or args.qa or args.latency):
        raise ValueError("eval needs at least one of --wer, --qa, --latency")
    report = evalkit.report_from_files(args.wer, args.qa, args.latency)
    _emit(args, report.to_record())
    if args.rows_out:
        records.write_jsonl(_resolve_out(args.rows_out), report.to_rows())
    return 0


def _cmd_datagen(args) -> int:
    dialogues = datagen.generate_corpus(
        args.count, args.seed, response_voice_id=args.response_voice
    )
    if args.out:
        datagen.write_corpus(_resolve_out(args.out), dialogues)
    else:
        for dialogue in dialogues:
            print(datagen.dialogue_line(dialogue))
    return 0


def validate_config(config: dict) -> list[str]:
    """Pure validation of an engine config document; returns violations,
    the first one of each section.  ``policy`` is required; ``timing`` and
    ``seed`` are checked when present."""
    if not isinstance(config, dict):
        return ["config: expected a JSON object"]
    sections = [("policy.", schedule.SchedulePolicy.from_record, config.get("policy"))]
    if "timing" in config:
        sections.append(("timing.", pipeline.StageTimings.from_record, config["timing"]))
    if "seed" in config:
        sections.append(("", functools.partial(records.nonneg_int, "seed"), config["seed"]))
    violations: list[str] = []
    for prefix, parse, value in sections:
        try:
            parse(value)
        except ValueError as exc:
            violations.append(f"{prefix}{exc}")
    return violations


def _cmd_validate_config(args) -> int:
    config = records.read_json(args.config)
    violations = validate_config(config)
    _emit(args, {"schema": "config-check/v1", "ok": not violations, "violations": violations})
    return 0 if not violations else 1


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and shared by every later
    :func:`main` call in the process; callers must not mutate it."""
    parser = argparse.ArgumentParser(prog="streamvox", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, out: bool = True) -> None:
        p.add_argument("--pretty", action="store_true", help="indent JSON output")
        if out:
            p.add_argument("--out", help="write the result to this path instead of stdout")

    p = sub.add_parser("simulate", help="first-chunk latency breakdown and pipeline timeline")
    p.add_argument("--timing", required=True, help="preset (table7b, ...) or path of a {\"stages\": [timing/v1 ...]} JSON document")
    p.add_argument("--R", type=int, required=True, help="fused representations per read block")
    p.add_argument("--W", type=int, required=True, help="speech tokens per write block")
    p.add_argument("--n-text", type=int, help="planned fused-representation count (default: R)")
    p.add_argument("--m-speech", type=int, help="planned speech-token count (default: W)")
    p.add_argument("--timeline", help="also write per-chunk timeline records (JSONL) here")
    common(p)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("calibrate", help="least-squares affine fit of stage measurements")
    p.add_argument("--points", required=True, help="JSON file: list of [token_count, ms] pairs")
    p.add_argument("--stage", default=pipeline.STAGE_LLM, choices=list(pipeline.STAGES))
    common(p)
    p.set_defaults(handler=_cmd_calibrate)

    p = sub.add_parser("schedule", help="materialize a read/write action sequence")
    p.add_argument("--N", type=int, required=True, help="fused-representation count")
    p.add_argument("--M", type=int, required=True, help="speech-token count")
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--W", type=int, required=True)
    p.add_argument("--format", choices=["text", "records"], default="text")
    common(p)
    p.set_defaults(handler=_cmd_schedule)

    p = sub.add_parser("train-toy", help="train the reference predictor on (C, Y) pairs")
    p.add_argument("--dataset", help="fused-pairs JSONL; omit to generate a copy task")
    p.add_argument("--copy-samples", type=int, default=48, help="copy-task sample count")
    p.add_argument("--seq-len", type=int, default=6)
    p.add_argument("--alphabet", type=int, default=8)
    p.add_argument("--text-size", type=int, default=0, help="text vocab size for --dataset mode")
    p.add_argument("--speech-size", type=int, default=ttslm.DEFAULT_SPEECH_SIZE)
    p.add_argument("--R", type=int, default=1)
    p.add_argument("--W", type=int, default=1)
    p.add_argument("--epochs", type=int, default=40)
    p.add_argument("--lr", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--params-out", help="write trained parameters (tensors-v1 format)")
    common(p)
    p.set_defaults(handler=_cmd_train_toy)

    p = sub.add_parser("eval", help="aggregate WER / QA / latency records into a report")
    p.add_argument("--wer", help="wer-item JSONL path")
    p.add_argument("--qa", help="qa-item JSONL path")
    p.add_argument("--latency", help="latency-breakdown JSONL path")
    p.add_argument("--rows-out", help="also write per-item + corpus rows as JSONL here")
    common(p)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("datagen", help="synthesize a stub dialogue corpus")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--response-voice", default=datagen.DEFAULT_RESPONSE_VOICE)
    common(p)
    p.set_defaults(handler=_cmd_datagen)

    p = sub.add_parser("validate-config", help="check an engine config document")
    p.add_argument("config", help="engine-config JSON path")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(handler=_cmd_validate_config)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
