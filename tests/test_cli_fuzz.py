"""Fuzz ``cli.main`` over argv built from the real parser and over input files
built from a recursive JSON strategy.

Every run must return an exit code in {0, 1, 2, 3} with no exception
escaping.  A failure in a handler (exit 1 or 3) prints exactly one
``error:`` line; argparse's own failures (exit 2) print its usage and one
error line.  ``validate-config`` reports violations on stdout, so its exit 1
may leave stderr empty.  An input file that holds NaN or an infinity never
gives exit 0.  Integers stay small so that a run takes
milliseconds: the fuzz looks for unchecked values, not for scale.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from streamvox.cli import build_parser, main

SUBCOMMANDS = next(
    a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
).choices

# Field names and string values the record parsers look for, so that drawn
# documents often get past the first check.
KEYS = (
    "schema", "stages", "stage", "form", "points", "intercept_ms", "per_token_ms", "policy", "read_block",
    "write_block", "timing", "seed", "reference", "hypothesis", "response", "answers", "judge_score", "mos",
    "fused", "tokens", "llm_ms", "total_ms",
)
WORDS = (
    "timing/v1", "wer-item/v1", "qa-item/v1", "fused-pairs/v1", "latency-breakdown/v1", "engine-config/v1",
    "llm", "tts", "fm", "voc", "fm_voc", "lookup", "affine", "a b", "",
)

scalars = (
    st.none() | st.booleans() | st.integers() | st.integers(-2, 12) | st.floats()
    | st.sampled_from(WORDS) | st.text(max_size=4)
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner, max_size=5),
    max_leaves=24,
)


def mostly(strategy, one_in=10):
    """``strategy``, except one time in ``one_in`` any JSON value."""
    return st.integers(1, one_in).flatmap(lambda k: json_values if k == 1 else strategy)


@st.composite
def record(draw, **fields):
    """An object with these fields, each value mostly from its own strategy;
    now and then one field is left out."""
    drop = draw(st.sampled_from([*fields, *[None] * 24 * len(fields)]))
    return {k: draw(mostly(v, 25)) for k, v in fields.items() if k != drop}


small = st.integers(1, 30)
cost = st.floats(0, 500) | st.integers(0, 500)
points = st.lists(st.tuples(small, cost).map(list), min_size=1, max_size=4)


def stage_row(stage):
    return record(
        schema=st.just("timing/v1"), stage=stage, form=st.sampled_from(("affine", "affine", "lookup")),
        points=points, intercept_ms=cost, per_token_ms=cost,
    )


STAGE_SETS = [("llm", "tts", "fm_voc"), ("llm", "tts", "fm", "voc"), ("tts", "llm", "voc", "fm")]
stage_lists = st.sampled_from(STAGE_SETS).flatmap(
    lambda names: st.tuples(*map(stage_row, map(st.just, names))).map(list)
) | st.lists(stage_row(st.sampled_from(("llm", "tts", "fm", "voc", "fm_voc"))), max_size=5)
timing_doc = record(stages=stage_lists)
sentence = st.lists(st.sampled_from(("the", "cat", "sat", "Paris", "is", "?")), max_size=5).map(" ".join)


def jsonl(row):
    return st.lists(mostly(row), min_size=1, max_size=3)


def document(doc):
    return mostly(doc).map(lambda d: [d])


# What a file named by each input option holds: mostly its own schema, as one
# JSON document or as JSONL rows, and sometimes any JSON value.
CONTENT = {
    "timing": document(timing_doc),
    "points": document(points),
    "config": document(record(
        policy=record(read_block=small, write_block=small), timing=timing_doc, seed=st.integers(-1, 9)
    )),
    "wer": jsonl(record(schema=st.just("wer-item/v1"), reference=sentence, hypothesis=sentence)),
    "qa": jsonl(record(
        schema=st.just("qa-item/v1"), response=sentence, answers=st.lists(sentence, max_size=2),
        judge_score=cost, mos=cost,
    )),
    "dataset": jsonl(record(
        schema=st.just("fused-pairs/v1"), tokens=st.lists(st.integers(0, 12), max_size=4),
        fused=st.integers(1, 3).flatmap(
            lambda d: st.lists(st.lists(st.floats(-2, 2), min_size=d, max_size=d), min_size=1, max_size=4)
        ),
    )),
    "latency": jsonl(record(
        schema=st.just("latency-breakdown/v1"), total_ms=cost | st.sampled_from([math.nan, math.inf, -math.inf]),
    )),
}
PRESETS = ("table7b", "table0.5b")
# Any other file, an output path among them, holds one of these.
documents = json_values | timing_doc | points


@st.composite
def option_value(draw, action: argparse.Action, files: dict):
    """Mostly well-typed values, about one in sixteen malformed.  A string
    option names a file holding drawn content, or a path that does not exist
    yet (an output, or a missing input), or for ``--timing`` a preset."""
    if action.choices is not None:
        return draw(st.sampled_from(list(action.choices) * 8 + ["bogus"]))
    if action.type is int:
        return draw(st.integers(-3, 12).map(lambda v: "x" if v == -3 else str(v)))
    if action.type is float:
        return draw(st.floats(-4, 4).map(repr) | st.sampled_from(["nan", "inf", "-inf", "1e308"]))
    kind = draw(st.sampled_from(["file"] * 3 + ["fresh"] + (["preset"] if action.dest == "timing" else [])))
    if kind == "preset":
        return draw(st.sampled_from(PRESETS))
    if kind == "file":
        files[action.dest] = "".join(json.dumps(d) + "\n" for d in draw(CONTENT.get(action.dest, document(documents))))
    return f"@{action.dest}"



def holds_non_finite(text: str) -> bool:
    """Whether JSON lines written by ``json.dumps`` hold NaN or an infinity."""
    found: list = []
    for line in text.splitlines():
        json.loads(line, parse_constant=found.append)
    return bool(found)


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv, files = [command], {}
    for action in SUBCOMMANDS[command]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if not action.required and action.option_strings and not draw(st.booleans()):
            continue
        if isinstance(action, argparse._StoreTrueAction):
            argv.append(action.option_strings[0])
        elif action.option_strings:
            argv += [action.option_strings[0], draw(option_value(action, files))]
        else:
            argv.append(draw(option_value(action, files)))
    return argv, files


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=invocations())
def test_cli_never_escapes(case) -> None:
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, text in files.items():
            (work / name).write_text(text, encoding="utf-8")
        resolved = [str(work / a[1:]) if a.startswith("@") else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(resolved)
        out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), (argv, code)
    if any(holds_non_finite(text) for name, text in files.items() if name in CONTENT):
        assert code != 0, (argv, files)
    lines = err.splitlines()
    if code == 0:
        assert err == "", (argv, err)
    elif code == 2:
        assert sum(": error: " in line for line in lines) == 1 and lines[-1].count(": error: ") == 1, (argv, err)
    elif argv[0] == "validate-config" and code == 1 and out:
        assert err == "" and json.loads(out)["ok"] is False, (argv, out, err)
    else:
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
