"""The benchmark workloads: input generation, one operation, output checks.

Every workload is a closed loop from one caller: operation ``k + 1`` starts
when operation ``k`` returns.  ``build`` makes all inputs from the seed (and
initialises the models); ``run`` performs operation ``k`` inside the timed
window and returns its timings plus the raw outputs; ``check`` verifies those
outputs afterwards, outside the timed window.  Operations pick their inputs
in a fixed cycle (``cycle`` operations), so every run covers the same mix,
and every ``period`` operations have the same composition.

Each timing is filed under the key of the unit of work it measures: units
with one key do the same work, on the same content or on different content
of the same shape (a decode session's chunk ``i`` at one slot of the cycle,
one ``eval`` of one file).  The run keeps each
key's fastest repeat, and the metrics are taken over those, each key counted
as often as it occurs in a period.  Load from outside the process (other
tenants of a shared host) only ever slows an operation, for seconds at a
time, so the fastest of many repeats is the steadiest estimate of the
program's own cost.

All calls into the program go through module attributes (``sv.ttslm.x``) so
that the traced run's wrappers see them.

Timings reported per operation, each with its key:
- ``first_ms``: latency to the first output of a unit of work, if the
  operation produces one;
- ``steps_ms``: latencies of later outputs;
- ``work``: work completed (speech tokens or CLI calls) and the seconds it
  took.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

SWEEP_7B = ((1, 5), (2, 10), (3, 10), (3, 15), (4, 15), (5, 20))  # measured (R, W) sweep
MODES = ("greedy", "sampled")
# Length stratum of each session position in a decode cycle: every (R, W)
# gets one short and one long session, greedy the even strata, sampled the odd.
N_STRATA = (0, 2, 4, 6, 8, 10, 11, 9, 7, 5, 3, 1)
MASK_LOGIT = -1e9
STAGES = ("llm", "tts", "fm_voc")


@dataclass
class Inputs:
    data: dict  # everything generated from the seed; hashed by the self-check
    work: Path | None = None  # scratch directory for file-based operations


@dataclass
class Timing:
    first_ms: list[tuple] = field(default_factory=list)  # (key, ms)
    steps_ms: list[tuple] = field(default_factory=list)  # (key, ms)
    work: list[tuple] = field(default_factory=list)  # (key, work units, seconds)
    extra: dict = field(default_factory=dict)  # named sums for the per-workload aliases


def _fusion_stack(sv, rng, d_in: int, d: int, hidden: int = 16):
    ffn = sv.numerics.FfnParams(
        rng.standard_normal((hidden, d_in)) / math.sqrt(d_in),
        0.1 * rng.standard_normal(hidden),
        rng.standard_normal((d, hidden)) / math.sqrt(hidden),
        0.1 * rng.standard_normal(d),
    )
    gate = sv.numerics.GateParams(
        rng.standard_normal((d, 2 * d)) / math.sqrt(2 * d), 0.1 * rng.standard_normal(d)
    )
    return ffn, gate


# ---------------------------------------------------------------------------


class StreamDecode:
    """Back-to-back streaming sessions on the paper's inference path."""

    name = "stream_decode"
    cycle = len(SWEEP_7B) * len(MODES)
    period = cycle
    params = {
        "sweep": SWEEP_7B,
        "modes": MODES,
        "text_size": 64,
        "speech_size": 6561,
        "fused_dim": 8,
        "hidden_in": 16,
        "n_text": "log-uniform in [2R, 600]: the 12 stratum midpoints, one per session of a cycle",
        "pool": 24 * 12,
    }

    def build(self, sv, seed: int, work: Path) -> Inputs:
        p = self.params
        rng = np.random.default_rng([seed % 2**63, 1])
        vocab = sv.ttslm.ExtendedVocab(text_size=p["text_size"], speech_size=p["speech_size"])
        predictor = sv.ttslm.init_predictor(
            vocab, p["fused_dim"], emb_dim=p["fused_dim"], hidden_dim=16, rng=rng
        )
        # Text and end-of-speech can never win, so each session emits exactly M tokens.
        bias = predictor.out_bias.copy()
        bias[: vocab.text_size] = MASK_LOGIT
        bias[vocab.eos_id] = MASK_LOGIT
        predictor = predictor.replace({**predictor.arrays(), "out_bias": bias})
        ffn, gate = _fusion_stack(sv, rng, p["hidden_in"], p["fused_dim"])
        sessions = []
        for k in range(p["pool"]):
            r, w = SWEEP_7B[k % len(SWEEP_7B)]
            # One session per length stratum (at its log-midpoint) in every cycle,
            # so that all cycles cost the same and differ only in content.
            u = (N_STRATA[k % self.cycle] + 0.5) / self.cycle
            low, high = math.log(2 * r), math.log(600)
            n = int(round(math.exp(low + u * (high - low))))
            sessions.append({
                "R": r,
                "W": w,
                "N": n,
                "M": -(-n // r) * w,
                "mode": MODES[(k // len(SWEEP_7B)) % len(MODES)],
                "sample_seed": int(rng.integers(2**31)),
                "hidden": rng.standard_normal((n, p["hidden_in"])),
                "text": rng.integers(p["text_size"], size=n),
            })
        points = {stage: sv.pipeline.calibration_points(stage) for stage in STAGES}
        return Inputs({"predictor": predictor, "ffn": ffn, "gate": gate,
                       "sessions": sessions, "points": points})

    def run(self, sv, inp: Inputs, k: int, wrap):
        d = inp.data
        s = d["sessions"][k % len(d["sessions"])]
        slot = k % self.period  # same R, W, N and mode at every repeat
        text_size = d["predictor"].vocab.text_size
        policy = sv.schedule.SchedulePolicy(s["R"], s["W"])
        config = sv.ttslm.DecodeConfig(mode=s["mode"], max_tokens=s["M"], seed=s["sample_seed"])
        stamps: list[float] = []

        def fused_rows():
            # Fusion runs here, on the critical path, one row per pull.
            for i in range(s["N"]):
                if i % s["R"] == 0:
                    stamps.append(perf_counter())
                yield sv.ttslm.fused_representations(
                    d["ffn"], d["gate"], d["predictor"].token_emb,
                    s["hidden"][i : i + 1], s["text"][i : i + 1],
                )[0]

        start = perf_counter()
        result = sv.ttslm.decode_stream(fused_rows(), policy, wrap(d["predictor"]), config)
        decoded = perf_counter()
        latents, codec_s = [], []
        for b in range(0, len(result.tokens), s["W"]):
            t = perf_counter()
            latents += [sv.fsq.dequantize(sv.fsq.index_to_code(tok - text_size))
                        for tok in result.tokens[b : b + s["W"]]]
            codec_s.append(perf_counter() - t)
        t = perf_counter()
        fits = {st: sv.pipeline.calibrate_affine(d["points"][st], st)[0] for st in STAGES}
        timings = sv.pipeline.StageTimings(llm=fits["llm"], tts=fits["tts"], fm_voc=fits["fm_voc"])
        timeline = sv.pipeline.simulate_stream(
            sv.pipeline.ScenarioConfig(policy, s["N"], s["M"]), timings
        )
        breakdown = sv.pipeline.first_chunk_latency(timings, policy)
        end = perf_counter()
        # The session's time in consecutive parts of about a chunk each, so
        # that each part can take its fastest repeat: decode up to the first
        # read block, each read block, the last block's writes, each chunk's
        # codec, and the planning.
        parts = [((slot, "open"), stamps[0] - start)]
        parts += [((slot, "block", i), gap) for i, gap in enumerate(np.diff(stamps))]
        parts += [((slot, "close"), decoded - stamps[-1])]
        parts += [((slot, "codec", i), gap) for i, gap in enumerate(codec_s)]
        parts += [((slot, "plan"), end - t)]
        timing = Timing(
            first_ms=[(slot, (stamps[1] - start) * 1e3)],
            steps_ms=[((slot, i), ms) for i, ms in enumerate(np.diff(stamps) * 1e3)],
            # The session's tokens are booked on its first part.
            work=[(key, len(result.tokens) if i == 0 else 0, gap) for i, (key, gap) in enumerate(parts)],
            extra={"speech_tokens": len(result.tokens), "session_s": end - start},
        )
        return timing, (s, result, latents, timeline, breakdown)

    def check(self, sv, inp: Inputs, k: int, out, timing: Timing) -> list[str]:
        s, result, latents, timeline, breakdown = out
        vocab = inp.data["predictor"].vocab
        problems = []
        try:
            sv.schedule.validate_sequence(
                result.trace, s["N"], s["M"], sv.schedule.SchedulePolicy(s["R"], s["W"])
            )
        except ValueError as exc:
            problems.append(f"decode trace: {exc}")
        if len(result.tokens) != s["M"]:
            problems.append(f"emitted {len(result.tokens)} tokens, expected {s['M']}")
        if any(vocab.kind(t) != "speech" for t in result.tokens):
            problems.append("emitted a token that is not of speech kind")
        if result.reps_read != s["N"]:
            problems.append(f"reps_read {result.reps_read} != N {s['N']}")
        if any(lat.shape != (8,) or not np.all(np.isfinite(lat)) for lat in latents):
            problems.append("codec produced a malformed latent")
        if len(timeline.chunks) != -(-s["M"] // s["W"]):
            problems.append("timeline chunk count does not cover M tokens")
        if not math.isclose(timeline.first_chunk_completion_ms, breakdown.total_ms, rel_tol=1e-12):
            problems.append("simulated first chunk differs from first_chunk_latency")
        return problems

    @staticmethod
    def aliases(extra: dict, summary: dict) -> dict:
        return {
            "first_chunk_ms_p50": (summary["first_ms_p50"], "ms"),
            "first_chunk_ms_p90": (summary["first_ms_p90"], "ms"),
            "chunk_ms_p50": (summary["step_ms_p50"], "ms"),
            "chunk_ms_p90": (summary["step_ms_p90"], "ms"),
            "chunk_ms_p99": (summary["step_ms_p99"], "ms"),
            "speech_tokens_per_s": (extra["speech_tokens"] / extra["session_s"], "1/s"),
        }


# ---------------------------------------------------------------------------


_WORD = re.compile(r"[a-z0-9]+")


def reference_distance(ref: list[int], hyp: list[int]) -> int:
    """Levenshtein distance by rows, the insertion chain solved as a running minimum.

    Kept independent of the program's own dynamic program, as the oracle for ``eval``.
    """
    hyp = np.asarray(hyp)
    cols = np.arange(len(hyp) + 1)
    prev = cols.copy()
    for i, token in enumerate(ref, start=1):
        best = np.empty_like(prev)
        best[0] = i
        best[1:] = np.minimum(prev[:-1] + (hyp != token), prev[1:] + 1)
        prev = np.minimum.accumulate(best - cols) + cols
    return int(prev[-1])


class CliBatch:
    """In-process CLI calls in a fixed cycle: datagen, eval, calibrate x3, schedule, simulate."""

    name = "cli_batch"
    kinds = ("datagen", "eval", "calibrate_llm", "calibrate_tts", "calibrate_fm_voc", "schedule", "simulate")
    cycle = len(kinds)
    period = 6 * cycle  # every (R, W) of the sweep and every eval file once
    params = {
        "datagen_count": 500,
        "wer_files": 3,
        "wer_items": 2,
        "wer_words": 400,
        "edit_rate": 0.1,
        "sim_speech_tokens": 10000,
        "schedule_speech_tokens": 1000,
        "sweep": SWEEP_7B,
        "pool": 10 * 6,
    }

    def build(self, sv, seed: int, work: Path) -> Inputs:
        p = self.params
        rng = np.random.default_rng([seed % 2**63, 3])
        words_needed = p["wer_files"] * p["wer_items"] * p["wer_words"]
        dialogues = sv.datagen.generate_corpus(words_needed // 20, int(rng.integers(2**31)))
        text = " ".join(f"{i} {r}" for d in dialogues for i, r in d.turns)
        # Cut the punctuated transcript at word boundaries of the normalised form.
        spans = [m.span() for m in _WORD.finditer(text.lower())]
        if len(spans) < words_needed:
            raise ValueError(f"corpus has {len(spans)} words, {words_needed} needed")
        vocab = sorted({text[a:b].lower() for a, b in spans})
        wer_files = []
        cursor = 0
        for _ in range(p["wer_files"]):
            items = []
            for _ in range(p["wer_items"]):
                chunk = spans[cursor : cursor + p["wer_words"]]
                cursor += p["wer_words"]
                reference = text[chunk[0][0] : chunk[-1][1]]
                ref_words = [text[a:b].lower() for a, b in chunk]
                hyp_words = []
                for word in ref_words:
                    u = rng.random()
                    edit = int(rng.integers(3))
                    if u >= p["edit_rate"]:
                        hyp_words.append(word)
                    elif edit == 0:
                        hyp_words.append(vocab[int(rng.integers(len(vocab)))])
                    elif edit == 1:
                        hyp_words += [word, vocab[int(rng.integers(len(vocab)))]]
                items.append({"reference": reference, "hypothesis": " ".join(hyp_words),
                              "ref_words": ref_words, "hyp_words": hyp_words})
            wer_files.append(items)
        cycles = []
        for c in range(p["pool"]):
            r, w = SWEEP_7B[c % len(SWEEP_7B)]
            m = p["sim_speech_tokens"]
            ms = p["schedule_speech_tokens"]
            cycles.append({"datagen_seed": int(rng.integers(2**31)), "R": r, "W": w,
                           "m_speech": m, "n_text": -(-m // w) * r,
                           "schedule_m": ms, "schedule_n": -(-ms // w) * r})
        points = {stage: [list(pt) for pt in sv.pipeline.calibration_points(stage)] for stage in STAGES}
        inp = Inputs({"wer_files": wer_files, "cycles": cycles, "points": points}, work)
        for i, items in enumerate(wer_files):
            rows = [{"schema": "wer-item/v1", "reference": it["reference"],
                     "hypothesis": it["hypothesis"]} for it in items]
            (work / f"wer_{i}.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
        for stage, pts in points.items():
            (work / f"points_{stage}.json").write_text(json.dumps(pts))
        return inp

    def _argv(self, inp: Inputs, k: int) -> list[str]:
        d, w = inp.data, inp.work
        c = d["cycles"][(k // self.cycle) % len(d["cycles"])]
        kind = self.kinds[k % self.cycle]
        if kind == "datagen":
            return ["datagen", "--count", str(self.params["datagen_count"]),
                    "--seed", str(c["datagen_seed"]), "--out", str(w / "corpus.jsonl")]
        if kind == "eval":
            wer = w / f"wer_{(k // self.cycle) % len(d['wer_files'])}.jsonl"
            return ["eval", "--wer", str(wer), "--rows-out", str(w / "rows.jsonl"),
                    "--out", str(w / "report.json")]
        if kind.startswith("calibrate_"):
            stage = kind[len("calibrate_"):]
            return ["calibrate", "--points", str(w / f"points_{stage}.json"), "--stage", stage,
                    "--out", str(w / f"calibrated_{stage}.json")]
        if kind == "schedule":
            return ["schedule", "--N", str(c["schedule_n"]), "--M", str(c["schedule_m"]), "--R", str(c["R"]),
                    "--W", str(c["W"]), "--format", "records", "--out", str(w / "schedule.json")]
        return ["simulate", "--timing", str(w / "timing.json"), "--R", str(c["R"]),
                "--W", str(c["W"]), "--n-text", str(c["n_text"]), "--m-speech", str(c["m_speech"]),
                "--timeline", str(w / "timeline.jsonl"), "--out", str(w / "breakdown.json")]

    def run(self, sv, inp: Inputs, k: int, wrap):
        kind = self.kinds[k % self.cycle]
        if kind == "simulate":
            # The timing set is the three models the calibrate calls just wrote.
            stages = [json.loads((inp.work / f"calibrated_{st}.json").read_text())["model"]
                      for st in STAGES]
            (inp.work / "timing.json").write_text(json.dumps({"stages": stages}))
        argv = self._argv(inp, k)
        start = perf_counter()
        code = sv.cli.main(argv)
        seconds = perf_counter() - start
        key = self._unit(inp, k)
        timing = Timing(work=[(key, 1, seconds)], extra={f"{kind}_s": seconds})
        if kind == "datagen":
            timing.first_ms.append((key, seconds * 1e3))
        else:
            timing.steps_ms.append((key, seconds * 1e3))
        return timing, (kind, code)

    def _unit(self, inp: Inputs, k: int) -> tuple:
        """Calls with one key do the same work: the same file, stage or (R, W),
        or a corpus of the same size."""
        kind = self.kinds[k % self.cycle]
        c = inp.data["cycles"][(k // self.cycle) % len(inp.data["cycles"])]
        if kind == "eval":
            return (kind, (k // self.cycle) % len(inp.data["wer_files"]))
        if kind in ("schedule", "simulate"):
            return (kind, c["R"], c["W"])
        return (kind,)

    def check(self, sv, inp: Inputs, k: int, out, timing: Timing) -> list[str]:
        kind, code = out
        if code != 0:
            return [f"{kind}: exit code {code}"]
        d, w = inp.data, inp.work
        c = d["cycles"][(k // self.cycle) % len(d["cycles"])]
        if kind == "datagen":
            corpus = sv.datagen.read_corpus(w / "corpus.jsonl")
            if len(corpus) != self.params["datagen_count"]:
                return [f"datagen wrote {len(corpus)} dialogues"]
            timing.extra["datagen_turns"] = sum(len(dlg.turns) for dlg in corpus)
            return []
        if kind == "eval":
            items = d["wer_files"][(k // self.cycle) % len(d["wer_files"])]
            report = json.loads((w / "report.json").read_text())
            expected = self._expected_wer(items)
            ref_tokens = sum(len(it["ref_words"]) for it in items)
            timing.extra["wer_ref_tokens"] = ref_tokens
            rows = (w / "rows.jsonl").read_text().splitlines()
            if report["per_item_wer"] != expected or report["total_reference_tokens"] != ref_tokens:
                return ["eval WER disagrees with the reference dynamic program"]
            if len(rows) != len(items) + 1:
                return [f"eval wrote {len(rows)} rows for {len(items)} items"]
            return []
        if kind.startswith("calibrate_"):
            stage = kind[len("calibrate_"):]
            model = json.loads((w / f"calibrated_{stage}.json").read_text())["model"]
            counts, costs = np.asarray(d["points"][stage], dtype=float).T
            slope, intercept = np.polyfit(counts, costs, 1)
            if not (math.isclose(model["per_token_ms"], slope, rel_tol=1e-9, abs_tol=1e-9)
                    and math.isclose(model["intercept_ms"], intercept, rel_tol=1e-9, abs_tol=1e-9)):
                return [f"calibrate {stage}: fit differs from least squares"]
            return []
        if kind == "schedule":
            actions = sv.schedule.actions_from_records(
                json.loads((w / "schedule.json").read_text())["actions"])
            try:
                sv.schedule.validate_sequence(actions, c["schedule_n"], c["schedule_m"],
                                              sv.schedule.SchedulePolicy(c["R"], c["W"]))
            except ValueError as exc:
                return [f"schedule: {exc}"]
            return []
        breakdown = json.loads((w / "breakdown.json").read_text())
        chunks = [json.loads(line) for line in (w / "timeline.jsonl").read_text().splitlines()]
        timing.extra["sim_speech_tokens"] = c["m_speech"]
        if len(chunks) != -(-c["m_speech"] // c["W"]) or chunks[-1]["token_end"] != c["m_speech"]:
            return ["simulate timeline does not cover the planned speech tokens"]
        first = max(end for _, end in chunks[0]["stages"].values())
        if not math.isclose(first, breakdown["total_ms"], rel_tol=1e-12):
            return ["simulated first chunk differs from first_chunk_latency"]
        return []

    @staticmethod
    @functools.cache
    def _wer_oracle(ref_words: tuple, hyp_words: tuple) -> float:
        index = {word: i for i, word in enumerate(set(ref_words + hyp_words))}
        distance = reference_distance([index[x] for x in ref_words], [index[x] for x in hyp_words])
        return distance / len(ref_words)

    def _expected_wer(self, items: list[dict]) -> list[float]:
        """Per-item WER by the independent dynamic program, once per item and run."""
        return [self._wer_oracle(tuple(it["ref_words"]), tuple(it["hyp_words"])) for it in items]

    @staticmethod
    def aliases(extra: dict, summary: dict) -> dict:
        return {
            "datagen_turns_per_s": (extra["datagen_turns"] / extra["datagen_s"], "1/s"),
            "wer_ref_tokens_per_s": (extra["wer_ref_tokens"] / extra["eval_s"], "1/s"),
            "sim_speech_tokens_per_s": (extra["sim_speech_tokens"] / extra["simulate_s"], "1/s"),
        }


WORKLOADS = {w.name: w for w in (StreamDecode(), CliBatch())}
