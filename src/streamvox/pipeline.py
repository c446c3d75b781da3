"""Four-stage streaming pipeline: latency decomposition, simulation, calibration.

The pipeline is LLM -> speech-token LM (TTS) -> flow matching (FM) ->
vocoder (VOC).  Under a read/write policy with block sizes (R, W), the first
audible chunk costs::

    total = llm(R) + tts(W) + fm(W) + voc(2 * W)

where the vocoder consumes mel frames at twice the speech-token rate (50 Hz
vs 25 Hz).  FM and VOC are often measured jointly; a combined model evaluated
at W is supported for that case.

Stage timing semantics
----------------------
A stage model maps a token count to milliseconds, either as a lookup table or
an affine curve ``intercept + per_token * count``.  The LLM and TTS stages are
autoregressive, so their models are *cumulative* latency curves: the cost of
chunk j is the difference between the curve at the cumulative count through
chunk j and through chunk j - 1.  FM and VOC process each chunk independently
and are evaluated at the chunk's own size.  Beyond the first chunk the
simulator applies per-stage FIFO pipelining (stage s of chunk j starts when
both stage s-1 of chunk j and stage s of chunk j-1 have finished); that
extension is this module's convention, not a measured behavior.

``FIRST_CHUNK_MEASUREMENTS`` bundles reference measurements of a production
modular speech assistant at five LLM scales (0.5B-14B, single L40 GPU),
including a read/write sweep at the 7B scale.  They drive the calibration
demos and the regression tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .fsq import SPEECH_TOKENS_PER_SECOND
from .records import finite_nonneg, positive_int, prefixed
from .schedule import SchedulePolicy

STAGE_LLM = "llm"
STAGE_TTS = "tts"
STAGE_FM = "fm"
STAGE_VOC = "voc"
STAGE_FM_VOC = "fm_voc"
STAGES = (STAGE_LLM, STAGE_TTS, STAGE_FM, STAGE_VOC, STAGE_FM_VOC)

MEL_FRAMES_PER_TOKEN = 2
DEFAULT_SAMPLE_RATE = 24000


@dataclass(frozen=True)
class StageTimingModel:
    """Cost model for one stage: lookup table or affine in the token count."""

    stage: str
    points: tuple[tuple[int, float], ...] | None = None
    intercept_ms: float | None = None
    per_token_ms: float | None = None

    def __post_init__(self) -> None:
        if self.stage not in STAGES:
            raise ValueError(f"unknown stage {self.stage!r}, expected one of {STAGES}")
        is_lookup = self.points is not None
        is_affine = self.intercept_ms is not None or self.per_token_ms is not None
        if is_lookup == is_affine:
            raise ValueError("exactly one of lookup points or affine coefficients required")
        if is_lookup:
            # Count 0 is free by convention (see cost_ms), so a table never holds it.
            points = [parse_point(f"stage {self.stage!r} lookup", p) for p in self.points]
            counts = [c for c, _ in points]
            if len(set(counts)) != len(counts):
                raise ValueError(f"duplicate counts in lookup table for stage {self.stage!r}")
            object.__setattr__(self, "points", tuple(sorted(points)))
        else:
            if self.intercept_ms is None or self.per_token_ms is None:
                raise ValueError("affine form needs both intercept_ms and per_token_ms")
            finite_nonneg(f"stage {self.stage!r} intercept_ms", self.intercept_ms)
            finite_nonneg(f"stage {self.stage!r} per_token_ms", self.per_token_ms)

    @classmethod
    def lookup(cls, stage: str, table: Mapping[int, float]) -> "StageTimingModel":
        return cls(stage=stage, points=tuple(table.items()))

    @classmethod
    def affine(cls, stage: str, intercept_ms: float, per_token_ms: float) -> "StageTimingModel":
        return cls(stage=stage, intercept_ms=intercept_ms, per_token_ms=per_token_ms)

    def cost_ms(self, count: int) -> float:
        """Latency at ``count`` tokens; count 0 is free by convention."""
        if count < 0:
            raise ValueError(f"token count must be >= 0, got {count}")
        if count == 0:
            return 0.0
        if self.points is not None:
            if count not in self._costs:
                raise KeyError(f"stage {self.stage!r} lookup has no entry for count {count}")
            return self._costs[count]
        return float(self.intercept_ms + self.per_token_ms * count)

    @cached_property
    def _costs(self) -> dict[int, float]:
        """The lookup table's cost by count."""
        return {c: float(cost) for c, cost in self.points}

    def to_record(self) -> dict:
        record: dict = {"schema": "timing/v1", "stage": self.stage}
        if self.points is not None:
            record["form"] = "lookup"
            record["points"] = [[c, cost] for c, cost in self.points]
        else:
            record["form"] = "affine"
            record["intercept_ms"] = self.intercept_ms
            record["per_token_ms"] = self.per_token_ms
        return record

    @classmethod
    def from_record(cls, record: Mapping) -> "StageTimingModel":
        """Parse one ``timing/v1`` record; a missing field reads as None, a
        missing ``schema`` as ``timing/v1``."""
        if not isinstance(record, Mapping):
            raise ValueError(f"timing record must be an object, got {record!r}")
        if record.get("schema", "timing/v1") != "timing/v1":
            raise ValueError(f"schema {record['schema']!r}, expected 'timing/v1'")
        if record.get("form") == "lookup":
            points = record.get("points")
            if not isinstance(points, list):
                raise ValueError(f"lookup points must be a list, got {points!r}")
            return cls(stage=record.get("stage"), points=tuple(tuple(p) if isinstance(p, list) else p for p in points))
        if record.get("form") == "affine":
            return cls.affine(record.get("stage"), record.get("intercept_ms"), record.get("per_token_ms"))
        raise ValueError(f"unknown timing form {record.get('form')!r}")


def parse_point(name: str, point) -> tuple[int, float]:
    """One ``[count, cost]`` point of a lookup table or a calibration set:
    count an int >= 1, cost finite and >= 0, neither a bool.  Errors start
    with ``name``."""
    if not (isinstance(point, (tuple, list)) and len(point) == 2):
        raise ValueError(f"{name} point must be a [count, cost] pair, got {point!r}")
    count = positive_int(f"{name} count", point[0])
    return count, finite_nonneg(f"{name} cost at count {count}", point[1])


@dataclass(frozen=True)
class StageTimings:
    """Stage models for one pipeline: either separate FM and VOC models or a
    combined FM+VOC model evaluated at the chunk's token count."""

    llm: StageTimingModel
    tts: StageTimingModel
    fm: StageTimingModel | None = None
    voc: StageTimingModel | None = None
    fm_voc: StageTimingModel | None = None

    def __post_init__(self) -> None:
        separate = self.fm is not None and self.voc is not None
        combined = self.fm_voc is not None
        if separate == combined:
            raise ValueError("supply either fm and voc models, or a combined fm_voc model")

    @property
    def synthesis_stages(self) -> tuple[str, ...]:
        return (STAGE_FM, STAGE_VOC) if self.fm_voc is None else (STAGE_FM_VOC,)

    def synthesis_cost_ms(self, write_count: int) -> tuple[float, float | None, float | None]:
        """(total, fm, voc) cost of synthesizing one chunk of ``write_count``
        tokens; fm/voc are None under a combined model."""
        if self.fm_voc is not None:
            return self.fm_voc.cost_ms(write_count), None, None
        fm = self.fm.cost_ms(write_count)
        voc = self.voc.cost_ms(mel_frames(write_count))
        return fm + voc, fm, voc

    def to_records(self) -> list[dict]:
        models = [self.llm, self.tts] + (
            [self.fm_voc] if self.fm_voc is not None else [self.fm, self.voc]
        )
        return [m.to_record() for m in models]

    @classmethod
    def from_record(cls, doc: Mapping) -> "StageTimings":
        """Parse a ``{"stages": [timing/v1, ...]}`` document: one model per
        stage, ``llm`` and ``tts`` required.  Errors name the field path."""
        stages = doc.get("stages") if isinstance(doc, Mapping) else None
        if not isinstance(stages, list):
            raise ValueError(f"stages must be a list in a timing object, got {doc!r}")
        by_stage: dict[str, StageTimingModel] = {}
        for i, row in enumerate(stages):
            with prefixed(f"stages[{i}]: "):
                model = StageTimingModel.from_record(row)
                if model.stage in by_stage:
                    raise ValueError(f"duplicate stage {model.stage!r}")
            by_stage[model.stage] = model
        with prefixed("stages: "):
            for stage in (STAGE_LLM, STAGE_TTS):
                if stage not in by_stage:
                    raise ValueError(f"no {stage!r} model")
            return cls(**by_stage)


@dataclass(frozen=True)
class ScenarioConfig:
    policy: SchedulePolicy
    n_text: int
    m_speech: int

    def __post_init__(self) -> None:
        positive_int("n_text", self.n_text)
        positive_int("m_speech", self.m_speech)

    def to_record(self) -> dict:
        return {
            "schema": "scenario/v1",
            "read_block": self.policy.read_block,
            "write_block": self.policy.write_block,
            "n_text": self.n_text,
            "m_speech": self.m_speech,
        }


@dataclass(frozen=True)
class LatencyBreakdown:
    """Per-stage first-chunk latency; fm_voc_ms always carries the synthesis
    side total, while fm_ms/voc_ms are filled only for separate models."""

    llm_ms: float
    tts_ms: float
    fm_voc_ms: float
    total_ms: float
    fm_ms: float | None = None
    voc_ms: float | None = None

    def to_record(self) -> dict:
        return {
            "schema": "latency-breakdown/v1",
            "llm_ms": self.llm_ms,
            "tts_ms": self.tts_ms,
            "fm_ms": self.fm_ms,
            "voc_ms": self.voc_ms,
            "fm_voc_ms": self.fm_voc_ms,
            "total_ms": self.total_ms,
        }


@dataclass(slots=True)
class ChunkTiming:
    index: int
    token_start: int
    token_end: int
    reads_total: int
    stages: dict[str, tuple[float, float]]

    @property
    def finish_ms(self) -> float:
        return max(finish for _, finish in self.stages.values())


def chunk_line(chunk: ChunkTiming) -> str:
    """The chunk's ``timeline-chunk/v1`` record as ``records.dumps_canonical``
    writes it: keys and stage names sorted, numbers by ``repr``, which is the
    JSON text of every int and finite float (:meth:`Timeline.validate`
    rejects non-finite times)."""
    stages = ",".join([f'"{s}":[{start!r},{finish!r}]' for s, (start, finish) in sorted(chunk.stages.items())])
    return (f'{{"chunk":{chunk.index!r},"reads_total":{chunk.reads_total!r},"schema":"timeline-chunk/v1",'
            f'"stages":{{{stages}}},"token_end":{chunk.token_end!r},"token_start":{chunk.token_start!r}}}')


@dataclass
class Timeline:
    scenario: ScenarioConfig
    chunks: list[ChunkTiming] = field(default_factory=list)

    @property
    def first_chunk_completion_ms(self) -> float:
        if not self.chunks:
            raise ValueError("timeline has no chunks")
        return self.chunks[0].finish_ms

    def validate(self) -> None:
        """Check ordering invariants: stages run forward within a chunk, every
        time is finite, and within a stage chunk j never starts before chunk
        j-1 finishes.  Every chunk's own checks run before the checks across
        chunks."""
        keys = order = None
        for chunk in self.chunks:
            stages = chunk.stages
            if stages.keys() != keys:
                keys, order = stages.keys(), [s for s in STAGES if s in stages]
            for prev, cur in zip(order, order[1:]):
                if stages[cur][0] < stages[prev][1]:
                    raise ValueError(f"chunk {chunk.index}: stage {cur} starts before {prev} finishes")
            for stage, (start, finish) in stages.items():
                if not -math.inf < start <= finish < math.inf:
                    if math.isfinite(start) and math.isfinite(finish):
                        raise ValueError(f"chunk {chunk.index}: stage {stage} finishes before it starts")
                    raise ValueError(f"chunk {chunk.index}: stage {stage} time is not finite ({start!r}, {finish!r})")
        for prev, cur in zip(self.chunks, self.chunks[1:]):
            for stage in cur.stages:
                if stage in prev.stages and cur.stages[stage][0] < prev.stages[stage][1]:
                    raise ValueError(
                        f"stage {stage}: chunk {cur.index} starts before chunk {prev.index} finishes"
                    )


def first_chunk_latency(timings: StageTimings, policy: SchedulePolicy) -> LatencyBreakdown:
    """Additive first-chunk latency: llm(R) + tts(W) + synthesis(W); a total
    that overflows the float range raises ``ValueError``."""
    llm = timings.llm.cost_ms(policy.read_block)
    tts = timings.tts.cost_ms(policy.write_block)
    synth, fm, voc = timings.synthesis_cost_ms(policy.write_block)
    total = llm + tts + synth
    if not math.isfinite(total):
        raise ValueError(f"first-chunk latency is not finite: llm {llm!r} + tts {tts!r} + synthesis {synth!r} ms")
    return LatencyBreakdown(
        llm_ms=llm,
        tts_ms=tts,
        fm_voc_ms=synth,
        total_ms=total,
        fm_ms=fm,
        voc_ms=voc,
    )


def simulate_stream(scenario: ScenarioConfig, timings: StageTimings) -> Timeline:
    """Discrete-event trace of every chunk through the pipeline.

    Chunk j covers speech tokens ((j-1)W, jW] and may synthesize only after
    min(jR, N) fused representations exist.  The first chunk's completion
    time coincides with :func:`first_chunk_latency` whenever the scenario
    admits a full first read and write block.
    """
    policy = scenario.policy
    n, m = scenario.n_text, scenario.m_speech
    w = policy.write_block
    chunk_count = (m + w - 1) // w

    timeline = Timeline(scenario=scenario)
    # Cumulative llm and tts costs through chunk j-1; count 0 is free.
    llm_start = 0.0
    tts_prev = 0.0
    tts_done = 0.0
    synth_done = {stage: 0.0 for stage in timings.synthesis_stages}
    prev_tokens = 0
    for j in range(1, chunk_count + 1):
        token_end = min(j * w, m)
        chunk_tokens = token_end - prev_tokens
        reads_total = min(j * policy.read_block, n)

        llm_finish = timings.llm.cost_ms(reads_total)
        if llm_finish < llm_start:
            raise ValueError("llm timing model is not non-decreasing in the token count")

        tts_cost = timings.tts.cost_ms(token_end)
        tts_service = tts_cost - tts_prev
        if tts_service < 0:
            raise ValueError("tts timing model is not non-decreasing in the token count")
        tts_start = max(llm_finish, tts_done)
        tts_done = tts_start + tts_service

        stages = {STAGE_LLM: (llm_start, llm_finish), STAGE_TTS: (tts_start, tts_done)}
        upstream = tts_done
        if timings.fm_voc is not None:
            start = max(upstream, synth_done[STAGE_FM_VOC])
            synth_done[STAGE_FM_VOC] = start + timings.fm_voc.cost_ms(chunk_tokens)
            stages[STAGE_FM_VOC] = (start, synth_done[STAGE_FM_VOC])
        else:
            fm_start = max(upstream, synth_done[STAGE_FM])
            synth_done[STAGE_FM] = fm_start + timings.fm.cost_ms(chunk_tokens)
            stages[STAGE_FM] = (fm_start, synth_done[STAGE_FM])
            voc_start = max(synth_done[STAGE_FM], synth_done[STAGE_VOC])
            synth_done[STAGE_VOC] = voc_start + timings.voc.cost_ms(mel_frames(chunk_tokens))
            stages[STAGE_VOC] = (voc_start, synth_done[STAGE_VOC])

        timeline.chunks.append(
            ChunkTiming(
                index=j,
                token_start=prev_tokens + 1,
                token_end=token_end,
                reads_total=reads_total,
                stages=stages,
            )
        )
        llm_start = llm_finish
        tts_prev = tts_cost
        prev_tokens = token_end
    timeline.validate()
    return timeline


def calibrate_affine(
    samples: Sequence[tuple[int, float]], stage: str = STAGE_LLM
) -> tuple[StageTimingModel, float]:
    """Ordinary least squares fit of ``intercept + per_token * count``.

    Returns the fitted model and the maximum absolute residual over the
    samples, which must be finite.  Requires at least two samples with
    distinct counts; each sample is a point that :func:`parse_point` accepts,
    as in a lookup table.
    """
    if not isinstance(samples, Sequence) or len(samples) < 2:
        raise ValueError("need a list of at least two samples to fit an affine model")
    points = [parse_point(f"sample {i} ({sample!r})", sample) for i, sample in enumerate(samples)]
    counts = np.asarray([c for c, _ in points], dtype=float)
    costs = np.asarray([m for _, m in points], dtype=float)
    if np.unique(counts).size < 2:
        raise ValueError("samples are degenerate: all token counts are equal")
    design = np.vstack([np.ones_like(counts), counts]).T
    (intercept, slope), *_ = np.linalg.lstsq(design, costs, rcond=None)
    with np.errstate(over="ignore", invalid="ignore"):  # a fit near the float range is rejected below
        residual = float(np.abs(costs - (intercept + slope * counts)).max())
    if not math.isfinite(residual):
        raise ValueError(f"stage {stage!r} fit residual is not finite ({residual})")
    return StageTimingModel.affine(stage, float(intercept), float(slope)), residual


def mel_frames(write_count: int) -> int:
    """Mel frames synthesized for a chunk of speech tokens (50 Hz vs 25 Hz)."""
    if write_count < 0:
        raise ValueError(f"write_count must be >= 0, got {write_count}")
    return MEL_FRAMES_PER_TOKEN * write_count


def samples_per_chunk(write_count: int, sample_rate: int = DEFAULT_SAMPLE_RATE) -> int:
    """Audio samples covered by a chunk at the 25 Hz token rate."""
    if write_count < 0:
        raise ValueError(f"write_count must be >= 0, got {write_count}")
    if sample_rate <= 0:
        raise ValueError(f"sample_rate must be positive, got {sample_rate}")
    return round(sample_rate * write_count / SPEECH_TOKENS_PER_SECOND)


# ---------------------------------------------------------------------------
# bundled reference measurements


@dataclass(frozen=True)
class LatencyRow:
    """One measured first-chunk breakdown: stage components plus the total as
    published (totals were printed rounded, so they can differ from the
    component sum by up to 0.02 ms)."""

    scale: str
    reads: int
    writes: int
    llm_ms: float
    tts_ms: float
    fm_voc_ms: float
    published_total_ms: float


FIRST_CHUNK_MEASUREMENTS: tuple[LatencyRow, ...] = (
    LatencyRow("0.5b", 3, 10, 190.95, 165.83, 185.93, 542.71),
    LatencyRow("1.5b", 3, 10, 201.01, 165.83, 185.93, 552.76),
    LatencyRow("3b", 3, 10, 216.08, 165.83, 185.93, 567.84),
    LatencyRow("7b", 3, 10, 231.16, 165.83, 185.93, 582.91),
    LatencyRow("14b", 3, 10, 311.56, 165.83, 185.93, 663.32),
    LatencyRow("7b", 1, 5, 185.93, 85.43, 185.93, 457.29),
    LatencyRow("7b", 2, 10, 206.03, 165.83, 185.93, 557.79),
    LatencyRow("7b", 3, 10, 231.16, 165.83, 185.93, 582.91),
    LatencyRow("7b", 3, 15, 231.16, 246.23, 185.93, 663.32),
    LatencyRow("7b", 4, 15, 251.26, 246.23, 185.93, 683.42),
    LatencyRow("7b", 5, 20, 271.36, 336.68, 190.95, 798.99),
)

TIMING_SCALES = ("0.5b", "1.5b", "3b", "7b", "14b")


def row_timings(row: LatencyRow) -> StageTimings:
    """Single-entry lookup models reproducing exactly one measured row."""
    return StageTimings(
        llm=StageTimingModel.lookup(STAGE_LLM, {row.reads: row.llm_ms}),
        tts=StageTimingModel.lookup(STAGE_TTS, {row.writes: row.tts_ms}),
        fm_voc=StageTimingModel.lookup(STAGE_FM_VOC, {row.writes: row.fm_voc_ms}),
    )


def scale_timings(scale: str) -> StageTimings:
    """Lookup models merging every measured row of one LLM scale."""
    rows = [r for r in FIRST_CHUNK_MEASUREMENTS if r.scale == scale]
    if not rows:
        raise ValueError(f"unknown timing scale {scale!r}, expected one of {TIMING_SCALES}")
    llm: dict[int, float] = {}
    tts: dict[int, float] = {}
    fm_voc: dict[int, float] = {}
    for row in rows:
        for table, key, value in (
            (llm, row.reads, row.llm_ms),
            (tts, row.writes, row.tts_ms),
            (fm_voc, row.writes, row.fm_voc_ms),
        ):
            if key in table and table[key] != value:
                raise ValueError(f"inconsistent measurements for scale {scale!r} at count {key}")
            table[key] = value
    return StageTimings(
        llm=StageTimingModel.lookup(STAGE_LLM, llm),
        tts=StageTimingModel.lookup(STAGE_TTS, tts),
        fm_voc=StageTimingModel.lookup(STAGE_FM_VOC, fm_voc),
    )


def timing_preset(name: str) -> StageTimings:
    """Named presets for the CLI: ``table0.5b`` ... ``table14b``."""
    if name.startswith("table"):
        scale = name[len("table") :]
        if scale in TIMING_SCALES:
            return scale_timings(scale)
    raise ValueError(
        f"unknown timing preset {name!r}; expected one of "
        + ", ".join(f"table{s}" for s in TIMING_SCALES)
    )


def read_write_sweep() -> list[LatencyRow]:
    """The measured 7B read/write sweep, one row per distinct (R, W)."""
    seen: dict[tuple[int, int], LatencyRow] = {}
    for row in FIRST_CHUNK_MEASUREMENTS:
        if row.scale == "7b" and (row.reads, row.writes) not in seen:
            seen[(row.reads, row.writes)] = row
    return list(seen.values())


def calibration_points(stage: str, scale: str = "7b") -> list[tuple[int, float]]:
    """Measured (count, ms) pairs for fitting one stage at one scale."""
    timings = scale_timings(scale)
    model = {STAGE_LLM: timings.llm, STAGE_TTS: timings.tts, STAGE_FM_VOC: timings.fm_voc}.get(stage)
    if model is None or model.points is None:
        raise ValueError(f"no measured points for stage {stage!r} at scale {scale!r}")
    return list(model.points)
