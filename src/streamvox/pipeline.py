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
extension is this module's convention, not a measured behavior.  A
:class:`Timeline` holds one column of starts and one of finishes per stage,
with one stage set per timeline; its ``chunks`` are a view built on request.

``FIRST_CHUNK_MEASUREMENTS`` bundles reference measurements of a production
modular speech assistant at five LLM scales (0.5B-14B, single L40 GPU),
including a read/write sweep at the 7B scale.  They drive the calibration
demos and the regression tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .records import finite_nonneg, positive_int, prefixed
from .schedule import SchedulePolicy

STAGE_LLM = "llm"
STAGE_TTS = "tts"
STAGE_FM = "fm"
STAGE_VOC = "voc"
STAGE_FM_VOC = "fm_voc"
STAGES = (STAGE_LLM, STAGE_TTS, STAGE_FM, STAGE_VOC, STAGE_FM_VOC)

MEL_FRAMES_PER_TOKEN = 2


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
                raise ValueError(f"stage {self.stage!r} lookup has no entry for count {count}")
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

    def synthesis(self) -> list[tuple[str, Callable[[int], float]]]:
        """The synthesis stages in pipeline order, each with its cost of a
        chunk of tokens: the combined fm_voc model at the chunk's token
        count, or fm at the token count then voc at its mel-frame count."""
        if self.fm_voc is not None:
            return [(STAGE_FM_VOC, self.fm_voc.cost_ms)]
        voc_cost = self.voc.cost_ms
        return [(STAGE_FM, self.fm.cost_ms), (STAGE_VOC, lambda tokens: voc_cost(mel_frames(tokens)))]

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
    """One chunk of a :class:`Timeline`, as :attr:`Timeline.chunks` builds it."""

    index: int
    token_start: int
    token_end: int
    reads_total: int
    stages: dict[str, tuple[float, float]]

    @property
    def finish_ms(self) -> float:
        return max(finish for _, finish in self.stages.values())


_NO_TIME = object()  # a sentinel that is no chunk's time


def chunk_lines(timeline: Timeline | Iterable[ChunkTiming]) -> Iterator[str]:
    """Each chunk's ``timeline-chunk/v1`` record as ``records.dumps_canonical``
    writes it (keys and stage names sorted, numbers by ``repr``), formatted
    one stage column at a time.  A start that *is* the finish of the stage
    before it in pipeline order, or its stage's finish in the previous chunk,
    reuses that finish's text; any other start is formatted by ``repr``.
    Reuse goes by object identity, never by value (``0.0 == -0.0``)."""
    if not isinstance(timeline, Timeline):
        timeline = Timeline(None, timeline)
    intervals, names = timeline.intervals, sorted(timeline.intervals)
    # The finish formatted just before in each chunk, and its text.
    upstream, upstream_text = itertools.repeat(_NO_TIME), itertools.repeat("")
    parts = {}
    for stage in [s for s in STAGES if s in intervals] + [s for s in names if s not in STAGES]:
        starts, finishes = intervals[stage]
        finish_text = [repr(finish) for finish in finishes]
        parts[stage] = [
            f'"{stage}":[{up_text if start is up else last_text if start is last else repr(start)},{text}]'
            for start, text, up, up_text, last, last_text in zip(
                starts, finish_text, upstream, upstream_text, [_NO_TIME, *finishes], ["", *finish_text])
        ]
        upstream, upstream_text = finishes, finish_text
    stage_parts = zip(*(parts[s] for s in names)) if names else itertools.repeat(())
    for index, reads_total, token_end, token_start, stages in zip(
            timeline.index, timeline.reads_total, timeline.token_end, timeline.token_start, stage_parts):
        yield (f'{{"chunk":{index!r},"reads_total":{reads_total!r},"schema":"timeline-chunk/v1",'
               f'"stages":{{{",".join(stages)}}},"token_end":{token_end!r},"token_start":{token_start!r}}}')


class Timeline:
    """A simulated stream held as columns: per chunk its ``index``,
    ``token_start``, ``token_end`` and ``reads_total``, and per stage one list
    of starts and one of finishes (``intervals``).  Chunks given to build one
    share one stage set; :attr:`chunks` is a view built on request."""

    def __init__(self, scenario: ScenarioConfig | None, chunks: Iterable[ChunkTiming] = ()) -> None:
        self.scenario = scenario
        chunks = list(chunks)
        stages = chunks[0].stages.keys() if chunks else {}
        for chunk in chunks:
            if chunk.stages.keys() != stages:
                raise ValueError(f"chunk {chunk.index} has stages {sorted(chunk.stages)}, not {sorted(stages)}")
        self.index, self.token_start, self.token_end, self.reads_total = (
            [getattr(c, name) for c in chunks] for name in ("index", "token_start", "token_end", "reads_total"))
        self.intervals: dict[str, tuple[list[float], list[float]]] = {
            s: ([c.stages[s][0] for c in chunks], [c.stages[s][1] for c in chunks]) for s in stages}

    def _chunk(self, i: int) -> ChunkTiming:
        return ChunkTiming(self.index[i], self.token_start[i], self.token_end[i], self.reads_total[i],
                           {stage: (starts[i], finishes[i]) for stage, (starts, finishes) in self.intervals.items()})

    @property
    def chunks(self) -> list[ChunkTiming]:
        """One :class:`ChunkTiming` per chunk, built on each read."""
        return [self._chunk(i) for i in range(len(self.index))]

    @property
    def first_chunk_completion_ms(self) -> float:
        if not self.index:
            raise ValueError("timeline has no chunks")
        return self._chunk(0).finish_ms

    def validate(self) -> None:
        """Check ordering invariants: stages run forward within a chunk, every
        time is finite, and within a stage chunk j never starts before chunk
        j-1 finishes.  numpy finds the chunks that break one, comparing times
        as float64; every chunk's own checks come before those across chunks."""
        order = [s for s in STAGES if s in self.intervals]
        times = {stage: np.array(columns, dtype=float) for stage, columns in self.intervals.items()}
        own = np.zeros(len(self.index), dtype=bool)
        across = own.copy()  # chunk i starts a stage before chunk i-1 finishes it
        for prev, cur in zip(order, order[1:]):
            own |= times[cur][0] < times[prev][1]
        for start, finish in times.values():
            own |= ~((-math.inf < start) & (start <= finish) & (finish < math.inf))
            across[1:] |= start[1:] < finish[:-1]
        for i in np.flatnonzero(own).tolist():
            chunk = self._chunk(i)
            for prev, cur in zip(order, order[1:]):
                if chunk.stages[cur][0] < chunk.stages[prev][1]:
                    raise ValueError(f"chunk {chunk.index}: stage {cur} starts before {prev} finishes")
            for stage, (start, finish) in chunk.stages.items():
                if not -math.inf < start <= finish < math.inf:
                    if math.isfinite(start) and math.isfinite(finish):
                        raise ValueError(f"chunk {chunk.index}: stage {stage} finishes before it starts")
                    raise ValueError(f"chunk {chunk.index}: stage {stage} time is not finite ({start!r}, {finish!r})")
        for i in np.flatnonzero(across).tolist():
            prev, cur = self._chunk(i - 1), self._chunk(i)
            for stage, (start, _) in cur.stages.items():
                if start < prev.stages[stage][1]:
                    raise ValueError(f"stage {stage}: chunk {cur.index} starts before chunk {prev.index} finishes")


def first_chunk_latency(timings: StageTimings, policy: SchedulePolicy) -> LatencyBreakdown:
    """Additive first-chunk latency: llm(R) + tts(W) + synthesis(W); a total
    that overflows the float range raises ``ValueError``."""
    llm = timings.llm.cost_ms(policy.read_block)
    tts = timings.tts.cost_ms(policy.write_block)
    costs = {stage: cost(policy.write_block) for stage, cost in timings.synthesis()}
    fm, voc = costs.get(STAGE_FM), costs.get(STAGE_VOC)
    synth = costs[STAGE_FM_VOC] if STAGE_FM_VOC in costs else fm + voc
    total = llm + tts + synth
    if not math.isfinite(total):
        raise ValueError(f"first-chunk latency is not finite: llm {llm!r} + tts {tts!r} + synthesis {synth!r} ms")
    return LatencyBreakdown(llm_ms=llm, tts_ms=tts, fm_voc_ms=synth, total_ms=total, fm_ms=fm, voc_ms=voc)


def simulate_stream(scenario: ScenarioConfig, timings: StageTimings) -> Timeline:
    """Discrete-event trace of every chunk through the pipeline.

    Chunk j covers speech tokens ((j-1)W, jW] and may synthesize only after
    min(jR, N) fused representations exist.  The first chunk's completion
    time coincides with :func:`first_chunk_latency` whenever the scenario
    admits a full first read and write block.
    """
    policy = scenario.policy
    n, m = scenario.n_text, scenario.m_speech
    r, w = policy.read_block, policy.write_block
    llm_cost_ms, tts_cost_ms = timings.llm.cost_ms, timings.tts.cost_ms
    synthesis = timings.synthesis()
    synth_done = [0.0] * len(synthesis)

    timeline = Timeline(scenario)
    timeline.index = list(range(1, (m + w - 1) // w + 1))
    timeline.token_end = [min(j * w, m) for j in timeline.index]
    timeline.token_start = [1] + [end + 1 for end in timeline.token_end[:-1]]
    timeline.reads_total = [min(j * r, n) for j in timeline.index]
    timeline.intervals = {stage: ([], []) for stage in (STAGE_LLM, STAGE_TTS, *(s for s, _ in synthesis))}
    (llm_starts, llm_finishes), (tts_starts, tts_finishes), *synth_columns = timeline.intervals.values()
    synth = [(cost, *columns) for (_, cost), columns in zip(synthesis, synth_columns)]
    # Cumulative llm and tts costs through chunk j-1; count 0 is free.
    llm_start = tts_prev = tts_done = 0.0
    for token_start, token_end, reads_total in zip(timeline.token_start, timeline.token_end, timeline.reads_total):
        chunk_tokens = token_end - token_start + 1
        llm_finish = llm_cost_ms(reads_total)
        if llm_finish < llm_start:
            raise ValueError("llm timing model is not non-decreasing in the token count")

        tts_cost = tts_cost_ms(token_end)
        tts_service = tts_cost - tts_prev
        if tts_service < 0:
            raise ValueError("tts timing model is not non-decreasing in the token count")
        tts_start = max(llm_finish, tts_done)
        tts_done = tts_start + tts_service

        llm_starts.append(llm_start)
        llm_finishes.append(llm_finish)
        tts_starts.append(tts_start)
        tts_finishes.append(tts_done)
        upstream = tts_done
        for k, (cost, starts, finishes) in enumerate(synth):
            start = max(upstream, synth_done[k])
            upstream = synth_done[k] = start + cost(chunk_tokens)
            starts.append(start)
            finishes.append(upstream)
        llm_start, tts_prev = llm_finish, tts_cost
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
    return _lookup_timings([row])


def scale_timings(scale: str) -> StageTimings:
    """Lookup models merging every measured row of one LLM scale."""
    rows = [r for r in FIRST_CHUNK_MEASUREMENTS if r.scale == scale]
    if not rows:
        raise ValueError(f"unknown timing scale {scale!r}, expected one of {TIMING_SCALES}")
    return _lookup_timings(rows)


def _lookup_timings(rows: Sequence[LatencyRow]) -> StageTimings:
    """Lookup models holding every row's costs; two costs at one count raise ``ValueError``."""
    tables: dict[str, dict[int, float]] = {STAGE_LLM: {}, STAGE_TTS: {}, STAGE_FM_VOC: {}}
    for row in rows:
        for stage, key, value in ((STAGE_LLM, row.reads, row.llm_ms), (STAGE_TTS, row.writes, row.tts_ms),
                                  (STAGE_FM_VOC, row.writes, row.fm_voc_ms)):
            if tables[stage].setdefault(key, value) != value:
                raise ValueError(f"inconsistent measurements for scale {row.scale!r} at count {key}")
    return StageTimings(**{stage: StageTimingModel.lookup(stage, table) for stage, table in tables.items()})


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
