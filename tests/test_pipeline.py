from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamvox.pipeline import (
    FIRST_CHUNK_MEASUREMENTS,
    STAGES,
    STAGE_FM,
    STAGE_FM_VOC,
    STAGE_LLM,
    STAGE_TTS,
    STAGE_VOC,
    TIMING_SCALES,
    ChunkTiming,
    LatencyRow,
    ScenarioConfig,
    StageTimingModel,
    StageTimings,
    Timeline,
    calibrate_affine,
    calibration_points,
    chunk_lines,
    first_chunk_latency,
    mel_frames,
    read_write_sweep,
    row_timings,
    scale_timings,
    simulate_stream,
    timing_preset,
)
from streamvox.records import dumps_canonical
from streamvox.schedule import SchedulePolicy


def affine_timings(llm=0.0, tts=0.0, fm=0.0, voc=0.0, intercepts=(0.0, 0.0, 0.0, 0.0)) -> StageTimings:
    return StageTimings(
        llm=StageTimingModel.affine(STAGE_LLM, intercepts[0], llm),
        tts=StageTimingModel.affine(STAGE_TTS, intercepts[1], tts),
        fm=StageTimingModel.affine(STAGE_FM, intercepts[2], fm),
        voc=StageTimingModel.affine(STAGE_VOC, intercepts[3], voc),
    )


# ---------------------------------------------------------------------------
# timing models


def test_lookup_and_affine_evaluation() -> None:
    lookup = StageTimingModel.lookup(STAGE_TTS, {10: 165.83, 5: 85.43})
    assert lookup.cost_ms(10) == 165.83
    assert lookup.cost_ms(0) == 0.0
    with pytest.raises(ValueError, match="stage 'tts' lookup has no entry for count 7"):
        lookup.cost_ms(7)
    affine = StageTimingModel.affine(STAGE_LLM, 164.3, 21.6)
    assert affine.cost_ms(3) == pytest.approx(164.3 + 3 * 21.6)


def test_timing_model_validation() -> None:
    with pytest.raises(ValueError):
        StageTimingModel(stage=STAGE_LLM)  # neither form
    with pytest.raises(ValueError):
        StageTimingModel(stage=STAGE_LLM, points=((1, 2.0),), intercept_ms=1.0, per_token_ms=0.1)
    with pytest.raises(ValueError):
        StageTimingModel.lookup(STAGE_LLM, {1: -2.0})
    with pytest.raises(ValueError):
        StageTimingModel(stage=STAGE_LLM, points=((1, 2.0), (1, 3.0)))
    with pytest.raises(ValueError):
        StageTimingModel.affine("warp", 0.0, 1.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_timing_models_reject_non_finite_costs(bad) -> None:
    with pytest.raises(ValueError, match="intercept_ms must be finite"):
        StageTimingModel.affine(STAGE_LLM, bad, 1.0)
    with pytest.raises(ValueError, match="per_token_ms must be finite"):
        StageTimingModel.affine(STAGE_LLM, 1.0, bad)
    with pytest.raises(ValueError, match="lookup cost at count 3 must be finite"):
        StageTimingModel.lookup(STAGE_LLM, {1: 2.0, 3: bad})
    record = {"schema": "timing/v1", "stage": "tts", "form": "affine", "intercept_ms": bad, "per_token_ms": 1.0}
    with pytest.raises(ValueError, match="intercept_ms must be finite"):
        StageTimingModel.from_record(record)


@pytest.mark.parametrize("count", [-3, 0])
def test_lookup_rejects_counts_below_one(count) -> None:
    with pytest.raises(ValueError, match=f"lookup count must be a positive integer, got {count}"):
        StageTimingModel.lookup(STAGE_LLM, {count: 1.0, 3: 2.0})


@pytest.mark.parametrize("count", [2.7, 2.0, True, "2", None])
def test_timing_record_rejects_non_integer_counts(count) -> None:
    record = {"schema": "timing/v1", "stage": "llm", "form": "lookup", "points": [[count, 1.0]]}
    with pytest.raises(ValueError, match=f"lookup count must be a positive integer, got {count!r}"):
        StageTimingModel.from_record(record)


@pytest.mark.parametrize("value", [True, False, "1.0"])
def test_timing_record_rejects_bool_and_non_numeric_costs(value) -> None:
    lookup = {"schema": "timing/v1", "stage": "llm", "form": "lookup", "points": [[3, value]]}
    with pytest.raises(ValueError, match=f"lookup cost at count 3 must be finite and non-negative, got {value!r}"):
        StageTimingModel.from_record(lookup)
    for field in ("intercept_ms", "per_token_ms"):
        affine = {"schema": "timing/v1", "stage": "tts", "form": "affine", "intercept_ms": 1.0, "per_token_ms": 2.0}
        affine[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite and non-negative, got {value!r}"):
            StageTimingModel.from_record(affine)


def test_timing_record_with_integer_costs_evaluates_to_floats() -> None:
    record = {"schema": "timing/v1", "stage": "llm", "form": "lookup", "points": [[5, 2], [3, 1]]}
    model = StageTimingModel.from_record(record)
    assert model.points == ((3, 1), (5, 2))
    assert type(model.cost_ms(3)) is float and model.cost_ms(3) == 1.0
    affine = StageTimingModel.affine(STAGE_LLM, 1, 2)
    assert type(affine.cost_ms(3)) is float and affine.cost_ms(3) == 7.0


def test_stage_bundle_requires_exactly_one_synthesis_form() -> None:
    llm = StageTimingModel.affine(STAGE_LLM, 0, 1)
    tts = StageTimingModel.affine(STAGE_TTS, 0, 1)
    with pytest.raises(ValueError):
        StageTimings(llm=llm, tts=tts)
    with pytest.raises(ValueError):
        StageTimings(
            llm=llm,
            tts=tts,
            fm=StageTimingModel.affine(STAGE_FM, 0, 1),
            voc=StageTimingModel.affine(STAGE_VOC, 0, 1),
            fm_voc=StageTimingModel.affine(STAGE_FM_VOC, 0, 1),
        )


def test_timing_records_round_trip() -> None:
    timings = scale_timings("7b")
    affine = affine_timings(1.0, 2.0, 3.0, 4.0, intercepts=(5.0, 6.0, 7.0, 8.0))
    for t in (timings, affine):
        stages = [m.to_record() for m in vars(t).values() if m is not None]
        assert StageTimings.from_record({"stages": stages}) == t


# ---------------------------------------------------------------------------
# first-chunk latency


def test_first_chunk_latency_seven_billion_row() -> None:
    breakdown = first_chunk_latency(timing_preset("table7b"), SchedulePolicy(3, 10))
    assert breakdown.llm_ms == pytest.approx(231.16)
    assert breakdown.tts_ms == pytest.approx(165.83)
    assert breakdown.fm_voc_ms == pytest.approx(185.93)
    assert breakdown.total_ms == pytest.approx(582.92, abs=0.02)


def test_first_chunk_latency_half_billion_row() -> None:
    breakdown = first_chunk_latency(timing_preset("table0.5b"), SchedulePolicy(3, 10))
    assert breakdown.total_ms == pytest.approx(542.71, abs=1e-9)


def test_first_chunk_latency_zero_models() -> None:
    timings = affine_timings()
    assert first_chunk_latency(timings, SchedulePolicy(4, 7)).total_ms == 0.0


def test_first_chunk_latency_separate_synthesis_evaluates_voc_at_mel_rate() -> None:
    timings = affine_timings(llm=2.0, tts=3.0, fm=5.0, voc=1.0)
    breakdown = first_chunk_latency(timings, SchedulePolicy(3, 10))
    assert breakdown.fm_ms == pytest.approx(50.0)
    assert breakdown.voc_ms == pytest.approx(20.0)  # 2W mel frames
    assert breakdown.fm_voc_ms == pytest.approx(70.0)
    assert breakdown.total_ms == pytest.approx(6.0 + 30.0 + 70.0)


def test_additivity_across_all_measured_rows() -> None:
    assert len(FIRST_CHUNK_MEASUREMENTS) == 11
    for row in FIRST_CHUNK_MEASUREMENTS:
        breakdown = first_chunk_latency(row_timings(row), SchedulePolicy(row.reads, row.writes))
        assert breakdown.total_ms == pytest.approx(row.published_total_ms, abs=0.02)


# ---------------------------------------------------------------------------
# simulation


def test_single_chunk_simulation_matches_breakdown_exactly() -> None:
    for scale in TIMING_SCALES:
        timings = scale_timings(scale)
        policy = SchedulePolicy(3, 10)
        scenario = ScenarioConfig(policy=policy, n_text=3, m_speech=10)
        timeline = simulate_stream(scenario, timings)
        assert len(timeline.chunks) == 1
        assert timeline.first_chunk_completion_ms == first_chunk_latency(timings, policy).total_ms


def test_two_chunk_constant_stage_times_hit_bottleneck_formula() -> None:
    # per-chunk stage times: llm 5*2=10, tts 3*4=12, fm 2*4=8, voc 1*(2*4)=8
    # -> steady-state bottleneck is the tts stage at 12
    timings = affine_timings(llm=5.0, tts=3.0, fm=2.0, voc=1.0)
    scenario = ScenarioConfig(policy=SchedulePolicy(2, 4), n_text=4, m_speech=8)
    timeline = simulate_stream(scenario, timings)
    assert len(timeline.chunks) == 2
    first = timeline.chunks[0].finish_ms
    assert first == pytest.approx(10 + 12 + 8 + 8)
    assert timeline.chunks[1].finish_ms == pytest.approx(first + 12)
    # hand-traced stage intervals for the second chunk
    assert timeline.chunks[1].stages[STAGE_LLM] == (pytest.approx(10.0), pytest.approx(20.0))
    assert timeline.chunks[1].stages[STAGE_TTS] == (pytest.approx(22.0), pytest.approx(34.0))
    assert timeline.chunks[1].stages[STAGE_FM] == (pytest.approx(34.0), pytest.approx(42.0))
    assert timeline.chunks[1].stages[STAGE_VOC] == (pytest.approx(42.0), pytest.approx(50.0))


def test_simulation_validates_and_orders_stages_on_measured_tables() -> None:
    # three chunks need tts lookups at 10, 20, 30: extend the measured table
    # with an affine fit for the multi-chunk run
    base = scale_timings("7b")
    model, _ = calibrate_affine(list(base.tts.points), stage=STAGE_TTS)
    timings = StageTimings(
        llm=StageTimingModel.affine(STAGE_LLM, 164.321, 21.609),
        tts=model,
        fm_voc=StageTimingModel.affine(STAGE_FM_VOC, 180.0, 0.5),
    )
    scenario = ScenarioConfig(policy=SchedulePolicy(3, 10), n_text=9, m_speech=30)
    timeline = simulate_stream(scenario, timings)
    assert len(timeline.chunks) == 3
    timeline.validate()
    assert [c.reads_total for c in timeline.chunks] == [3, 6, 9]
    assert [c.token_end for c in timeline.chunks] == [10, 20, 30]


def test_partial_final_chunk_and_read_exhaustion() -> None:
    timings = affine_timings(llm=1.0, tts=1.0, fm=1.0, voc=1.0)
    scenario = ScenarioConfig(policy=SchedulePolicy(3, 4), n_text=4, m_speech=10)
    timeline = simulate_stream(scenario, timings)
    assert [c.token_end - c.token_start + 1 for c in timeline.chunks] == [4, 4, 2]
    assert [c.reads_total for c in timeline.chunks] == [3, 4, 4]
    llm_intervals = [c.stages[STAGE_LLM] for c in timeline.chunks]
    assert llm_intervals[2][0] == llm_intervals[2][1]  # nothing left to read


def test_increasing_stage_costs_never_speeds_up_chunks() -> None:
    rng = np.random.default_rng(37)
    for _ in range(40):
        rates = rng.uniform(0.1, 5.0, size=4)
        intercepts = rng.uniform(0.0, 20.0, size=4)
        base = affine_timings(*rates, intercepts=tuple(intercepts))
        scenario = ScenarioConfig(
            policy=SchedulePolicy(int(rng.integers(1, 5)), int(rng.integers(1, 6))),
            n_text=int(rng.integers(1, 12)),
            m_speech=int(rng.integers(1, 25)),
        )
        before = [c.finish_ms for c in simulate_stream(scenario, base).chunks]
        bump = rng.integers(0, 4)
        bumped_rates = rates.copy()
        bumped_intercepts = intercepts.copy()
        bumped_rates[bump] *= float(rng.uniform(1.0, 3.0))
        bumped_intercepts[bump] += float(rng.uniform(0.0, 10.0))
        bumped = affine_timings(*bumped_rates, intercepts=tuple(bumped_intercepts))
        after = [c.finish_ms for c in simulate_stream(scenario, bumped).chunks]
        assert all(a >= b - 1e-9 for a, b in zip(after, before))


def chunk_record(chunk: ChunkTiming) -> dict:
    """The ``timeline-chunk/v1`` record of one chunk, built as a dict."""
    return {
        "schema": "timeline-chunk/v1",
        "chunk": chunk.index,
        "token_start": chunk.token_start,
        "token_end": chunk.token_end,
        "reads_total": chunk.reads_total,
        "stages": {s: [start, finish] for s, (start, finish) in chunk.stages.items()},
    }


def reference_simulate(scenario: ScenarioConfig, timings: StageTimings) -> Timeline:
    """The simulator loop that evaluates both cumulative llm and tts costs,
    through chunk j-1 and through chunk j, at every chunk."""
    policy = scenario.policy
    n, m = scenario.n_text, scenario.m_speech
    w = policy.write_block
    chunk_count = (m + w - 1) // w

    def llm_ready(count: int) -> float:
        return timings.llm.cost_ms(count)

    chunks = []
    tts_done = 0.0
    synth_done = {stage: 0.0 for stage, _ in timings.synthesis()}
    prev_reads = 0
    prev_tokens = 0
    for j in range(1, chunk_count + 1):
        token_end = min(j * w, m)
        chunk_tokens = token_end - prev_tokens
        reads_total = min(j * policy.read_block, n)

        llm_start = llm_ready(prev_reads)
        llm_finish = llm_ready(reads_total)
        if llm_finish < llm_start:
            raise ValueError("llm timing model is not non-decreasing in the token count")

        tts_service = timings.tts.cost_ms(token_end) - timings.tts.cost_ms(prev_tokens)
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

        chunks.append(ChunkTiming(j, prev_tokens + 1, token_end, reads_total, stages))
        prev_reads = reads_total
        prev_tokens = token_end
    timeline = Timeline(scenario, chunks)
    timeline.validate()
    return timeline


@dataclass
class CountingModel:
    """A stage model that records every token count it is evaluated at."""

    model: StageTimingModel
    counts: list = field(default_factory=list)

    def cost_ms(self, count: int) -> float:
        self.counts.append(count)
        return self.model.cost_ms(count)


def counted(timings: StageTimings) -> StageTimings:
    return StageTimings(**{s: CountingModel(getattr(timings, s)) for s in STAGES if getattr(timings, s) is not None})


def outcome(simulate, scenario: ScenarioConfig, timings: StageTimings):
    """Records, or the error raised; plus the last cumulative llm and tts
    counts evaluated, which name the chunk an error came from."""
    timings = counted(timings)
    try:
        result = simulate(scenario, timings)
    except ValueError as exc:
        result = (type(exc), str(exc))
    if isinstance(result, Timeline):
        result = [chunk_record(c) for c in result.chunks]
    return result, max(timings.llm.counts, default=0), max(timings.tts.counts, default=0)


def lookup(stage: str, costs) -> StageTimingModel:
    return StageTimingModel.lookup(stage, {c: float(v) for c, v in enumerate(costs, start=1)})


@pytest.mark.parametrize(
    "timings, policy, n_text, m_speech",
    [
        (affine_timings(llm=20.0, tts=8.0, fm=3.0, voc=0.5, intercepts=(150.0, 2.0, 40.0, 7.0)), (3, 10), 30, 100),
        (StageTimings(llm=StageTimingModel.affine(STAGE_LLM, 164.3, 21.6),
                      tts=StageTimingModel.affine(STAGE_TTS, 5.3, 16.05),
                      fm_voc=StageTimingModel.affine(STAGE_FM_VOC, 180.0, 0.5)), (1, 5), 200, 1000),
        (StageTimings(llm=lookup(STAGE_LLM, [5, 9, 9, 14, 30]), tts=lookup(STAGE_TTS, range(3, 40, 3)),
                      fm_voc=lookup(STAGE_FM_VOC, range(10, 22))), (2, 3), 5, 12),
        (StageTimings(llm=lookup(STAGE_LLM, [1, 2, 3, 4]), tts=lookup(STAGE_TTS, np.arange(11) ** 1.5),
                      fm=lookup(STAGE_FM, [7] * 4), voc=lookup(STAGE_VOC, range(8))), (3, 4), 4, 10),
        (affine_timings(llm=1.0, tts=1.0, fm=1.0, voc=1.0), (3, 4), 4, 10),  # partial chunk, reads run out
        (affine_timings(llm=1.5, tts=0.25, fm=2.0, voc=0.125), (5, 7), 2, 20),  # reads run out at chunk 1
    ],
)
def test_simulation_matches_reference_loop(timings, policy, n_text, m_speech) -> None:
    scenario = ScenarioConfig(policy=SchedulePolicy(*policy), n_text=n_text, m_speech=m_speech)
    expected = outcome(reference_simulate, scenario, timings)
    assert isinstance(expected[0], list) and len(expected[0]) == -(-m_speech // policy[1])
    assert outcome(simulate_stream, scenario, timings) == expected


@pytest.mark.parametrize(
    "llm, tts, m_speech, stage, chunk",
    [
        ([5, 9, 8, 14], range(1, 13), 12, "llm", 3),  # llm(3) < llm(2)
        ([5, 9, 10, 14], [1, 2, 3, 4, 5, 6, 7, 8, 4, 10, 11, 12], 12, "tts", 3),  # tts(9) < tts(6)
        ([5, 9, 10, 11], [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0], 11, "tts", 4),  # the last, partial chunk
    ],
)
def test_non_monotone_model_fails_at_the_same_chunk_as_the_reference(llm, tts, m_speech, stage, chunk) -> None:
    timings = StageTimings(llm=lookup(STAGE_LLM, llm), tts=lookup(STAGE_TTS, tts),
                           fm_voc=lookup(STAGE_FM_VOC, range(1, 4)))
    scenario = ScenarioConfig(policy=SchedulePolicy(1, 3), n_text=4, m_speech=m_speech)
    expected = outcome(reference_simulate, scenario, timings)
    assert expected == ((ValueError, f"{stage} timing model is not non-decreasing in the token count"),
                        chunk, min(3 * chunk, m_speech) if stage == "tts" else 3 * (chunk - 1))
    assert outcome(simulate_stream, scenario, timings) == expected


@settings(max_examples=80, deadline=None)
@given(
    r=st.integers(1, 4),
    w=st.integers(1, 5),
    n_text=st.integers(1, 12),
    m_speech=st.integers(1, 25),
    separate=st.booleans(),
    data=st.data(),
)
def test_simulation_matches_reference_loop_on_any_lookup_tables(r, w, n_text, m_speech, separate, data) -> None:
    def table(stage: str, size: int) -> StageTimingModel:
        costs = data.draw(st.lists(st.integers(0, 50), min_size=size, max_size=size), label=stage)
        return lookup(stage, costs)

    synthesis = {STAGE_FM: table(STAGE_FM, w), STAGE_VOC: table(STAGE_VOC, 2 * w)} if separate else {
        STAGE_FM_VOC: table(STAGE_FM_VOC, w)}
    timings = StageTimings(llm=table(STAGE_LLM, n_text), tts=table(STAGE_TTS, m_speech), **synthesis)
    scenario = ScenarioConfig(policy=SchedulePolicy(r, w), n_text=n_text, m_speech=m_speech)
    assert outcome(simulate_stream, scenario, timings) == outcome(reference_simulate, scenario, timings)


def test_simulation_rejects_missing_lookup_entries() -> None:
    scenario = ScenarioConfig(policy=SchedulePolicy(3, 10), n_text=6, m_speech=20)
    with pytest.raises(ValueError, match="stage 'llm' lookup has no entry for count 6"):
        simulate_stream(scenario, scale_timings("0.5b"))


def test_scenario_validation() -> None:
    with pytest.raises(ValueError):
        ScenarioConfig(policy=SchedulePolicy(1, 1), n_text=0, m_speech=5)


# Costs whose text is "-0.0", a plain decimal, a subnormal or an exponent form.
COSTS = st.one_of(st.just(-0.0), st.floats(0.0, 1e3), st.floats(1e16, 1e20))


@st.composite
def simulation_cases(draw) -> tuple[ScenarioConfig, StageTimings]:
    """Affine or lookup models, combined or separate synthesis, and chunk
    counts that often leave a partial final chunk."""
    r, w = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    n_text, m_speech = draw(st.integers(1, 12)), draw(st.integers(1, 25))

    def model(stage: str, size: int) -> StageTimingModel:
        if draw(st.booleans(), label=f"{stage} affine"):
            return StageTimingModel.affine(stage, draw(COSTS), draw(COSTS))
        costs = draw(st.lists(COSTS, min_size=size, max_size=size), label=stage)
        # llm and tts curves are cumulative, so their tables must not decrease.
        return lookup(stage, itertools.accumulate(costs) if stage in (STAGE_LLM, STAGE_TTS) else costs)

    synthesis = {STAGE_FM: model(STAGE_FM, w), STAGE_VOC: model(STAGE_VOC, 2 * w)} if draw(
        st.booleans(), label="separate") else {STAGE_FM_VOC: model(STAGE_FM_VOC, w)}
    timings = StageTimings(llm=model(STAGE_LLM, n_text), tts=model(STAGE_TTS, m_speech), **synthesis)
    return ScenarioConfig(policy=SchedulePolicy(r, w), n_text=n_text, m_speech=m_speech), timings


@settings(max_examples=150, deadline=None)
@given(case=simulation_cases())
@example(case=(ScenarioConfig(SchedulePolicy(2, 3), n_text=5, m_speech=11), StageTimings(
    llm=StageTimingModel.affine(STAGE_LLM, -0.0, 3e15), tts=StageTimingModel.affine(STAGE_TTS, 0.5, 1e16),
    fm=StageTimingModel.affine(STAGE_FM, -0.0, -0.0), voc=StageTimingModel.affine(STAGE_VOC, 1e-310, 0.25))))
@example(case=(ScenarioConfig(SchedulePolicy(1, 2), n_text=3, m_speech=5), StageTimings(
    llm=lookup(STAGE_LLM, [-0.0, -0.0, 1e17]), tts=lookup(STAGE_TTS, [0.1, 0.2, 2e16, 2e16, 3e16]),
    fm_voc=lookup(STAGE_FM_VOC, [-0.0, 7.0]))))
def test_chunk_line_is_the_canonical_text_of_the_chunk_record(case) -> None:
    timeline = simulate_stream(*case)
    assert [next(chunk_lines([c])) for c in timeline.chunks] == [dumps_canonical(chunk_record(c)) for c in timeline.chunks]


def test_chunk_line_sorts_stages_inserted_in_any_order() -> None:
    chunk = ChunkTiming(3, 5, 6, 2, {STAGE_VOC: (4.0, 1e16), STAGE_LLM: (-0.0, 1.5), STAGE_FM: (2.0, 3.0)})
    assert next(chunk_lines([chunk])) == (
        '{"chunk":3,"reads_total":2,"schema":"timeline-chunk/v1","stages":{"fm":[2.0,3.0],"llm":[-0.0,1.5],'
        '"voc":[4.0,1e+16]},"token_end":6,"token_start":5}'
    )
    assert next(chunk_lines([chunk])) == dumps_canonical(chunk_record(chunk))


@settings(max_examples=150, deadline=None)
@given(case=simulation_cases())
def test_chunk_lines_are_the_canonical_text_of_each_chunk_record(case) -> None:
    timeline = simulate_stream(*case)
    assert list(chunk_lines(timeline.chunks)) == [dumps_canonical(chunk_record(c)) for c in timeline.chunks]


def distinct(x: float) -> float:
    """A float equal to ``x`` (sign included) that is not the object ``x``."""
    y = float(repr(x))
    assert y is not x and repr(y) == repr(x)
    return y


# Values for starts and finishes; 0.0 and -0.0 compare equal.
NEIGHBOURS = st.sampled_from([0.0, -0.0, 1.5, 1e16, 5e-324])


@settings(max_examples=150, deadline=None)
@given(data=st.data(), count=st.integers(1, 4))
def test_chunk_lines_reuse_text_by_identity_only(data, count) -> None:
    """Hand-built chunks whose starts are the finish before them in the
    chunk or their stage's finish in the previous chunk, a distinct float of
    the same value, or another value (0.0 next to -0.0); one key set per
    timeline, its stages inserted in any order."""
    key_sets = [(STAGE_LLM, STAGE_TTS, STAGE_FM_VOC), (STAGE_LLM, STAGE_TTS, STAGE_FM, STAGE_VOC),
                (STAGE_TTS, STAGE_VOC), ("zz", STAGE_LLM)]
    key_set = data.draw(st.sampled_from(key_sets))
    chunks, previous = [], {}
    for j in range(1, count + 1):
        names = data.draw(st.permutations(key_set))
        finish = None
        stages = {}
        for name in sorted(names, key=lambda s: STAGES.index(s) if s in STAGES else len(STAGES)):
            options = [data.draw(NEIGHBOURS)] + [x for x in (finish, previous.get(name)) if x is not None]
            start = data.draw(st.sampled_from(options))
            if data.draw(st.booleans()):
                start = distinct(start)
            finish = data.draw(st.sampled_from([start, data.draw(NEIGHBOURS)]))
            stages[name] = (start, finish)
        previous = {name: end for name, (_, end) in stages.items()}
        chunks.append(ChunkTiming(j, j, j, j, {name: stages[name] for name in names}))
    assert list(chunk_lines(chunks)) == [dumps_canonical(chunk_record(c)) for c in chunks]


def test_chunk_lines_do_not_reuse_an_equal_value_of_another_sign() -> None:
    zero, negative = 0.0, -0.0
    chunks = [ChunkTiming(1, 1, 1, 1, {STAGE_LLM: (zero, negative), STAGE_TTS: (zero, zero)}),
              ChunkTiming(2, 2, 2, 2, {STAGE_TTS: (negative, zero), STAGE_LLM: (zero, 1.0)})]
    assert [line.split('"stages":')[1].split("},")[0] for line in chunk_lines(chunks)] == [
        '{"llm":[0.0,-0.0],"tts":[0.0,0.0]',
        '{"llm":[0.0,1.0],"tts":[-0.0,0.0]',
    ]


def hand_timeline(*chunk_stages: dict) -> Timeline:
    """Chunk j holds the j-th stages dict, in the order given."""
    count = len(chunk_stages)
    return Timeline(ScenarioConfig(SchedulePolicy(1, 1), n_text=count, m_speech=count),
                    [ChunkTiming(j, j, j, j, dict(stages)) for j, stages in enumerate(chunk_stages, start=1)])


FIRST = {STAGE_LLM: (0.0, 1.0), STAGE_TTS: (1.0, 2.0), STAGE_FM_VOC: (2.0, 3.0)}
NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "chunks, message",
    [
        # a stage starts before the previous stage of its chunk finishes
        ([FIRST, {STAGE_LLM: (1.0, 2.0), STAGE_TTS: (1.5, 4.0), STAGE_FM_VOC: (4.0, 5.0)}],
         "chunk 2: stage tts starts before llm finishes"),
        # the same, with the stages inserted out of pipeline order
        ([{STAGE_FM_VOC: (2.0, 3.0), STAGE_TTS: (0.5, 2.0), STAGE_LLM: (0.0, 1.0)}],
         "chunk 1: stage tts starts before llm finishes"),
        # separate fm and voc stages follow each other in pipeline order
        ([{STAGE_LLM: (0.0, 1.0), STAGE_TTS: (1.0, 2.0), STAGE_FM: (2.0, 3.0), STAGE_VOC: (3.0, 4.0)},
          {STAGE_LLM: (1.0, 2.0), STAGE_TTS: (2.0, 4.0), STAGE_FM: (4.0, 5.0), STAGE_VOC: (4.5, 6.0)}],
         "chunk 2: stage voc starts before fm finishes"),
        # a stage finishes before it starts
        ([FIRST, {STAGE_LLM: (1.0, 2.0), STAGE_TTS: (2.0, 4.0), STAGE_FM_VOC: (5.0, 4.5)}],
         "chunk 2: stage fm_voc finishes before it starts"),
        # chunk 2 starts a stage before chunk 1 finishes it
        ([FIRST, {STAGE_LLM: (1.0, 2.0), STAGE_TTS: (2.0, 2.5), STAGE_FM_VOC: (2.5, 5.0)}],
         "stage fm_voc: chunk 2 starts before chunk 1 finishes"),
        # non-finite times
        ([FIRST, {STAGE_LLM: (1.0, 2.0), STAGE_TTS: (NAN, 4.0), STAGE_FM_VOC: (4.0, 5.0)}],
         "chunk 2: stage tts time is not finite (nan, 4.0)"),
        ([FIRST, {STAGE_LLM: (1.0, 2.0), STAGE_TTS: (2.0, NAN), STAGE_FM_VOC: (4.0, 5.0)}],
         "chunk 2: stage tts time is not finite (2.0, nan)"),
        ([{STAGE_LLM: (-INF, 1.0), STAGE_TTS: (1.0, 2.0), STAGE_FM_VOC: (2.0, 3.0)}],
         "chunk 1: stage llm time is not finite (-inf, 1.0)"),
        ([{STAGE_LLM: (0.0, 1.0), STAGE_TTS: (1.0, 2.0), STAGE_FM_VOC: (INF, INF)}],
         "chunk 1: stage fm_voc time is not finite (inf, inf)"),
        # which error wins: start order before intervals within a chunk ...
        ([{STAGE_LLM: (0.0, 1.0), STAGE_TTS: (0.5, 0.2), STAGE_FM_VOC: (2.0, 3.0)}],
         "chunk 1: stage tts starts before llm finishes"),
        # ... intervals in insertion order ...
        ([{STAGE_LLM: (0.0, 1.0), STAGE_TTS: (1.0, NAN), STAGE_FM_VOC: (3.0, 2.0)}],
         "chunk 1: stage tts time is not finite (1.0, nan)"),
        ([{STAGE_LLM: (0.0, 1.0), STAGE_FM_VOC: (3.0, 2.0), STAGE_TTS: (1.0, NAN)}],
         "chunk 1: stage fm_voc finishes before it starts"),
        # ... and every chunk's own checks before any check across chunks
        ([FIRST, {STAGE_LLM: (1.0, 2.0), STAGE_TTS: (1.5, 4.0), STAGE_FM_VOC: (2.5, 5.0)}],
         "chunk 2: stage tts starts before llm finishes"),
        ([FIRST, {STAGE_LLM: (1.0, 2.0), STAGE_TTS: (2.0, 2.5), STAGE_FM_VOC: (2.5, 5.0)},
          {STAGE_LLM: (2.0, 3.0), STAGE_TTS: (4.0, 6.0), STAGE_FM_VOC: (6.0, INF)}],
         "chunk 3: stage fm_voc time is not finite (6.0, inf)"),
    ],
)
def test_validate_names_the_first_broken_invariant(chunks, message) -> None:
    with pytest.raises(ValueError) as excinfo:
        hand_timeline(*chunks).validate()
    assert str(excinfo.value) == message


def test_validate_accepts_touching_and_empty_intervals() -> None:
    hand_timeline({STAGE_LLM: (0.0, -0.0), STAGE_TTS: (0.0, 2.0), STAGE_FM_VOC: (2.0, 3.0)},
                  {STAGE_LLM: (0.0, 2.0), STAGE_TTS: (2.0, 2.0), STAGE_FM_VOC: (3.0, 3.0)}).validate()
    hand_timeline({STAGE_LLM: (2.0, 2.0), STAGE_TTS: (2.0, 5.0), STAGE_FM: (5.0, 6.0), STAGE_VOC: (6.0, 7.0)}).validate()


def test_a_timeline_has_one_stage_set() -> None:
    with pytest.raises(ValueError, match=r"^chunk 2 has stages \['fm', 'llm', 'tts', 'voc'\], not \['fm_voc', 'llm', 'tts'\]$"):
        hand_timeline(FIRST, {STAGE_LLM: (1.0, 2.0), STAGE_TTS: (2.0, 4.0), STAGE_FM: (4.0, 5.0), STAGE_VOC: (5.0, 6.0)})
    with pytest.raises(ValueError, match="^chunk 2 has stages"):
        list(chunk_lines([ChunkTiming(1, 1, 1, 1, dict(FIRST)), ChunkTiming(2, 2, 2, 2, {STAGE_LLM: (1.0, 2.0)})]))
    # The same set inserted in another order is one stage set.
    reordered = {STAGE_FM_VOC: (3.0, 4.0), STAGE_LLM: (1.0, 2.0), STAGE_TTS: (2.0, 3.0)}
    timeline = hand_timeline(FIRST, reordered)
    timeline.validate()
    assert timeline.chunks[1].stages == reordered and list(timeline.chunks[1].stages) == list(FIRST)


def chunk_by_chunk_validate(chunks: list[ChunkTiming]) -> str | None:
    """The message of the first broken invariant, or None: the validator
    that walked chunk by chunk before timelines held columns, kept as the
    oracle for the column checks."""
    low, high = -math.inf, math.inf
    keys = adjacent = None
    try:
        for chunk in chunks:
            stages = chunk.stages
            if stages.keys() != keys:
                keys, order = stages.keys(), [s for s in STAGES if s in stages]
                adjacent = list(zip(order, order[1:]))
            for prev, cur in adjacent:
                if stages[cur][0] < stages[prev][1]:
                    raise ValueError(f"chunk {chunk.index}: stage {cur} starts before {prev} finishes")
            for stage, (start, finish) in stages.items():
                if not low < start <= finish < high:
                    if math.isfinite(start) and math.isfinite(finish):
                        raise ValueError(f"chunk {chunk.index}: stage {stage} finishes before it starts")
                    raise ValueError(f"chunk {chunk.index}: stage {stage} time is not finite ({start!r}, {finish!r})")
        for prev, cur in zip(chunks, chunks[1:]):
            before = prev.stages
            for stage, (start, _) in cur.stages.items():
                if stage in before and start < before[stage][1]:
                    raise ValueError(f"stage {stage}: chunk {cur.index} starts before chunk {prev.index} finishes")
    except ValueError as exc:
        return str(exc)
    return None


FAULTS = ("nan start", "nan finish", "inf finish", "-inf start", "inf start", "reversed", "adjacency", "overlap")


@settings(max_examples=300, deadline=None)
@given(data=st.data(), count=st.integers(1, 5))
def test_validate_words_the_first_fault_as_the_chunk_by_chunk_checks(data, count) -> None:
    """Pipelined timelines of one stage set, inserted in one drawn order,
    with up to three faults injected at drawn chunks and stages."""
    names = data.draw(st.sampled_from([(STAGE_LLM, STAGE_TTS, STAGE_FM_VOC), (STAGE_LLM, STAGE_TTS, STAGE_FM, STAGE_VOC),
                                       (STAGE_TTS, STAGE_VOC), ("zz", STAGE_LLM, STAGE_FM)]))
    ranked = sorted(names, key=lambda s: STAGES.index(s) if s in STAGES else len(STAGES))
    inserted = data.draw(st.permutations(names))
    spans: list[dict] = []
    for j in range(count):
        upstream, row = 0.0, {}
        for name in ranked:
            start = max(upstream, spans[-1][name][1] if spans else 0.0)
            upstream = start + data.draw(st.sampled_from([0.0, 0.5, 1.0, 3.0]))
            row[name] = [start, upstream]
        spans.append(row)
    for _ in range(data.draw(st.integers(1, 3))):
        j, name, fault = data.draw(st.integers(0, count - 1)), data.draw(st.sampled_from(names)), data.draw(st.sampled_from(FAULTS))
        span = spans[j][name]
        if fault == "nan start":
            span[0] = math.nan
        elif fault == "nan finish":
            span[1] = math.nan
        elif fault in ("inf finish", "-inf start", "inf start"):
            span[fault.endswith("finish")] = -math.inf if fault.startswith("-") else math.inf
        elif fault == "reversed":
            span[1] = span[0] - 0.25
        elif fault == "adjacency" and ranked.index(name) > 0:
            span[0] = spans[j][ranked[ranked.index(name) - 1]][1] - 0.5
        elif fault == "overlap" and j > 0:
            span[0] = spans[j - 1][name][1] - 0.75
    chunks = [ChunkTiming(j, j, j, j, {name: tuple(row[name]) for name in inserted}) for j, row in enumerate(spans, start=1)]
    try:
        Timeline(ScenarioConfig(SchedulePolicy(1, 1), n_text=count, m_speech=count), chunks).validate()
        message = None
    except ValueError as exc:
        message = str(exc)
    assert message == chunk_by_chunk_validate(chunks)


def simulated_chunks(scenario: ScenarioConfig, timings: StageTimings) -> list[ChunkTiming]:
    """The simulator loop that built one ChunkTiming per chunk, before
    timelines held columns."""
    policy = scenario.policy
    n, m = scenario.n_text, scenario.m_speech
    r, w = policy.read_block, policy.write_block
    synthesis = timings.synthesis()
    synth_done = [0.0] * len(synthesis)
    chunks = []
    llm_start = tts_prev = tts_done = 0.0
    prev_tokens = 0
    for j in range(1, (m + w - 1) // w + 1):
        token_end = min(j * w, m)
        chunk_tokens = token_end - prev_tokens
        reads_total = min(j * r, n)
        llm_finish = timings.llm.cost_ms(reads_total)
        tts_cost = timings.tts.cost_ms(token_end)
        tts_start = max(llm_finish, tts_done)
        tts_done = tts_start + (tts_cost - tts_prev)
        stages = {STAGE_LLM: (llm_start, llm_finish), STAGE_TTS: (tts_start, tts_done)}
        upstream = tts_done
        for k, (stage, cost) in enumerate(synthesis):
            start = max(upstream, synth_done[k])
            upstream = synth_done[k] = start + cost(chunk_tokens)
            stages[stage] = (start, upstream)
        chunks.append(ChunkTiming(j, prev_tokens + 1, token_end, reads_total, stages))
        llm_start, tts_prev, prev_tokens = llm_finish, tts_cost, token_end
    return chunks


@settings(max_examples=150, deadline=None)
@given(case=simulation_cases())
def test_timeline_chunks_are_the_simulated_chunk_timings(case) -> None:
    chunks = simulate_stream(*case).chunks
    expected = simulated_chunks(*case)
    assert chunks == expected
    # repr tells -0.0 from 0.0 and shows the stage order.
    assert [repr(c) for c in chunks] == [repr(c) for c in expected]
    for chunk in chunks:
        assert all(type(t) is float for span in chunk.stages.values() for t in span)


def test_overflowing_costs_raise() -> None:
    timings = StageTimings(llm=StageTimingModel.affine(STAGE_LLM, 1.0, 1e307),
                           tts=StageTimingModel.affine(STAGE_TTS, 1.0, 1e307),
                           fm_voc=StageTimingModel.affine(STAGE_FM_VOC, 1.0, 1.0))
    with pytest.raises(ValueError, match=r"^first-chunk latency is not finite: llm 1e\+308 \+ tts 1e\+308"):
        first_chunk_latency(timings, SchedulePolicy(10, 10))
    assert first_chunk_latency(timings, SchedulePolicy(1, 1)).total_ms == 2e307 + 3.0
    # Each chunk adds 1e307 to tts; its finish leaves the float range at chunk 17.
    scenario = ScenarioConfig(SchedulePolicy(1, 1), n_text=30, m_speech=30)
    with pytest.raises(ValueError, match=r"^chunk 17: stage tts time is not finite \(1\.7\d*e\+308, inf\)$"):
        simulate_stream(scenario, timings)


# ---------------------------------------------------------------------------
# calibration


def _lstsq_oracle(points):
    # independent normal-equation solve
    xs = np.array([c for c, _ in points], dtype=float)
    ys = np.array([m for _, m in points], dtype=float)
    n = len(points)
    sx, sy, sxx, sxy = xs.sum(), ys.sum(), (xs * xs).sum(), (xs * ys).sum()
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n
    return intercept, slope


def test_calibrate_reference_llm_points() -> None:
    points = calibration_points(STAGE_LLM, "7b")
    assert points == [(1, 185.93), (2, 206.03), (3, 231.16), (4, 251.26), (5, 271.36)]
    model, residual = calibrate_affine(points, stage=STAGE_LLM)
    oracle_intercept, oracle_slope = _lstsq_oracle(points)
    assert model.per_token_ms == pytest.approx(oracle_slope, rel=1e-9)
    assert model.intercept_ms == pytest.approx(oracle_intercept, rel=1e-9)
    assert model.per_token_ms == pytest.approx(21.609, abs=1e-3)
    assert model.intercept_ms == pytest.approx(164.321, abs=1e-3)
    assert residual <= 2.1


def test_calibrate_reference_tts_points() -> None:
    points = calibration_points(STAGE_TTS, "7b")
    model, residual = calibrate_affine(points, stage=STAGE_TTS)
    assert model.per_token_ms == pytest.approx(16.683, abs=1e-3)
    assert residual <= 4.1


def test_calibrate_two_points_interpolates_exactly() -> None:
    model, residual = calibrate_affine([(2, 10.0), (6, 30.0)])
    assert residual == pytest.approx(0.0, abs=1e-9)
    assert model.cost_ms(2) == pytest.approx(10.0)
    assert model.cost_ms(6) == pytest.approx(30.0)


@pytest.mark.filterwarnings("error")
def test_calibrate_rejects_a_fit_whose_residual_overflows() -> None:
    with pytest.raises(ValueError, match=r"^stage 'llm' fit residual is not finite \(inf\)$"):
        calibrate_affine([(1, 0.0), (2, 1.7e308)], stage=STAGE_LLM)


def test_calibrate_rejects_degenerate_samples() -> None:
    with pytest.raises(ValueError):
        calibrate_affine([(3, 10.0)])
    with pytest.raises(ValueError):
        calibrate_affine([(3, 10.0), (3, 12.0)])


@pytest.mark.parametrize(
    "sample",
    [(2, float("nan")), (2, float("inf")), (float("nan"), 3.0), (2.7, 1.0), (True, 2.0), (2, True),
     (2, "1.0"), 5, (2,), (2, 1.0, 0.0)],
)
def test_calibrate_rejects_non_finite_samples(sample) -> None:
    with pytest.raises(ValueError, match=r"^sample 1 \("):
        calibrate_affine([(1, 1.0), sample, (4, 5.0)])


def test_fitted_models_predict_monotonically() -> None:
    for stage in (STAGE_LLM, STAGE_TTS):
        model, _ = calibrate_affine(calibration_points(stage, "7b"), stage=stage)
        costs = [model.cost_ms(n) for n in range(1, 30)]
        assert all(b > a for a, b in zip(costs, costs[1:]))


# ---------------------------------------------------------------------------
# chunk geometry


def test_mel_frames_ratio() -> None:
    assert mel_frames(10) == 20
    assert mel_frames(0) == 0
    with pytest.raises(ValueError):
        mel_frames(-1)


# ---------------------------------------------------------------------------
# measured tables


def test_read_write_sweep_is_deduplicated() -> None:
    sweep = read_write_sweep()
    assert [(r.reads, r.writes) for r in sweep] == [(3, 10), (1, 5), (2, 10), (3, 15), (4, 15), (5, 20)]


def test_sweep_totals_order_matches_published_latency() -> None:
    sweep = sorted(read_write_sweep(), key=lambda r: r.published_total_ms)
    simulated = []
    for row in sweep:
        scenario = ScenarioConfig(
            policy=SchedulePolicy(row.reads, row.writes), n_text=row.reads, m_speech=row.writes
        )
        timeline = simulate_stream(scenario, row_timings(row))
        simulated.append(timeline.first_chunk_completion_ms)
    assert simulated == sorted(simulated)
    for value, row in zip(simulated, sweep):
        assert value == pytest.approx(row.published_total_ms, abs=0.02)


def test_unknown_preset_and_scale_rejected() -> None:
    with pytest.raises(ValueError):
        timing_preset("table70b")
    with pytest.raises(ValueError):
        scale_timings("70b")


def test_inconsistent_scale_measurements_detected() -> None:
    row = LatencyRow("7b", 3, 10, 999.0, 165.83, 185.93, 0.0)
    with pytest.raises(ValueError, match="inconsistent"):
        # splice a contradictory row into a private copy of the table
        import streamvox.pipeline as pipeline_mod

        original = pipeline_mod.FIRST_CHUNK_MEASUREMENTS
        try:
            pipeline_mod.FIRST_CHUNK_MEASUREMENTS = original + (row,)
            pipeline_mod.scale_timings("7b")
        finally:
            pipeline_mod.FIRST_CHUNK_MEASUREMENTS = original
