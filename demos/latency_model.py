"""First-chunk latency: measured tables, calibration, and a pipeline timeline.

Uses the bundled reference measurements (five LLM scales, single GPU) to
decompose the time-to-first-audio, fits affine per-stage cost curves to the
7B read/write sweep, and simulates a multi-chunk stream.  Saves a latency
plot next to this script when matplotlib is available.
"""

from pathlib import Path

from streamvox.pipeline import (
    STAGE_FM_VOC,
    STAGE_LLM,
    STAGE_TTS,
    ScenarioConfig,
    StageTimingModel,
    StageTimings,
    calibrate_affine,
    calibration_points,
    first_chunk_latency,
    read_write_sweep,
    row_timings,
    scale_timings,
    simulate_stream,
)
from streamvox.schedule import SchedulePolicy

policy = SchedulePolicy(3, 10)

print("== first-chunk latency by model scale (read 3 / write 10) ==")
for scale in ("0.5b", "1.5b", "3b", "7b", "14b"):
    b = first_chunk_latency(scale_timings(scale), policy)
    print(
        f"{scale:>5}: llm {b.llm_ms:7.2f}  tts {b.tts_ms:7.2f}  "
        f"fm+voc {b.fm_voc_ms:7.2f}  total {b.total_ms:7.2f} ms"
    )

print("\n== 7B read/write sweep ==")
for row in read_write_sweep():
    b = first_chunk_latency(row_timings(row), SchedulePolicy(row.reads, row.writes))
    chunk_ms = 1000 * row.writes / 25  # audio covered by one chunk at 25 tokens/s
    samples = 24000 * row.writes // 25  # the same chunk as 24 kHz audio samples
    print(
        f"R={row.reads} W={row.writes:>2}: total {b.total_ms:7.2f} ms, "
        f"chunk covers {chunk_ms:6.0f} ms of audio "
        f"({samples} samples at 24 kHz)"
    )

# Affine fits turn the sparse measured points into curves usable at any count.
print("\n== affine calibration on the 7B sweep ==")
llm_model, llm_res = calibrate_affine(calibration_points(STAGE_LLM), stage=STAGE_LLM)
tts_model, tts_res = calibrate_affine(calibration_points(STAGE_TTS), stage=STAGE_TTS)
print(f"llm: {llm_model.intercept_ms:7.2f} + {llm_model.per_token_ms:6.3f}*n ms, max residual {llm_res:4.2f} ms")
print(f"tts: {tts_model.intercept_ms:7.2f} + {tts_model.per_token_ms:6.3f}*n ms, max residual {tts_res:4.2f} ms")

# Simulate a 60-token response (6 chunks) with the fitted curves; the
# synthesis side keeps its measured near-constant per-chunk cost.
timings = StageTimings(
    llm=llm_model,
    tts=tts_model,
    fm_voc=StageTimingModel.affine(STAGE_FM_VOC, 180.0, 0.5),
)
scenario = ScenarioConfig(policy=policy, n_text=18, m_speech=60)
timeline = simulate_stream(scenario, timings)
print("\n== simulated timeline (fitted curves, 6 chunks) ==")
for chunk in timeline.chunks:
    spans = "  ".join(
        f"{stage}: {start:7.1f}->{finish:7.1f}" for stage, (start, finish) in chunk.stages.items()
    )
    print(f"chunk {chunk.index}: tokens {chunk.token_start:2d}-{chunk.token_end:2d}  {spans}")
print(f"first chunk done at {timeline.first_chunk_completion_ms:.1f} ms")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not installed; skipping the plot")
else:
    fig, (left, right) = plt.subplots(1, 2, figsize=(11, 4))
    sweep = read_write_sweep()
    labels = [f"R{r.reads}W{r.writes}" for r in sweep]
    totals = [r.published_total_ms for r in sweep]
    left.bar(labels, totals, color="tab:blue")
    left.set_ylabel("first-chunk latency (ms)")
    left.set_title("measured read/write sweep (7B)")
    counts = list(range(1, 25))
    right.plot(counts, [llm_model.cost_ms(n) for n in counts], label="llm fit")
    right.plot(counts, [tts_model.cost_ms(n) for n in counts], label="tts fit")
    for stage in (STAGE_LLM, STAGE_TTS):
        points = calibration_points(stage)
        right.scatter([c for c, _ in points], [m for _, m in points], zorder=3)
    right.set_xlabel("token count")
    right.set_ylabel("latency (ms)")
    right.set_title("affine stage calibration")
    right.legend()
    out = Path(__file__).with_suffix(".png")
    fig.tight_layout()
    fig.savefig(out, dpi=120)
    print(f"\nwrote {out}")
