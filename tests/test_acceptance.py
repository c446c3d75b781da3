"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines alongside the pytest verdicts.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np
import pytest

from streamvox.evalkit import normalize, wer
from streamvox.datagen import sample_turn_count, turn_count_pmf
from streamvox.fsq import CODEBOOK_SIZE, DIMS, code_to_index, dequantize, encode, index_to_code
from streamvox.numerics import (
    FfnParams,
    FusionPipelineParams,
    GateParams,
    finite_diff_check,
    fusion_loss,
    fusion_loss_and_grads,
    pack_arrays,
    unpack_arrays,
)
from streamvox.pipeline import (
    FIRST_CHUNK_MEASUREMENTS,
    STAGE_LLM,
    STAGE_TTS,
    ScenarioConfig,
    calibrate_affine,
    calibration_points,
    first_chunk_latency,
    read_write_sweep,
    row_timings,
    simulate_stream,
)
from streamvox.schedule import READ, SchedulePolicy, build_sequence, training_mask
from streamvox.ttslm import (
    DecodeConfig,
    ExtendedVocab,
    copy_task_dataset,
    init_predictor,
    interleaved_loss_terms,
    next_token_accuracy,
    predictive_distribution,
    train_toy,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def report(number: int, name: str) -> None:
    print(f"\ncriterion {number:02d} PASS - {name}")


def test_criterion_01_latency_additivity() -> None:
    started = time.time()
    assert len(FIRST_CHUNK_MEASUREMENTS) == 11
    for row in FIRST_CHUNK_MEASUREMENTS:
        policy = SchedulePolicy(row.reads, row.writes)
        breakdown = first_chunk_latency(row_timings(row), policy)
        assert breakdown.total_ms == pytest.approx(row.published_total_ms, abs=0.02)
        assert breakdown.total_ms == pytest.approx(
            breakdown.llm_ms + breakdown.tts_ms + breakdown.fm_voc_ms, abs=1e-9
        )
    assert time.time() - started < 1.0
    report(1, "first-chunk additivity across all 11 measured rows (±0.02 ms)")


def test_criterion_02_read_write_sweep_latency_order() -> None:
    started = time.time()
    expected_totals = [457.29, 557.79, 582.91, 663.32, 683.42, 798.99]
    sweep = sorted(read_write_sweep(), key=lambda r: r.published_total_ms)
    simulated = []
    for row in sweep:
        scenario = ScenarioConfig(
            policy=SchedulePolicy(row.reads, row.writes), n_text=row.reads, m_speech=row.writes
        )
        simulated.append(simulate_stream(scenario, row_timings(row)).first_chunk_completion_ms)
    for value, expected in zip(simulated, expected_totals):
        assert value == pytest.approx(expected, abs=0.02)
    assert simulated == sorted(simulated)  # total order reproduced exactly
    assert time.time() - started < 1.0
    report(2, "read/write sweep latencies and their total order")


def test_criterion_03_calibration_sanity() -> None:
    started = time.time()
    llm_model, llm_residual = calibrate_affine(calibration_points(STAGE_LLM), stage=STAGE_LLM)
    assert llm_residual <= 2.1
    tts_model, tts_residual = calibrate_affine(calibration_points(STAGE_TTS), stage=STAGE_TTS)
    assert tts_residual <= 4.1
    for model, counts in ((llm_model, range(1, 11)), (tts_model, range(1, 41))):
        predictions = [model.cost_ms(n) for n in counts]  # includes unseen counts
        assert all(b > a for a, b in zip(predictions, predictions[1:]))
    assert time.time() - started < 1.0
    report(3, "affine calibration residuals (llm <= 2.1 ms, tts <= 4.1 ms) and monotone fits")


def test_criterion_04_schedule_oracle_equivalence() -> None:
    started = time.time()
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        n = int(rng.integers(1, 201))
        m = int(rng.integers(0, 201))
        r = int(rng.integers(1, 21))
        w = int(rng.integers(1, 21))
        policy = SchedulePolicy(r, w)
        # direct subscript evaluation, independent of the schedule module
        direct = [min(((i - 1) // w + 1) * r, n) for i in range(1, m + 1)]
        mask = training_mask(n, m, policy)
        assert mask == direct
        actions = build_sequence(n, m, policy)
        implied = []
        reads = 0
        for action in actions:
            if action.kind == READ:
                reads += action.count
            else:
                implied.extend([reads] * action.count)
        assert implied == direct
    assert time.time() - started < 10.0
    report(4, "10,000 random schedules: sequence, mask, and direct formula agree")


def _fusion_setup(rng: np.random.Generator, d: int):
    params = FusionPipelineParams(
        ffn=FfnParams(
            rng.standard_normal((d, d)),
            rng.standard_normal(d),
            rng.standard_normal((d, d)),
            rng.standard_normal(d),
        ),
        embedding=rng.standard_normal((4, d)),
        gate=GateParams(rng.standard_normal((d, 2 * d)), rng.standard_normal(d)),
        head=rng.standard_normal((4, d)),
    )
    return params, rng.standard_normal(d)


def _fusion_arrays(p: FusionPipelineParams):
    return [p.ffn.w1, p.ffn.b1, p.ffn.w2, p.ffn.b2, p.embedding, p.gate.weight, p.gate.bias, p.head]


def test_criterion_05_gate_fusion_gradient_check() -> None:
    started = time.time()
    seeds = np.arange(100)
    dims = [2] * 34 + [8] * 33 + [16] * 33  # 100 seeds spread over d in {2, 8, 16}
    worst = 0.0
    for seed, d in zip(seeds, dims):
        rng = np.random.default_rng(int(seed))
        params, h = _fusion_setup(rng, d)
        shapes = [a.shape for a in _fusion_arrays(params)]

        def rebuild(theta):
            parts = unpack_arrays(theta, shapes)
            return FusionPipelineParams(
                ffn=FfnParams(*parts[:4]),
                embedding=parts[4],
                gate=GateParams(parts[5], parts[6]),
                head=parts[7],
            )

        def loss_and_grad(theta):
            loss, grads = fusion_loss_and_grads(rebuild(theta), h, 2, 3)
            return loss, pack_arrays(_fusion_arrays(grads))

        error = finite_diff_check(
            loss_and_grad,
            pack_arrays(_fusion_arrays(params)),
            eps=1e-5,
            loss_fn=lambda probes: fusion_loss(rebuild(probes), h, 2, 3),
        )
        worst = max(worst, error)
        assert error < 1e-5
    assert time.time() - started < 10.0
    report(5, f"fusion pipeline gradients vs central differences (worst {worst:.2e})")


def test_criterion_06_fsq_exhaustive_bijection() -> None:
    started = time.time()
    for index in range(CODEBOOK_SIZE):
        code = index_to_code(index)
        assert code_to_index(code) == index
    rng = np.random.default_rng(66)
    for _ in range(10_000):
        latent = 4.0 * rng.standard_normal(DIMS)
        code = encode(latent)
        np.testing.assert_array_equal(encode(dequantize(code)), code)
    assert time.time() - started < 5.0
    report(6, "all 6561 indices round-trip; encoding idempotent on 10,000 latents")


def test_criterion_07_speech_model_causality() -> None:
    started = time.time()
    vocab = ExtendedVocab(text_size=3, speech_size=10)
    rng = np.random.default_rng(77)
    for _ in range(1_000):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 11))
        policy = SchedulePolicy(int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        params = init_predictor(vocab, fused_dim=d, emb_dim=3, hidden_dim=4, rng=rng)
        C = rng.standard_normal((n, d))
        Y = [vocab.speech_token(int(rng.integers(10))) for _ in range(m)]
        base = interleaved_loss_terms(C, Y, policy, params)
        position = int(rng.integers(1, m + 1))
        visible = min(((position - 1) // policy.write_block + 1) * policy.read_block, n)
        if visible == n:
            continue
        perturbed = C.copy()
        perturbed[visible:] += 10.0 * rng.standard_normal((n - visible, d))
        after = interleaved_loss_terms(perturbed, Y, policy, params)
        assert after[position - 1] == base[position - 1]  # bit identical
        before_dist = predictive_distribution(C, Y[: position - 1], position, policy, params)
        after_dist = predictive_distribution(perturbed, Y[: position - 1], position, policy, params)
        np.testing.assert_array_equal(before_dist, after_dist)
    assert time.time() - started < 30.0
    report(7, "1,000 random instances: hidden-future perturbations leave terms bit-identical")


def test_criterion_08_toy_training_copy_task() -> None:
    started = time.time()
    vocab = ExtendedVocab(text_size=4)  # full 6561-token speech vocabulary
    rng = np.random.default_rng(2024)
    policy = SchedulePolicy(1, 1)
    train_pairs = copy_task_dataset(vocab, 32, 6, 8, rng)
    held_out = copy_task_dataset(vocab, 8, 6, 8, rng)
    params, curve = train_toy(train_pairs, policy, epochs=30, lr=0.25, vocab=vocab, seed=7)
    accuracy = next_token_accuracy(held_out, policy, params)
    elapsed = time.time() - started
    assert accuracy >= 0.95
    assert curve[-1] < curve[0]
    _, frozen = train_toy(train_pairs[:4], policy, epochs=3, lr=0.0, vocab=vocab, seed=7)
    assert frozen == pytest.approx([frozen[0]] * 3, rel=1e-15)
    assert elapsed < 60.0
    report(8, f"copy task reaches accuracy {accuracy:.2f} in {elapsed:.1f} s; lr=0 is a no-op")


def test_criterion_09_wer_oracle_equivalence() -> None:
    started = time.time()

    def oracle(reference: str, hypothesis: str) -> float:
        # independent quadratic dynamic program over normalized tokens
        ref, hyp = normalize(reference), normalize(hypothesis)
        rows = len(ref) + 1
        cols = len(hyp) + 1
        table = [[0] * cols for _ in range(rows)]
        for i in range(rows):
            table[i][0] = i
        for j in range(cols):
            table[0][j] = j
        for i in range(1, rows):
            for j in range(1, cols):
                table[i][j] = min(
                    table[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]),
                    table[i - 1][j] + 1,
                    table[i][j - 1] + 1,
                )
        return table[-1][-1] / len(ref)

    rng = np.random.default_rng(99)
    words = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta"]
    references = []
    for _ in range(1_000):
        reference = " ".join(rng.choice(words, size=rng.integers(1, 12)))
        hypothesis = " ".join(rng.choice(words, size=rng.integers(0, 12)))
        assert wer(reference, hypothesis) == oracle(reference, hypothesis)
        references.append(reference)
    assert all(wer(r, r) == 0.0 for r in references)
    assert time.time() - started < 10.0
    report(9, "wer matches the quadratic oracle on 1,000 pairs; wer(x, x) = 0 corpus-wide")


def chi2_4_quantile(alpha: float) -> float:
    """The largest float at which the chi-square survival function with 4
    degrees of freedom, ``exp(-x/2) * (1 + x/2)``, is still above ``alpha``:
    its ``1 - alpha`` quantile, found by bisection down to adjacent floats."""
    lo, hi = 0.0, 1e3  # the survival function is 1 at 0 and below 1e-200 at 1e3
    while True:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            return lo
        if math.exp(-mid / 2) * (1 + mid / 2) > alpha:
            lo = mid
        else:
            hi = mid


def test_criterion_10_turn_count_goodness_of_fit() -> None:
    started = time.time()
    rng = np.random.default_rng(20240511)
    n = 100_000
    counts = np.bincount([sample_turn_count(rng) for _ in range(n)], minlength=6)[1:]
    pmf = turn_count_pmf()
    assert [round(pmf[k], 4) for k in range(1, 6)] == [0.4060, 0.2707, 0.1804, 0.0902, 0.0527]
    expected = np.array([pmf[k] * n for k in range(1, 6)])
    statistic = float(((counts - expected) ** 2 / expected).sum())
    threshold = chi2_4_quantile(0.001)
    assert threshold == 18.46682695290317  # scipy.stats.chi2.ppf(1 - 0.001, df=4)
    assert statistic < threshold
    assert time.time() - started < 5.0
    report(10, f"chi-square {statistic:.2f} below the 0.999 quantile {threshold:.2f}")


def test_criterion_11_unreproducible_claims_documented() -> None:
    text = README.read_text(encoding="utf-8")
    assert "## What this artifact does not reproduce" in text
    for needle in (
        "pretrained",
        "judge",
        "mean-opinion",
        "property",
        "benchmark",
        "accurac",
    ):
        assert needle in text, f"README must document the substitution ({needle})"
    report(11, "README documents the non-reproducible claims and their substitutes")
