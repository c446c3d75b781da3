from __future__ import annotations

import math
import re
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamvox.numerics import (
    FfnParams,
    GateParams,
    cross_entropy,
    finite_diff_check,
    log_softmax,
    pack_arrays,
    save_tensors,
    softmax,
    unpack_arrays,
)
from streamvox.schedule import (
    READ, WRITE, Action, SchedulePolicy, actions_to_records, build_sequence, validate_sequence, visible_prefix,
)
from streamvox.ttslm import (
    DecodeConfig,
    ExtendedVocab,
    PredictorParams,
    copy_task_dataset,
    decode_stream,
    fused_representations,
    init_predictor,
    interleaved_loss_and_grads,
    interleaved_loss_terms,
    load_pairs,
    load_predictor,
    next_token_accuracy,
    predictive_distribution,
    save_predictor,
    train_toy,
)
from streamvox import fsq, records, ttslm
from streamvox.ttslm import _choose_token

VOCAB = ExtendedVocab(text_size=4, speech_size=12)


# ---------------------------------------------------------------------------
# vocabulary layout


def test_vocab_ranges_partition_ids() -> None:
    kinds = [VOCAB.kind(i) for i in range(VOCAB.total_size)]
    assert kinds == ["text"] * 4 + ["speech"] * 12 + ["eos"]
    assert VOCAB.eos_id == 16
    assert VOCAB.total_size == 17


def test_vocab_rejects_out_of_range() -> None:
    with pytest.raises(ValueError):
        VOCAB.kind(17)
    with pytest.raises(ValueError):
        VOCAB.speech_token(12)


def test_default_speech_size_matches_codec() -> None:
    assert ttslm.DEFAULT_SPEECH_SIZE == fsq.CODEBOOK_SIZE == 6561
    assert ExtendedVocab(text_size=10).speech_size == 6561


@pytest.mark.parametrize(
    "sizes, field",
    [
        ({"text_size": 2.5}, "text_size"),
        ({"text_size": True}, "text_size"),
        ({"text_size": 4.0}, "text_size"),
        ({"text_size": -1}, "text_size"),
        ({"text_size": "4"}, "text_size"),
        ({"text_size": 4, "speech_size": 2.5}, "speech_size"),
        ({"text_size": 4, "speech_size": True}, "speech_size"),
        ({"text_size": 4, "speech_size": 0}, "speech_size"),
    ],
)
def test_vocab_rejects_non_integer_sizes(sizes, field) -> None:
    with pytest.raises(ValueError, match=field):
        ExtendedVocab(**sizes)


# ---------------------------------------------------------------------------
# masked interleaved loss


@dataclass
class EosModel:
    vocab: ExtendedVocab

    def logits(self, visible, prev_ids):
        out = np.zeros(self.vocab.total_size)
        out[self.vocab.eos_id] = 10.0
        return out


@dataclass
class SpeechOnlyModel:
    """Deterministic stub that spreads mass over speech ids only and raises
    end-of-speech after ``stop_after`` tokens."""

    vocab: ExtendedVocab
    stop_after: int = 10**9

    def logits(self, visible, prev_ids):
        out = np.full(self.vocab.total_size, -50.0)
        pick = (len(prev_ids) * 7 + int(abs(visible.sum() * 100))) % self.vocab.speech_size
        for offset in range(3):
            out[self.vocab.speech_token((pick + offset) % self.vocab.speech_size)] = 2.0 - offset
        out[self.vocab.eos_id] = 30.0 if len(prev_ids) >= self.stop_after else -50.0
        return out


def test_uniform_model_loss_is_m_log_v() -> None:
    policy = SchedulePolicy(2, 3)
    rng = np.random.default_rng(0)
    params = init_predictor(VOCAB, fused_dim=4, rng=rng)
    # Zero output maps give uniform logits whatever the features hold.
    zeros = {"out_weight": np.zeros_like(params.out_weight), "out_bias": np.zeros_like(params.out_bias)}
    params = params.replace({**params.arrays(), **zeros})
    C = rng.standard_normal((5, 4))
    Y = [VOCAB.speech_token(i % 12) for i in range(7)]
    loss = interleaved_loss_terms(C, Y, policy, params).sum()
    assert loss == pytest.approx(7 * math.log(VOCAB.total_size), rel=1e-12)


def test_loss_rejects_text_tokens_and_empty_inputs() -> None:
    policy = SchedulePolicy(1, 1)
    params = init_predictor(VOCAB, fused_dim=4)
    C = np.zeros((3, 4))
    with pytest.raises(ValueError, match="text-kind"):
        interleaved_loss_terms(C, [0], policy, params)  # text id 0
    with pytest.raises(ValueError):
        interleaved_loss_terms(np.zeros((0, 4)), [], policy, params)


def test_perturbing_hidden_future_leaves_terms_bit_identical() -> None:
    rng = np.random.default_rng(41)
    policy = SchedulePolicy(2, 3)
    params = init_predictor(VOCAB, fused_dim=4, rng=rng)
    C = rng.standard_normal((6, 4))
    Y = [VOCAB.speech_token(int(rng.integers(12))) for _ in range(8)]
    base = interleaved_loss_terms(C, Y, policy, params)
    for i in range(1, len(Y) + 1):
        v = visible_prefix(i, C.shape[0], policy)
        if v == C.shape[0]:
            continue
        perturbed = C.copy()
        perturbed[v:] += rng.standard_normal((C.shape[0] - v, 4))
        after = interleaved_loss_terms(perturbed, Y, policy, params)
        assert after[i - 1] == base[i - 1]  # bit identical
        dist_before = predictive_distribution(C, Y[: i - 1], i, policy, params)
        dist_after = predictive_distribution(perturbed, Y[: i - 1], i, policy, params)
        np.testing.assert_array_equal(dist_before, dist_after)


def test_loss_matches_bruteforce_per_position_sum() -> None:
    rng = np.random.default_rng(43)
    policy = SchedulePolicy(2, 3)
    params = init_predictor(VOCAB, fused_dim=5, rng=rng)
    C = rng.standard_normal((4, 5))
    Y = [VOCAB.speech_token(int(rng.integers(12))) for _ in range(6)]
    # independent loop: recompute each term from scratch with explicit slices
    expected = 0.0
    for i in range(1, 7):
        v = min(((i - 1) // 3 + 1) * 2, 4)
        logits = params.logits(C[:v], Y[: i - 1])
        expected += -math.log(softmax(logits)[Y[i - 1]])
    assert interleaved_loss_terms(C, Y, policy, params).sum() == pytest.approx(expected, rel=1e-12)


def test_predictive_distribution_normalizes() -> None:
    rng = np.random.default_rng(47)
    params = init_predictor(VOCAB, fused_dim=3, rng=rng)
    C = rng.standard_normal((4, 3))
    dist = predictive_distribution(C, [], 1, SchedulePolicy(2, 2), params)
    assert dist.sum() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_fused_rows_are_rejected(bad: float) -> None:
    rng = np.random.default_rng(49)
    policy = SchedulePolicy(2, 2)
    params = init_predictor(VOCAB, fused_dim=3, rng=rng)
    C = rng.standard_normal((4, 3))
    C[0, 0] = bad
    Y = [VOCAB.speech_token(int(rng.integers(12))) for _ in range(3)]
    with pytest.raises(ValueError, match="not finite"):
        interleaved_loss_terms(C, Y, policy, params)
    with pytest.raises(ValueError, match="not finite"):
        next_token_accuracy([(C, Y)], policy, params)
    with pytest.raises(ValueError, match="not finite"):
        predictive_distribution(C, Y[:1], 2, policy, params)


def _per_position_logits(C, Y, policy, params) -> np.ndarray:
    """Reference: one ``params.logits`` call per position, on its visible prefix."""
    rows = [params.logits(C[: visible_prefix(i, len(C), policy)], Y[: i - 1]) for i in range(1, len(Y) + 1)]
    return np.array(rows).reshape(len(Y), VOCAB.total_size)


@settings(max_examples=100, deadline=None)
@given(
    R=st.integers(1, 4),
    W=st.integers(1, 4),
    lengths=st.lists(st.tuples(st.integers(1, 9), st.integers(0, 12)), min_size=1, max_size=4),
    empty_at=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_masked_forward_matches_per_position_logits(R, W, lengths, empty_at, seed) -> None:
    rng = np.random.default_rng(seed)
    policy = SchedulePolicy(R, W)
    params = init_predictor(VOCAB, fused_dim=3, emb_dim=2, hidden_dim=4, rng=rng)
    params = params.replace({**params.arrays(), "out_bias": rng.standard_normal(17)})
    tokens = [VOCAB.speech_token(k) for k in range(3)] + [VOCAB.eos_id]
    pairs = [(rng.standard_normal((n, 3)), [int(t) for t in rng.choice(tokens, m)]) for n, m in lengths]
    pairs.insert(min(empty_at, len(pairs)), (rng.standard_normal((2, 3)), []))  # a pair with no targets
    hits = positions = 0
    for C, Y in pairs:
        ref = _per_position_logits(C, Y, policy, params)
        targets = np.asarray(Y, dtype=int)
        np.testing.assert_allclose(interleaved_loss_terms(C, Y, policy, params), cross_entropy(ref, targets), rtol=1e-12)
        hits += int((ref.argmax(axis=-1) == targets).sum())
        positions += len(Y)
    if positions:
        assert next_token_accuracy(pairs, policy, params) == hits / positions


def test_pairs_of_the_wrong_width_are_named() -> None:
    policy = SchedulePolicy(1, 1)
    params = init_predictor(VOCAB, fused_dim=2)
    Y = [VOCAB.speech_token(0)] * 2
    pairs = [(np.zeros((2, 2)), Y), (np.zeros((2, 3)), Y)]
    message = r"^pair 1: fused representations have width 3, the predictor's fused_dim is 2$"
    with pytest.raises(ValueError, match=message):
        next_token_accuracy(pairs, policy, params)
    with pytest.raises(ValueError, match=message):
        interleaved_loss_and_grads(pairs, policy, params)
    with pytest.raises(ValueError, match=message):
        train_toy(pairs, policy, 1, 0.1, vocab=VOCAB)
    with pytest.raises(ValueError, match=message.replace("pair 1", "pair 0")):
        interleaved_loss_terms(pairs[1][0], Y, policy, params)


@pytest.mark.parametrize("bad", [2.7, 2.0, True, np.float64(2.0), np.bool_(True), "2", None])
def test_non_integer_token_ids_are_named_by_position(bad) -> None:
    # No text ids, so a truncated float or a bool would otherwise score as a speech id.
    vocab = ExtendedVocab(text_size=0, speech_size=4)
    policy = SchedulePolicy(1, 1)
    params = init_predictor(vocab, fused_dim=2)
    C = np.zeros((2, 2))
    Y = [1, bad]
    message = re.escape(f"token at position 1 must be an integer id, got {bad!r}")
    with pytest.raises(ValueError, match=f"^pair 0: {message}$"):
        interleaved_loss_and_grads([(C, Y)], policy, params)
    with pytest.raises(ValueError, match=f"^pair 0: {message}$"):
        interleaved_loss_terms(C, Y, policy, params)
    with pytest.raises(ValueError, match=f"^pair 1: {message}$"):
        next_token_accuracy([(C, [1, 2]), (C, Y)], policy, params)
    with pytest.raises(ValueError, match=f"^{message}$"):
        predictive_distribution(C, Y, 3, policy, params)
    with pytest.raises(ValueError, match=re.escape(f"token at position 0 must be an integer id, got {bad!r}")):
        predictive_distribution(C, [bad], 2, policy, params)


@pytest.mark.parametrize("position, message", [
    (True, "position must be a positive integer, got True"),
    (1.5, "position must be a positive integer, got 1.5"),
    (2.0, "position must be a positive integer, got 2.0"),
    (0, "position must be a positive integer, got 0"),
    (99, "position 99 must follow the 1 previous ids, at 2"),
    (1, "position 1 must follow the 1 previous ids, at 2"),
])
def test_predictive_distribution_checks_the_position(position, message) -> None:
    params = init_predictor(ExtendedVocab(text_size=0, speech_size=4), fused_dim=2)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        predictive_distribution(np.zeros((3, 2)), [1], position, SchedulePolicy(1, 1), params)


def test_numpy_integer_token_ids_are_accepted() -> None:
    vocab = ExtendedVocab(text_size=0, speech_size=4)
    policy = SchedulePolicy(1, 1)
    params = init_predictor(vocab, fused_dim=2, rng=np.random.default_rng(3))
    C = np.random.default_rng(4).standard_normal((2, 2))
    loss, grads = interleaved_loss_and_grads([(C, [1, 2])], policy, params)
    for Y in (np.array([1, 2]), np.array([1, 2], dtype=np.uint16), [np.int32(1), np.int64(2)]):
        other_loss, other_grads = interleaved_loss_and_grads([(C, Y)], policy, params)
        assert other_loss == loss
        assert all(np.array_equal(other_grads[k], grads[k]) for k in grads)
        assert np.array_equal(interleaved_loss_terms(C, Y, policy, params), interleaved_loss_terms(C, [1, 2], policy, params))
        assert next_token_accuracy([(C, Y)], policy, params) == next_token_accuracy([(C, [1, 2])], policy, params)
        assert np.array_equal(predictive_distribution(C, Y, 3, policy, params),
                              predictive_distribution(C, [1, 2], 3, policy, params))


def test_accuracy_needs_positions_to_score() -> None:
    params = init_predictor(VOCAB, fused_dim=3)
    policy = SchedulePolicy(1, 1)
    with pytest.raises(ValueError, match="no positions to score"):
        next_token_accuracy([], policy, params)
    with pytest.raises(ValueError, match="no positions to score"):
        next_token_accuracy([(np.zeros((2, 3)), []), (np.ones((1, 3)), [])], policy, params)


@pytest.mark.filterwarnings("error")
def test_overflowing_logits_are_rejected_without_warnings() -> None:
    rng = np.random.default_rng(101)
    policy = SchedulePolicy(2, 2)
    params = init_predictor(VOCAB, fused_dim=3, rng=rng)
    # The output matmul overflows; numpy would warn outside the masked paths.
    huge = {"feat_bias": np.ones(16), "out_weight": np.full_like(params.out_weight, 1e308)}
    params = params.replace({**params.arrays(), **huge})
    C = rng.standard_normal((4, 3))
    Y = [VOCAB.speech_token(k) for k in range(5)]
    with pytest.raises(ValueError, match="model logits are not finite"):
        interleaved_loss_terms(C, Y, policy, params)
    with pytest.raises(ValueError, match="model logits are not finite"):
        next_token_accuracy([(C, Y)], policy, params)


@pytest.mark.filterwarnings("error")
def test_logits_whose_range_overflows_are_rejected_without_warnings() -> None:
    vocab = ExtendedVocab(text_size=0, speech_size=6)
    params = init_predictor(vocab, fused_dim=4, rng=np.random.default_rng(7))
    # Every logit is finite (+-9e307), but a row's max - min overflows.
    out_weight = np.zeros_like(params.out_weight)
    out_weight[:, 0] = 1e308 * (-1.0) ** np.arange(len(out_weight))
    feat_bias = np.zeros_like(params.feat_bias)
    feat_bias[0] = 0.9
    params = params.replace({**params.arrays(), "out_weight": out_weight,
                             "feat_weight": np.zeros_like(params.feat_weight), "feat_bias": feat_bias})
    C, Y, policy = np.zeros((2, 4)), [1, 2], SchedulePolicy(1, 1)
    with pytest.raises(ValueError, match="^model logits span more than the float range$"):
        interleaved_loss_terms(C, Y, policy, params)
    with pytest.raises(ValueError, match="^model logits span more than the float range$"):
        next_token_accuracy([(C, Y)], policy, params)


def test_empty_dataset_is_named() -> None:
    # next_token_accuracy([]) is covered by test_accuracy_needs_positions_to_score.
    params = init_predictor(VOCAB, fused_dim=3)
    with pytest.raises(ValueError, match="^dataset is empty$"):
        interleaved_loss_and_grads([], SchedulePolicy(1, 1), params)


# ---------------------------------------------------------------------------
# analytic gradients


def _predictor_theta(params: PredictorParams):
    arrays = params.arrays()
    keys = sorted(arrays)
    shapes = [arrays[k].shape for k in keys]

    def rebuild(theta: np.ndarray) -> PredictorParams:
        parts = unpack_arrays(theta, shapes)
        return params.replace(dict(zip(keys, parts)))

    return pack_arrays([arrays[k] for k in keys]), keys, rebuild


def test_interleaved_loss_gradients_match_finite_differences() -> None:
    rng = np.random.default_rng(53)
    policy = SchedulePolicy(2, 2)
    params = init_predictor(VOCAB, fused_dim=3, emb_dim=4, hidden_dim=5, rng=rng)
    C = rng.standard_normal((4, 3))
    Y = [VOCAB.speech_token(int(rng.integers(12))) for _ in range(5)]
    theta0, keys, rebuild = _predictor_theta(params)

    def loss_and_grad(theta: np.ndarray):
        probe = rebuild(theta)
        loss, grads = interleaved_loss_and_grads([(C, Y)], policy, probe)
        return loss, pack_arrays([grads[k] for k in keys])

    assert finite_diff_check(loss_and_grad, theta0, eps=1e-5) < 1e-5


def _looped_loss_and_grads(C, Y, policy, params):
    """Reference: one forward and backward pass per position, each re-meaning
    its visible prefix."""
    n, d = C.shape
    grads = {k: np.zeros_like(a) for k, a in params.arrays().items()}
    total = 0.0
    for i, target in enumerate(Y, start=1):
        v = visible_prefix(i, n, policy)
        prev = Y[i - 2] if i >= 2 else params.start_row
        feature = np.concatenate([C[:v].mean(axis=0), params.token_emb[prev]])
        hidden = params.feat_weight @ feature + params.feat_bias
        logits = params.out_weight @ hidden + params.out_bias
        total += cross_entropy(logits, target)
        d_logits = softmax(logits) - np.eye(len(logits))[target]
        grads["out_weight"] += np.outer(d_logits, hidden)
        grads["out_bias"] += d_logits
        d_hidden = params.out_weight.T @ d_logits
        grads["feat_weight"] += np.outer(d_hidden, feature)
        grads["feat_bias"] += d_hidden
        d_feature = params.feat_weight.T @ d_hidden
        grads["token_emb"][prev] += d_feature[d:]
    return total, grads


@settings(max_examples=150, deadline=None)
@given(
    R=st.integers(1, 4),
    W=st.integers(1, 4),
    lengths=st.lists(st.tuples(st.integers(1, 9), st.integers(0, 16)), min_size=1, max_size=4),
    alphabet=st.integers(1, 3),
    sizes=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4)),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_gradients_match_per_position_loop(R, W, lengths, alphabet, sizes, seed) -> None:
    rng = np.random.default_rng(seed)
    d, emb, hidden = sizes
    policy = SchedulePolicy(R, W)
    params = init_predictor(VOCAB, fused_dim=d, emb_dim=emb, hidden_dim=hidden, rng=rng)
    params = params.replace(
        {**params.arrays(), "feat_bias": rng.standard_normal(hidden), "out_bias": rng.standard_normal(17)}
    )
    # A small alphabet makes previous-token ids repeat; EOS may appear too.
    tokens = [VOCAB.speech_token(k) for k in range(alphabet)] + [VOCAB.eos_id]
    pairs = [(rng.standard_normal((n, d)), [int(t) for t in rng.choice(tokens, m)]) for n, m in lengths]

    loss, grads = interleaved_loss_and_grads(pairs, policy, params)
    refs = [_looped_loss_and_grads(C, Y, policy, params) for C, Y in pairs]
    assert loss == pytest.approx(sum(r[0] for r in refs), rel=1e-12, abs=1e-300)
    terms = sum(interleaved_loss_terms(*p, policy, params).sum() for p in pairs)
    assert loss == pytest.approx(terms, rel=1e-12, abs=1e-300)
    assert sorted(grads) == sorted(refs[0][1])
    for key in grads:
        ref = sum(r[1][key] for r in refs)
        np.testing.assert_allclose(grads[key], ref, rtol=1e-12, atol=1e-12, err_msg=key)

    # Changing the rows of the last pair that no position sees changes nothing, bit for bit.
    C, Y = pairs[-1]
    seen = max((visible_prefix(i, len(C), policy) for i in range(1, len(Y) + 1)), default=0)
    last = C.copy()
    last[seen:] += 10.0 * rng.standard_normal((len(last) - seen, d))
    loss_p, grads_p = interleaved_loss_and_grads([*pairs[:-1], (last, Y)], policy, params)
    assert loss_p == loss
    for key in grads:
        np.testing.assert_array_equal(grads_p[key], grads[key])


def _small_after_big(magnitude: float):
    """A 200-row pair of entries near ``magnitude`` with no targets and a 6-row
    pair of unit entries, under a predictor whose feature weights are scaled by 30."""
    rng = np.random.default_rng(61)
    params = init_predictor(VOCAB, fused_dim=3, rng=rng)
    params = params.replace({**params.arrays(), "feat_weight": 30.0 * params.feat_weight})
    big = (magnitude * (1.0 + rng.random((200, 3))), [])
    small = (rng.standard_normal((6, 3)), [VOCAB.speech_token(int(t)) for t in rng.integers(12, size=6)])
    return params, big, small


@pytest.mark.parametrize("magnitude", [1e4, 1e8, 1e12])
def test_pair_outputs_do_not_depend_on_earlier_pairs(magnitude) -> None:
    policy = SchedulePolicy(2, 3)
    params, big, small = _small_after_big(magnitude)
    alone = interleaved_loss_and_grads([small], policy, params)
    after = interleaved_loss_and_grads([big, small], policy, params)
    # The big pair has no targets, so the losses and gradients hold small's terms alone.
    assert after[0] == alone[0]
    for key in alone[1]:
        np.testing.assert_array_equal(after[1][key], alone[1][key], err_msg=key)


# ---------------------------------------------------------------------------
# decoding


def test_stub_eos_model_stops_immediately() -> None:
    policy = SchedulePolicy(3, 10)
    C = np.random.default_rng(1).standard_normal((5, 4))
    result = decode_stream(iter(C), policy, EosModel(VOCAB), DecodeConfig())
    assert result.tokens == [VOCAB.eos_id]
    assert result.trace == [Action(READ, 3), Action(WRITE, 1)]
    # with fewer representations than one read block the read is partial
    short = decode_stream(iter(C[:2]), policy, EosModel(VOCAB), DecodeConfig())
    assert short.trace == [Action(READ, 2), Action(WRITE, 1)]


def test_greedy_decode_is_deterministic() -> None:
    rng = np.random.default_rng(61)
    policy = SchedulePolicy(2, 3)
    model = SpeechOnlyModel(VOCAB, stop_after=7)
    C = rng.standard_normal((6, 4))
    config = DecodeConfig(mode="greedy", max_tokens=9)
    first = decode_stream(iter(C), policy, model, config)
    second = decode_stream(iter(C), policy, model, config)
    assert first.tokens == second.tokens
    assert first.trace == second.trace
    assert first.tokens[-1] == VOCAB.eos_id


def test_sampled_decode_reproducible_under_seed() -> None:
    rng = np.random.default_rng(67)
    policy = SchedulePolicy(2, 3)
    model = SpeechOnlyModel(VOCAB)
    C = rng.standard_normal((6, 4))
    config = DecodeConfig(mode="sampled", temperature=1.3, max_tokens=8, seed=5)
    first = decode_stream(iter(C), policy, model, config)
    second = decode_stream(iter(C), policy, model, config)
    assert first.tokens == second.tokens
    assert first.trace == second.trace


def test_decode_trace_satisfies_schedule_invariants() -> None:
    rng = np.random.default_rng(71)
    policy = SchedulePolicy(2, 3)
    for n in (1, 2, 5, 9):
        for stop_after in (2, 4, 10**9):
            C = rng.standard_normal((n, 4))
            model = SpeechOnlyModel(VOCAB, stop_after=stop_after)
            result = decode_stream(iter(C), policy, model, DecodeConfig(max_tokens=11))
            validate_sequence(result.trace, result.reps_read, len(result.tokens), policy)


@dataclass
class SessionStub:
    """:class:`SpeechOnlyModel` behind a ``session()``: the session keeps its
    rows in a list and stacks them for every step."""

    inner: SpeechOnlyModel

    @property
    def vocab(self) -> ExtendedVocab:
        return self.inner.vocab

    def session(self):
        rows: list = []
        return SimpleNamespace(extend=rows.append, logits=lambda prev_ids: self.inner.logits(np.vstack(rows), prev_ids))


@settings(max_examples=300, deadline=None)
@given(
    read=st.integers(1, 6),
    write=st.integers(1, 6),
    n=st.integers(1, 30),
    max_tokens=st.integers(0, 60),
    eos_at=st.none() | st.integers(0, 60),
    session=st.booleans(),
)
# max_tokens=0 reads one block; an EOS that fills a write block reads nothing more.
@example(read=2, write=3, n=5, max_tokens=0, eos_at=None, session=False)
@example(read=2, write=3, n=9, max_tokens=60, eos_at=5, session=True)
def test_decode_cadence_is_the_schedule_of_its_lengths(read, write, n, max_tokens, eos_at, session) -> None:
    policy = SchedulePolicy(read, write)
    stub = SpeechOnlyModel(VOCAB, stop_after=10**9 if eos_at is None else eos_at)
    model = SessionStub(stub) if session else stub
    C = np.random.default_rng(n).standard_normal((n, 3))
    result = decode_stream(iter(C), policy, model, DecodeConfig(max_tokens=max_tokens))
    written = len(result.tokens)
    assert written == (max_tokens if eos_at is None else min(max_tokens, eos_at + 1))
    assert result.trace == build_sequence(result.reps_read, written, policy)
    validate_sequence(result.trace, result.reps_read, written, policy)
    # One read block per write block, and none after the block that ends decoding.
    assert result.reps_read == min(n, read * max(1, -(-written // write)))


def test_decode_rejects_text_emitting_model() -> None:
    @dataclass
    class TextModel:
        vocab: ExtendedVocab

        def logits(self, visible, prev_ids):
            out = np.zeros(self.vocab.total_size)
            out[0] = 10.0  # text id 0
            return out

    with pytest.raises(ValueError, match="text-kind"):
        decode_stream(
            iter(np.zeros((3, 4))), SchedulePolicy(1, 2), TextModel(VOCAB), DecodeConfig()
        )


def test_decode_rejects_empty_stream() -> None:
    with pytest.raises(ValueError, match="no fused representations"):
        decode_stream(iter([]), SchedulePolicy(1, 1), EosModel(VOCAB), DecodeConfig())


def test_decode_config_validation() -> None:
    with pytest.raises(ValueError):
        DecodeConfig(mode="sampled", temperature=0.0)
    with pytest.raises(ValueError):
        DecodeConfig(mode="beam")


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"seed": True}, "seed must be a non-negative integer, got True"),
        ({"seed": -1}, "seed must be a non-negative integer, got -1"),
        ({"seed": 2.5}, "seed must be a non-negative integer, got 2.5"),
        ({"max_tokens": True}, "max_tokens must be a non-negative integer, got True"),
        ({"max_tokens": 2.5}, "max_tokens must be a non-negative integer, got 2.5"),
        ({"max_tokens": -1}, "max_tokens must be a non-negative integer, got -1"),
        ({"temperature": math.inf}, "temperature must be finite, got inf"),
        ({"temperature": -math.inf, "mode": "greedy"}, "temperature must be finite, got -inf"),
        ({"temperature": math.nan, "mode": "greedy"}, "temperature must be finite, got nan"),
        ({"temperature": 10**400}, f"temperature must be finite, got {10**400!r}"),
        ({"temperature": "1.0"}, "temperature must be finite, got '1.0'"),
    ],
)
def test_decode_config_names_the_bad_field(fields, message) -> None:
    with pytest.raises(ValueError) as info:
        DecodeConfig(**{"mode": "sampled", **fields})
    assert str(info.value) == message


def test_decode_config_accepts_zero_seed_and_tokens() -> None:
    assert DecodeConfig(mode="sampled", max_tokens=0, seed=0).seed == 0
    assert DecodeConfig(seed=2**70).seed == 2**70


@pytest.mark.parametrize("temperature", [True, False])
def test_decode_config_rejects_a_bool_temperature(temperature) -> None:
    for mode in ("sampled", "greedy"):
        with pytest.raises(ValueError) as info:
            DecodeConfig(mode=mode, temperature=temperature)
        assert str(info.value) == f"temperature must be finite, got {temperature!r}"


def test_decode_record_round_trips_trace() -> None:
    policy = SchedulePolicy(3, 10)
    C = np.zeros((5, 4))
    result = decode_stream(iter(C), policy, EosModel(VOCAB), DecodeConfig())
    record = result.to_record()
    assert record["schema"] == "decode/v1"
    assert record["trace"] == [{"kind": READ, "count": 3}, {"kind": WRITE, "count": 1}]
    # The trace is written in the schedule/v1 action form, by its one writer.
    longer = decode_stream(iter(np.zeros((7, 4))), SchedulePolicy(2, 3), _speech_only_predictor(4, 0), DecodeConfig(max_tokens=11))
    assert len(longer.trace) > 2
    assert longer.to_record()["trace"] == actions_to_records(longer.trace)


def _restacking_decode(C, policy, model, config):
    """Reference decode loop: re-stacks the whole consumed prefix before every
    step and samples with ``Generator.choice``."""
    rng = np.random.default_rng(config.seed)
    consumed, tokens, trace = [], [], []
    rows = iter(C)

    def read():
        got = 0
        for vec in rows:
            consumed.append(vec)
            got += 1
            if got == policy.read_block:
                break
        if got:
            trace.append(Action(READ, got))
        return got

    more = read() == policy.read_block
    while len(tokens) < config.max_tokens:
        wrote = 0
        while wrote < policy.write_block and len(tokens) < config.max_tokens:
            logits = model.logits(np.vstack(consumed), tokens)
            if config.mode == "greedy":
                token = int(np.argmax(logits))
            else:
                probs = np.exp(log_softmax(logits / config.temperature))
                token = int(rng.choice(len(probs), p=probs))
            tokens.append(token)
            wrote += 1
            if token == model.vocab.eos_id:
                break
        if wrote:
            trace.append(Action(WRITE, wrote))
        if tokens and tokens[-1] == model.vocab.eos_id:
            break
        if more and len(tokens) < config.max_tokens:
            more = read() == policy.read_block
    return tokens, trace, len(consumed)


def _speech_only_predictor(fused_dim: int, seed: int) -> PredictorParams:
    """``init_predictor`` with text and end-of-speech logits pushed far down."""
    params = init_predictor(VOCAB, fused_dim, rng=np.random.default_rng(seed))
    arrays = params.arrays()
    arrays["out_bias"] = np.zeros(VOCAB.total_size)
    arrays["out_bias"][: VOCAB.text_size] = -1e3
    arrays["out_bias"][VOCAB.eos_id] = -1e3
    return params.replace(arrays)


@settings(max_examples=80, deadline=None)
@given(
    read=st.integers(1, 5),
    write=st.integers(1, 8),
    n=st.one_of(st.integers(1, 40), st.sampled_from([63, 64, 65, 129])),
    mode=st.sampled_from(["greedy", "sampled"]),
    temperature=st.floats(0.2, 3.0),
    seed=st.integers(0, 2**32 - 1),
    stub=st.booleans(),
    stop_after=st.integers(1, 1000),
)
def test_decode_matches_restacking_reference(
    read, write, n, mode, temperature, seed, stub, stop_after
) -> None:
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((n, 3))
    policy = SchedulePolicy(read, write)
    if stub:
        model = SpeechOnlyModel(VOCAB, stop_after=stop_after)
    else:
        model = _speech_only_predictor(3, seed)
    # enough tokens to read every row, so N >= 65 grows the row buffer
    max_tokens = -(-n // read) * write + int(rng.integers(0, 5))
    config = DecodeConfig(mode=mode, temperature=temperature, max_tokens=max_tokens, seed=seed)
    result = decode_stream(iter(C), policy, model, config)
    tokens, trace, reps_read = _restacking_decode(C, policy, model, config)
    assert result.tokens == tokens
    assert result.trace == trace
    assert result.reps_read == reps_read


def test_sampled_choice_matches_generator_choice() -> None:
    logits = np.random.default_rng(83).standard_normal(VOCAB.total_size)
    for temperature in (0.3, 1.0, 2.5):
        config = DecodeConfig(mode="sampled", temperature=temperature)
        probs = np.exp(log_softmax(logits / temperature))
        for seed in range(250):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            assert _choose_token(logits, config, ours) == int(theirs.choice(len(probs), p=probs))
            assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sampled_choice_rejects_non_finite_logits(bad) -> None:
    logits = np.zeros(VOCAB.total_size)
    logits[3] = bad
    if bad == -np.inf:  # one -inf is a zero probability; all of them are rejected
        logits[:] = bad
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="probabilities"), np.errstate(invalid="ignore"):
        _choose_token(logits, DecodeConfig(mode="sampled"), rng)
    assert rng.bit_generator.state == state


def _reference_draw(logits: np.ndarray, temperature: float, u: float) -> int:
    """``Generator.choice``'s inverse-CDF draw at ``u``, written out."""
    cdf = np.cumsum(np.exp(log_softmax(logits / temperature)))
    cdf /= cdf[-1]
    return int(cdf.searchsorted(u, side="right"))


def _count_exact_draws(monkeypatch) -> list:
    calls: list = []
    exact = ttslm._exact_draw

    def counted(x, draw):
        calls.append(x)
        return exact(x, draw)

    monkeypatch.setattr(ttslm, "_exact_draw", counted)
    return calls


@settings(max_examples=120, deadline=None)
@given(
    size=st.one_of(st.integers(1, 130), st.integers(1, 7000)),
    scale=st.floats(1e-2, 1e3),
    mask=st.one_of(st.none(), st.tuples(st.floats(0, 1), st.floats(0, 1), st.sampled_from([-1e9, -np.inf]))),
    temperature=st.sampled_from([0.3, 1.0, 2.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_sampled_choice_matches_generator_choice_at_any_size(size, scale, mask, temperature, seed) -> None:
    logits = scale * np.random.default_rng(seed).standard_normal(size)
    if mask is not None:
        lo, hi, value = mask
        lo, hi = sorted((int(lo * size), int(hi * size)))
        if value == -np.inf:
            hi = min(hi, size - 1)  # all -inf would be rejected
        logits[lo:hi] = value
    config = DecodeConfig(mode="sampled", temperature=temperature)
    probs = np.exp(log_softmax(logits / temperature))
    for draw in range(8):
        ours, theirs = np.random.default_rng([seed, draw]), np.random.default_rng([seed, draw])
        assert _choose_token(logits, config, ours) == int(theirs.choice(len(probs), p=probs))
        assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("size", [1, 17, 64, 200, 6626])
@pytest.mark.parametrize("temperature", [0.3, 1.0, 2.5])
def test_sampled_choice_on_cdf_boundaries_takes_the_exact_path(monkeypatch, size, temperature) -> None:
    logits = np.random.default_rng(size).standard_normal(size)
    logits[size // 3 : size // 2] = -1e9
    cdf = np.cumsum(np.exp(log_softmax(logits / temperature)))
    cdf /= cdf[-1]
    steps = np.unique(cdf[cdf < 1.0])
    picks = np.random.default_rng(0).choice(len(steps), size=min(len(steps), 40), replace=False)
    draws = [0.0] + [u for c in steps[picks] for u in (np.nextafter(c, 0.0), c, np.nextafter(c, 1.0))]
    config = DecodeConfig(mode="sampled", temperature=temperature)
    calls = _count_exact_draws(monkeypatch)
    rng = SimpleNamespace(random=iter(draws).__next__)  # a Generator whose random() returns draws
    for u in draws:
        assert _choose_token(logits, config, rng) == _reference_draw(logits, temperature, u)
    # u == 0 and every draw within an ulp of a CDF step are left to the exact path.
    assert len(calls) == len(draws)


def test_sampled_choice_rarely_needs_the_exact_path(monkeypatch) -> None:
    calls = _count_exact_draws(monkeypatch)
    logits = np.random.default_rng(5).standard_normal(6626)
    config = DecodeConfig(mode="sampled")
    rng = np.random.default_rng(6)
    for _ in range(10_000):
        _choose_token(logits, config, rng)
    assert len(calls) <= 100


def _logits_near(kind: str, value: float, size: int, temperature: float, masked: bool) -> tuple[np.ndarray, bool]:
    """Logits ``x * T`` at one edge of the unshifted range, and whether the
    total of ``exp(x)`` leaves it, so that the draw must take the exact path."""
    z = 0.5 * np.random.default_rng(size).standard_normal(size)
    if masked:
        z[size // 4 : size // 2] = -np.inf
    if kind == "total":  # shift z so the unshifted total of exp(x) is value
        x = z + (math.log(value) - math.log(np.exp(z).sum()))
        outside = not 2.0**-960 <= value <= 2.0**1000
    elif kind == "max":  # one x at value, the rest near 0
        x = z.copy()
        x[size // 3] = value
        outside = True
    else:  # every finite x near value
        x = z + value
        outside = True
    return x * temperature, outside


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind, value", [
    ("total", 2.0**-960 * 1.001), ("total", 2.0**-960 * 0.999),
    ("total", 2.0**1000 * 0.999), ("total", 2.0**1000 * 1.001),
    ("max", 709.78), ("max", 709.79),  # exp(709.78) is finite, exp(709.79) overflows
    ("near", -745.0),  # exp underflows to a subnormal or 0
])
@pytest.mark.parametrize("temperature", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("masked", [False, True])
def test_sampled_choice_at_the_edges_of_the_unshifted_range(monkeypatch, kind, value, temperature, masked) -> None:
    logits, outside = _logits_near(kind, value, 700, temperature, masked)
    config = DecodeConfig(mode="sampled", temperature=temperature)
    probs = np.exp(log_softmax(logits / temperature))
    exact = _count_exact_draws(monkeypatch)
    for seed in range(40):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        assert _choose_token(logits, config, ours) == int(theirs.choice(len(probs), p=probs))
        assert ours.bit_generator.state == theirs.bit_generator.state
    # Inside the range the fast path certifies every one of these draws.
    assert len(exact) == 40 * outside


@pytest.mark.filterwarnings("error")
def test_sampled_choice_of_logits_whose_range_overflows() -> None:
    # Every logit is finite, but exp(1e308) overflows and 1e308 - -1e308 does too.
    logits = np.zeros(70)
    logits[[5, 9]] = 1e308, -1e308
    with np.errstate(over="ignore"):
        probs = np.exp(log_softmax(logits))
    for seed in range(10):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        assert _choose_token(logits, DecodeConfig(mode="sampled"), ours) == int(theirs.choice(len(probs), p=probs)) == 5
        assert ours.bit_generator.state == theirs.bit_generator.state


def test_standard_normal_logits_stay_in_the_unshifted_range(monkeypatch) -> None:
    draws: list = []
    exact = ttslm._exact_draw
    monkeypatch.setattr(ttslm, "_exact_draw", lambda x, draw: draws.append(draw) or exact(x, draw))
    logits = np.random.default_rng(5).standard_normal(6626)
    rng = np.random.default_rng(6)
    for temperature in (0.3, 1.0, 2.5):
        config = DecodeConfig(mode="sampled", temperature=temperature)
        for _ in range(3_000):
            _choose_token(logits, config, rng)
    # A total outside the range hands the generator's own random() to the exact path.
    assert not [draw for draw in draws if getattr(draw, "__self__", None) is rng]


def test_greedy_choice_takes_array_likes() -> None:
    assert _choose_token([0.5, 2.0, -1.0, 2.0], DecodeConfig(), None) == 1
    assert _choose_token((3, 1), DecodeConfig(), None) == 0


def test_greedy_decode_builds_no_generator(monkeypatch) -> None:
    def no_generator(seed=None):
        raise AssertionError("greedy decoding drew a generator")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    result = decode_stream(iter(np.zeros((3, 3))), SchedulePolicy(1, 2), SpeechOnlyModel(VOCAB), DecodeConfig(max_tokens=4))
    assert len(result.tokens) == 4


def test_decode_gives_the_model_a_read_only_prefix() -> None:
    @dataclass
    class WritingModel:
        vocab: ExtendedVocab

        def logits(self, visible, prev_ids):
            visible[0, 0] = 123.0
            return np.zeros(self.vocab.total_size)

    with pytest.raises(ValueError, match="read-only"):
        decode_stream(
            iter(np.zeros((3, 4))), SchedulePolicy(1, 2), WritingModel(VOCAB), DecodeConfig()
        )


@pytest.mark.parametrize(
    "rows, message",
    [
        ([np.zeros((2, 4)), np.zeros((3, 4))], "fused row 0 must be 1-D"),
        ([np.zeros(4), np.float64(1.0)], "fused row 1 must be 1-D"),
        ([np.zeros(4), np.zeros(4), np.zeros(3)], "fused row 2 has width 3, expected 4"),
        ([np.zeros(4), np.array([0.0, np.nan, 0.0, 0.0])], "fused row 1 is not finite"),
        ([np.array([np.inf, 0.0, 0.0, 0.0])], "fused row 0 is not finite"),
    ],
)
def test_decode_rejects_bad_rows(rows, message) -> None:
    with pytest.raises(ValueError, match=message):
        decode_stream(
            iter(rows), SchedulePolicy(3, 2), SpeechOnlyModel(VOCAB), DecodeConfig(max_tokens=4)
        )


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 16),
    v=st.integers(1, 700),
    prev=st.lists(st.integers(0, VOCAB.total_size - 1), max_size=3),
    scale=st.sampled_from([1e-3, 1.0, 1e6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_session_logits_equal_one_shot_logits(d, v, prev, scale, seed) -> None:
    rng = np.random.default_rng(seed)
    params = init_predictor(VOCAB, fused_dim=d, rng=rng)
    C = scale * rng.standard_normal((v, d))
    session = params.session()
    for row in C:
        session.extend(row)
    np.testing.assert_array_equal(session.logits(prev), params.logits(C, prev))
    # One more row changes the mean the next read takes.
    session.extend(C[0])
    np.testing.assert_array_equal(session.logits(prev), params.logits(np.vstack([C, C[:1]]), prev))


@dataclass
class LogitsOnly:
    """A predictor without ``session()``, so decoding keeps a row buffer for it."""

    inner: PredictorParams

    @property
    def vocab(self) -> ExtendedVocab:
        return self.inner.vocab

    def logits(self, visible, prev_ids):
        return self.inner.logits(visible, prev_ids)


@pytest.mark.parametrize("wrap", [lambda p: p, LogitsOnly], ids=["session", "logits-only"])
def test_decode_rejects_a_first_row_of_the_wrong_width(wrap) -> None:
    model = wrap(_speech_only_predictor(3, 0))
    with pytest.raises(ValueError, match=r"visible must be \(v >= 1, 3\)"):
        decode_stream(iter(np.zeros((4, 5))), SchedulePolicy(2, 2), model, DecodeConfig(max_tokens=4))


BAD_PREVIOUS_IDS = [True, np.True_, 1.0, np.float64(2.0), 2.5, "1", None, 99, 5, -1]


@pytest.mark.parametrize("bad", BAD_PREVIOUS_IDS)
def test_a_bad_previous_id_is_named_on_both_logits_paths(bad) -> None:
    params = init_predictor(ExtendedVocab(0, 4), 3)
    session = params.session()
    session.extend(np.ones(3))
    message = f"^previous token id {re.escape(repr(bad))} is not a vocabulary id in \\[0, 5\\)$"
    with pytest.raises(ValueError, match=message):
        session.logits([bad])
    with pytest.raises(ValueError, match=message):
        session.logits([1, bad])
    with pytest.raises(ValueError, match=message):
        params.logits(np.ones((1, 3)), [bad])


def test_numpy_integer_previous_ids_give_the_logits_of_ints() -> None:
    params = init_predictor(ExtendedVocab(0, 4), 3, rng=np.random.default_rng(5))
    session = params.session()
    session.extend(np.arange(3.0))
    for prev in (0, 3, 4):
        expected = session.logits([prev])
        assert np.array_equal(params.logits(np.arange(3.0)[None], [prev]), expected)
        for cast in (np.int64, np.int32, np.uint8):
            assert np.array_equal(session.logits([cast(prev)]), expected)
            assert np.array_equal(params.logits(np.arange(3.0)[None], np.array([prev], dtype=cast)), expected)


@pytest.mark.parametrize("mode", ["greedy", "sampled"])
def test_decode_passes_its_ids_to_both_logits_paths(mode) -> None:
    params = _speech_only_predictor(3, 11)
    C = np.random.default_rng(12).standard_normal((7, 3))
    config = DecodeConfig(mode=mode, max_tokens=20, seed=4)
    result = decode_stream(iter(C), SchedulePolicy(2, 3), params, config)
    assert len(result.tokens) == 20
    assert decode_stream(iter(C), SchedulePolicy(2, 3), LogitsOnly(params), config) == result


def test_session_rejects_bad_rows_and_reads_before_rows() -> None:
    session = init_predictor(VOCAB, fused_dim=3).session()
    with pytest.raises(ValueError, match=r"visible must be \(v >= 1, 3\), got \(0, 3\)"):
        session.logits([])
    with pytest.raises(ValueError, match=r"got \(1, 4\)"):
        session.extend(np.zeros(4))
    session.extend(np.zeros(3))
    with pytest.raises(ValueError, match=r"got \(2, 1\)"):
        session.extend(np.zeros(1))


# ---------------------------------------------------------------------------
# toy training


def test_lr_zero_training_is_a_no_op() -> None:
    rng = np.random.default_rng(73)
    pairs = copy_task_dataset(VOCAB, 6, 4, 4, rng)
    _, curve = train_toy(pairs, SchedulePolicy(1, 1), epochs=4, lr=0.0, vocab=VOCAB, seed=1)
    assert curve == pytest.approx([curve[0]] * 4, rel=1e-15)


def test_single_sample_loss_strictly_decreases() -> None:
    rng = np.random.default_rng(79)
    pairs = copy_task_dataset(VOCAB, 1, 5, 4, rng)
    _, curve = train_toy(pairs, SchedulePolicy(1, 1), epochs=6, lr=0.05, vocab=VOCAB, seed=2)
    for before, after in zip(curve, curve[1:]):
        assert after < before


def test_copy_task_reaches_high_accuracy_and_decodes_heldout() -> None:
    rng = np.random.default_rng(83)
    policy = SchedulePolicy(1, 1)
    train_pairs = copy_task_dataset(VOCAB, 40, 6, 8, rng)
    held_out = copy_task_dataset(VOCAB, 10, 6, 8, rng)
    params, curve = train_toy(train_pairs, policy, epochs=60, lr=0.25, vocab=VOCAB, seed=3)
    assert curve[-1] < curve[0]
    assert next_token_accuracy(held_out, policy, params) >= 0.95
    # greedy decode reproduces a held-out target sequence
    C, Y = held_out[0]
    result = decode_stream(iter(C), policy, params, DecodeConfig(max_tokens=len(Y)))
    assert result.tokens == Y


# ---------------------------------------------------------------------------
# gate fusion


def _fused_setup(rng: np.random.Generator):
    d = 3
    ffn = FfnParams(
        0.4 * rng.standard_normal((4, 6)),
        0.1 * rng.standard_normal(4),
        0.4 * rng.standard_normal((d, 4)),
        0.1 * rng.standard_normal(d),
    )
    gate = GateParams(0.4 * rng.standard_normal((d, 2 * d)), 0.1 * rng.standard_normal(d))
    params = init_predictor(VOCAB, fused_dim=d, emb_dim=d, hidden_dim=5, rng=rng)
    hidden_states = rng.standard_normal((4, 6))
    text_ids = [int(rng.integers(4)) for _ in range(4)]  # a text id is its own local index
    return ffn, gate, params, hidden_states, text_ids


def test_fused_representations_match_row_by_row() -> None:
    ffn, gate, params, hidden_states, text_ids = _fused_setup(np.random.default_rng(99))
    C = fused_representations(ffn, gate, params.token_emb, hidden_states, text_ids)
    for i, t in enumerate(text_ids):
        row = fused_representations(ffn, gate, params.token_emb, hidden_states[i : i + 1], [t])
        assert np.array_equal(C[i : i + 1], row)


# ---------------------------------------------------------------------------
# persistence


def test_predictor_round_trip(tmp_path) -> None:
    rng = np.random.default_rng(103)
    params = init_predictor(VOCAB, fused_dim=4, rng=rng)
    path = tmp_path / "predictor.tensors"
    save_predictor(path, params)
    loaded = load_predictor(path)
    assert loaded.vocab == VOCAB
    for key, value in params.arrays().items():
        np.testing.assert_array_equal(loaded.arrays()[key], value)


def test_predictor_with_a_nan_weight_is_neither_saved_nor_loaded(tmp_path) -> None:
    params = init_predictor(VOCAB, fused_dim=4, rng=np.random.default_rng(103))
    params.out_weight[0, 0] = math.nan
    path = tmp_path / "predictor.tensors"
    with pytest.raises(ValueError, match="tensor 'out_weight' holds NaN or an infinity"):
        save_predictor(path, params)
    assert list(tmp_path.iterdir()) == []
    # the same file from another writer: the raw payload is appended after a valid header
    params.out_weight[0, 0] = 0.0
    save_predictor(path, params)
    data = bytearray(path.read_bytes())
    header_end = data.index(b"\n", data.index(b"\n") + 1) + 1
    names = list(params.arrays())
    offset = header_end + 8 * sum(params.arrays()[k].size for k in names[: names.index("out_weight")])
    data[offset:offset + 8] = np.array([math.nan]).tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: tensor 'out_weight' holds NaN or an infinity$"):
        load_predictor(path)


@pytest.mark.parametrize(
    "meta, field",
    [
        ({"text_size": 4.9, "speech_size": 12}, "meta.text_size"),
        ({"text_size": "4", "speech_size": 12}, "meta.text_size"),
        ({"speech_size": 12}, "meta.text_size"),
        ({"text_size": 4, "speech_size": 12.0}, "meta.speech_size"),
        ({"text_size": 4}, "meta.speech_size"),
    ],
)
def test_predictor_load_rejects_bad_meta(tmp_path, meta, field) -> None:
    params = init_predictor(VOCAB, fused_dim=4, rng=np.random.default_rng(103))
    path = tmp_path / "predictor.tensors"
    save_tensors(path, params.arrays(), meta=meta)
    with pytest.raises(ValueError, match=field):
        load_predictor(path)


def test_pairs_round_trip(tmp_path) -> None:
    rng = np.random.default_rng(107)
    pairs = copy_task_dataset(VOCAB, 3, 4, 4, rng)
    path = tmp_path / "pairs.jsonl"
    records.write_jsonl(path, [{"schema": "fused-pairs/v1", "fused": C.tolist(), "tokens": Y} for C, Y in pairs])
    loaded = load_pairs(path)
    assert len(loaded) == 3
    for (C, Y), (C2, Y2) in zip(pairs, loaded):
        np.testing.assert_array_equal(C, C2)
        assert Y == Y2
