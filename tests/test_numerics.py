from __future__ import annotations

import json
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamvox import records
from streamvox.numerics import (
    FfnParams,
    FusionPipelineParams,
    GateParams,
    cross_entropy,
    cross_entropy_and_grads,
    ffn_apply,
    ffn_grads,
    finite_diff_check,
    fuse,
    fuse_grads,
    fusion_loss,
    fusion_loss_and_grads,
    gate_fuse,
    gate_fuse_grads,
    load_tensors,
    log_softmax,
    pack_arrays,
    save_tensors,
    sgd_step,
    sigmoid,
    softmax,
    unpack_arrays,
)


def random_ffn(rng: np.random.Generator, in_dim: int, hidden: int, out: int) -> FfnParams:
    return FfnParams(
        rng.standard_normal((hidden, in_dim)),
        rng.standard_normal(hidden),
        rng.standard_normal((out, hidden)),
        rng.standard_normal(out),
    )


# ---------------------------------------------------------------------------
# adapter downsampling


def two_branch_sigmoid(x) -> np.ndarray:
    """The sigmoid as two boolean-masked branches, each exp argument <= 0."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_matches_two_branch_form_bit_for_bit() -> None:
    rng = np.random.default_rng(41)
    special = [0.0, -0.0, 710.0, -710.0, 1e308, -1e308, np.inf, -np.inf, np.nan, -np.nan]
    nan_payload = np.array([0x7FF8000000000001, 0xFFF8000000000123], dtype=np.uint64).view(float)
    cases = [np.array(special), nan_payload, np.float64(np.nan), np.float64(-3.5)]
    for scale in (1e-3, 1e-1, 1.0, 10.0, 100.0, 800.0):
        for shape in ((1,), (7,), (3, 17), (2, 2, 64)):
            cases.append(rng.standard_normal(shape) * scale)
    cases.append(rng.permutation(np.concatenate([special, rng.standard_normal(1000) * 50.0])))
    for x in cases:
        got, want = sigmoid(x), two_branch_sigmoid(x)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()



@pytest.mark.parametrize("x", [0.5, -2.0, np.float64(3.0), np.array(-0.25)])
def test_sigmoid_of_a_scalar_is_a_writable_0d_array(x) -> None:
    got = sigmoid(x)
    assert type(got) is np.ndarray and got.shape == () and got.flags.writeable
    assert got.tobytes() == two_branch_sigmoid(np.asarray(x, dtype=float)).tobytes()


# ---------------------------------------------------------------------------
# gate fusion


def test_gate_zero_params_averages_inputs() -> None:
    params = GateParams(np.zeros((3, 6)), np.zeros(3))
    e_hidden = np.array([1.0, -2.0, 0.5])
    e_emb = np.array([3.0, 4.0, -1.5])
    gate, fused = gate_fuse(params, e_hidden, e_emb)
    np.testing.assert_allclose(gate, 0.5)
    np.testing.assert_allclose(fused, (e_hidden + e_emb) / 2)


def test_gate_equal_inputs_pass_through() -> None:
    rng = np.random.default_rng(5)
    params = GateParams(rng.standard_normal((4, 8)), rng.standard_normal(4))
    v = rng.standard_normal(4)
    _, fused = gate_fuse(params, v, v)
    np.testing.assert_allclose(fused, v, atol=1e-12)


def test_gate_matches_frozen_scalar_evaluation() -> None:
    # frozen from an independent scalar script seeded with default_rng(1234)
    params = GateParams(
        np.array(
            [
                [-1.6038368053963015, 0.06409991400376411, 0.7408912958767259, 0.15261919356565307],
                [0.8637438913233318, 2.913099222503971, -1.4788233606644015, 0.9454729746458599],
            ]
        ),
        np.array([-1.6661354573179643, 0.34374458145267967]),
    )
    e_hidden = np.array([-0.5124437092848577, 1.3237589566885721])
    e_emb = np.array([-0.8602801935850233, 0.5194931990183601])
    gate, fused = gate_fuse(params, e_hidden, e_emb)
    np.testing.assert_allclose(gate, [0.2112351930358163, 0.996013054130896], rtol=1e-12)
    np.testing.assert_allclose(fused, [-0.7868048866789781, 1.320552392648367], rtol=1e-12)


def test_gate_range_is_open_interval() -> None:
    # strict bounds hold wherever the sigmoid is not saturated past float64
    # resolution; keep pre-activations moderate
    rng = np.random.default_rng(17)
    for _ in range(50):
        d = int(rng.integers(1, 9))
        params = GateParams(0.5 * rng.standard_normal((d, 2 * d)), 0.5 * rng.standard_normal(d))
        gate, _ = gate_fuse(params, rng.standard_normal(d), rng.standard_normal(d))
        assert np.all(gate > 0) and np.all(gate < 1)


def test_gate_output_is_convex_combination() -> None:
    rng = np.random.default_rng(18)
    for _ in range(50):
        d = int(rng.integers(1, 9))
        params = GateParams(rng.standard_normal((d, 2 * d)), rng.standard_normal(d))
        e_hidden = 5 * rng.standard_normal(d)
        e_emb = 5 * rng.standard_normal(d)
        _, fused = gate_fuse(params, e_hidden, e_emb)
        low = np.minimum(e_hidden, e_emb)
        high = np.maximum(e_hidden, e_emb)
        assert np.all(fused >= low - 1e-12) and np.all(fused <= high + 1e-12)


def test_gate_rejects_shape_mismatch() -> None:
    params = GateParams(np.zeros((3, 6)), np.zeros(3))
    with pytest.raises(ValueError):
        gate_fuse(params, np.zeros(2), np.zeros(3))


# ---------------------------------------------------------------------------
# projection ffn


def test_ffn_zero_first_layer_reduces_to_bias_path() -> None:
    params = FfnParams(np.zeros((4, 3)), np.array([0.3, -1.0, 0.0, 2.0]), np.zeros((2, 4)), np.array([5.0, -5.0]))
    out = ffn_apply(params, np.array([9.0, 9.0, 9.0]))
    np.testing.assert_allclose(out, params.b2)
    params2 = FfnParams(np.zeros((2, 3)), np.array([0.5, -0.5]), np.eye(2), np.zeros(2))
    np.testing.assert_allclose(ffn_apply(params2, np.zeros(3)), np.tanh([0.5, -0.5]))


def test_ffn_scalar_closed_form() -> None:
    # 1-D chain: y = w2 * tanh(w1 * x + b1) + b2
    params = FfnParams(np.array([[2.0]]), np.array([-1.0]), np.array([[3.0]]), np.array([0.25]))
    x = 0.7
    expected = 3.0 * math.tanh(2.0 * x - 1.0) + 0.25
    np.testing.assert_allclose(ffn_apply(params, [x]), [expected], rtol=1e-15)


def test_ffn_regression_locked_output() -> None:
    rng = np.random.default_rng(42)
    params = random_ffn(rng, 3, 4, 3)
    out = ffn_apply(params, np.array([0.1, -0.2, 0.3]))
    # frozen from the first evaluation of this configuration
    np.testing.assert_allclose(
        out,
        [0.2537585499419579, 0.4802507735500848, 1.6404669788984876],
        rtol=1e-12,
    )


def test_ffn_rejects_mismatched_input() -> None:
    params = FfnParams(np.zeros((2, 3)), np.zeros(2), np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        ffn_apply(params, np.zeros(4))


# ---------------------------------------------------------------------------
# cross entropy


def test_cross_entropy_uniform_is_log_v() -> None:
    for v in (2, 5, 37):
        assert cross_entropy(np.zeros(v), 0) == pytest.approx(math.log(v), rel=1e-12)


def test_cross_entropy_confident_limit() -> None:
    logits = np.zeros(5)
    logits[2] = 50.0
    assert cross_entropy(logits, 2) < 1e-20


def test_cross_entropy_matches_scalar_softmax() -> None:
    logits = [1.0, 2.0, 3.0]
    denom = sum(math.exp(z) for z in logits)
    expected = -math.log(math.exp(3.0) / denom)
    assert cross_entropy(np.array(logits), 2) == pytest.approx(expected, rel=1e-14)


def test_cross_entropy_shift_invariance() -> None:
    rng = np.random.default_rng(23)
    logits = rng.standard_normal(11)
    for shift in (-500.0, -3.2, 0.0, 7.7, 500.0):
        assert cross_entropy(logits + shift, 4) == pytest.approx(
            cross_entropy(logits, 4), abs=1e-12
        )


def test_cross_entropy_rejects_out_of_range_target() -> None:
    with pytest.raises(ValueError):
        cross_entropy(np.zeros(3), 3)
    with pytest.raises(ValueError):
        cross_entropy(np.zeros(3), -1)


@pytest.mark.parametrize("target", [1.5, True, np.float64(1.0), [0.0, 1.0], np.array([True, False])])
def test_cross_entropy_rejects_non_integer_targets(target) -> None:
    logits = np.array([[0.1, 0.2, 0.3], [0.3, 0.2, 0.1]])
    if np.ndim(target) == 0:
        logits = logits[0]
    with pytest.raises(ValueError, match="^target must be integers, got"):
        cross_entropy(logits, target)
    with pytest.raises(ValueError, match="^target must be integers, got"):
        cross_entropy_and_grads(logits, target)


def test_cross_entropy_accepts_numpy_integer_targets() -> None:
    logits = np.array([[0.1, 0.2, 0.3], [0.3, 0.2, 0.1]])
    for target in (np.array([2, 0], dtype=np.uint8), [np.int32(2), np.int64(0)]):
        assert np.array_equal(cross_entropy(logits, target), cross_entropy(logits, [2, 0]))
        assert np.array_equal(cross_entropy_and_grads(logits, target)[1], cross_entropy_and_grads(logits, [2, 0])[1])
    assert cross_entropy(logits[0], np.int16(1)) == cross_entropy(logits[0], 1)


def test_softmax_normalizes() -> None:
    probs = softmax(np.array([100.0, 101.0, 99.0]))
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# batch rule: leading axes are batch axes


@settings(max_examples=60, deadline=None)
@given(
    lead=st.lists(st.integers(0, 3), min_size=1, max_size=2).map(tuple),
    d_in=st.integers(1, 6),
    hidden=st.integers(1, 6),
    d=st.integers(1, 6),
    classes=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernels_on_stacked_rows_match_row_by_row(lead, d_in, hidden, d, classes, seed) -> None:
    rng = np.random.default_rng(seed)
    ffn = random_ffn(rng, d_in, hidden, d)
    gate = GateParams(rng.standard_normal((d, 2 * d)), rng.standard_normal(d))
    x = 3 * rng.standard_normal(lead + (d_in,))
    e_hidden, e_emb, d_fused = 3 * rng.standard_normal((3,) + lead + (d,))
    logits = 30 * rng.standard_normal(lead + (classes,))
    target = rng.integers(classes, size=lead)
    d_out = rng.standard_normal(lead + (d,))
    table = rng.standard_normal((2, d))  # two rows, so ids repeat
    ids = rng.integers(2, size=lead)

    stacked_ffn = ffn_apply(ffn, x)
    stacked_gate = gate_fuse(gate, e_hidden, e_emb)
    stacked_ce = cross_entropy(logits, target)
    stacked_ce_terms, stacked_ce_grads = cross_entropy_and_grads(logits, target)
    gate_grads = gate_fuse_grads(gate, e_hidden, e_emb, d_fused)
    d_ffn, d_x = ffn_grads(ffn, x, d_out)
    stacked_fuse = fuse(ffn, gate, table, x, ids)
    d_table = np.zeros_like(table)
    fuse_ffn, fuse_gate = fuse_grads(ffn, gate, x, ids, *stacked_fuse[:2], d_fused, d_table)
    summed_gate = [np.zeros_like(gate.weight), np.zeros_like(gate.bias)]
    summed_ffn = [np.zeros_like(a) for a in (ffn.w1, ffn.b1, ffn.w2, ffn.b2)]
    summed_fuse = [np.zeros_like(a) for a in (ffn.w1, ffn.b1, ffn.w2, ffn.b2, gate.weight, gate.bias)]
    row_d_table = np.zeros_like(table)
    for i in np.ndindex(lead):
        assert np.array_equal(sigmoid(logits)[i], sigmoid(logits[i]))
        assert np.array_equal(stacked_ffn[i], ffn_apply(ffn, x[i]))
        for got, want in zip(stacked_gate, gate_fuse(gate, e_hidden[i], e_emb[i])):
            assert np.array_equal(got[i], want)
        assert np.array_equal(log_softmax(logits)[i], log_softmax(logits[i]))
        assert np.array_equal(softmax(logits)[i], softmax(logits[i]))
        assert stacked_ce[i] == cross_entropy(logits[i], target[i]) == stacked_ce_terms[i]
        assert np.array_equal(stacked_ce_grads[i], cross_entropy_and_grads(logits[i], target[i])[1])
        d_w, d_b, d_eh, d_ee = gate_fuse_grads(gate, e_hidden[i], e_emb[i], d_fused[i])
        assert np.array_equal(gate_grads[2][i], d_eh) and np.array_equal(gate_grads[3][i], d_ee)
        summed_gate[0] += d_w
        summed_gate[1] += d_b
        row_ffn, row_d_x = ffn_grads(ffn, x[i], d_out[i])
        assert np.array_equal(d_x[i], row_d_x)
        for total, part in zip(summed_ffn, (row_ffn.w1, row_ffn.b1, row_ffn.w2, row_ffn.b2)):
            total += part
        row_fuse = fuse(ffn, gate, table, x[i], ids[i])
        for got, want in zip(stacked_fuse, row_fuse):
            assert np.array_equal(got[i], want)
        row_ffn, row_gate = fuse_grads(ffn, gate, x[i], ids[i], *row_fuse[:2], d_fused[i], row_d_table)
        for total, part in zip(summed_fuse, (*vars(row_ffn).values(), *vars(row_gate).values())):
            total += part
    got_all = gate_grads[:2] + (d_ffn.w1, d_ffn.b1, d_ffn.w2, d_ffn.b2)
    got_all += (*vars(fuse_ffn).values(), *vars(fuse_gate).values(), d_table)
    for got, want in zip(got_all, summed_gate + summed_ffn + summed_fuse + [row_d_table]):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    d_e_emb = gate_fuse_grads(gate, *stacked_fuse[:2], d_fused)[3]
    for r in range(len(table)):  # a table row sums the gradients of every lookup of it
        np.testing.assert_allclose(d_table[r], d_e_emb[ids == r].sum(axis=0), rtol=1e-12, atol=1e-12)


def test_stacked_parameters_give_one_loss_per_set() -> None:
    rng = np.random.default_rng(7)
    params, h = _fusion_setup(rng, 3)
    shapes = [a.shape for a in _fusion_arrays(params)]

    def rebuild(theta: np.ndarray) -> FusionPipelineParams:
        parts = unpack_arrays(theta, shapes)
        return FusionPipelineParams(FfnParams(*parts[:4]), parts[4], GateParams(parts[5], parts[6]), parts[7])

    base = pack_arrays(_fusion_arrays(params))
    theta = base + 0.1 * rng.standard_normal((2, 3, base.shape[0]))
    losses = fusion_loss(rebuild(theta), h, 2, 4)
    assert losses.shape == (2, 3)
    for i in np.ndindex(2, 3):
        assert losses[i] == pytest.approx(fusion_loss(rebuild(theta[i]), h, 2, 4), rel=1e-13)


# ---------------------------------------------------------------------------
# gradients and the finite-difference checker


def test_finite_diff_on_quadratic() -> None:
    def quadratic(theta: np.ndarray):
        return float(theta @ theta), 2 * theta

    theta = np.random.default_rng(2).standard_normal(6)
    assert finite_diff_check(quadratic, theta, eps=1e-5) < 1e-8


def test_finite_diff_rejects_zero_step() -> None:
    with pytest.raises(ValueError):
        finite_diff_check(lambda t: (0.0, t), np.zeros(2), eps=0.0)


def test_finite_diff_rejects_non_finite_loss() -> None:
    with pytest.raises(ValueError):
        finite_diff_check(lambda t: (math.inf, t), np.zeros(2), eps=1e-5)


def _quadratic_with_bad_coordinate(bad: int | None):
    def loss_and_grad(theta: np.ndarray):
        grad = 2 * theta
        if bad is not None:
            grad[bad] += 0.5
        return float(theta @ theta), grad

    return loss_and_grad


def test_finite_diff_batched_loss_reports_one_wrong_coordinate() -> None:
    theta = np.random.default_rng(5).standard_normal(7)
    batched = lambda probes: (probes**2).sum(axis=-1)
    assert finite_diff_check(_quadratic_with_bad_coordinate(None), theta, 1e-5, batched) < 1e-8
    error = finite_diff_check(_quadratic_with_bad_coordinate(4), theta, 1e-5, batched)
    assert error == pytest.approx(0.5 / max(1.0, abs(2 * theta[4] + 0.5)), rel=1e-6)


@pytest.mark.parametrize("batched", [True, False])
def test_finite_diff_names_first_non_finite_probe(batched: bool) -> None:
    theta = np.array([1.0, 2.0, 1e-6, 3.0, 1e-6])  # coordinates 2 and 4 step below zero

    def loss_and_grad(t: np.ndarray):
        return float(np.log(t).sum()), 1.0 / t

    loss_fn = (lambda probes: np.log(probes).sum(axis=-1)) if batched else None
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="probe coordinate 2$"):
        finite_diff_check(loss_and_grad, theta, 1e-5, loss_fn)


def _fusion_setup(rng: np.random.Generator, d: int) -> tuple[FusionPipelineParams, np.ndarray]:
    hidden = int(rng.integers(2, 6))
    classes = 5
    params = FusionPipelineParams(
        ffn=random_ffn(rng, d, hidden, d),
        embedding=rng.standard_normal((6, d)),
        gate=GateParams(rng.standard_normal((d, 2 * d)), rng.standard_normal(d)),
        head=rng.standard_normal((classes, d)),
    )
    return params, rng.standard_normal(d)


def _fusion_arrays(params: FusionPipelineParams) -> list[np.ndarray]:
    return [
        params.ffn.w1,
        params.ffn.b1,
        params.ffn.w2,
        params.ffn.b2,
        params.embedding,
        params.gate.weight,
        params.gate.bias,
        params.head,
    ]


def fusion_theta_loss(params: FusionPipelineParams, h, token_id: int, target: int):
    """Flattened loss-and-grad closure over every pipeline parameter."""
    arrays = _fusion_arrays(params)
    shapes = [a.shape for a in arrays]

    def loss_and_grad(theta: np.ndarray):
        parts = unpack_arrays(theta, shapes)
        probe = FusionPipelineParams(
            ffn=FfnParams(*parts[:4]),
            embedding=parts[4],
            gate=GateParams(parts[5], parts[6]),
            head=parts[7],
        )
        loss, grads = fusion_loss_and_grads(probe, h, token_id, target)
        return loss, pack_arrays(_fusion_arrays(grads))

    return pack_arrays(arrays), loss_and_grad


def test_fusion_gradients_match_finite_differences_d4() -> None:
    rng = np.random.default_rng(99)
    params, h = _fusion_setup(rng, 4)
    theta, fn = fusion_theta_loss(params, h, token_id=3, target=2)
    assert finite_diff_check(fn, theta, eps=1e-5) < 1e-5


def test_fusion_loss_agrees_with_grad_path() -> None:
    rng = np.random.default_rng(101)
    params, h = _fusion_setup(rng, 3)
    loss, _ = fusion_loss_and_grads(params, h, token_id=1, target=4)
    assert loss == pytest.approx(fusion_loss(params, h, 1, 4), rel=1e-15)


def test_gate_and_ffn_input_gradients() -> None:
    rng = np.random.default_rng(31)
    d = 5
    params = GateParams(rng.standard_normal((d, 2 * d)), rng.standard_normal(d))
    e_hidden = rng.standard_normal(d)
    e_emb = rng.standard_normal(d)
    d_fused = rng.standard_normal(d)

    def gate_loss(theta: np.ndarray):
        eh, ee = theta[:d], theta[d:]
        _, fused = gate_fuse(params, eh, ee)
        _, _, d_eh, d_ee = gate_fuse_grads(params, eh, ee, d_fused)
        return float(fused @ d_fused), np.concatenate([d_eh, d_ee])

    assert finite_diff_check(gate_loss, np.concatenate([e_hidden, e_emb]), 1e-6) < 1e-6

    ffn = random_ffn(rng, 4, 3, 5)
    x = rng.standard_normal(4)
    d_out = rng.standard_normal(5)

    def ffn_loss(theta: np.ndarray):
        _, d_x = ffn_grads(ffn, theta, d_out)
        return float(ffn_apply(ffn, theta) @ d_out), d_x

    assert finite_diff_check(ffn_loss, x, 1e-6) < 1e-6


def test_cross_entropy_grads_are_softmax_minus_onehot() -> None:
    logits = np.array([0.2, -1.0, 3.0])
    loss, grads = cross_entropy_and_grads(logits, 1)
    expected = softmax(logits)
    expected[1] -= 1
    assert loss == cross_entropy(logits, 1)  # bit identical
    np.testing.assert_array_equal(grads, expected)


# ---------------------------------------------------------------------------
# sgd and persistence


def test_sgd_step_examples() -> None:
    assert sgd_step(np.array([1.0]), np.array([0.5]), 0.1)[0] == pytest.approx(0.95)
    params = np.random.default_rng(4).standard_normal(8)
    np.testing.assert_array_equal(sgd_step(params, np.zeros(8), 0.0), params)


def test_sgd_step_matches_elementwise_loop() -> None:
    rng = np.random.default_rng(8)
    params = {"a": rng.standard_normal((3, 2)), "b": rng.standard_normal(4)}
    grads = {"a": rng.standard_normal((3, 2)), "b": rng.standard_normal(4)}
    updated = sgd_step(params, grads, 0.37)
    for key in params:
        flat_p = params[key].ravel()
        flat_g = grads[key].ravel()
        expected = np.array([p - 0.37 * g for p, g in zip(flat_p, flat_g)])
        np.testing.assert_allclose(updated[key].ravel(), expected, rtol=1e-15)


@pytest.mark.parametrize("ids", [[-1, 0], [True, False], [1.0, 2.0], [10, 0], 3])
def test_fuse_rejects_bad_ids(ids) -> None:
    rng = np.random.default_rng(5)
    ffn = random_ffn(rng, 3, 4, 2)
    gate = GateParams(rng.standard_normal((2, 4)), rng.standard_normal(2))
    table = np.arange(6.0).reshape(3, 2)
    x = rng.standard_normal((2, 3))
    np.testing.assert_array_equal(fuse(ffn, gate, table, x, [2, 0])[1], [[4.0, 5.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match=r"embedding ids must be integers in \[0, 3\)"):
        fuse(ffn, gate, table, x, ids)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64, ">i2"])
@pytest.mark.parametrize("rows", [3, 300])
def test_fuse_rejects_negative_ids_of_every_width(dtype, rows) -> None:
    rng = np.random.default_rng(6)
    ffn = random_ffn(rng, 3, 4, 2)
    gate = GateParams(rng.standard_normal((2, 4)), rng.standard_normal(2))
    table = rng.standard_normal((rows, 2))
    x = rng.standard_normal((2, 3))
    for bad in (-1, np.iinfo(dtype).min):
        ids = np.array([2, bad], dtype=dtype)
        with pytest.raises(ValueError, match=rf"^embedding ids must be integers in \[0, {rows}\), got {re.escape(str(ids))}$"):
            fuse(ffn, gate, table, x, ids)
    top = min(int(np.iinfo(dtype).max), rows - 1)
    ids = np.array([top, 0], dtype=dtype)
    assert fuse(ffn, gate, table, x, ids)[2].tobytes() == fuse(ffn, gate, table, x, [top, 0])[2].tobytes()


def test_tensor_file_round_trip(tmp_path) -> None:
    rng = np.random.default_rng(12)
    tensors = {"weight": rng.standard_normal((4, 3)), "bias": rng.standard_normal(4)}
    path = tmp_path / "params.tensors"
    save_tensors(path, tensors, meta={"kind": "test"})
    loaded, meta = load_tensors(path)
    assert meta == {"kind": "test"}
    for key in tensors:
        np.testing.assert_array_equal(loaded[key], tensors[key])


def test_tensor_file_rejects_trailing_bytes(tmp_path) -> None:
    path = tmp_path / "params.tensors"
    save_tensors(path, {"bias": np.arange(3.0)})
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(ValueError, match="trailing"):
        load_tensors(path)


def test_tensor_file_save_is_write_then_rename(tmp_path, monkeypatch) -> None:
    path = tmp_path / "params.tensors"
    save_tensors(path, {"bias": np.arange(3.0)})
    before = path.read_bytes()

    def failed_rename(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(records.os, "replace", failed_rename)
    with pytest.raises(OSError, match="rename failed"):
        save_tensors(path, {"bias": np.arange(5.0)})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["params.tensors"]


def write_tensor_file(path, header, payload: bytes = b"") -> None:
    """A tensors-v1 file with a hand-written header (any JSON value)."""
    path.write_bytes(b"#tensors-v1\n" + json.dumps(header).encode("utf-8") + b"\n" + payload)


ONE = np.arange(2.0).tobytes()


@pytest.mark.parametrize(
    "header, message",
    [
        # headers that ended in KeyError or TypeError before they were parsed
        ({"meta": {}}, "tensors must be a list, got None"),
        ({"tensors": [{"name": "bias"}]}, r"tensors\[0\]\.shape must be a list of integers"),
        ([{"name": "bias", "shape": [2]}], "header must be a JSON object"),
        # one malformed field each
        ("tensors", "header must be a JSON object"),
        ({"tensors": {"name": "bias", "shape": [2]}}, "tensors must be a list"),
        ({"tensors": [["bias", [2]]]}, r"tensors\[0\] must be an object"),
        ({"tensors": [{"shape": [2]}]}, r"tensors\[0\]\.name must be a string, got None"),
        ({"tensors": [{"name": 3, "shape": [2]}]}, r"tensors\[0\]\.name must be a string, got 3"),
        ({"tensors": [{"name": "a", "shape": [1]}, {"name": "a", "shape": [1]}]},
         r"tensors\[1\]\.name 'a' is not unique"),
        ({"tensors": [{"name": "bias", "shape": 2}]}, r"tensors\[0\]\.shape must be a list of integers"),
        ({"tensors": [{"name": "bias", "shape": [True, 2]}]}, r"tensors\[0\]\.shape must be a list"),
        ({"tensors": [{"name": "bias", "shape": [2.0]}]}, r"tensors\[0\]\.shape must be a list"),
        ({"tensors": [{"name": "bias", "shape": ["2"]}]}, r"tensors\[0\]\.shape must be a list"),
        ({"tensors": [{"name": "bias", "shape": [-2]}]}, r"tensors\[0\]\.shape must be a list"),
        ({"tensors": [{"name": "bias", "shape": [0, sys.maxsize + 1]}]}, r"tensors\[0\]\.shape must be a list"),
        ({"tensors": [{"name": "bias", "shape": [2]}], "meta": [1]}, r"meta must be an object, got \[1\]"),
        ({"tensors": [{"name": "bias", "shape": [2]}], "meta": None}, "meta must be an object, got None"),
        # entries in range, but more than numpy allows in one array, even an empty one
        ({"tensors": [{"name": "bias", "shape": [0, sys.maxsize]}]}, r"tensors\[0\]\.shape \[0, \d+\] is too big"),
        ({"tensors": [{"name": "bias", "shape": [0, sys.maxsize // 8 + 1]}]}, r"tensors\[0\]\.shape .* is too big"),
        ({"tensors": [{"name": "w", "shape": [sys.maxsize, sys.maxsize]}]}, r"tensors\[0\]\.shape .* is too big"),
    ],
)
def test_tensor_file_rejects_malformed_header(tmp_path, header, message) -> None:
    path = tmp_path / "bad.tensors"
    write_tensor_file(path, header, ONE)
    with pytest.raises(ValueError, match=message):
        load_tensors(path)


def test_tensor_file_header_bounds(tmp_path) -> None:
    path = tmp_path / "edge.tensors"
    write_tensor_file(path, {"tensors": [{"name": "s", "shape": []}, {"name": "e", "shape": [0, 3]},
                                         {"name": "v", "shape": [1]}]}, ONE)
    tensors, meta = load_tensors(path)
    assert meta == {}
    assert tensors["s"].shape == () and tensors["e"].shape == (0, 3) and tensors["v"].tolist() == [1.0]
    # The largest empty tensor numpy allows loads.
    write_tensor_file(path, {"tensors": [{"name": "e", "shape": [0, sys.maxsize // 8]}]})
    assert load_tensors(path)[0]["e"].shape == (0, sys.maxsize // 8)
    # The largest size the header admits still fails on the payload, not on arithmetic.
    write_tensor_file(path, {"tensors": [{"name": "w", "shape": [sys.maxsize // 8]}]}, ONE)
    with pytest.raises(ValueError, match="truncated payload for tensor 'w'"):
        load_tensors(path)
    write_tensor_file(path, {"tensors": [{"name": "w", "shape": [2]}]}, ONE[:8])
    with pytest.raises(ValueError, match="truncated payload for tensor 'w'"):
        load_tensors(path)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_tensor_file_save_rejects_non_finite_meta_and_writes_nothing(tmp_path, bad) -> None:
    with pytest.raises(ValueError, match="not JSON compliant"):
        save_tensors(tmp_path / "p.tensors", {"a": np.zeros(2)}, meta={"lr": bad})
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_tensor_file_with_a_non_finite_payload_is_rejected(tmp_path, bad) -> None:
    path = tmp_path / "p.tensors"
    out_weight = np.zeros((2, 3))
    out_weight[1, 2] = bad
    with pytest.raises(ValueError) as info:
        save_tensors(path, {"bias": np.zeros(2), "out_weight": out_weight})
    assert str(info.value) == f"{path}: tensor 'out_weight' holds NaN or an infinity"
    assert list(tmp_path.iterdir()) == []
    # a payload written by another writer fails to load, naming the file and the tensor
    payload = np.zeros(2).tobytes() + out_weight.astype("<f8").tobytes()
    write_tensor_file(path, {"tensors": [{"name": "bias", "shape": [2]}, {"name": "out_weight", "shape": [2, 3]}]},
                      payload)
    with pytest.raises(ValueError) as info:
        load_tensors(path)
    assert str(info.value) == f"{path}: tensor 'out_weight' holds NaN or an infinity"


def test_tensor_file_header_bytes_are_sorted_json(tmp_path) -> None:
    path = tmp_path / "p.tensors"
    save_tensors(path, {"w": np.zeros((1, 2))}, meta={"lr": 0.5, "kind": "x"})
    assert path.read_bytes().split(b"\n")[1] == (
        b'{"meta": {"kind": "x", "lr": 0.5}, "tensors": [{"name": "w", "shape": [1, 2]}]}'
    )


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
def test_tensor_file_header_with_a_non_finite_number_is_rejected(tmp_path, number) -> None:
    path = tmp_path / "bad.tensors"
    text = '{"meta": {"lr": %s}, "tensors": [{"name": "a", "shape": [2]}]}' % number
    path.write_bytes(b"#tensors-v1\n" + text.encode("utf-8") + b"\n" + ONE)
    with pytest.raises(ValueError) as info:
        load_tensors(path)
    assert str(info.value) == f"{path}: invalid tensors-v1 header ({number} is not a finite number)"


def test_tensor_file_rejects_bad_magic(tmp_path) -> None:
    path = tmp_path / "bogus.tensors"
    path.write_bytes(b"not a tensor file\n")
    with pytest.raises(ValueError, match="magic"):
        load_tensors(path)
