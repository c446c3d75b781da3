"""Dense numeric kernel: projection FFN, gate fusion, cross-entropy (loss
terms and logit gradients from one log-softmax), SGD, and a finite-difference
gradient checker.

All math is double precision.  Leading axes are batch axes and a 1-D input
is the one-row case: forward kernels give each row the bits it would get
alone, and ``*_grads`` kernels (closed form, checked against central finite
differences) sum parameter gradients over rows and return per-row input
gradients.  Trailing shapes are validated explicitly.

Gate fusion of a projected hidden state with a token embedding has one
forward, :func:`fuse`, and one backward, :func:`fuse_grads`.  The pair serves
the linear class head of :func:`fusion_loss` (criterion 05's gradient check);
``fuse`` also feeds ``ttslm.fused_representations``.

The two-layer projection uses tanh between its layers.  A smooth activation
keeps the finite-difference checks exact near machine precision; the choice
is otherwise unconstrained.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import records

_TENSOR_MAGIC = b"#tensors-v1\n"


def _rows(name: str, x, width: int | None = None) -> np.ndarray:
    """``x`` as float rows (any leading axes), of size ``width`` if given."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim < 1 or width is not None and arr.shape[-1] != width:
        raise ValueError(f"{name} must have rows of size {width}, got shape {arr.shape}")
    return arr


def _require_shape(name: str, arr: np.ndarray, shape: tuple[int, ...]) -> None:
    if arr.shape != shape:
        raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")


def _affine(w: np.ndarray, x: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """``w @ x + b`` over the last axis of ``x``; all leading axes broadcast."""
    y = (w @ x[..., None])[..., 0]
    return y if b is None else y + b


def _row_sum(a: np.ndarray) -> np.ndarray:
    """Sum over every leading (batch) axis."""
    return a.reshape(-1, a.shape[-1]).sum(axis=0)


def _outer_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``outer(a_row, b_row)`` summed over the batch rows."""
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


# ---------------------------------------------------------------------------
# parameter containers (leading axes, if any, stack several parameter sets)


@dataclass
class GateParams:
    """Sigmoid gate over the concatenation of two size-d vectors.

    ``weight`` has shape (d, 2d) and ``bias`` shape (d,).
    """

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        self.weight = np.asarray(self.weight, dtype=float)
        self.bias = np.asarray(self.bias, dtype=float)
        d = self.bias.shape[-1] if self.bias.ndim else -1
        if self.weight.shape[-2:] != (d, 2 * d):
            raise ValueError(
                f"gate shapes must be (d, 2d) and (d,), got {self.weight.shape} and {self.bias.shape}"
            )

    @property
    def dim(self) -> int:
        return self.bias.shape[-1]


@dataclass
class FfnParams:
    """Two-layer feed-forward network: affine, tanh, affine."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self) -> None:
        self.w1 = np.asarray(self.w1, dtype=float)
        self.b1 = np.asarray(self.b1, dtype=float)
        self.w2 = np.asarray(self.w2, dtype=float)
        self.b2 = np.asarray(self.b2, dtype=float)
        if self.w1.ndim < 2 or self.w2.ndim < 2:
            raise ValueError("ffn weights must be at least 2-D")
        hidden = self.w1.shape[-2]
        out, hidden2 = self.w2.shape[-2:]
        if self.b1.shape[-1:] != (hidden,) or hidden2 != hidden or self.b2.shape[-1:] != (out,):
            raise ValueError("ffn layer dimensions do not chain")

    @property
    def in_dim(self) -> int:
        return self.w1.shape[-1]

    @property
    def out_dim(self) -> int:
        return self.w2.shape[-2]


# ---------------------------------------------------------------------------
# forward operations


def sigmoid(x: np.ndarray) -> np.ndarray:
    # min(x, -x) is -|x|, so exp stays <= 1; unlike -abs(x) it keeps a NaN's sign bit.
    x = np.asarray(x, dtype=float)
    e = np.exp(np.minimum(x, -x))
    # The numerator of 1/(1+e) or e/(1+e), then one divide: the same bits.
    # np.where gives a fresh array, so a 0-d input still returns a 0-d array.
    num = np.where(x >= 0, 1.0, e)
    return np.divide(num, 1.0 + e, out=num)


def ffn_apply(params: FfnParams, x) -> np.ndarray:
    """affine -> tanh -> affine."""
    hidden = np.tanh(_affine(params.w1, _rows("x", x, params.in_dim), params.b1))
    return _affine(params.w2, hidden, params.b2)


def _gate(params: GateParams, e_hidden, e_emb) -> tuple[np.ndarray, ...]:
    """Checked inputs, their concatenation, and the gate."""
    d = params.dim
    e_hidden = _rows("e_hidden", e_hidden, d)
    e_emb = _rows("e_emb", e_emb, d)
    _require_shape("e_emb", e_emb, e_hidden.shape)
    concat = np.concatenate([e_hidden, e_emb], axis=-1)
    return e_hidden, e_emb, concat, sigmoid(_affine(params.weight, concat, params.bias))


def gate_fuse(params: GateParams, e_hidden, e_emb) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise gated fusion of two size-d vectors.

    Returns ``(g, c)`` where ``g = sigmoid(W [e_hidden ; e_emb] + b)`` and
    ``c = g * e_hidden + (1 - g) * e_emb``.  Components of ``g`` lie strictly
    inside (0, 1) up to float64 saturation of the sigmoid, so ``c`` is an
    elementwise convex combination of its two inputs.
    """
    e_hidden, e_emb, _, gate = _gate(params, e_hidden, e_emb)
    return gate, gate * e_hidden + (1.0 - gate) * e_emb


def fuse(ffn: FfnParams, gate: GateParams, table, x, ids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project ``x`` through ``ffn``, look up ``table[..., ids, :]``, and
    gate-fuse the two: ``(e_hidden, e_emb, fused)``.

    ``ids`` is one id or one per row of ``x``; every id must be an integer
    in ``[0, rows of table)``.
    """
    table = np.asarray(table, dtype=float)
    ids = np.asarray(ids)
    rows = table.shape[-2] if table.ndim > 1 else 0
    if ids.dtype.kind not in "iu" or ids.size and not (0 <= ids.min() and ids.max() < rows):
        raise ValueError(f"embedding ids must be integers in [0, {rows}), got {ids}")
    e_hidden = ffn_apply(ffn, x)
    e_emb = table[..., ids, :]
    return e_hidden, e_emb, gate_fuse(gate, e_hidden, e_emb)[1]


def log_softmax(logits) -> np.ndarray:
    logits = _rows("logits", logits)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax(logits) -> np.ndarray:
    return np.exp(log_softmax(logits))


def _target_index(target, shape: tuple[int, ...]) -> np.ndarray:
    """Flat positions of ``target`` (one int, or one per row) in ``shape``."""
    target = np.asarray(target)
    if target.dtype.kind not in "iu":
        raise ValueError(f"target must be integers, got {target}")
    if target.size and not (0 <= target.min() and target.max() < shape[-1]):
        raise ValueError(f"target {target} out of range [0, {shape[-1]})")
    return np.arange(0, math.prod(shape), shape[-1]).reshape(shape[:-1]) + target


def cross_entropy(logits, target):
    """Negative log softmax probability of ``target``, via a stable
    log-sum-exp: a float for 1-D ``logits``, else one value per row."""
    log_probs = log_softmax(logits)
    return -log_probs.reshape(-1)[_target_index(target, log_probs.shape)]


def cross_entropy_and_grads(logits, target) -> tuple[np.ndarray, np.ndarray]:
    """:func:`cross_entropy` and its gradient ``softmax(logits) -
    onehot(target)``, bit for bit, from one ``log_softmax``."""
    log_probs = log_softmax(logits)
    index = _target_index(target, log_probs.shape)
    d_logits = np.exp(log_probs)
    d_logits.reshape(-1)[index] -= 1.0
    return -log_probs.reshape(-1)[index], d_logits


# ---------------------------------------------------------------------------
# closed-form gradients


def gate_fuse_grads(
    params: GateParams, e_hidden, e_emb, d_fused
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Backprop ``d_fused`` through :func:`gate_fuse`.

    Returns ``(d_weight, d_bias, d_e_hidden, d_e_emb)``.
    """
    d = params.dim
    e_hidden, e_emb, concat, gate = _gate(params, e_hidden, e_emb)
    d_fused = _rows("d_fused", d_fused, d)
    d_pre = d_fused * (e_hidden - e_emb) * gate * (1.0 - gate)
    d_concat = _affine(params.weight.T, d_pre)
    d_e_hidden = d_fused * gate + d_concat[..., :d]
    d_e_emb = d_fused * (1.0 - gate) + d_concat[..., d:]
    return _outer_sum(d_pre, concat), _row_sum(d_pre), d_e_hidden, d_e_emb


def ffn_grads(params: FfnParams, x, d_out) -> tuple[FfnParams, np.ndarray]:
    """Backprop ``d_out`` through :func:`ffn_apply`.

    Returns gradients packaged as an :class:`FfnParams` plus ``d_x``.
    """
    x = _rows("x", x, params.in_dim)
    hidden = np.tanh(_affine(params.w1, x, params.b1))
    d_out = _rows("d_out", d_out, params.out_dim)
    d_pre = _affine(params.w2.T, d_out) * (1.0 - hidden**2)
    d_params = FfnParams(_outer_sum(d_pre, x), _row_sum(d_pre), _outer_sum(d_out, hidden), _row_sum(d_out))
    return d_params, _affine(params.w1.T, d_pre)


def fuse_grads(
    ffn: FfnParams, gate: GateParams, x, ids, e_hidden, e_emb, d_fused, d_table: np.ndarray
) -> tuple[FfnParams, GateParams]:
    """Backprop ``d_fused`` through :func:`fuse`, given its ``e_hidden`` and
    ``e_emb``.  Returns ``(d_ffn, d_gate)``; the embedding gradient is added
    into ``d_table`` at ``ids``, which may repeat."""
    d_weight, d_bias, d_e_hidden, d_e_emb = gate_fuse_grads(gate, e_hidden, e_emb, d_fused)
    d_ffn, _ = ffn_grads(ffn, x, d_e_hidden)
    np.add.at(d_table, ids, d_e_emb)
    return d_ffn, GateParams(d_weight, d_bias)


# ---------------------------------------------------------------------------
# fused projection pipeline (hidden state + token embedding -> class loss)


@dataclass
class FusionPipelineParams:
    """Everything needed to score one (hidden state, text token) pair:
    projection FFN, token embedding table, gate, and a linear class head."""

    ffn: FfnParams
    embedding: np.ndarray
    gate: GateParams
    head: np.ndarray

    def __post_init__(self) -> None:
        self.embedding = np.asarray(self.embedding, dtype=float)
        self.head = np.asarray(self.head, dtype=float)
        d = self.gate.dim
        if self.ffn.out_dim != d or self.embedding.shape[-1:] != (d,) or self.head.shape[-1:] != (d,):
            raise ValueError("fusion pipeline dimensions do not chain")


def fusion_loss(params: FusionPipelineParams, hidden_state, token_id: int, target: int):
    """Project, embed, gate-fuse, score, and take cross-entropy against
    ``target``; stacked parameters give one loss per parameter set."""
    fused = fuse(params.ffn, params.gate, params.embedding, hidden_state, token_id)[-1]
    return cross_entropy(_affine(params.head, fused), target)


def fusion_loss_and_grads(
    params: FusionPipelineParams, hidden_state, token_id: int, target: int
) -> tuple[float, FusionPipelineParams]:
    """Loss plus analytic gradients for every parameter of the pipeline."""
    e_hidden, e_emb, fused = fuse(params.ffn, params.gate, params.embedding, hidden_state, token_id)
    loss, d_logits = cross_entropy_and_grads(_affine(params.head, fused), target)
    d_embedding = np.zeros_like(params.embedding)
    d_ffn, d_gate = fuse_grads(
        params.ffn, params.gate, hidden_state, token_id, e_hidden, e_emb,
        _affine(params.head.T, d_logits), d_embedding,
    )
    grads = FusionPipelineParams(ffn=d_ffn, embedding=d_embedding, gate=d_gate, head=_outer_sum(d_logits, fused))
    return loss, grads


# ---------------------------------------------------------------------------
# training utilities


def sgd_step(params, grads, lr: float):
    """``params - lr * grads``, elementwise.  Accepts a single array or a
    dict of arrays; always returns new values."""
    if isinstance(params, np.ndarray):
        grads = np.asarray(grads, dtype=float)
        _require_shape("grads", grads, params.shape)
        return params - lr * grads
    if isinstance(params, dict):
        if set(params) != set(grads):
            raise ValueError("params and grads must have identical keys")
        return {k: sgd_step(v, grads[k], lr) for k, v in params.items()}
    raise TypeError(f"unsupported parameter container {type(params).__name__}")


def pack_arrays(arrays: list[np.ndarray]) -> np.ndarray:
    """Flatten a list of arrays into one vector (for gradient checking)."""
    return np.concatenate([np.asarray(a, dtype=float).ravel() for a in arrays])


def unpack_arrays(theta: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Inverse of :func:`pack_arrays` given the original shapes; leading axes
    of ``theta`` (a stack of packed vectors) stay leading axes."""
    out = []
    offset = 0
    for shape in shapes:
        size = int(np.prod(shape)) if shape else 1
        out.append(theta[..., offset : offset + size].reshape(theta.shape[:-1] + tuple(shape)))
        offset += size
    if offset != theta.shape[-1]:
        raise ValueError(f"theta has {theta.shape[-1]} entries, shapes need {offset}")
    return out


def finite_diff_check(loss_and_grad, theta: np.ndarray, eps: float, loss_fn=None) -> float:
    """Max discrepancy between analytic gradients and central differences.

    ``loss_and_grad(theta)`` must return ``(loss, grad)`` with ``grad`` the
    analytic gradient at ``theta``.  Each coordinate is probed with a central
    difference of step ``eps``; the reported error is
    ``|analytic - numeric| / max(1, |analytic|, |numeric|)`` maximized over
    coordinates (relative for large gradients, absolute below magnitude 1).

    All 2P probes of a P-vector form one ``(2, P, P)`` stack (``theta`` plus
    and minus ``eps`` on the diagonal, 2P²×8 bytes).  ``loss_fn(probes)``
    must return their ``(2, P)`` losses in one call, without the gradient
    work; without it, ``loss_and_grad`` is mapped over the probes.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if loss_fn is None:
        loss_fn = lambda probes: np.apply_along_axis(lambda t: loss_and_grad(t)[0], -1, probes)
    theta = np.asarray(theta, dtype=float)
    loss, grad = loss_and_grad(theta)
    grad = np.asarray(grad, dtype=float)
    _require_shape("grad", grad, theta.shape)
    if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
        raise ValueError("loss or gradient is not finite at the base point")
    size = theta.shape[0]
    probes = np.tile(theta, (2, size, 1))
    diagonal = np.arange(size)
    probes[:, diagonal, diagonal] += [[eps], [-eps]]
    losses = np.asarray(loss_fn(probes), dtype=float)
    _require_shape("probe losses", losses, (2, size))
    bad = ~np.isfinite(losses).all(axis=0)
    if bad.any():
        raise ValueError(f"loss is not finite at probe coordinate {int(bad.argmax())}")
    numeric = (losses[0] - losses[1]) / (2.0 * eps)
    denom = np.maximum(1.0, np.maximum(abs(grad), abs(numeric)))
    return float(np.max(abs(grad - numeric) / denom, initial=0.0))


# ---------------------------------------------------------------------------
# tensor persistence

# Format "tensors-v1": a magic line, one JSON header line listing tensor
# names/shapes plus optional metadata, then the raw float64 little-endian
# payloads concatenated in header order.


def save_tensors(path, tensors: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Write a tensors-v1 file atomically (write-then-rename).  A tensor or
    a meta holding NaN or an infinity raises a ValueError before any file is written."""
    entries = [{"name": name, "shape": list(np.shape(t))} for name, t in tensors.items()]
    header = json.dumps({"tensors": entries, "meta": meta or {}}, sort_keys=True, allow_nan=False).encode("utf-8")
    arrays = {name: np.ascontiguousarray(t, dtype="<f8") for name, t in tensors.items()}
    for name, array in arrays.items():
        _check_finite_tensor(path, name, array)
    records._atomic_write(path, b"".join([_TENSOR_MAGIC, header, b"\n", *(a.tobytes() for a in arrays.values())]))


def load_tensors(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a whole tensors-v1 file; a malformed header, a short or
    over-long payload, or a tensor holding NaN or an infinity raises a
    ValueError.  The header is decoded by ``records.DECODER``, which rejects
    NaN, Infinity and out-of-range numbers."""
    with open(path, "rb") as fh:
        magic = fh.readline()
        if magic != _TENSOR_MAGIC:
            raise ValueError(f"not a tensors-v1 file: bad magic {magic!r}")
        try:
            header = records.DECODER.decode(fh.readline().decode("utf-8"))
        except ValueError as exc:
            raise records.RecordFormatError(f"{path}: invalid tensors-v1 header ({exc})") from exc
        shapes, meta = _parse_tensor_header(header)
        payload = fh.read()
    tensors: dict[str, np.ndarray] = {}
    offset = 0
    for name, shape in shapes.items():
        end = offset + 8 * math.prod(shape)
        if end > len(payload):
            raise ValueError(f"truncated payload for tensor {name!r}")
        tensors[name] = np.frombuffer(payload[offset:end], dtype="<f8").reshape(shape).copy()
        _check_finite_tensor(path, name, tensors[name])
        offset = end
    if offset != len(payload):
        raise ValueError("trailing bytes after the last tensor payload")
    return tensors, meta


def _check_finite_tensor(path, name: str, array: np.ndarray) -> None:
    if not np.isfinite(array).all():
        raise ValueError(f"{path}: tensor {name!r} holds NaN or an infinity")


def _parse_tensor_header(header) -> tuple[dict[str, tuple[int, ...]], dict]:
    """The header's tensor shapes by name, and its meta; errors name the field path."""
    if not isinstance(header, dict):
        raise ValueError(f"tensors-v1 header must be a JSON object, got {header!r}")
    entries = header.get("tensors")
    if not isinstance(entries, list):
        raise ValueError(f"tensors must be a list, got {entries!r}")
    shapes: dict[str, tuple[int, ...]] = {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"tensors[{i}] must be an object, got {entry!r}")
        with records.prefixed(f"tensors[{i}]."):
            name = records.string("name", entry.get("name"))
            if name in shapes:
                raise ValueError(f"name {name!r} is not unique")
            shape = entry.get("shape")
            if not isinstance(shape, list) or not all(
                isinstance(n, int) and not isinstance(n, bool) and 0 <= n <= sys.maxsize for n in shape
            ):
                raise ValueError(f"shape must be a list of integers in [0, {sys.maxsize}], got {shape!r}")
            # numpy's own limit on any array, even an empty one
            if 8 * math.prod(n for n in shape if n) > sys.maxsize:
                raise ValueError(f"shape {shape!r} is too big: 8 bytes times its non-zero sizes exceeds {sys.maxsize}")
        shapes[name] = tuple(shape)
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError(f"meta must be an object, got {meta!r}")
    return shapes, meta
