"""Toy autoregressive speech-token model driven by the read/write schedule.

The real system this mirrors runs a pretrained decoder-only transformer over
an extended vocabulary.  Here decoding is pluggable: anything with a ``vocab``
attribute and a ``logits(visible, prev_ids)`` method can be decoded, and the
bundled reference implementation is a small linear model over the feature
``[mean of visible fused representations ; embedding of previous token]``.
What the module actually proves is schedule semantics: the masked
interleaved loss conditions each speech token on exactly its visible prefix,
decoding follows the read/write cadence, and all gradients are closed form.
Loss terms, next-token accuracy and training (one forward, one cross-entropy
and one backward per epoch) share one masked forward over all samples'
concatenated rows, with no padding: the only place the schedule mask is applied.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass
from typing import Iterable, Mapping, Protocol, Sequence

import numpy as np

from . import records
from .fsq import CODEBOOK_SIZE
from .numerics import (
    FfnParams,
    GateParams,
    cross_entropy,
    cross_entropy_and_grads,
    fuse,
    load_tensors,
    log_softmax,
    save_tensors,
    sgd_step,
    softmax,
)
from .schedule import READ, WRITE, Action, SchedulePolicy, actions_to_records, training_mask, visible_prefix

KIND_TEXT = "text"
KIND_SPEECH = "speech"
KIND_EOS = "eos"

DEFAULT_SPEECH_SIZE = CODEBOOK_SIZE


@dataclass(frozen=True)
class ExtendedVocab:
    """Token-id layout: text ids first, then speech ids, then one
    end-of-speech id.  Ranges are contiguous and disjoint."""

    text_size: int
    speech_size: int = DEFAULT_SPEECH_SIZE

    def __post_init__(self) -> None:
        records.nonneg_int("text_size", self.text_size)
        records.positive_int("speech_size", self.speech_size)

    @property
    def eos_id(self) -> int:
        return self.text_size + self.speech_size

    @property
    def total_size(self) -> int:
        return self.text_size + self.speech_size + 1

    def kind(self, token_id: int) -> str:
        if not 0 <= token_id < self.total_size:
            raise ValueError(f"token id {token_id} out of range [0, {self.total_size})")
        if token_id < self.text_size:
            return KIND_TEXT
        if token_id < self.text_size + self.speech_size:
            return KIND_SPEECH
        return KIND_EOS

    def speech_token(self, local: int) -> int:
        if not 0 <= local < self.speech_size:
            raise ValueError(f"speech index {local} out of range [0, {self.speech_size})")
        return self.text_size + local


class Predictor(Protocol):
    """Next-token scorer, taken only by :func:`decode_stream` and
    :func:`predictive_distribution`; the masked loss, accuracy and gradients
    take :class:`PredictorParams`.  ``visible`` is the ``(v, d)`` visible
    prefix of fused representations.

    A predictor may also define ``session()``, returning a decode state with
    ``extend(row)``, which appends one fused row, and ``logits(prev_ids)``,
    which scores like ``logits`` on every row extended so far.
    ``decode_stream`` drives a session.  For a predictor without one, it
    keeps the rows in a buffer and passes a read-only view of them."""

    vocab: ExtendedVocab

    def logits(self, visible: np.ndarray, prev_ids: Sequence[int]) -> np.ndarray: ...


@dataclass
class PredictorParams:
    """Reference linear predictor.

    ``token_emb`` has one row per vocabulary id plus a final start-of-stream
    row used before any token has been generated.  The feature vector is the
    mean of the visible fused representations concatenated with the embedding
    of the previous token; two stacked affine maps take it to logits over the
    extended vocabulary.
    """

    vocab: ExtendedVocab
    token_emb: np.ndarray
    feat_weight: np.ndarray
    feat_bias: np.ndarray
    out_weight: np.ndarray
    out_bias: np.ndarray

    def __post_init__(self) -> None:
        self.token_emb = np.asarray(self.token_emb, dtype=float)
        self.feat_weight = np.asarray(self.feat_weight, dtype=float)
        self.feat_bias = np.asarray(self.feat_bias, dtype=float)
        self.out_weight = np.asarray(self.out_weight, dtype=float)
        self.out_bias = np.asarray(self.out_bias, dtype=float)
        if self.token_emb.shape[0] != self.vocab.total_size + 1:
            raise ValueError("token_emb must have total_size + 1 rows (last row = start)")
        hidden, feat = self.feat_weight.shape
        if self.feat_bias.shape != (hidden,):
            raise ValueError("feat_bias does not match feat_weight")
        if feat <= self.emb_dim:
            raise ValueError("feature dimension must exceed the embedding dimension")
        if self.out_weight.shape != (self.vocab.total_size, hidden):
            raise ValueError("out_weight must map hidden -> total vocabulary size")
        if self.out_bias.shape != (self.vocab.total_size,):
            raise ValueError("out_bias does not match out_weight")

    @property
    def emb_dim(self) -> int:
        return self.token_emb.shape[1]

    @property
    def fused_dim(self) -> int:
        return self.feat_weight.shape[1] - self.emb_dim

    @property
    def start_row(self) -> int:
        return self.vocab.total_size

    def forward(self, means: np.ndarray, prev) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(features, hidden, logits)`` for visible-prefix means ``(..., d)``
        and previous-token ids ``(...)``; leading axes are batch axes."""
        features = np.concatenate([means, self.token_emb[prev]], axis=-1)
        hidden = features @ self.feat_weight.T + self.feat_bias
        logits = hidden @ self.out_weight.T
        logits += self.out_bias
        return features, hidden, logits

    def logits(self, visible: np.ndarray, prev_ids: Sequence[int]) -> np.ndarray:
        """Logits after ``prev_ids`` given the ``(v, d)`` visible rows.  Their mean
        is a running sum in row order over ``v``, the sum a :meth:`session` and
        training take, so all three agree bit for bit (``mean(axis=0)`` sums a
        ``(v, 1)`` prefix pairwise instead)."""
        visible = np.asarray(visible, dtype=float)
        self._check_visible(visible.shape)
        return self.forward(np.cumsum(visible, axis=0)[-1] / len(visible), self._prev_row(prev_ids))[-1]

    def session(self) -> "PredictorSession":
        return PredictorSession(self)

    def _prev_row(self, prev_ids: Sequence[int]) -> int:
        """The embedding row of the last of ``prev_ids``, which must be an int
        or numpy integer below the vocabulary size ``len(out_bias)``; the start
        row when there is none."""
        if not len(prev_ids):
            return self.start_row
        prev = prev_ids[-1]
        if (type(prev) is not int and (isinstance(prev, bool) or not isinstance(prev, numbers.Integral))
                or not 0 <= prev < len(self.out_bias)):
            raise ValueError(f"previous token id {prev!r} is not a vocabulary id in [0, {len(self.out_bias)})")
        return prev

    def _check_visible(self, shape: tuple) -> None:
        if len(shape) != 2 or shape[0] < 1 or shape[1] != self.fused_dim:
            raise ValueError(f"visible must be (v >= 1, {self.fused_dim}), got {shape}")

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "token_emb": self.token_emb,
            "feat_weight": self.feat_weight,
            "feat_bias": self.feat_bias,
            "out_weight": self.out_weight,
            "out_bias": self.out_bias,
        }

    def replace(self, arrays: dict[str, np.ndarray]) -> "PredictorParams":
        return PredictorParams(vocab=self.vocab, **arrays)


class PredictorSession:
    """Decode state of a :class:`PredictorParams`: the running sum of the rows
    extended so far, in row order, and their count.  ``logits`` equals
    ``params.logits(rows, prev_ids)`` bit for bit, at a cost that does not
    depend on the number of rows."""

    def __init__(self, params: PredictorParams) -> None:
        self.params = params
        self.total: np.ndarray | None = None
        self.count = 0
        self.mean: np.ndarray | None = None  # total / count, taken once per read

    def extend(self, row: np.ndarray) -> None:
        row = np.asarray(row, dtype=float)
        self.params._check_visible((self.count + 1, *row.shape))
        if self.total is None:
            self.total = row.copy()
        else:
            self.total += row
        self.count += 1
        self.mean = None

    def logits(self, prev_ids: Sequence[int]) -> np.ndarray:
        if self.mean is None:
            self.params._check_visible((self.count, self.params.fused_dim))
            self.mean = self.total / self.count
        return self.params.forward(self.mean, self.params._prev_row(prev_ids))[-1]


def init_predictor(
    vocab: ExtendedVocab,
    fused_dim: int,
    emb_dim: int = 8,
    hidden_dim: int = 16,
    rng: np.random.Generator | None = None,
) -> PredictorParams:
    rng = rng or np.random.default_rng(0)
    scale = 0.1
    return PredictorParams(
        vocab=vocab,
        token_emb=scale * rng.standard_normal((vocab.total_size + 1, emb_dim)),
        feat_weight=scale * rng.standard_normal((hidden_dim, fused_dim + emb_dim)),
        feat_bias=np.zeros(hidden_dim),
        out_weight=scale * rng.standard_normal((vocab.total_size, hidden_dim)),
        out_bias=np.zeros(vocab.total_size),
    )


# ---------------------------------------------------------------------------
# masked interleaved loss


def _check_inputs(C, Y: Sequence[int], vocab: ExtendedVocab, width: int | None = None) -> np.ndarray:
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[0] < 1:
        raise ValueError(f"fused representations must be a non-empty 2-D array, got {C.shape}")
    if width is not None and C.shape[1] != width:
        raise ValueError(f"fused representations have width {C.shape[1]}, the predictor's fused_dim is {width}")
    if not np.isfinite(C).all():
        raise ValueError("fused representations are not finite")
    for i, token in enumerate(Y):
        if isinstance(token, bool) or not isinstance(token, numbers.Integral):
            raise ValueError(f"token at position {i} must be an integer id, got {token!r}")
        if vocab.kind(token) == KIND_TEXT:
            raise ValueError(f"token {token} is text-kind; speech streams may not contain it")
    return C


def _masked_forward(pairs: Sequence[tuple], policy: SchedulePolicy, params: PredictorParams) -> tuple:
    """Every position of the ``(C, Y)`` pairs from one ``params.forward`` over
    the pairs' concatenated rows, with no padding.  Each pair has its own
    zero-led running sum ``csum``, so a position that sees ``v`` of its rows has
    the mean ``csum[v] / v`` that a decode session of that pair takes, bit for
    bit, whatever the other pairs hold.  Returns ``(targets, prev, features,
    hidden, logits)``, one row per position.  An invalid pair raises
    ``ValueError`` led by its index."""
    if not pairs:
        raise ValueError("dataset is empty")
    Cs = []
    for i, (C, Y) in enumerate(pairs):
        with records.prefixed(f"pair {i}: "):
            Cs.append(_check_inputs(C, Y, params.vocab, params.fused_dim))
    starts = np.cumsum([0, *(len(c) for c in Cs[:-1])])
    pair = np.repeat(np.arange(len(Cs)), [len(Y) for _, Y in pairs])
    v = np.array([u for c, (_, Y) in zip(Cs, pairs) for u in training_mask(len(c), len(Y), policy)], dtype=int)
    prev = np.array([t for _, Y in pairs for t in [params.start_row, *Y][: len(Y)]], dtype=int)
    # Pair i's sums are rows starts[i] + i onward: one leading zero row per pair.
    csum = np.concatenate([np.cumsum(np.concatenate([np.zeros((1, c.shape[1])), c]), axis=0) for c in Cs])
    last = starts[pair] + v - 1
    features, hidden, logits = params.forward(csum[last + pair + 1] / v[:, None], prev)
    targets = np.array([t for _, Y in pairs for t in Y], dtype=int)
    return targets, prev, features, hidden, logits


def _finite_logits(pairs: Sequence[tuple], policy: SchedulePolicy, params: PredictorParams) -> tuple:
    """``(logits, targets)`` of :func:`_masked_forward`; non-finite logits, or a
    row whose max - min is not finite, raise ``ValueError``, so numpy's
    warnings are off."""
    with np.errstate(all="ignore"):  # a non-finite row or range is rejected below
        targets, *_, logits = _masked_forward(pairs, policy, params)
        ranges = logits.max(axis=-1) - logits.min(axis=-1)
    if not np.isfinite(logits).all():
        raise ValueError("model logits are not finite")
    if not np.isfinite(ranges).all():
        raise ValueError("model logits span more than the float range")
    return logits, targets


def interleaved_loss_terms(
    C, Y: Sequence[int], policy: SchedulePolicy, params: PredictorParams
) -> np.ndarray:
    """Per-position negative log probabilities under the schedule mask."""
    return cross_entropy(*_finite_logits([(C, Y)], policy, params))


def predictive_distribution(
    C, prev_ids: Sequence[int], position: int, policy: SchedulePolicy, model: Predictor
) -> np.ndarray:
    """Distribution over the next token at 1-based ``position``, which must
    follow ``prev_ids``: ``position == len(prev_ids) + 1``."""
    C = _check_inputs(C, prev_ids, model.vocab)
    v = visible_prefix(position, C.shape[0], policy)
    if position != len(prev_ids) + 1:
        raise ValueError(f"position {position} must follow the {len(prev_ids)} previous ids, at {len(prev_ids) + 1}")
    return softmax(model.logits(C[:v], prev_ids))


def interleaved_loss_and_grads(
    pairs: Sequence[tuple], policy: SchedulePolicy, params: PredictorParams
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss summed over the ``(C, Y)`` pairs and its parameter gradients, from
    the one :func:`_masked_forward` and one backward pass."""
    targets, prev, features, hidden, logits = _masked_forward(pairs, policy, params)
    terms, d_logits = cross_entropy_and_grads(logits, targets)
    d = params.fused_dim
    d_hidden = d_logits @ params.out_weight
    d_features = d_hidden @ params.feat_weight
    grads = {
        "token_emb": np.zeros_like(params.token_emb),
        "feat_weight": d_hidden.T @ features,
        "feat_bias": d_hidden.sum(axis=0),
        "out_weight": d_logits.T @ hidden,
        "out_bias": d_logits.sum(axis=0),
    }
    np.add.at(grads["token_emb"], prev, d_features[:, d:])  # ids repeat
    return float(terms.sum()), grads


# ---------------------------------------------------------------------------
# streaming decode


@dataclass(frozen=True)
class DecodeConfig:
    mode: str = "greedy"
    temperature: float = 1.0
    max_tokens: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("greedy", "sampled"):
            raise ValueError(f"mode must be 'greedy' or 'sampled', got {self.mode!r}")
        if isinstance(self.temperature, bool) or not (
            isinstance(self.temperature, numbers.Real) and abs(self.temperature) <= sys.float_info.max
        ):
            raise ValueError(f"temperature must be finite, got {self.temperature!r}")
        if self.mode == "sampled" and not self.temperature > 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        records.nonneg_int("max_tokens", self.max_tokens)
        records.nonneg_int("seed", self.seed)


@dataclass
class DecodeResult:
    tokens: list[int]
    trace: list[Action]
    reps_read: int

    def to_record(self) -> dict:
        return {
            "schema": "decode/v1",
            "tokens": list(self.tokens),
            "reps_read": self.reps_read,
            "trace": actions_to_records(self.trace),
        }


def decode_stream(
    stream: Iterable, policy: SchedulePolicy, model: Predictor, config: DecodeConfig
) -> DecodeResult:
    """Consume fused representations incrementally and emit speech tokens.

    Reads up to ``read_block`` vectors, writes up to ``write_block`` tokens,
    and repeats; once the stream is exhausted the remaining tokens stream out
    in write-sized blocks until end-of-speech or ``max_tokens``.  The action
    trace of the realized lengths satisfies the schedule invariants.  Greedy
    mode is deterministic; sampled mode is reproducible under ``config.seed``.

    Each pulled row must be a finite 1-D vector as wide as the first; a bad
    row raises ``ValueError`` naming its index.  Rows go to the model's
    ``session()`` (see :class:`Predictor`), so a step's own cost outside the
    session's ``logits`` is the same at any prefix length.
    """
    it = iter(stream)
    rng = np.random.default_rng(config.seed) if config.mode == "sampled" else None
    session = model.session() if hasattr(model, "session") else _RowBufferSession(model)
    width = n = 0
    tokens: list[int] = []
    trace: list[Action] = []
    exhausted = done = False
    while not done:
        got = 0
        while got < policy.read_block and not exhausted:
            try:
                vec = np.asarray(next(it), dtype=float)
            except StopIteration:
                exhausted = True
                break
            if vec.ndim != 1:
                raise ValueError(f"fused row {n} must be 1-D, got shape {vec.shape}")
            if n and len(vec) != width:
                raise ValueError(f"fused row {n} has width {len(vec)}, expected {width}")
            if not np.isfinite(vec).all():
                raise ValueError(f"fused row {n} is not finite")
            session.extend(vec)
            width = len(vec)
            n += 1
            got += 1
        if got:
            trace.append(Action(READ, got))
        if not n:
            raise ValueError("stream delivered no fused representations")
        wrote = 0
        while wrote < policy.write_block and len(tokens) < config.max_tokens:
            token = _choose_token(session.logits(tokens), config, rng)
            kind = model.vocab.kind(token)
            if kind == KIND_TEXT:
                raise ValueError(f"model emitted text-kind token {token} during speech decoding")
            tokens.append(token)
            wrote += 1
            if kind == KIND_EOS:
                done = True
                break
        if wrote:
            trace.append(Action(WRITE, wrote))
        if len(tokens) >= config.max_tokens:
            done = True
    return DecodeResult(tokens=tokens, trace=trace, reps_read=n)


class _RowBufferSession:
    """Decode session for a predictor without ``session()``: rows go to one
    buffer that doubles when full, and the model scores a read-only view of
    the rows so far."""

    def __init__(self, model: Predictor) -> None:
        self.model = model
        self.rows = np.empty((0, 0))
        self.n = 0
        self.visible: np.ndarray | None = None

    def extend(self, row: np.ndarray) -> None:
        if self.n == len(self.rows):
            self.rows = np.concatenate([self.rows, np.empty_like(self.rows)]) if self.n else np.empty((64, len(row)))
        self.rows[self.n] = row
        self.n += 1
        self.visible = None

    def logits(self, prev_ids: Sequence[int]) -> np.ndarray:
        if self.visible is None:
            self.visible = self.rows[: self.n]
            self.visible.flags.writeable = False
        return self.model.logits(self.visible, prev_ids)


_PROB_SUM_ATOL = float(np.sqrt(np.finfo(float).eps))
_BLOCK = 64
_SLACK = 1e-9


def _choose_token(logits: np.ndarray, config: DecodeConfig, rng: np.random.Generator | None) -> int:
    """Greedy: ``argmax``.  Sampled: the token ``rng.choice(len(p), p=p)``
    draws for ``p = exp(log_softmax(logits / T))``, bit for bit, leaving the
    same generator state: one ``rng.random()`` per token, none when the
    logits are rejected.

    The draw is decided from the unshifted ``e = exp(x)``, ``x = logits / T``:
    ``_BLOCK``-wide block sums, their running sum (``total`` at the end),
    and a running sum inside the one block that holds ``target = u * total``.
    The first ``j`` whose estimate exceeds ``target`` is returned when
    ``u >= 2**-53`` (every nonzero ``rng.random()``, a multiple of
    ``2**-53``), ``2**-960 <= total <= 2**1000`` (true only for finite
    logits), the estimate before ``j`` is ``<= target * (1 - _SLACK)`` and
    the estimate at ``j`` is ``> target * (1 + _SLACK)``.  That ``j`` is the
    token of the exact path, :func:`_exact_draw`, because:

    - each exact probability is ``e_k * exp(-lse)`` to within about
      ``745 * 2**-53`` plus a few ulp, ≲1e-13 relative: it is ``exp`` of a
      rounded log-probability of magnitude at most 745 (smaller ones are 0
      on both paths), and a factor common to all ``k`` cancels in the
      normalizing divide;
    - each normal ``e_k`` is ``exp(x_k)`` to within a few ulp, with no
      rounded subtract before the ``exp``: it is the shifted term
      ``exp(x_k - max x)`` times the common factor ``exp(max x)``, which
      cancels against the same factor in ``total``, so the bound above
      holds for it too;
    - the exact sequential ``cumsum`` adds at most ``V * 2**-53`` (7e-13 at
      V=6626) and the divide 1 ulp; the block estimates and ``u * total``
      are off by at most ``(2 * _BLOCK + V / _BLOCK) * 2**-53`` (≲3e-14);
    - all of these are far below ``_SLACK = 1e-9``;
    - underflowed and subnormal terms are off by a few ``2**-1074`` each,
      ``V`` times that in all.  ``total >= 2**-960`` and ``u >= 2**-53``
      give ``target >= 2**-1013``, a normal number, so its products with
      ``1 ± _SLACK`` round to 1 ulp and that absolute error is at most
      about ``V * 2**-59`` of ``target`` (≲2e-14 at V=6626), again far
      below ``_SLACK``, so it cannot flip a decision;
    - ``total <= 2**1000`` keeps every term, block sum, running sum,
      ``u * total`` and ``target * (1 + _SLACK)`` below the float maximum
      (about ``2**1024``), so none of them overflows;
    - the exact CDF is monotone, so certifying that it is below ``u``
      before ``j`` and above ``u`` at ``j`` certifies ``j``.

    Every other draw (a ``total`` outside that range, which every
    non-finite ``x`` gives and an ``exp`` that over- or underflowed can,
    ``u == 0``, ``u`` within the slack of a CDF step) runs
    :func:`_exact_draw` on the same ``u``."""
    if config.mode == "greedy":
        return int(np.asarray(logits).argmax())
    x = np.asarray(logits, dtype=float)
    # x / 1.0 == x exactly, so skipping that divide changes no token.
    if config.temperature != 1.0:
        x = x / config.temperature
    e, sums = _exp_block_sums(x)
    total = sums[-1]
    if not 2.0**-960 <= total <= 2.0**1000:  # exp over- or underflowed, or x is not finite
        with np.errstate(over="ignore", invalid="ignore"):  # _exact_draw rejects what is not finite
            return _exact_draw(x, rng.random)
    u = rng.random()
    target = u * total
    b = int(sums.searchsorted(target, side="right"))
    if u >= 2.0**-53 and b < len(sums):  # rng.random() draws multiples of 2**-53
        before = sums[b - 1] if b else 0.0
        run = np.add.accumulate(e[b * _BLOCK : (b + 1) * _BLOCK])
        run += before
        i = int(run.searchsorted(target, side="right"))
        if i < len(run):
            if i:
                before = run[i - 1]
            if before <= target * (1 - _SLACK) and run[i] > target * (1 + _SLACK):
                return b * _BLOCK + i
    return _exact_draw(x, lambda: u)


@np.errstate(over="ignore")  # an x_k above 709.78 gives an inf total, which goes to _exact_draw
def _exp_block_sums(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``e = exp(x)`` and the running sums of its ``_BLOCK``-wide blocks."""
    e = np.exp(x)
    sums = np.add.reduceat(e, np.arange(0, len(e), _BLOCK))
    return e, np.add.accumulate(sums, out=sums)


def _exact_draw(x: np.ndarray, draw) -> int:
    """The inverse-CDF draw of ``rng.choice(len(p), p=p)`` for
    ``p = exp(log_softmax(x))``, with ``u = draw()`` standing for its single
    ``rng.random()``; logits it rejects raise ``ValueError`` before ``draw``
    is called."""
    probs = np.exp(log_softmax(x))
    cdf = np.cumsum(probs)
    if not abs(cdf[-1] - 1.0) <= _PROB_SUM_ATOL:  # also rejects NaN and inf
        raise ValueError(f"probabilities are not finite or do not sum to 1 (sum {cdf[-1]})")
    cdf /= cdf[-1]
    return int(cdf.searchsorted(draw(), side="right"))


# ---------------------------------------------------------------------------
# toy training


def train_toy(
    dataset: Sequence[tuple],
    policy: SchedulePolicy,
    epochs: int,
    lr: float,
    *,
    vocab: ExtendedVocab,
    seed: int = 0,
) -> tuple[PredictorParams, list[float]]:
    """Full-batch gradient descent on the masked interleaved loss, one
    :func:`interleaved_loss_and_grads` call over the dataset per epoch.
    Returns the trained parameters and the per-epoch loss curve (mean loss
    per sample, evaluated at the start of each epoch, so ``lr == 0`` yields a
    constant curve).  Training starts from :func:`init_predictor` at its
    default sizes, drawn from ``seed``.  Aborts with a diagnostic if the loss
    or a parameter leaves the finite range."""
    if not dataset:
        raise ValueError("dataset is empty")
    fused_dim = np.asarray(dataset[0][0]).shape[1]
    params = init_predictor(vocab, fused_dim, rng=np.random.default_rng(seed))
    records.positive_int("epochs", epochs)
    records.finite_nonneg("lr", lr)
    samples = len(dataset)
    curve: list[float] = []
    with np.errstate(all="ignore"):  # a non-finite loss or update raises ValueError naming the epoch
        for epoch in range(epochs):
            loss, grads = interleaved_loss_and_grads(dataset, policy, params)
            if not np.isfinite(loss / samples):
                raise ValueError(f"non-finite training loss {loss / samples} at epoch {epoch}")
            curve.append(loss / samples)
            arrays = sgd_step(params.arrays(), grads, lr / samples)
            if not all(np.isfinite(a).all() for a in arrays.values()):
                raise ValueError(f"non-finite parameters after the update at epoch {epoch}")
            params = params.replace(arrays)
    return params, curve


def next_token_accuracy(
    dataset: Sequence[tuple], policy: SchedulePolicy, params: PredictorParams
) -> float:
    """Fraction of positions where the argmax of the logits equals the target,
    over the whole dataset from one :func:`_masked_forward`."""
    if not any(len(Y) for _, Y in dataset):
        raise ValueError("dataset has no positions to score")
    logits, targets = _finite_logits(dataset, policy, params)
    return int((logits.argmax(axis=-1) == targets).sum()) / len(targets)


def copy_task_dataset(
    vocab: ExtendedVocab,
    n_samples: int,
    seq_len: int,
    alphabet_size: int,
    rng: np.random.Generator,
) -> list[tuple[np.ndarray, list[int]]]:
    """Synthetic copy task: each sample repeats one alphabet symbol.

    The fused representation at every position is the one-hot tag of the
    sample's symbol, and every target is that symbol's speech token, so with
    a 1:1 read/write policy each fused vector deterministically tags its
    target token.
    """
    if alphabet_size > vocab.speech_size:
        raise ValueError("alphabet cannot exceed the speech vocabulary")
    pairs = []
    for _ in range(n_samples):
        symbol = int(rng.integers(alphabet_size))
        C = np.tile(np.eye(alphabet_size)[symbol], (seq_len, 1))
        Y = [vocab.speech_token(symbol)] * seq_len
        pairs.append((C, Y))
    return pairs


# ---------------------------------------------------------------------------
# gate fusion of source hidden states


def fused_representations(
    ffn: FfnParams, gate: GateParams, token_emb: np.ndarray, hidden_states, text_ids: Sequence[int]
) -> np.ndarray:
    """Project each source hidden state, embed its text token, and gate-fuse."""
    return fuse(ffn, gate, token_emb, hidden_states, text_ids)[-1]


# ---------------------------------------------------------------------------
# persistence


def save_predictor(path, params: PredictorParams) -> None:
    save_tensors(
        path,
        params.arrays(),
        meta={"text_size": params.vocab.text_size, "speech_size": params.vocab.speech_size},
    )


def load_predictor(path) -> PredictorParams:
    """Read a :func:`save_predictor` file; a meta size that is missing or not
    an integer raises ``ValueError`` naming it."""
    tensors, meta = load_tensors(path)
    with records.prefixed("meta."):
        vocab = ExtendedVocab(text_size=meta.get("text_size"), speech_size=meta.get("speech_size"))
    return PredictorParams(vocab=vocab, **tensors)


def pair_from_record(row: Mapping) -> tuple[np.ndarray, list[int]]:
    """Parse one ``fused-pairs/v1`` row: ``fused`` a non-empty list of
    equal-length, non-empty rows of finite numbers, ``tokens`` a list of
    integer ids (their range depends on the vocabulary, checked in training)."""
    fused, tokens = row.get("fused"), row.get("tokens")
    if not (
        isinstance(fused, list) and fused
        and all(isinstance(r, list) and r and len(r) == len(fused[0]) for r in fused)
        and all(type(x) in (int, float) and abs(x) <= sys.float_info.max for r in fused for x in r)
    ):
        raise ValueError("fused must be a non-empty list of equal-length rows of finite numbers")
    if not (isinstance(tokens, list) and all(type(t) is int for t in tokens)):
        raise ValueError("tokens must be a list of integer ids")
    return np.asarray(fused, dtype=float), tokens


def load_pairs(path) -> list[tuple[np.ndarray, list[int]]]:
    return records.read_jsonl(path, schema="fused-pairs/v1", parse=pair_from_record)
