"""Finite scalar quantization speech-token codec.

Each latent dimension is squashed through tanh into (-1, 1), then binned into
``levels`` equal-width cells whose centers are evenly spaced at
``(2l + 1) / levels - 1``.  A code is the per-dimension vector of cell ids; a
token index is the code read as a little-endian base-``levels`` integer.  With
the defaults (8 dimensions, 3 levels) the codebook holds 3**8 = 6561 tokens,
and token streams run at 25 tokens per second of speech.

``dequantize`` returns the pre-squash representative of each center
(``atanh(center)``), i.e. the unique latent that squashes exactly onto the
center, so encode(dequantize(code)) == code holds for every level count.

Every codec function takes leading batch axes: latents and codes are
``(..., dims)`` and indices ``(...)``, with a 1-D latent or code, or one
integer index, as the one-row case.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import records

SPEECH_TOKENS_PER_SECOND = 25
DEFAULT_CODEBOOK_SIZE = 6561  # 3 ** 8


@dataclass(frozen=True)
class FsqConfig:
    """Quantizer geometry: ``dims`` scalar dimensions with ``levels`` cells each.
    The codebook size must fit in ``sys.maxsize``, so index math stays exact
    in int64."""

    dims: int = 8
    levels: int = 3

    def __post_init__(self) -> None:
        records.positive_int("dims", self.dims)
        if records.positive_int("levels", self.levels) < 2:
            raise ValueError(f"levels must be >= 2, got {self.levels}")
        # levels >= 2, so more dims than sys.maxsize has bits always overflow
        if self.dims > sys.maxsize.bit_length() or self.codebook_size > sys.maxsize:
            raise ValueError(f"codebook size {self.levels}**{self.dims} exceeds {sys.maxsize}")

    @property
    def codebook_size(self) -> int:
        return self.levels**self.dims

    @cached_property
    def powers(self) -> np.ndarray:
        """Read-only place values ``levels**i`` of the ``dims`` digits."""
        return _read_only(self.levels ** np.arange(self.dims, dtype=np.int64))

    @cached_property
    def center_latents(self) -> np.ndarray:
        """Read-only ``atanh`` of each level center: the latent of each digit."""
        return _read_only(np.arctanh(level_centers(self)))


def level_centers(config: FsqConfig) -> np.ndarray:
    """Centers of the quantization cells inside (-1, 1)."""
    return (2.0 * np.arange(config.levels) + 1.0) / config.levels - 1.0


def encode(latent, config: FsqConfig = FsqConfig()) -> np.ndarray:
    """Squash and round ``(..., dims)`` latents to per-dimension level ids.

    Boundary values round toward the higher level (half-up); values past the
    squash range saturate at levels 0 and ``levels - 1``.
    """
    latent = np.asarray(latent, dtype=float)
    if latent.ndim < 1 or latent.shape[-1] != config.dims:
        raise ValueError(f"latent has shape {latent.shape}, expected (..., {config.dims})")
    if not np.all(np.isfinite(latent)):
        raise ValueError("latent must be finite")
    squashed = np.tanh(latent)
    cells = np.floor((squashed + 1.0) * config.levels / 2.0).astype(int)
    return np.clip(cells, 0, config.levels - 1)


def dequantize(code, config: FsqConfig = FsqConfig()) -> np.ndarray:
    """Latent representatives ``(..., dims)`` of codes' level centers (pre-squash space)."""
    return config.center_latents[_check_code(code, config)]


def code_to_index(code, config: FsqConfig = FsqConfig()):
    """Little-endian base-``levels`` positional value of ``(..., dims)`` codes
    (digit 0 is least significant); one code gives a Python ``int``."""
    code = _check_code(code, config)
    index = code @ config.powers
    return int(index) if code.ndim == 1 else index


def index_to_code(index, config: FsqConfig = FsqConfig()) -> np.ndarray:
    """Inverse of :func:`code_to_index`: ``(..., dims)`` digits of integer
    indices ``(...)`` in [0, levels**dims)."""
    return _check_index(index, config) // config.powers % config.levels


def encode_to_index(latent, config: FsqConfig = FsqConfig()):
    return code_to_index(encode(latent, config), config)


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


def _check_index(index, config: FsqConfig):
    """In-range integer indices with a trailing axis for the digits; one
    Python ``int`` is returned as is (it may not fit in int64 until checked)."""
    if type(index) is int:
        if not 0 <= index < config.codebook_size:
            raise ValueError(f"index {index} out of range [0, {config.codebook_size})")
        return index
    index = np.asarray(index)
    if index.dtype.kind not in ("i", "u"):  # rejects bool and float
        raise ValueError(f"indices must be integers, got dtype {index.dtype}")
    if index.size and (index.min() < 0 or index.max() >= config.codebook_size):
        bad = index[(index < 0) | (index >= config.codebook_size)].flat[0]
        raise ValueError(f"index {bad} out of range [0, {config.codebook_size})")
    return index.astype(np.int64, copy=False)[..., None]


def _check_code(code, config: FsqConfig) -> np.ndarray:
    code = np.asarray(code)
    if code.ndim < 1 or code.shape[-1] != config.dims:
        raise ValueError(f"code has shape {code.shape}, expected (..., {config.dims})")
    if code.dtype.kind not in ("i", "u"):
        raise ValueError(f"code digits must be integers, got dtype {code.dtype}")
    if code.size and (code.min() < 0 or code.max() >= config.levels):
        raise ValueError(f"code digits must lie in [0, {config.levels})")
    return code.astype(np.int64, copy=False)
