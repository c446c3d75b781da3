"""Finite scalar quantization speech-token codec.

Each of the ``DIMS = 8`` latent dimensions is squashed through tanh into
(-1, 1), then binned into ``LEVELS = 3`` equal-width cells whose centers are
evenly spaced at ``(2l + 1) / LEVELS - 1``.  A code is the per-dimension
vector of cell ids; a token index is the code read as a little-endian
base-``LEVELS`` integer.  The codebook holds ``CODEBOOK_SIZE = 3**8 = 6561``
tokens, and token streams run at 25 tokens per second of speech.

``dequantize`` returns the pre-squash representative of each center
(``atanh(center)``), i.e. the unique latent that squashes exactly onto the
center, so encode(dequantize(code)) == code holds for every code.

Every codec function takes leading batch axes: latents and codes are
``(..., DIMS)`` and indices ``(...)``, with a 1-D latent or code, or one
integer index, as the one-row case.
"""

from __future__ import annotations

import numpy as np

SPEECH_TOKENS_PER_SECOND = 25
DIMS = 8
LEVELS = 3
CODEBOOK_SIZE = LEVELS**DIMS


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


LEVEL_CENTERS = _read_only((2.0 * np.arange(LEVELS) + 1.0) / LEVELS - 1.0)  # cell centers inside (-1, 1)
_POWERS = _read_only(LEVELS ** np.arange(DIMS, dtype=np.int64))  # place value LEVELS**i of digit i
_CENTER_LATENTS = _read_only(np.arctanh(LEVEL_CENTERS))  # the latent that squashes onto each center


def encode(latent) -> np.ndarray:
    """Squash and round ``(..., DIMS)`` latents to per-dimension level ids.

    Boundary values round toward the higher level (half-up); values past the
    squash range saturate at levels 0 and ``LEVELS - 1``.
    """
    latent = np.asarray(latent, dtype=float)
    if latent.ndim < 1 or latent.shape[-1] != DIMS:
        raise ValueError(f"latent has shape {latent.shape}, expected (..., {DIMS})")
    if not np.all(np.isfinite(latent)):
        raise ValueError("latent must be finite")
    squashed = np.tanh(latent)
    cells = np.floor((squashed + 1.0) * LEVELS / 2.0).astype(int)
    return np.clip(cells, 0, LEVELS - 1)


def dequantize(code) -> np.ndarray:
    """Latent representatives ``(..., DIMS)`` of codes' level centers (pre-squash space)."""
    return _CENTER_LATENTS[_check_code(code)]


def code_to_index(code):
    """Little-endian base-``LEVELS`` positional value of ``(..., DIMS)`` codes
    (digit 0 is least significant); one code gives a Python ``int``."""
    code = _check_code(code)
    index = code @ _POWERS
    return int(index) if code.ndim == 1 else index


def index_to_code(index) -> np.ndarray:
    """Inverse of :func:`code_to_index`: ``(..., DIMS)`` digits of integer
    indices ``(...)`` in [0, CODEBOOK_SIZE)."""
    return _check_index(index) // _POWERS % LEVELS


def encode_to_index(latent):
    return code_to_index(encode(latent))


def _check_index(index):
    """In-range integer indices with a trailing axis for the digits; one
    Python ``int`` is returned as is (it may not fit in int64 until checked)."""
    if type(index) is int:
        if not 0 <= index < CODEBOOK_SIZE:
            raise ValueError(f"index {index} out of range [0, {CODEBOOK_SIZE})")
        return index
    index = np.asarray(index)
    if index.dtype.kind not in ("i", "u"):  # rejects bool and float
        raise ValueError(f"indices must be integers, got dtype {index.dtype}")
    if index.size and (index.min() < 0 or index.max() >= CODEBOOK_SIZE):
        bad = index[(index < 0) | (index >= CODEBOOK_SIZE)].flat[0]
        raise ValueError(f"index {bad} out of range [0, {CODEBOOK_SIZE})")
    return index.astype(np.int64, copy=False)[..., None]


def _check_code(code) -> np.ndarray:
    code = np.asarray(code)
    if code.ndim < 1 or code.shape[-1] != DIMS:
        raise ValueError(f"code has shape {code.shape}, expected (..., {DIMS})")
    if code.dtype.kind not in ("i", "u"):
        raise ValueError(f"code digits must be integers, got dtype {code.dtype}")
    if code.size and (code.min() < 0 or code.max() >= LEVELS):
        raise ValueError(f"code digits must lie in [0, {LEVELS})")
    return code.astype(np.int64, copy=False)
