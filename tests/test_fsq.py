from __future__ import annotations

import numpy as np
import pytest

from streamvox import fsq
from streamvox.fsq import (
    CODEBOOK_SIZE,
    DIMS,
    LEVEL_CENTERS,
    LEVELS,
    SPEECH_TOKENS_PER_SECOND,
    code_to_index,
    dequantize,
    encode,
    encode_to_index,
    index_to_code,
)


def test_default_codebook_size() -> None:
    assert (DIMS, LEVELS) == (8, 3)
    assert CODEBOOK_SIZE == LEVELS**DIMS == 6561
    assert SPEECH_TOKENS_PER_SECOND == 25
    np.testing.assert_allclose(LEVEL_CENTERS, [-2 / 3, 0.0, 2 / 3], rtol=0, atol=1e-15)


def test_encode_zero_hits_middle_level() -> None:
    np.testing.assert_array_equal(encode(np.zeros(8)), np.ones(8, dtype=int))


def test_encode_saturates_at_extreme_inputs() -> None:
    np.testing.assert_array_equal(encode(np.full(8, 10.0)), np.full(8, 2))
    np.testing.assert_array_equal(encode(np.full(8, -10.0)), np.zeros(8, dtype=int))


def test_encode_rejects_bad_inputs() -> None:
    with pytest.raises(ValueError):
        encode(np.zeros(7))
    with pytest.raises(ValueError):
        encode(np.array([np.nan] + [0.0] * 7))


def test_index_code_examples() -> None:
    assert code_to_index(np.zeros(8, dtype=int)) == 0
    assert code_to_index(np.full(8, 2)) == 6560
    np.testing.assert_array_equal(index_to_code(5), [2, 1, 0, 0, 0, 0, 0, 0])


def test_index_code_rejects_out_of_range() -> None:
    with pytest.raises(ValueError):
        index_to_code(6561)
    with pytest.raises(ValueError):
        code_to_index(np.array([3, 0, 0, 0, 0, 0, 0, 0]))
    with pytest.raises(ValueError):
        code_to_index(np.zeros(8))  # float digits
    for codec in (code_to_index, dequantize):
        with pytest.raises(ValueError, match=r"expected \(\.\.\., 8\)"):
            codec(np.zeros(7, dtype=int))


@pytest.mark.parametrize("bad", [2.7, True, np.True_, np.float64(3.0), np.array([1.0, 2.0]), np.array([True]), "3"])
def test_index_to_code_rejects_non_integer_indices(bad) -> None:
    with pytest.raises(ValueError, match="integers"):
        index_to_code(bad)


@pytest.mark.parametrize("bad", [-1, 6561, 10**30, np.array([0, 6561]), np.array([[-2]]), np.uint64(2**64 - 1)])
def test_index_to_code_rejects_out_of_range_indices(bad) -> None:
    with pytest.raises(ValueError, match="out of range"):
        index_to_code(bad)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64, ">i2"])
def test_codec_rejects_negative_values_of_every_width(dtype) -> None:
    # int8 cannot hold the codebook bound 6561, int16 can; both must reject negatives.
    for bad in (-1, np.iinfo(dtype).min):
        code = np.zeros((2, 8), dtype=dtype)
        code[1, 3] = bad
        for codec in (dequantize, code_to_index):
            with pytest.raises(ValueError, match=r"^code digits must lie in \[0, 3\)$"):
                codec(code)
        with pytest.raises(ValueError, match=rf"^index {bad} out of range \[0, 6561\)$"):
            index_to_code(np.array([[0, bad]], dtype=dtype))
    top = min(int(np.iinfo(dtype).max), 6560)
    np.testing.assert_array_equal(index_to_code(np.array([top, 0], dtype=dtype)), index_to_code(np.array([top, 0])))
    np.testing.assert_array_equal(dequantize(np.full(8, 2, dtype=dtype)), dequantize(np.full(8, 2)))


@pytest.mark.parametrize("bad", [2**63, 2**63 + 5, 2**64 - 1])
def test_index_error_names_large_unsigned_indices_as_given(bad) -> None:
    with pytest.raises(ValueError, match=rf"^index {bad} out of range \[0, 6561\)$"):
        index_to_code(np.array([3, bad], dtype=np.uint64))


def test_batched_codec_matches_per_item() -> None:
    indices = np.arange(CODEBOOK_SIZE)
    codes = index_to_code(indices)
    assert codes.shape == (CODEBOOK_SIZE, DIMS)
    np.testing.assert_array_equal(codes, [index_to_code(int(i)) for i in indices])
    back = code_to_index(codes)
    np.testing.assert_array_equal(back, indices)
    assert [code_to_index(c) for c in codes] == indices.tolist()
    np.testing.assert_array_equal(dequantize(codes), [dequantize(c) for c in codes])
    latents = 4.0 * np.random.default_rng(67).standard_normal((10_000, DIMS))
    np.testing.assert_array_equal(encode(latents), [encode(x) for x in latents])
    np.testing.assert_array_equal(encode_to_index(latents), [encode_to_index(x) for x in latents])


def test_codec_keeps_leading_batch_axes() -> None:
    indices = np.array([[0, 5, 6560], [7, 8, 9]])
    codes = index_to_code(indices)
    assert codes.shape == (2, 3, DIMS)
    assert dequantize(codes).shape == (2, 3, DIMS)
    np.testing.assert_array_equal(code_to_index(codes), indices)
    np.testing.assert_array_equal(encode_to_index(dequantize(codes)), indices)
    assert index_to_code(np.array([], dtype=int)).shape == (0, DIMS)
    assert type(code_to_index(codes[0, 1])) is int
    assert type(encode_to_index(np.zeros(DIMS))) is int


def test_returned_arrays_never_alias_cached_tables() -> None:
    code = index_to_code(5)
    code[:] = 0
    np.testing.assert_array_equal(index_to_code(5), [2, 1, 0, 0, 0, 0, 0, 0])
    latent = dequantize(np.full(8, 2))
    expected = latent.copy()
    latent[:] = 0.0
    np.testing.assert_array_equal(dequantize(np.full(8, 2)), expected)
    for table in (LEVEL_CENTERS, fsq._POWERS, fsq._CENTER_LATENTS):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 7


def test_exhaustive_bijection_default_config() -> None:
    for index in range(CODEBOOK_SIZE):
        assert code_to_index(index_to_code(index)) == index


def test_dequantize_middle_code_is_zero() -> None:
    np.testing.assert_allclose(dequantize(np.ones(8, dtype=int)), np.zeros(8))


def test_dequantize_extreme_codes_hit_outer_centers() -> None:
    low = dequantize(np.zeros(8, dtype=int))
    high = dequantize(np.full(8, LEVELS - 1))
    np.testing.assert_allclose(np.tanh(low), np.full(8, LEVEL_CENTERS[0]), rtol=1e-12)
    np.testing.assert_allclose(np.tanh(high), np.full(8, LEVEL_CENTERS[-1]), rtol=1e-12)


def test_round_trip_over_all_indices() -> None:
    for index in range(CODEBOOK_SIZE):
        code = index_to_code(index)
        np.testing.assert_array_equal(encode(dequantize(code)), code)


def test_encode_idempotence_on_random_latents() -> None:
    rng = np.random.default_rng(29)
    latents = 3.0 * rng.standard_normal((500, DIMS))
    for latent in latents:
        code = encode(latent)
        np.testing.assert_array_equal(encode(dequantize(code)), code)


def test_encode_to_index_stays_in_range() -> None:
    rng = np.random.default_rng(31)
    for _ in range(200):
        index = encode_to_index(100.0 * rng.standard_normal(DIMS))
        assert 0 <= index < CODEBOOK_SIZE


def test_boundary_ties_round_half_up() -> None:
    # The inner cell boundaries sit at squash -1/3 and 1/3. Latents next to
    # atanh(+-1/3) whose squash lands exactly on a boundary, in the encoder's
    # own arithmetic, must take the upper cell.
    for boundary, upper in ((-1 / 3, 1), (1 / 3, 2)):
        latent = np.arctanh(boundary)
        near = [latent]
        for direction in (-np.inf, np.inf):
            step = latent
            for _ in range(20):
                step = np.nextafter(step, direction)
                near.append(step)
        ties = [x for x in near if (np.tanh(x) + 1.0) * LEVELS / 2.0 == upper]
        assert ties
        np.testing.assert_array_equal(encode(np.array(ties)[:, None].repeat(DIMS, axis=1)), upper)
