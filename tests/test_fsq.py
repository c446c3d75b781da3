from __future__ import annotations

import sys

import numpy as np
import pytest

from streamvox.fsq import (
    SPEECH_TOKENS_PER_SECOND,
    FsqConfig,
    code_to_index,
    dequantize,
    encode,
    encode_to_index,
    index_to_code,
    level_centers,
)


def test_default_codebook_size() -> None:
    assert FsqConfig().codebook_size == 6561
    assert SPEECH_TOKENS_PER_SECOND == 25


def test_config_validation() -> None:
    with pytest.raises(ValueError):
        FsqConfig(dims=0)
    with pytest.raises(ValueError):
        FsqConfig(levels=1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"dims": 2.5},
        {"dims": True},
        {"levels": 2.5},
        {"levels": True},
        {"levels": np.int64(3)},
        {"dims": 40, "levels": 3},  # 3**40 > sys.maxsize
        {"dims": 63, "levels": 2},
        {"dims": 10**18},
        {"dims": 2, "levels": sys.maxsize},
    ],
)
def test_config_rejects_non_integers_and_oversized_codebooks(kwargs) -> None:
    with pytest.raises(ValueError):
        FsqConfig(**kwargs)


@pytest.mark.parametrize("dims,levels", [(39, 3), (62, 2), (1, sys.maxsize)])
def test_largest_codebooks_index_exactly(dims, levels) -> None:
    cfg = FsqConfig(dims=dims, levels=levels)
    top = cfg.codebook_size - 1
    indices = [0, 1, top // 3, top - 1, top]
    codes = index_to_code(np.array(indices), cfg)
    for index, code in zip(indices, codes):
        digits = []
        for _ in range(dims):
            index, digit = divmod(index, levels)
            digits.append(digit)
        assert code.tolist() == digits
    assert code_to_index(codes, cfg).tolist() == indices
    assert code_to_index(index_to_code(top, cfg), cfg) == top


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
    cfg = FsqConfig()
    assert code_to_index(np.zeros(8, dtype=int), cfg) == 0
    assert code_to_index(np.full(8, 2), cfg) == 6560
    np.testing.assert_array_equal(index_to_code(5, cfg), [2, 1, 0, 0, 0, 0, 0, 0])


def test_index_code_rejects_out_of_range() -> None:
    cfg = FsqConfig()
    with pytest.raises(ValueError):
        index_to_code(6561, cfg)
    with pytest.raises(ValueError):
        code_to_index(np.array([3, 0, 0, 0, 0, 0, 0, 0]), cfg)
    with pytest.raises(ValueError):
        code_to_index(np.zeros(8), cfg)  # float digits


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
    cfg = FsqConfig()
    indices = np.arange(cfg.codebook_size)
    codes = index_to_code(indices, cfg)
    assert codes.shape == (cfg.codebook_size, cfg.dims)
    np.testing.assert_array_equal(codes, [index_to_code(int(i), cfg) for i in indices])
    back = code_to_index(codes, cfg)
    np.testing.assert_array_equal(back, indices)
    assert [code_to_index(c, cfg) for c in codes] == indices.tolist()
    np.testing.assert_array_equal(dequantize(codes, cfg), [dequantize(c, cfg) for c in codes])
    latents = 4.0 * np.random.default_rng(67).standard_normal((10_000, cfg.dims))
    np.testing.assert_array_equal(encode(latents, cfg), [encode(x, cfg) for x in latents])
    np.testing.assert_array_equal(encode_to_index(latents, cfg), [encode_to_index(x, cfg) for x in latents])


def test_codec_keeps_leading_batch_axes() -> None:
    cfg = FsqConfig()
    indices = np.array([[0, 5, 6560], [7, 8, 9]])
    codes = index_to_code(indices, cfg)
    assert codes.shape == (2, 3, cfg.dims)
    assert dequantize(codes, cfg).shape == (2, 3, cfg.dims)
    np.testing.assert_array_equal(code_to_index(codes, cfg), indices)
    np.testing.assert_array_equal(encode_to_index(dequantize(codes, cfg), cfg), indices)
    assert index_to_code(np.array([], dtype=int), cfg).shape == (0, cfg.dims)
    assert type(code_to_index(codes[0, 1], cfg)) is int
    assert type(encode_to_index(np.zeros(cfg.dims), cfg)) is int


def test_returned_arrays_never_alias_cached_tables() -> None:
    cfg = FsqConfig()
    code = index_to_code(5, cfg)
    code[:] = 0
    np.testing.assert_array_equal(index_to_code(5, cfg), [2, 1, 0, 0, 0, 0, 0, 0])
    latent = dequantize(np.full(8, 2), cfg)
    expected = latent.copy()
    latent[:] = 0.0
    np.testing.assert_array_equal(dequantize(np.full(8, 2), cfg), expected)
    for table in (cfg.powers, cfg.center_latents):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 7


def test_exhaustive_bijection_default_config() -> None:
    cfg = FsqConfig()
    for index in range(cfg.codebook_size):
        assert code_to_index(index_to_code(index, cfg), cfg) == index


def test_dequantize_middle_code_is_zero() -> None:
    cfg = FsqConfig()
    np.testing.assert_allclose(dequantize(np.ones(8, dtype=int), cfg), np.zeros(8))


def test_dequantize_extreme_codes_hit_outer_centers() -> None:
    cfg = FsqConfig()
    centers = level_centers(cfg)
    low = dequantize(np.zeros(8, dtype=int), cfg)
    high = dequantize(np.full(8, cfg.levels - 1), cfg)
    np.testing.assert_allclose(np.tanh(low), np.full(8, centers[0]), rtol=1e-12)
    np.testing.assert_allclose(np.tanh(high), np.full(8, centers[-1]), rtol=1e-12)


def test_round_trip_over_all_indices() -> None:
    cfg = FsqConfig()
    for index in range(cfg.codebook_size):
        code = index_to_code(index, cfg)
        np.testing.assert_array_equal(encode(dequantize(code, cfg), cfg), code)


@pytest.mark.parametrize("levels,dims", [(3, 8), (5, 4), (7, 3), (16, 2)])
def test_round_trip_other_geometries(levels: int, dims: int) -> None:
    cfg = FsqConfig(dims=dims, levels=levels)
    for index in range(cfg.codebook_size):
        code = index_to_code(index, cfg)
        assert code_to_index(code, cfg) == index
        np.testing.assert_array_equal(encode(dequantize(code, cfg), cfg), code)


def test_encode_idempotence_on_random_latents() -> None:
    cfg = FsqConfig()
    rng = np.random.default_rng(29)
    latents = 3.0 * rng.standard_normal((500, cfg.dims))
    for latent in latents:
        code = encode(latent, cfg)
        np.testing.assert_array_equal(encode(dequantize(code, cfg), cfg), code)


def test_encode_to_index_stays_in_range() -> None:
    cfg = FsqConfig()
    rng = np.random.default_rng(31)
    for _ in range(200):
        index = encode_to_index(100.0 * rng.standard_normal(cfg.dims), cfg)
        assert 0 <= index < cfg.codebook_size


def test_boundary_ties_round_half_up() -> None:
    # with 2 levels the cell boundary sits exactly at 0: squash(0) = 0 must
    # land in the upper cell
    cfg = FsqConfig(dims=1, levels=2)
    np.testing.assert_array_equal(encode(np.zeros(1), cfg), [1])
