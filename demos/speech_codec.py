"""Quantize latent vectors into speech tokens and back.

The codec squashes each of 8 latent dimensions through tanh, rounds to one of
3 level centers, and packs the digits into a token index below 3**8 = 6561.
"""

import numpy as np

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

print(f"{DIMS} dims x {LEVELS} levels -> {CODEBOOK_SIZE} tokens")
print(f"token rate: {SPEECH_TOKENS_PER_SECOND} per second of speech")
print(f"level centers (squashed space): {LEVEL_CENTERS}")

# A latent near zero lands on the middle level everywhere; saturated inputs
# pin to the outermost levels.
print("\nzero latent   ->", encode(np.zeros(8)))
print("huge latent   ->", encode(np.full(8, 50.0)))
print("mixed latent  ->", encode(np.array([-3.0, -0.5, -0.1, 0.0, 0.1, 0.5, 3.0, 9.0])))

# Codes pack into indices little-endian (digit 0 least significant).
code = np.array([2, 1, 0, 0, 0, 0, 0, 0])
print(f"\ncode {code} -> index {code_to_index(code)}")
print(f"index 6560 -> code {index_to_code(6560)} (all top levels)")

# Round trips are exact: dequantize returns the latent representative of each
# level center, and re-encoding recovers the same code.
rng = np.random.default_rng(42)
latents = 2.0 * rng.standard_normal((5, 8))
print("\nlatent -> token -> code round trips:")
for latent in latents:
    token = encode_to_index(latent)
    code = index_to_code(token)
    assert np.array_equal(encode(dequantize(code)), code)
    print(f"token {token:4d}  code {code}")

# Tokenize a slow latent trajectory: one second of "speech" is 25 tokens.
steps = np.linspace(-2.0, 2.0, SPEECH_TOKENS_PER_SECOND)
trajectory = np.outer(steps, np.ones(8))
stream = [encode_to_index(frame) for frame in trajectory]
print(f"\none second of a sweeping trajectory -> {len(stream)} tokens:")
print(stream)
