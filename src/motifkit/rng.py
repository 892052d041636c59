"""Seedable random streams.

Everything stochastic takes an explicit numpy Generator.  Streams are
derived from (seed, stream_id) through SeedSequence spawning on top of
Philox, so distinct ids give independent, reproducible streams.
"""

import numpy as np


def stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    ss = np.random.SeedSequence(seed, spawn_key=(stream_id,))
    return np.random.Generator(np.random.Philox(ss))


def randint_below(rng: np.random.Generator, bound: int) -> int:
    """Uniform integer in [0, bound) for arbitrary-precision bounds.

    Rejection from the next power of two keeps the draw exactly
    uniform; numpy's own integers() stops at 64 bits.
    """
    if bound <= 0:
        raise ValueError("bound must be positive")
    if bound <= 1 << 63:
        return int(rng.integers(0, bound))
    nbits = bound.bit_length()
    words = (nbits + 31) // 32
    shift = 32 * words - nbits
    while True:
        raw = 0
        for w in rng.integers(0, 1 << 32, size=words, dtype=np.uint64):
            raw = (raw << 32) | int(w)
        raw >>= shift
        if raw < bound:
            return raw
