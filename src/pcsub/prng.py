"""Deterministic 64-bit PRNG (SplitMix64) for reproducible initialization.

The generator is fixed to SplitMix64 (Steele, Lea & Flood's mixing
constants) so that weight initialization and dataset generation are
bit-reproducible across platforms and across reimplementations in other
languages. State is a single u64; each step adds the golden-gamma
increment and mixes.

Uniform floats are produced from the top 53 bits of the mixed output
(``z >> 11``) scaled by 2**-53, giving a binary64 value in [0, 1), which
is then mapped to [lo, hi) and rounded to binary32.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class Prng:
    """SplitMix64 stream. Not thread-safe: one mutable u64 state."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform01(self) -> float:
        """Next binary64 value in [0, 1), 53 bits of entropy."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniform(self, lo: float, hi: float) -> np.float32:
        """Next value in [lo, hi), rounded to binary32.

        lo == hi returns lo. The upper endpoint is reachable only through
        the final binary32 rounding.
        """
        if lo > hi:
            raise ValueError(f"uniform: lo={lo} > hi={hi}")
        if lo == hi:
            return np.float32(lo)
        return np.float32(lo + self.uniform01() * (hi - lo))

    def fill_uniform(self, shape, lo: float, hi: float) -> np.ndarray:
        """Array of sequential uniform(lo, hi) draws, C-order."""
        out = np.empty(shape, dtype=np.float32)
        flat = out.reshape(-1)
        for i in range(flat.size):
            flat[i] = self.uniform(lo, hi)
        return out
