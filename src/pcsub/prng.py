"""Deterministic 64-bit PRNG (SplitMix64) for reproducible initialization.

The generator is fixed to SplitMix64 (Steele, Lea & Flood's mixing
constants) so that weight initialization and dataset generation are
bit-reproducible across platforms and across reimplementations in other
languages. State is a single u64; each step adds the golden-gamma
increment and mixes.

Uniform floats are produced from the top 53 bits of the mixed output
(``z >> 11``) scaled by 2**-53, giving a binary64 value in [0, 1), which
is then mapped to [lo, hi) in binary64 (the bounds are taken as binary64
whatever their type) and rounded once to binary32.

``next_u64``, ``uniform01`` and ``uniform`` are the scalar definition of
the stream, one draw per call. ``fill_uniform`` gives the same bits for a
whole array at once: the state only ever advances by the fixed gamma, so
the k-th state after ``seed`` is ``seed + k * gamma (mod 2**64)``, and the
kernel builds every state of the draw with wrapping uint64 array
arithmetic, then mixes them all with array ops.
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

        lo == hi returns lo and draws nothing. The upper endpoint is
        reachable only through the final binary32 rounding.
        """
        lo, hi = float(lo), float(hi)
        if lo > hi:
            raise ValueError(f"uniform: lo={lo} > hi={hi}")
        if lo == hi:
            return np.float32(lo)
        return np.float32(lo + self.uniform01() * (hi - lo))

    def fill_uniform(self, shape, lo: float, hi: float) -> np.ndarray:
        """Array of sequential uniform(lo, hi) draws, C-order.

        Bit for bit the same array and final state as one ``uniform`` call
        per element. lo > hi raises before the state moves, for any shape.
        """
        lo, hi = float(lo), float(hi)
        if lo > hi:
            raise ValueError(f"fill_uniform: lo={lo} > hi={hi}")
        out = np.empty(shape, dtype=np.float32)
        if lo == hi:
            out.fill(lo)
            return out
        count = out.size
        # Every op that can wrap is an array op: numpy wraps uint64 arrays
        # silently but warns on uint64 scalar overflow.
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= _GAMMA
        z += np.uint64(self.state)
        z ^= z >> 30
        z *= _MIX1
        z ^= z >> 27
        z *= _MIX2
        z ^= z >> 31
        u = (z >> 11).astype(np.float64)  # exact: below 2**53
        u *= 2.0 ** -53
        # lo + u * (hi - lo) as in ``uniform``; like Python floats, infinite
        # bounds give inf or NaN without a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            u *= hi - lo
            u += lo
        out.reshape(-1)[:] = u
        self.state = (self.state + count * _GAMMA) & _MASK64
        return out
