"""Deterministic 64-bit PRNG with an explicit stream-derivation rule.

xorshift64* (shift-xor state update, odd multiplier on output).  Stream s
of seed z starts from state z XOR (s * PHI64) and discards 8 outputs as
warm-up, so repeats of an experiment get decorrelated, reproducible
streams with no external dependency.  Identical (seed, stream) pairs give
identical byte-for-byte output on every platform.
"""

from __future__ import annotations

from .errors import ParameterError

_MASK64 = (1 << 64) - 1
_STAR = 0x2545F4914F6CDD1D   # xorshift64* output multiplier
_PHI64 = 0x9E3779B97F4A7C15  # odd constant for stream derivation
_WARMUP = 8


class XorShift64Star:
    def __init__(self, seed: int, stream_index: int = 0):
        if not 0 <= seed < (1 << 64):
            raise ParameterError("seed must be a 64-bit unsigned integer")
        if stream_index < 0:
            raise ParameterError("stream index must be nonnegative")
        state = (seed ^ ((stream_index * _PHI64) & _MASK64)) & _MASK64
        if state == 0:
            state = _PHI64
        self._state = state
        for _ in range(_WARMUP):
            self.next_u64()

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        self._state = x
        return (x * _STAR) & _MASK64

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), bias-free by rejection."""
        if not 0 < bound <= 1 << 64:
            raise ParameterError(f"bound must lie in [1, 2^64], got {bound}")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % bound
