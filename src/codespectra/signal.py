"""Seeded codeword sampling and the sampled signal matrix.

Sampled codewords pass through the additive character (codes.char_map)
into unit-modulus rows.  Binary rows are stored as real +-1 so all
downstream spectral work stays in real arithmetic when q = 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import LinearCode, char_map, codewords
from .errors import ParameterError
from .rng import XorShift64Star

MODE_DISTINCT = "distinct"
MODE_WITH_REPLACEMENT = "with_replacement"


@dataclass(frozen=True)
class SignalMatrix:
    """p x n matrix of character-mapped sampled codewords."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        e = np.asarray(self.entries)
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @property
    def p(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.entries.shape[1]


def sample_message_indices(
    code: LinearCode, p: int, mode: str, rng: XorShift64Star
) -> list[int]:
    """Uniform message indices; distinct mode rejects repeats.

    Rejection terminates fast for p <= N/2; beyond that the whole message
    space is enumerated and partially Fisher-Yates shuffled, which also
    covers p = N.
    """
    if p < 1:
        raise ParameterError(f"need p >= 1, got {p}")
    big_n = code.N
    if mode == MODE_WITH_REPLACEMENT:
        return [rng.below(big_n) for _ in range(p)]
    if mode != MODE_DISTINCT:
        raise ParameterError(f"unknown sampling mode: {mode!r}")
    if p > big_n:
        raise ParameterError(f"cannot draw {p} distinct codewords from {big_n}")
    if 2 * p > big_n:
        pool = list(range(big_n))
        for i in range(p):
            j = i + rng.below(big_n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:p]
    seen: set[int] = set()
    out: list[int] = []
    while len(out) < p:
        idx = rng.below(big_n)
        if idx not in seen:
            seen.add(idx)
            out.append(idx)
    return out


def sample_codewords(
    code: LinearCode, p: int, mode: str, seed: int, stream_index: int = 0
) -> SignalMatrix:
    """Draw p codewords (per `mode`) and return their character-map rows."""
    rng = XorShift64Star(seed, stream_index)
    indices = sample_message_indices(code, p, mode, rng)
    return SignalMatrix(char_map(codewords(code, indices), code.q))
