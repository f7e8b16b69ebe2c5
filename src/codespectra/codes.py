"""Linear codes over prime fields and their structural audits.

Shipped families: binary Gold codes (length 2^m - 1, dimension 2m), first
order Reed-Muller codes, and the even-weight code (the tiny test code
whose dual is the repetition code).  Arbitrary codes load from a plain
text generator-matrix file.

The audits certify what the spectral experiments rely on: the dual
distance (smallest linearly dependent column set of the generator), the
codeword weight set, and the coherence max |<eps(c), eps(c')>| over
distinct codewords.  Weights and coherence come from one transform of the
column histogram up to SPECTRUM_BUDGET messages, and beyond it from the
weight set that Gold and even-weight codes carry, or from a codeword
sample.  The shipped constructors attach the dual distance they are known
to have in closed form (Gold: 5, since the dual is the double-error-
correcting BCH code; RM(1): 4; even-weight: n); for other codes it is read
off the transform's weight distribution through the MacWilliams
identities, and left uncertified beyond SPECTRUM_BUDGET.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb, sqrt
from pathlib import Path

import numpy as np

from .errors import ContractViolationError, ParameterError, ResourceError
from .fields import DEFAULT_PRIMITIVE_POLY, MAX_PRIME, antilog_table, is_prime
from .rng import XorShift64Star

# Largest int64 generator make_rm1 and make_even_weight build, in bytes,
# checked before allocating: even-weight n <= 4096, RM(1) m <= 19.
GENERATOR_BYTES_BUDGET = 1 << 27

# Largest N = q^k whose weights and coherence are exact: the transform
# holds one int64 (binary) or complex128 character sum per message, 8 or
# 16 MB at the budget.  Gold m=11 (N = 2^22) stays structural.
SPECTRUM_BUDGET = 1 << 20
# The sampled weight report decodes codewords in chunks of at most this
# many entries (rows x n): 512 kB per int64 chunk, whatever n is.
_CHUNK_ENTRIES = 1 << 16
_REPORT_SAMPLE_SEED = 0x0DE5EEDC0DE5EEDC
_REPORT_SAMPLE_SIZE = 1 << 15


@dataclass(frozen=True)
class LinearCode:
    """An [n, k] code over F_q given by a full-row-rank generator matrix."""

    q: int
    generator: np.ndarray
    label: str = ""
    known_weights: frozenset[int] | None = None
    known_dual_distance: int | None = None

    def __post_init__(self) -> None:
        if not 2 <= self.q < MAX_PRIME:
            raise ParameterError(
                f"alphabet size {self.q} is outside [2, {MAX_PRIME})"
            )
        if not is_prime(self.q):
            raise ParameterError(f"alphabet size {self.q} is not prime")
        try:  # ragged rows fail in np.asarray, non-numbers in the cast
            gen = np.asarray(self.generator)
            with np.errstate(invalid="ignore"):  # .real: no ComplexWarning
                cast = gen.real.astype(np.int64)
        except (OverflowError, TypeError, ValueError):
            cast = None
        # Refuse entries the int64 cast changes.  The cast is always a copy, so
        # freezing it leaves the caller's array writeable.
        if cast is None or not np.array_equal(cast, gen):
            raise ParameterError("generator must be a matrix of integers within int64")
        gen = cast
        if gen.ndim != 2:
            raise ParameterError("generator must be a 2-d matrix")
        k, n = gen.shape
        if not 1 <= k <= n:
            raise ParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
        if gen.min() < 0 or gen.max() >= self.q:
            raise ParameterError("generator entries must lie in [0, q-1]")
        if _row_rank_mod_q(gen, self.q) != k:
            raise ParameterError("generator rows are linearly dependent")
        gen.setflags(write=False)
        object.__setattr__(self, "generator", gen)

    @property
    def n(self) -> int:
        return self.generator.shape[1]

    @property
    def k(self) -> int:
        return self.generator.shape[0]

    @property
    def N(self) -> int:
        """Number of codewords, q^k."""
        return self.q**self.k

    @cached_property
    def _column_words(self) -> np.ndarray:
        """A binary generator's columns packed into uint64 words, one row of n
        words per block of 64 generator rows: bit i of word row r is generator
        row 64 r + i.  Each word row is the int64 powers of two @ its block,
        viewed as uint64; the bits are distinct, so the sum is exact even with
        bit 63 (the int64 sign).  Packed once per code, on first use, and
        read-only, like the generator it is packed from."""
        bits = np.int64(1) << np.arange(64, dtype=np.int64)
        blocks = [self.generator[r:r + 64] for r in range(0, self.k, 64)]
        words = np.array([bits[:len(b)] @ b for b in blocks]).view(np.uint64)
        words.setflags(write=False)
        return words


def _row_rank_mod_q(mat: np.ndarray, q: int) -> int:
    """Rank over F_q by forward elimination, one array update per pivot.

    Row r, once the pivots above it are cleared from it, is either zero
    (dependent on the rows above) or pivots on its first nonzero entry,
    whose column is then cleared from every row below.  The entries must
    lie in [0, q); they are copied into the narrowest signed type that
    holds -(q-1)^2, the most negative value an update makes.
    """
    a = np.array(mat, dtype=np.min_scalar_type(-(q - 1) ** 2))
    rank = 0
    for r in range(a.shape[0]):
        nonzero = np.flatnonzero(a[r])
        if nonzero.size == 0:
            continue
        col = nonzero[0]
        below = r + 1 + np.flatnonzero(a[r + 1:, col])
        if below.size:
            factor = a[below, col] * pow(int(a[r, col]), -1, q) % q
            a[below] = (a[below] - np.outer(factor, a[r])) % q
        rank += 1
    return rank


def make_gold(m: int) -> LinearCode:
    """Binary Gold code of length 2^m - 1 and dimension 2m (m odd, >= 5).

    Rows 0..m-1 are the shifted m-sequence Tr(alpha^i alpha^t); rows
    m..2m-1 use the decimation t -> 3t of the same sequence.  For odd m
    the nonzero weights are 2^(m-1) and 2^(m-1) +- 2^((m-1)/2), and the
    dual distance is 5.
    """
    if m < 5 or m % 2 == 0:
        raise ParameterError(f"Gold construction needs odd m >= 5, got {m}")
    if m not in DEFAULT_PRIMITIVE_POLY:
        raise ParameterError(
            f"no shipped primitive polynomial for m={m}; "
            f"available: {sorted(DEFAULT_PRIMITIVE_POLY)}"
        )
    alpha = antilog_table(DEFAULT_PRIMITIVE_POLY[m], m)
    n = alpha.size
    t = np.arange(n)

    # Tr(alpha^t) is the sum of the conjugates alpha^(t 2^j), j < m, and
    # lies in F_2, so the XOR of those table entries is 0 or 1.
    conjugates = alpha[t[:, None] * (1 << np.arange(m)) % n]
    trace_bits = np.bitwise_xor.reduce(conjugates, axis=1)
    shift = np.arange(m)[:, None]
    gen = np.vstack([trace_bits[(shift + t) % n], trace_bits[(shift + 3 * t) % n]])

    half = 1 << (m - 1)
    spread = 1 << ((m - 1) // 2)
    return LinearCode(
        q=2,
        generator=gen,
        label=f"gold(m={m}) [{n},{2 * m}] dual distance 5 (analytic)",
        known_weights=frozenset({half - spread, half, half + spread}),
        known_dual_distance=5,
    )


def make_rm1(m: int) -> LinearCode:
    """First-order Reed-Muller code [2^m, m+1]; its dual distance is 4."""
    if m < 3:
        raise ParameterError(f"Reed-Muller construction needs m >= 3, got {m}")
    # 8 (m + 1) 2^m bytes, compared without building 2^m for a huge m
    if m + 1 > GENERATOR_BYTES_BUDGET >> (m + 3):
        raise ResourceError(
            f"the RM(1) generator for m={m} needs 8 (m+1) 2^m bytes, over the "
            f"budget of {GENERATOR_BYTES_BUDGET}"
        )
    n = 1 << m
    t = np.arange(n)
    gen = np.empty((m + 1, n), dtype=np.uint8)  # LinearCode casts it to int64
    gen[0] = 1
    for i in range(m):
        gen[1 + i] = (t >> i) & 1
    return LinearCode(
        q=2,
        generator=gen,
        label=f"rm1(m={m}) [{n},{m + 1}]",
        known_dual_distance=4,
    )


def make_even_weight(n: int) -> LinearCode:
    """All even-weight words of length n; dual is the repetition code."""
    if n < 3:
        raise ParameterError(f"even-weight code needs n >= 3, got {n}")
    if 8 * (n - 1) * n > GENERATOR_BYTES_BUDGET:
        raise ResourceError(
            f"the even-weight generator for n={n} needs {8 * (n - 1) * n} "
            f"bytes, over the budget of {GENERATOR_BYTES_BUDGET}"
        )
    gen = np.hstack([np.eye(n - 1, dtype=np.uint8),  # LinearCode casts it to int64
                     np.ones((n - 1, 1), dtype=np.uint8)])
    return LinearCode(
        q=2,
        generator=gen,
        label=f"even-weight [{n},{n - 1}]",
        known_weights=frozenset(range(2, n + 1, 2)),
        known_dual_distance=n,
    )


def encode(code: LinearCode, message) -> np.ndarray:
    """message . generator over F_q."""
    msg = np.asarray(message, dtype=np.int64)
    if msg.shape != (code.k,):
        raise ParameterError(
            f"message length {msg.shape} does not match dimension k={code.k}"
        )
    return (msg % code.q) @ code.generator % code.q


def codewords(code: LinearCode, indices) -> np.ndarray:
    """Codewords of the messages with the given indices, one row each.

    Message index i stands for the message whose entries are the base-q
    digits of i, least significant first.  Indices are taken in uint64, so
    every index below min(N, 2^64) decodes.  For a binary code the bits of
    i are the message, and coordinate j of its codeword is the parity of
    i AND the first word of column j (`LinearCode._column_words`), since i
    has no bit past 63; other codes decode digit by digit and multiply by
    the generator.
    """
    idx = np.asarray(indices, dtype=np.uint64).reshape(-1)
    if code.q == 2:
        if code.k < 64 and (idx >> code.k).any():
            raise ParameterError(f"message index beyond the N = {code.N} codewords")
        words = idx[:, None] & code._column_words[0]
        np.bitwise_count(words, out=words)
        words &= 1
        return words.view(np.int64)
    rest, q = idx, np.uint64(code.q)
    digits = np.empty((rest.size, code.k), dtype=np.int64)
    for i in range(code.k):
        rest, digits[:, i] = np.divmod(rest, q)
    if rest.any():
        raise ParameterError(f"message index beyond the N = {code.N} codewords")
    words = digits @ code.generator
    return np.remainder(words, code.q, out=words)


def char_map(word, q: int) -> np.ndarray:
    """Component-wise additive character x -> exp(2*pi*i*x/q), real for q = 2
    (0 -> +1, 1 -> -1).

    Built in place in its one output array, so mapping p x n words holds
    only the int64 words and the rows.  A binary word's residue is its
    parity, taken by `& 1` rather than by an integer division.
    """
    w = np.asarray(word, dtype=np.int64)
    rows = np.empty(w.shape, dtype=np.float64 if q == 2 else np.complex128)
    if q == 2:
        np.bitwise_and(w, 1, out=rows)
        rows *= -2
        rows += 1
    else:
        np.remainder(w, q, out=rows)
        rows *= 2j * np.pi
        rows /= q
        np.exp(rows, out=rows)
    return rows


def parse_generator(text: str, label: str = "file") -> LinearCode:
    """Parse the plain-text format: first line "q n k", then k rows of n."""
    tokens = text.split()
    if len(tokens) < 3:
        raise ParameterError("generator file needs a 'q n k' header")
    try:
        values = [int(v) for v in tokens]
    except ValueError as exc:
        raise ParameterError(f"generator file: {exc}") from None
    q, n, k = values[:3]
    body = values[3:]
    if k < 1 or n < 1 or len(body) != k * n:
        raise ParameterError(
            f"expected {k}x{n} entries after the header, got {len(body)}"
        )
    gen = np.array(body).reshape(k, n)
    return LinearCode(q=q, generator=gen, label=label)


def load_generator(path: str | Path) -> LinearCode:
    p = Path(path)
    return parse_generator(p.read_text(), label=p.name)


def _dual_weights(counts: np.ndarray, q: int, bound: int) -> list[int]:
    """A'_1..A'_bound, the dual code's number of words of each weight, from
    the weight counts A_0..A_n.

    MacWilliams (MacWilliams & Sloane, ch. 5): the dual code has
    A'_j = (1/N) sum_i A_i K_j(i) words of weight j, N = sum_i A_i, with the
    Krawtchouk polynomial K_j(i) = sum_s (-1)^s (q-1)^(j-s) C(i,s) C(n-i,j-s).
    The sums are exact Python integers over the support of the counts; one
    that is negative or not divisible by N means the counts are not a
    code's, and raises ContractViolationError.
    """
    n = counts.size - 1
    support = [(i, int(counts[i])) for i in np.flatnonzero(counts).tolist()]
    total = sum(a for _, a in support)
    dual = []
    for j in range(1, bound + 1):
        scaled = sum(
            a * sum((-1) ** s * (q - 1) ** (j - s) * comb(i, s) * comb(n - i, j - s)
                    for s in range(j + 1))
            for i, a in support
        )
        words, rest = divmod(scaled, total)
        if rest or words < 0:
            raise ContractViolationError(
                f"MacWilliams sum for dual weight {j} is {scaled}, not a "
                f"nonnegative multiple of N = {total}"
            )
        dual.append(words)
    return dual


@dataclass(frozen=True)
class CodeReport:
    """Structural audit used by the spectral experiments.

    `method` is "exhaustive" (all N messages), "structural" (the known
    weight set) or "sampled" (uncertified).  `ratio_N_over_n` is None when
    N/n exceeds the float range, as it does for the even-weight codes from
    n = 1036 on (N = 2^(n-1)).
    """

    n: int
    k: int
    N: int
    q: int
    dual_distance_status: str
    weight_set: tuple[int, ...]
    coherence: float
    coherence_constant: float
    ratio_N_over_n: float | None
    certified: bool
    method: str


def code_report(code: LinearCode) -> CodeReport:
    """Dual distance, weight set and coherence of `code`.

    Weights and coherence are exhaustive when N <= SPECTRUM_BUDGET, read
    off the character sums of every message.  Beyond that the report falls
    back to the construction's known weight set when one is attached (exact
    for binary codes, since the coherence only depends on the difference-
    codeword weight), else to a fixed-seed deterministic codeword sample
    flagged non-certified.  The sample draws 64-bit message indices, so a
    code that needs it with N > 2^64 is refused with ParameterError.
    The dual distance is the construction's `known_dual_distance` when one
    is attached (reported exact); else, on the exhaustive path, it is the
    first j with A'_j > 0 among the dual weights A'_1..A'_5 of the same
    weight counts (MacWilliams), or ">=6" past the dual distance 5 that the
    semicircle law asks for; else nothing is certified (">=1").
    """
    if code.N <= SPECTRUM_BUDGET:
        method = "exhaustive"
    elif code.known_weights is not None and code.q == 2:
        method = "structural"
    else:
        method = "sampled"
        if code.N > 1 << 64:
            raise ParameterError(
                f"cannot sample the N = {code.N} codewords: message indices are 64-bit"
            )

    if method == "exhaustive":
        counts, coherence = _weights_exhaustive(code)
        weights = (np.flatnonzero(counts[1:]) + 1).tolist()
    elif method == "structural":
        weights = set(code.known_weights)
        coherence = max(abs(code.n - 2 * w) for w in weights)
    else:
        weights, coherence = _weights_sampled(code)

    if code.known_dual_distance is not None:
        dual_distance = f"={code.known_dual_distance}"
    elif method == "exhaustive":
        dual = _dual_weights(counts, code.q, 5)
        dual_distance = next((f"={j}" for j, a in enumerate(dual, 1) if a),
                             f">={len(dual) + 1}")
    else:
        dual_distance = ">=1"

    try:
        ratio = code.N / code.n
    except OverflowError:
        ratio = None
    return CodeReport(
        n=code.n,
        k=code.k,
        N=code.N,
        q=code.q,
        dual_distance_status=dual_distance,
        weight_set=tuple(sorted(weights)),
        coherence=float(coherence),
        coherence_constant=float(coherence) / sqrt(code.n),
        ratio_N_over_n=ratio,
        certified=method != "sampled",
        method=method,
    )


def _character_sums(code: LinearCode) -> np.ndarray:
    """S(u) = sum_j chi(<u, g_j>), the row sum of `char_map` of message u's
    codeword, for every message u in the order of `codewords`.

    S is the character transform of the column histogram over F_q^k (column
    g at index sum_i g_i q^i): k in-place int64 Walsh-Hadamard butterflies
    for a binary code, so exact, else the conjugated FFT over a (q,) * k
    array, one axis per digit, complex128.
    """
    q, k = code.q, code.k
    sums = np.bincount(q ** np.arange(k) @ code.generator, minlength=code.N)
    if q > 2:
        return np.fft.fftn(sums.reshape((q,) * k)).conj().ravel()
    for i in range(k):
        low, high = sums.reshape(-1, 2, 1 << i).swapaxes(0, 1)
        low += high  # a + b
        high *= -2
        high += low  # a - b
    return sums


def _weights_exhaustive(code: LinearCode) -> tuple[np.ndarray, float]:
    """Weight counts A_0..A_n and coherence, read off the character sums S.

    The coherence is max |S(u)| over u != 0.  A binary codeword has weight
    (n - S(u)) / 2.  The q - 1 multiples t u of a q-ary message u != 0 share
    (n + sum_{t != 0} S(t u)) / q zeros, so the sum is taken once per
    projective line, at its point whose lowest nonzero digit is 1: the
    indices q^i + q^(i+1) m, m < q^(k-i-1), whose multiples are built
    digit by digit.  Each of those weights counts q - 1 codewords.
    """
    n, q, k = code.n, code.q, code.k
    sums = _character_sums(code)
    if q == 2:
        weights = (n - sums[1:]) // 2
    else:
        rest = np.concatenate([q**i + q**(i + 1) * np.arange(q ** (k - i - 1))
                               for i in range(k)])
        t = np.arange(1, q)[:, None]
        multiples = np.zeros((q - 1, rest.size), dtype=np.int64)
        for i in range(k):
            rest, digit = np.divmod(rest, q)
            multiples += t * digit % q * q**i
        zeros = np.rint((n + sums.real[multiples].sum(axis=0)) / q)
        weights = n - zeros.astype(np.int64)
    coherence = float(np.abs(sums[1:]).max())
    counts = np.bincount(weights, minlength=n + 1) * (q - 1)
    counts[0] += 1  # the zero word
    return counts, coherence


def _weights_sampled(code: LinearCode) -> tuple[set[int], float]:
    size = min(_REPORT_SAMPLE_SIZE, code.N - 1)
    rng = XorShift64Star(_REPORT_SAMPLE_SEED)
    indices = {code.q**i for i in range(code.k)}  # unit messages
    while len(indices) < size:
        indices.add(rng.below(code.N - 1) + 1)
    messages = sorted(indices)
    weights: set[int] = set()
    coherence = 0.0
    rows = max(1, _CHUNK_ENTRIES // code.n)
    for start in range(0, len(messages), rows):
        words = codewords(code, messages[start:start + rows])
        counts = np.count_nonzero(words, axis=1)
        weights.update(counts.tolist())
        if code.q == 2:  # a binary word of weight w has character sum n - 2w
            sums = code.n - 2 * counts
        else:
            sums = char_map(words, code.q).sum(axis=1)
        coherence = max(coherence, float(np.abs(sums).max()))
    return weights, coherence
