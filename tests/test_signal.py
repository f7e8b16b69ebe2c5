import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import codespectra as cs
from codespectra import ParameterError
from codespectra.rng import XorShift64Star
from codespectra.signal import (
    MODE_DISTINCT,
    MODE_WITH_REPLACEMENT,
    sample_message_indices,
)


def test_char_map_binary():
    out = cs.char_map(np.array([0, 1, 1]), 2)
    assert out.dtype == np.float64
    assert (out == np.array([1.0, -1.0, -1.0])).all()


def test_char_map_ternary():
    out = cs.char_map(np.array([1]), 3)
    assert out[0] == pytest.approx(np.exp(2j * np.pi / 3))


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_char_map_matches_direct_formula(q):
    # the in-place map gives the bits of the direct expressions
    w = np.random.default_rng(q).integers(-50, 50, (40, 60))
    direct = 1.0 - 2.0 * (w % 2) if q == 2 else np.exp(2j * np.pi * (w % q) / q)
    assert cs.char_map(w, q).tobytes() == direct.tobytes()


def test_sampling_peak_memory():
    # the int64 words and the character rows are the only p x n arrays
    # alive at once (cli.REPEAT_BYTES_BUDGET counts on these factors)
    tern = cs.LinearCode(q=3, generator=np.hstack([
        np.eye(6, dtype=int), np.random.default_rng(0).integers(0, 3, (6, 294))]))
    for code, p, factor in ((cs.make_gold(11), 50, 2.25), (tern, 200, 3.5)):
        tracemalloc.start()
        try:
            cs.sample_codewords(code, p, MODE_DISTINCT, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= factor * p * code.n * 8, code.label


def test_char_map_self_inner_product(even5):
    word = cs.encode(even5, np.array([1, 0, 1, 0]))
    row = cs.char_map(word, 2)
    assert row @ row == even5.n


def test_codewords_match_encode():
    ternary = cs.LinearCode(q=3, generator=np.array([[1, 0, 0, 1, 2],
                                                      [0, 1, 0, 2, 2],
                                                      [0, 0, 1, 1, 1],
                                                      [1, 1, 1, 0, 2]]))
    for code in (cs.make_even_weight(7), ternary):
        q, k = code.q, code.k
        words = cs.codewords(code, np.arange(code.N))
        for idx in range(code.N):
            digits = [idx // q**i % q for i in range(k)]
            assert (words[idx] == cs.encode(code, digits)).all()
    # k >= 64: every index below 2^64 decodes, including those past 2^63
    indices = [0, 1, 2**63 - 1, 2**63, 2**64 - 1, 0xDEADBEEF12345678]
    for k in (64, 65, 128):
        big = cs.make_even_weight(k + 1)
        words = cs.codewords(big, indices)
        for idx, word in zip(indices, words):
            digits = [idx >> i & 1 for i in range(k)]
            assert (word == cs.encode(big, digits)).all()
    with pytest.raises(ParameterError):
        cs.codewords(cs.make_even_weight(7), [64])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_packed_decode_matches_encode(data):
    # binary codes decode by packed parity; encode() is the oracle
    k = data.draw(st.one_of(st.sampled_from([63, 64, 65, 128]), st.integers(1, 130)),
                  label="k")
    extra = data.draw(st.integers(0, 8), label="extra columns")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    mix = np.tril(rng.integers(0, 2, size=(k, k)), -1) + np.eye(k, dtype=np.int64)
    gen = np.hstack([np.eye(k, dtype=np.int64), rng.integers(0, 2, size=(k, extra))])
    gen = (mix @ gen % 2)[:, rng.permutation(k + extra)]
    code = cs.LinearCode(q=2, generator=gen)
    top = 2**min(k, 64) - 1  # a uint64 index has no bit past 63
    indices = data.draw(st.lists(
        st.one_of(st.integers(0, top), st.integers(max(0, top - 3), top)),
        min_size=1, max_size=12), label="indices")
    words = cs.codewords(code, indices)
    assert words.dtype == np.int64 and words.shape == (len(indices), k + extra)
    for idx, word in zip(indices, words):
        assert (word == cs.encode(code, [idx >> i & 1 for i in range(k)])).all()
    if k < 64:
        beyond = data.draw(st.one_of(st.integers(top + 1, top + 4),
                                     st.integers(top + 1, 2**64 - 1)), label="beyond")
        with pytest.raises(ParameterError):
            cs.codewords(code, indices + [beyond])


def test_sampling_is_deterministic(even5):
    a = cs.sample_codewords(even5, 8, MODE_DISTINCT, seed=99, stream_index=3)
    b = cs.sample_codewords(even5, 8, MODE_DISTINCT, seed=99, stream_index=3)
    assert (a.entries == b.entries).all()
    c = cs.sample_codewords(even5, 8, MODE_DISTINCT, seed=99, stream_index=4)
    assert not (a.entries == c.entries).all()


def test_distinct_rows_are_distinct(even5):
    sig = cs.sample_codewords(even5, 10, MODE_DISTINCT, seed=5)
    assert len({tuple(r) for r in np.asarray(sig.entries)}) == 10


def test_p_equals_N_is_a_permutation_of_the_code(even5):
    sig = cs.sample_codewords(even5, 16, MODE_DISTINCT, seed=11)
    rows = {tuple(r) for r in np.asarray(sig.entries)}
    assert len(rows) == 16  # pigeonhole: every codeword exactly once


def test_distinct_requires_p_at_most_N(even5):
    with pytest.raises(ParameterError):
        cs.sample_codewords(even5, 17, MODE_DISTINCT, seed=1)


def test_with_replacement_allows_p_above_N(even5):
    sig = cs.sample_codewords(even5, 20, MODE_WITH_REPLACEMENT, seed=1)
    assert sig.p == 20


def test_unknown_mode_rejected(even5):
    with pytest.raises(ParameterError):
        cs.sample_codewords(even5, 2, "bogus", seed=1)


def test_gold5_signal_shape(gold5):
    sig = cs.sample_codewords(gold5, 8, MODE_DISTINCT, seed=2)
    assert (sig.p, sig.n) == (8, 31)
    assert set(np.unique(np.asarray(sig.entries))) == {-1.0, 1.0}


def test_uniformity_smoke(even5):
    # 1e5 single distinct draws; each of the 16 codewords within 5 sigma
    rng = XorShift64Star(2024)
    counts = np.zeros(16, dtype=int)
    draws = 100_000
    for _ in range(draws):
        counts[sample_message_indices(even5, 1, MODE_DISTINCT, rng)[0]] += 1
    expected = draws / 16
    sigma = np.sqrt(draws * (1 / 16) * (15 / 16))
    assert (np.abs(counts - expected) <= 5 * sigma).all(), counts


def test_fallback_enumeration_path(even5):
    # p > N/2 is drawn by rejection, like every other p
    rng = XorShift64Star(7)
    idx = sample_message_indices(even5, 12, MODE_DISTINCT, rng)
    assert len(set(idx)) == 12
    assert all(0 <= i < 16 for i in idx)


@pytest.mark.parametrize("label, seed, expected", [
    ("gold5", 2024, [784, 46, 814, 197, 223, 318, 508, 158]),
    ("gold5", 31337, [111, 317, 13, 903, 798, 601, 627, 120]),
    ("even5", 2024, [0, 14, 5, 15, 12, 10, 2, 6]),
    ("even5", 31337, [15, 13, 7, 14, 9, 3, 8, 4]),
])
def test_distinct_draws_pinned(request, label, seed, expected):
    # p = 8 on Gold m=5 (N = 1024) and on even-weight n=5 at p = N/2 = 8:
    # the rejection draws behind every sampled command must not move
    code = request.getfixturevalue(label)
    rng = XorShift64Star(seed)
    assert sample_message_indices(code, 8, MODE_DISTINCT, rng) == expected


def test_signal_matrix_leaves_caller_array_writeable():
    rows = np.array([[1.0, -1.0], [-1.0, 1.0]])
    sig = cs.SignalMatrix(rows)
    assert rows.flags.writeable and not sig.entries.flags.writeable
    assert np.shares_memory(sig.entries, rows)  # a view, not a copy


def test_rng_stream_independence():
    a = XorShift64Star(123, 0)
    b = XorShift64Star(123, 1)
    assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]


def test_rng_below_range():
    rng = XorShift64Star(5)
    vals = [rng.below(7) for _ in range(1000)]
    assert set(vals) == set(range(7))


def test_rng_below_refuses_bounds_past_2_64():
    rng = XorShift64Star(5)
    # draws for bounds up to 2^64 are pinned: the refusal must not move them
    assert [rng.below(b) for b in (2**64, 2**63 + 1, 7, 3**40)] == \
        [12369517773850188711, 2712716412630238840, 4, 466263035422807775]
    for bound in (0, 2**64 + 1, 2**69):
        with pytest.raises(ParameterError):
            rng.below(bound)
