import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import codespectra as cs
from codespectra import ContractViolationError, LinearCode, ParameterError
from codespectra.codes import GENERATOR_BYTES_BUDGET, _character_sums, _dual_weights, \
    _row_rank_mod_q, _weights_exhaustive, _weights_sampled


def all_codewords(code):
    """Independent enumeration oracle: every message through encode()."""
    words = []
    for digits in itertools.product(range(code.q), repeat=code.k):
        words.append(cs.encode(code, np.array(digits)))
    return np.array(words)


def stripped(code):
    """The same generator without the constructor's known fields, so
    `code_report` reads the dual distance off the weight counts."""
    return LinearCode(q=code.q, generator=np.asarray(code.generator))


def dual_distance_up_to(code, bound):
    """The dual weights A'_1..A'_bound, by MacWilliams on the exhaustive
    weight counts."""
    return _dual_weights(_weights_exhaustive(code)[0], code.q, bound)


def test_gold5_parameters(gold5):
    assert (gold5.n, gold5.k, gold5.N) == (31, 10, 1024)


def test_gold7_parameters(gold7):
    assert (gold7.n, gold7.k, gold7.N) == (127, 14, 16384)


def test_gold5_weight_set_exhaustive(gold5):
    words = all_codewords(gold5)
    weights = {int(w.sum()) for w in words} - {0}
    assert weights == {12, 16, 20}


def test_gold7_weight_set_exhaustive(gold7):
    rep = cs.code_report(gold7)
    assert rep.method == "exhaustive"
    assert set(rep.weight_set) == {56, 64, 72}


def test_gold_rejects_bad_m():
    with pytest.raises(ParameterError):
        cs.make_gold(6)
    with pytest.raises(ParameterError):
        cs.make_gold(3)


def test_rm1_parameters_and_weights(rm1_3):
    assert (rm1_3.n, rm1_3.k) == (8, 4)
    weights = {int(w.sum()) for w in all_codewords(rm1_3)} - {0}
    assert weights == {4, 8}


def test_rm1_rejects_small_m():
    with pytest.raises(ParameterError):
        cs.make_rm1(2)


def test_even_weight_structure(even5):
    assert (even5.n, even5.k, even5.N) == (5, 4, 16)
    assert even5.N / even5.n == 16 / 5
    for w in all_codewords(even5):
        assert int(w.sum()) % 2 == 0


def test_encode_examples(even5):
    assert not cs.encode(even5, np.zeros(4, dtype=int)).any()
    for i in range(4):
        e = np.zeros(4, dtype=int)
        e[i] = 1
        assert (cs.encode(even5, e) == even5.generator[i]).all()
    two = cs.encode(even5, np.array([1, 1, 0, 0]))
    assert (two == (even5.generator[0] + even5.generator[1]) % 2).all()
    assert int(two.sum()) % 2 == 0
    with pytest.raises(ParameterError):
        cs.encode(even5, np.zeros(3, dtype=int))


def _row_rank_loop(mat, q):
    """Reference rank: Gauss-Jordan with one row update per (pivot, row)."""
    a = np.array(mat, dtype=np.int64) % q
    rows, cols = a.shape
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        pivot = None
        for r in range(rank, rows):
            if a[r, col] % q:
                pivot = r
                break
        if pivot is None:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        inv = pow(int(a[rank, col]), -1, q)
        a[rank] = (a[rank] * inv) % q
        for r in range(rows):
            if r != rank and a[r, col]:
                a[r] = (a[r] - a[r, col] * a[rank]) % q
        rank += 1
    return rank


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_row_rank_matches_reference_loop(data):
    # 13 and 191 are the first primes whose elimination needs int16 and int32
    q = data.draw(st.sampled_from([2, 3, 5, 7, 13, 191]), label="q")
    rows = data.draw(st.integers(1, 7), label="rows")
    cols = data.draw(st.integers(1, 9), label="cols")
    cell = st.integers(0, q - 1)
    a = np.array(data.draw(st.lists(cell, min_size=rows * cols,
                                    max_size=rows * cols))).reshape(rows, cols)
    # append rows that depend on the drawn ones, then shuffle them in
    extra = data.draw(st.integers(0, 3), label="dependent rows")
    coeffs = np.array(data.draw(st.lists(cell, min_size=extra * rows,
                                         max_size=extra * rows))).reshape(extra, rows)
    a = np.vstack([a, coeffs @ a % q])
    a = a[data.draw(st.permutations(range(a.shape[0])), label="order")]
    assert _row_rank_mod_q(a, q) == _row_rank_loop(a, q)


def test_rank_check_copy_stays_within_generator_budget():
    # the 80 MB int64 RM(1) m=19 generator is ranked in an int8 copy
    tracemalloc.start()
    try:
        cs.make_rm1(19)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < GENERATOR_BYTES_BUDGET


def test_generator_must_have_full_rank():
    with pytest.raises(ParameterError):
        LinearCode(q=2, generator=np.array([[1, 0, 1], [1, 0, 1]]))


def test_row_space_cardinality(even5, rm1_3):
    for code in (even5, rm1_3):
        words = {tuple(w) for w in all_codewords(code)}
        assert len(words) == code.N


def test_dual_distance_gold5(gold5):
    assert cs.code_report(stripped(gold5)).dual_distance_status == "=5"


def test_dual_distance_gold7_budget(gold7):
    # 2^14 codewords, within SPECTRUM_BUDGET: MacWilliams finds A'_5 > 0
    assert cs.code_report(stripped(gold7)).dual_distance_status == "=5"
    assert "analytic" in gold7.label


def test_dual_distance_rm1(rm1_3):
    assert cs.code_report(stripped(rm1_3)).dual_distance_status == "=4"


def test_dual_distance_even5(even5):
    # the dual is the repetition code: no word of weight 1..4, one of weight 5
    assert dual_distance_up_to(even5, 4) == [0, 0, 0, 0]
    assert dual_distance_up_to(even5, 5) == [0, 0, 0, 0, 1]


@pytest.mark.parametrize("make, arg, searched", [
    (cs.make_gold, 5, "=5"),
    (cs.make_gold, 7, "=5"),
    (cs.make_gold, 9, "=5"),
    *[(cs.make_rm1, m, "=4") for m in range(3, 20)],
    *[(cs.make_even_weight, n, f"={n}" if n <= 7 else ">=8") for n in range(3, 22)],
])
def test_known_dual_distance_agrees_with_search(make, arg, searched):
    code = make(arg)
    dual = dual_distance_up_to(code, 7)
    d = code.known_dual_distance
    if searched.startswith("="):  # A'_1..A'_(d-1) are 0 and A'_d is not
        assert searched == f"={d}"
        assert dual[:d - 1] == [0] * (d - 1) and dual[d - 1] > 0
    else:  # ">=8": A'_1..A'_7 are all 0
        assert dual == [0] * 7 and d >= 8
    assert cs.code_report(code).dual_distance_status == f"={code.known_dual_distance}"


def test_dual_distance_over_the_budget_is_uncertified():
    # N = 2^65 and 2^63 are over SPECTRUM_BUDGET: with their weight sets
    # but without their dual distance, the reports certify none
    for n in (66, 64):
        base = cs.make_even_weight(n)
        code = LinearCode(q=2, generator=np.asarray(base.generator),
                          known_weights=base.known_weights)
        rep = cs.code_report(code)
        assert rep.method == "structural"
        assert rep.dual_distance_status == ">=1"


def test_dual_distance_monotone(even5, rm1_3, gold5):
    # a lower bound computes a prefix of the same dual weights, so the first
    # nonzero one stays put once the bound reaches it
    for code in (even5, rm1_3, gold5):
        full = dual_distance_up_to(code, 7)
        exact = next(j for j, a in enumerate(full, 1) if a)
        for bound in range(exact, 8):
            dual = dual_distance_up_to(code, bound)
            assert dual == full[:bound]
            assert next(j for j, a in enumerate(dual, 1) if a) == exact


def test_dual_distance_brute_force_oracle(even5, rm1_3):
    # minimum-size dependent column set by direct subset enumeration
    # dual of the [8, 2, 5] code spanned by 10111100 and 01001111: its
    # eight columns are distinct and first depend in a set of five
    spans = np.array([[1, 0, 1, 1, 1, 1, 0, 0], [0, 1, 0, 0, 1, 1, 1, 1]])
    dual_8_2 = cs.LinearCode(q=2, generator=np.hstack(
        [spans[:, 2:].T, np.eye(6, dtype=int)]))
    for code, expected in ((even5, 5), (rm1_3, 4), (dual_8_2, 5)):
        gen = np.asarray(code.generator)
        found = None
        for size in range(1, code.n + 1):
            for idx in itertools.combinations(range(code.n), size):
                if not (gen[:, idx].sum(axis=1) % 2).any():
                    found = size
                    break
            if found:
                break
        assert found == expected
        assert cs.code_report(stripped(code)).dual_distance_status == f"={expected}"


def test_inner_product_identity_binary(even5):
    # <eps(c), eps(c')> = n - 2 wt(c + c') for all pairs
    words = all_codewords(even5)
    rows = 1.0 - 2.0 * words
    for a in range(len(words)):
        for b in range(len(words)):
            ip = float(rows[a] @ rows[b])
            wt = int(((words[a] + words[b]) % 2).sum())
            assert ip == even5.n - 2 * wt


def test_code_report_gold5(gold5):
    rep = cs.code_report(gold5)
    assert rep.n == 31 and rep.k == 10 and rep.N == 1024 and rep.q == 2
    assert rep.dual_distance_status == "=5"
    assert rep.weight_set == (12, 16, 20)
    assert rep.coherence == 9.0
    assert rep.coherence_constant == pytest.approx(9 / np.sqrt(31))
    assert rep.certified and rep.method == "exhaustive"
    # without the attached value the report reads it off the weight counts
    searched = cs.code_report(cs.LinearCode(q=2, generator=gold5.generator))
    assert searched.dual_distance_status == "=5"


def test_code_report_even5_coherence(even5):
    # weights {2, 4} give |5 - 2w| in {1, 3}
    rep = cs.code_report(even5)
    assert rep.coherence == 3.0


def test_code_report_structural_path():
    g11 = cs.make_gold(11)
    rep = cs.code_report(g11)
    assert rep.method == "structural" and rep.certified
    assert rep.weight_set == (992, 1024, 1056)
    assert rep.coherence == 65.0
    assert rep.dual_distance_status == "=5"


def test_code_report_known_dual_distance_allocates_nothing():
    g11 = cs.make_gold(11)
    tracemalloc.start()
    try:
        cs.code_report(g11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sampled_report_memory_is_bounded(monkeypatch):
    # Gold m=9 without its known weights takes the sampled path under a
    # lowered budget: 2^15 codewords of length 511, decoded in chunks of
    # bounded size
    g9 = cs.make_gold(9)
    code = LinearCode(q=2, generator=np.asarray(g9.generator), label="blob",
                      known_dual_distance=5)
    monkeypatch.setattr(cs.codes, "SPECTRUM_BUDGET", 2**10)
    tracemalloc.start()
    try:
        rep = cs.code_report(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.method == "sampled"
    assert rep.weight_set == (240, 256, 272) and rep.coherence == 33.0
    assert peak < 8 << 20


def test_sampled_report_small_code_terminates(monkeypatch):
    # 2^15 distinct nonzero indices do not exist when N - 1 < 2^15: the
    # sample takes all N - 1 of them
    base = cs.make_even_weight(10)
    code = LinearCode(q=2, generator=np.asarray(base.generator), label="blob",
                      known_dual_distance=10)
    exhaustive = cs.code_report(code)
    assert exhaustive.method == "exhaustive"
    monkeypatch.setattr(cs.codes, "SPECTRUM_BUDGET", 100)
    rep = cs.code_report(code)
    assert rep.method == "sampled"
    assert rep.weight_set == exhaustive.weight_set == (2, 4, 6, 8, 10)
    assert rep.coherence == exhaustive.coherence == 10.0


def test_rm1_17_report_is_exhaustive():
    # 2^18 codewords of length 2^17 come from one transform of 2^18 sums
    rep = cs.code_report(cs.make_rm1(17))
    assert rep.method == "exhaustive" and rep.certified
    assert rep.weight_set == (2**16, 2**17)
    assert rep.coherence == 2**17
    assert cs.code_report(cs.make_gold(9)).method == "exhaustive"


def _exhaustive_report_peak(code):
    tracemalloc.start()
    try:
        rep = cs.code_report(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.method == "exhaustive"
    return peak


def test_exhaustive_report_memory_is_bounded():
    # the largest codes under SPECTRUM_BUDGET: RM(1) m=19 (2^20 int64 sums)
    # and a ternary code with 3^12 messages (complex sums and line multiples)
    assert _exhaustive_report_peak(cs.make_rm1(19)) < 32 << 20
    rng = np.random.default_rng(12)
    gen = np.hstack([np.eye(12, dtype=int), rng.integers(0, 3, size=(12, 28))])
    code = LinearCode(q=3, generator=gen, known_dual_distance=1)  # no search
    assert _exhaustive_report_peak(code) < 40 << 20


def _check_against_oracle(code):
    """The report against every codeword from `all_codewords`: equal weight
    counts A_0..A_n and weight sets, and the same coherence (within 1e-12
    relative through the FFT)."""
    rep = cs.code_report(code)
    everything = all_codewords(code)
    weights = np.count_nonzero(everything, axis=1)
    assert (_weights_exhaustive(code)[0] ==
            np.bincount(weights, minlength=code.n + 1)).all()
    words = everything[1:]  # message 0 is the zero word
    assert rep.method == "exhaustive"
    assert set(rep.weight_set) == {int(w) for w in weights[1:]}
    if code.q == 2:
        assert rep.coherence == np.abs(code.n - 2 * words.sum(axis=1)).max()
    else:
        sums = np.exp(2j * np.pi * words / code.q).sum(axis=1)
        assert rep.coherence == pytest.approx(np.abs(sums).max(), rel=1e-12)


@pytest.mark.parametrize("chunk", [1 << 16, 40])
@pytest.mark.parametrize("q, k, extra", [(2, 10, 21), (2, 6, 3), (3, 6, 9), (5, 3, 7)])
def test_sampled_weights_match_exhaustive(monkeypatch, chunk, q, k, extra):
    # N - 1 <= the sample size, so the sample is every nonzero message; a
    # 40-entry chunk splits it into chunks of one to four rows
    monkeypatch.setattr(cs.codes, "_CHUNK_ENTRIES", chunk)
    rng = np.random.default_rng(k + extra)
    gen = np.hstack([np.eye(k, dtype=int), rng.integers(0, q, size=(k, extra))])
    code = LinearCode(q=q, generator=gen)
    counts, coherence = _weights_exhaustive(code)
    weights, sampled_coherence = _weights_sampled(code)
    assert weights == {int(w) for w in np.flatnonzero(counts[1:]) + 1}
    assert type(sampled_coherence) is float
    if q == 2:
        assert sampled_coherence == coherence
    else:  # the exhaustive sums go through an FFT
        assert sampled_coherence == pytest.approx(coherence, rel=1e-12)


@st.composite
def small_codes(draw, max_n=22):
    """A code with at most 2^10 messages and at most max_n columns: [I | A]
    with its columns shuffled, so zero and repeated columns occur.  The
    attached dual distance is not under test; it only skips MacWilliams in
    `code_report`."""
    q = draw(st.sampled_from([2, 3, 5, 7]), label="q")
    k = draw(st.integers(1, {2: 10, 3: 6, 5: 4, 7: 3}[q]), label="k")
    extra = draw(st.integers(0, min(12, max_n - k)), label="n - k")
    cells = draw(st.lists(st.integers(0, q - 1), min_size=k * extra,
                          max_size=k * extra))
    gen = np.hstack([np.eye(k, dtype=int), np.reshape(cells, (k, extra))])
    order = draw(st.permutations(range(k + extra)), label="column order")
    return LinearCode(q=q, generator=gen[:, order], known_dual_distance=1)


@settings(max_examples=200, deadline=None)
@given(small_codes())
def test_exhaustive_report_matches_codeword_oracle(code):
    _check_against_oracle(code)


@pytest.mark.parametrize("q, k", [(3, 9), (5, 6), (11, 3), (31, 2)])
def test_exhaustive_weight_counts_beyond_small_codes(q, k):
    # more messages per projective line, and more lines, than `small_codes`
    # draws; one repeated and one zero column
    rng = np.random.default_rng(q * k)
    gen = np.hstack([np.eye(k, dtype=int), rng.integers(0, q, size=(k, 6))])
    gen = np.hstack([gen, gen[:, -1:], np.zeros((k, 1), dtype=int)])
    _check_against_oracle(LinearCode(q=q, generator=gen, known_dual_distance=1))


def test_exhaustive_report_over_a_large_prime():
    # k = 1: a 1-d FFT and one projective line of 1020 multiples mod 1021
    gen = np.array([[1, 5, 7, 1000, 0, 3, 3, 1020]])
    _check_against_oracle(LinearCode(q=1021, generator=gen,
                                     known_dual_distance=1))


def test_exhaustive_report_over_the_largest_prime_under_the_budget():
    # k = 1 over q = 2^20 - 3: every nonzero codeword has the weight of the
    # nonzero columns, and the one projective line sums all q - 1 multiples
    q = 1_048_573
    gen = np.array([[1, 5, 7, 1000, 0, 3, 3, q - 1]])
    rep = cs.code_report(LinearCode(q=q, generator=gen))
    t = np.arange(1, q)
    sums = np.zeros(q - 1, dtype=complex)
    for g in gen[0]:
        sums += np.exp(2j * np.pi * (t * g % q) / q)
    assert rep.method == "exhaustive"
    assert rep.weight_set == (np.count_nonzero(gen),)
    assert rep.coherence == pytest.approx(np.abs(sums).max(), rel=1e-12)
    assert rep.dual_distance_status == "=1"  # the zero column


def _min_dependent_columns(code, bound):
    """Smallest column subset whose rank is below its size, up to bound."""
    gen = np.asarray(code.generator)
    for size in range(1, bound + 1):
        for idx in itertools.combinations(range(code.n), size):
            if _row_rank_loop(gen[:, idx], code.q) < size:
                return size
    return None


@settings(max_examples=150, deadline=None)
@given(small_codes(max_n=12))
def test_dual_distance_matches_dependent_column_oracle(code):
    found = _min_dependent_columns(code, 5)
    label = cs.code_report(stripped(code)).dual_distance_status
    assert label == (">=6" if found is None else f"={found}")


@settings(max_examples=150, deadline=None)
@given(small_codes())
def test_character_sums_match_char_map_rows(code):
    # S(u) against the brute-force row sum of char_map over every message;
    # for q > 2 this pins S's phase, which the weights and coherence, read
    # off Re S and |S|, do not see
    sums = _character_sums(code)
    rows = cs.char_map(cs.codewords(code, np.arange(code.N)), code.q).sum(axis=1)
    assert sums.shape == (code.N,)
    if code.q == 2:
        assert sums.dtype == np.int64 and (sums == rows).all()
    else:
        assert np.abs(sums - rows).max() <= 1e-9


@settings(max_examples=150, deadline=None)
@given(small_codes(max_n=12).filter(lambda code: code.q**code.n <= 1 << 12))
def test_dual_weights_match_null_space_count(code):
    # A'_j against a count of the weight-j vectors x of F_q^n with G x = 0,
    # every x enumerated; bound n + 1 also covers the weights past n
    space = np.arange(code.q**code.n)
    vectors = np.stack([space // code.q**i % code.q for i in range(code.n)], axis=1)
    in_dual = ~(vectors @ np.asarray(code.generator).T % code.q).any(axis=1)
    found = np.bincount(np.count_nonzero(vectors[in_dual], axis=1),
                        minlength=code.n + 2)
    counts = np.bincount(np.count_nonzero(cs.codewords(code, np.arange(code.N)),
                                          axis=1), minlength=code.n + 1)
    assert _dual_weights(counts, code.q, code.n + 1) == found[1:].tolist()


@pytest.mark.parametrize("make, arg, dual", [
    (cs.make_rm1, 4, [0, 0, 0, 140, 0]),   # RM(2, 4), A_4 = 140
    (cs.make_rm1, 5, [0, 0, 0, 1240, 0]),  # extended Hamming [32, 26, 4]
    (cs.make_gold, 5, [0, 0, 0, 0, 186]),
], ids=["rm1-4", "rm1-5", "gold-5"])
def test_dual_weights_of_shipped_codes(make, arg, dual):
    assert dual_distance_up_to(make(arg), 5) == dual


@pytest.mark.parametrize("counts", [
    [1, 2],     # q = 2, n = 1: A'_1 = (1 - 2) / 3 is not an integer
    [1, 0, 3],  # q = 2, n = 2: A'_1 = (2 - 6) / 4 is negative
])
def test_macwilliams_rejects_counts_of_no_code(counts):
    with pytest.raises(ContractViolationError):
        _dual_weights(np.array(counts), 2, 5)


def test_sampled_report_refuses_more_than_2_64_codewords():
    base = cs.make_even_weight(70)  # N = 2^69
    code = LinearCode(q=2, generator=np.asarray(base.generator), label="blob",
                      known_dual_distance=70)
    with pytest.raises(ParameterError, match=f"N = {2**69}"):
        cs.code_report(code)


def test_sampled_report_refusal_precedes_dual_distance_search(monkeypatch):
    # ternary [42, 41]: N = 3^41 > 2^64 and no known weights, so the report
    # must refuse before any weight work, exhaustive or sampled
    def no_weights(code):
        raise AssertionError("weight work started")

    monkeypatch.setattr(cs.codes, "_weights_exhaustive", no_weights)
    monkeypatch.setattr(cs.codes, "_weights_sampled", no_weights)
    gen = np.hstack([np.eye(41, dtype=int), np.ones((41, 1), dtype=int)])
    with pytest.raises(ParameterError, match=f"N = {3**41}"):
        cs.code_report(LinearCode(q=3, generator=gen))


def test_stripped_shipped_codes_dual_distance():
    # shipped generators with the known dual distance stripped: RM(1) of
    # length 2048 and 8192 has at most 2^14 codewords and gets the exact
    # value; Gold m=13 has 2^26, over SPECTRUM_BUDGET, and certifies none
    for m in (11, 13):
        assert cs.code_report(stripped(cs.make_rm1(m))).dual_distance_status == "=4"
    g13 = cs.make_gold(13)
    code = LinearCode(q=2, generator=np.asarray(g13.generator),
                      known_weights=g13.known_weights)
    assert cs.code_report(code).dual_distance_status == ">=1"


def test_code_report_sampled_path():
    # same generator as even(22) but with the structural knowledge stripped
    base = cs.make_even_weight(22)
    code = LinearCode(q=2, generator=np.asarray(base.generator), label="blob")
    rep = cs.code_report(code)
    assert rep.method == "sampled"
    assert not rep.certified
    assert all(w % 2 == 0 for w in rep.weight_set)
    assert rep.dual_distance_status == ">=1"  # nothing certified


@pytest.mark.parametrize("k", [4, 63, 64, 65, 130])
def test_column_words_match_generator(k):
    # bit i of word row r is generator row 64 r + i, bit 63 included
    rng = np.random.default_rng(k)
    gen = np.hstack([np.eye(k, dtype=np.int64), rng.integers(0, 2, size=(k, 7)),
                     np.ones((k, 1), dtype=np.int64)])
    code = LinearCode(q=2, generator=gen)
    words = code._column_words
    assert words.dtype == np.uint64 and words.shape == (-(-k // 64), k + 8)
    assert code._column_words is words and not words.flags.writeable  # packed once
    for r, row in enumerate(words):
        for t, word in enumerate(row.tolist()):
            for b in range(64):
                i = 64 * r + b
                assert word >> b & 1 == (int(gen[i, t]) if i < k else 0)


@pytest.mark.parametrize("gen, kept", [
    ([[1.5, 0.2, 1.9], [0, 1, 1]], False),  # truncation would give [1, 0, 1]
    ([[float("nan"), 0, 1], [0, 1, 1]], False),
    ([[2**70, 1]], False),                   # beyond int64
    (np.array([[1 + 1j, 0, 1], [0, 1, 1]]), False),
    ([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], True),
])
def test_generator_entries_must_survive_the_int64_cast(gen, kept):
    if kept:
        code = LinearCode(q=2, generator=gen)
        assert code.generator.dtype == np.int64
        assert code.generator.tolist() == [[1, 0, 1], [0, 1, 1]]
    else:
        with pytest.raises(ParameterError, match="integers within int64"):
            LinearCode(q=2, generator=gen)


def test_generator_file_round_trip(tmp_path, even5):
    lines = [f"2 {even5.n} {even5.k}"]
    for row in np.asarray(even5.generator):
        lines.append(" ".join(str(int(x)) for x in row))
    path = tmp_path / "even5.txt"
    path.write_text("\n".join(lines) + "\n")
    loaded = cs.load_generator(path)
    assert loaded.q == 2
    assert (loaded.generator == even5.generator).all()
    assert loaded.label == "even5.txt"


def test_generator_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 3\n")
    with pytest.raises(ParameterError):
        cs.load_generator(path)


def test_ternary_code_support():
    gen = np.array([[1, 0, 1, 2], [0, 1, 1, 1]])
    code = LinearCode(q=3, generator=gen)
    assert code.N == 9
    rep = cs.code_report(code)
    assert rep.dual_distance_status == "=3"  # no two columns are proportional
    assert rep.q == 3 and rep.coherence > 0
