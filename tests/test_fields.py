import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codespectra import LinearCode, ParameterError, make_gold
from codespectra.fields import (
    DEFAULT_PRIMITIVE_POLY,
    MAX_PRIME,
    antilog_table,
    is_prime,
)

# sha256 of make_gold(m).generator.tobytes() as built by bit-level GF(2^m)
# multiplication and trace, an implementation independent of the table
GOLD_GENERATOR_SHA256 = {
    5: "6674cd60b93ca9b36ad961ee4e0766e3fea4979cab82a4a2b6099c158a75f87e",
    7: "9780007e2b2559793462a2b4e8a24591b10fc7f2671aaaccd9067be0c1571856",
    9: "fc74583262cfcbb5e9100081543862b9607bb79377729793dd9e2b6a1b1de1bb",
    11: "b1390951396f47a3ecec37aef0b3f1f065f97606c9dee474a2a49005f4502126",
    13: "c02e8eeeab47c874120a1f26349d2a410fa88fdbd5f70e7a1e58e32da2e0c53d",
    15: "8dd9e3e6eb5a6b9e89b683d6ea2791321c8631bc1e542a5adafbfefd3c605636",
}


def mul_mod(a: int, b: int, modulus: int, m: int) -> int:
    """Oracle: carry-less product of a and b reduced by the modulus."""
    r = 0
    for i in range(m):
        if b >> i & 1:
            r ^= a << i
    for i in range(2 * m - 2, m - 1, -1):
        if r >> i & 1:
            r ^= modulus << (i - m)
    return r


def test_is_prime_basics():
    assert [q for q in range(2, 30) if is_prime(q)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(2**10)


def test_prime_field_rejects_composite():
    with pytest.raises(ParameterError):
        LinearCode(q=15, generator=np.array([[1]]))
    # refused by the range check, before trial division could run for long
    with pytest.raises(ParameterError):
        LinearCode(q=2**61 - 1, generator=np.array([[1]]))
    with pytest.raises(ParameterError):
        LinearCode(q=MAX_PRIME, generator=np.array([[1]]))
    assert LinearCode(q=7, generator=np.array([[3]])).N == 7


def test_mul_reduction_rule():
    # alpha^4 * alpha = alpha^5 = alpha^2 + 1 under x^5 + x^2 + 1
    alpha = antilog_table(0b100101, 5)
    assert alpha[4] == 0b10000
    assert alpha[5] == 0b00101


def test_multiplicative_order_31():
    # alpha runs through all 31 nonzero elements before returning to 1
    alpha = antilog_table(0b100101, 5)
    assert alpha.dtype == np.int64
    assert alpha[0] == 1
    assert sorted(alpha.tolist()) == list(range(1, 32))
    assert mul_mod(int(alpha[30]), 0b10, 0b100101, 5) == 1


def test_trace_values():
    # row 0 of the Gold generator is Tr(alpha^t): Tr(1) = 1 for odd m, and
    # the trace is balanced, with 2^(m-1) ones over the nonzero elements
    for m in DEFAULT_PRIMITIVE_POLY:
        row = make_gold(m).generator[0]
        assert row[0] == 1
        assert int(row.sum()) == 1 << (m - 1)


def test_trace_linear_and_frobenius_invariant():
    # s_t = Tr(alpha^t) satisfies the modulus's recurrence
    # sum_i c_i s_(t+i) = Tr(alpha^t f(alpha)) = 0, and Tr(a^2) = Tr(a)
    for m, poly in DEFAULT_PRIMITIVE_POLY.items():
        s = make_gold(m).generator[0]
        n = s.size
        t = np.arange(n)
        taps = [i for i in range(m + 1) if poly >> i & 1]
        recurrence = np.bitwise_xor.reduce(
            np.stack([s[(t + i) % n] for i in taps]), axis=0)
        assert not recurrence.any(), m
        assert (s[2 * t % n] == s).all(), m


def test_primitive_modulus_examples():
    # antilog_table returns all 2^m - 1 powers of x exactly for a primitive
    # modulus and refuses any other
    assert antilog_table(0b100101, 5).size == 31   # x^5+x^2+1
    assert antilog_table(0b111, 2).size == 3       # only irreducible quadratic
    with pytest.raises(ParameterError, match="not primitive"):
        antilog_table(0b11111, 4)                  # order of x is 5, not 15
    with pytest.raises(ParameterError, match="not primitive"):
        antilog_table(0b100100, 5)                 # x divides it
    with pytest.raises(ParameterError, match="does not match"):
        antilog_table(0b100101, 4)                 # degree mismatch


def test_shipped_moduli_are_primitive():
    for m, poly in DEFAULT_PRIMITIVE_POLY.items():
        assert antilog_table(poly, m).size == (1 << m) - 1, m


def test_field_rejects_non_primitive_modulus():
    with pytest.raises(ParameterError):
        antilog_table(0b11111, 4)
    with pytest.raises(ParameterError):
        antilog_table(0b100101, 4)
    with pytest.raises(ParameterError):
        make_gold(17)                              # no shipped polynomial


@pytest.mark.parametrize("m", [5, 7])
def test_every_nonzero_element_has_inverse(m):
    # every nonzero element is some alpha^t, whose inverse is alpha^(n-t)
    poly = DEFAULT_PRIMITIVE_POLY[m]
    alpha = antilog_table(poly, m).tolist()
    n = len(alpha)
    assert sorted(alpha) == list(range(1, n + 1))
    for t in range(n):
        assert mul_mod(alpha[t], alpha[-t % n], poly, m) == 1


@settings(max_examples=200)
@given(st.integers(0, 126), st.integers(0, 126), st.integers(0, 126))
def test_field_axioms_random_triples_m7(a, b, c):
    # the table turns exponent addition into the field product:
    # alpha^a alpha^b = alpha^(a+b), and the product distributes over XOR
    poly = DEFAULT_PRIMITIVE_POLY[7]
    alpha = antilog_table(poly, 7)
    assert mul_mod(int(alpha[a]), int(alpha[b]), poly, 7) == alpha[(a + b) % 127]
    assert mul_mod(int(alpha[a]), int(alpha[b] ^ alpha[c]), poly, 7) == \
        alpha[(a + b) % 127] ^ alpha[(a + c) % 127]


def test_gold_generators_match_pins():
    for m, digest in GOLD_GENERATOR_SHA256.items():
        gen = make_gold(m).generator
        assert hashlib.sha256(gen.tobytes()).hexdigest() == digest, m
