"""Alphabet checks and the powers of x in the binary extension fields.

A code's alphabet is a prime field F_q whose elements are plain integers
mod q; this module only bounds and checks q.  GF(2^m) appears only in the
Gold construction, which needs nothing but the antilog table alpha^t,
t < 2^m - 1, of alpha = x modulo a primitive polynomial: an element is
an int whose bit i is the coefficient of x^i, and the trace follows from
the table because Frobenius doubles the exponent.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

MAX_PRIME = 1 << 31

# Primitive polynomials over F_2 for the extension degrees the Gold
# construction ships with (bit i of the constant is the coefficient of x^i).
DEFAULT_PRIMITIVE_POLY: dict[int, int] = {
    5: 0b100101,             # x^5 + x^2 + 1
    7: 0b10000011,           # x^7 + x + 1
    9: 0b1000010001,         # x^9 + x^4 + 1
    11: 0b100000000101,      # x^11 + x^2 + 1
    13: 0b10000000011011,    # x^13 + x^4 + x^3 + x + 1
    15: 0b1000000000000011,  # x^15 + x + 1
}


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q % 2 == 0:
        return q == 2
    d = 3
    while d * d <= q:
        if q % d == 0:
            return False
        d += 2
    return True


def antilog_table(modulus: int, m: int) -> np.ndarray:
    """alpha^0, ..., alpha^(2^m - 2) for alpha = x modulo a primitive modulus.

    The powers of x stop at the first return to 1 or after 2^m - 1 steps, so
    exactly 2^m - 1 powers come back iff x has that order, i.e. iff the
    modulus is primitive (which implies irreducible); otherwise the modulus
    is refused with ParameterError.
    """
    if m < 2:
        raise ParameterError(f"extension degree must be >= 2, got {m}")
    if modulus.bit_length() != m + 1:
        raise ParameterError(
            f"modulus degree {modulus.bit_length() - 1} does not match m={m}"
        )
    powers = [1]
    cur = 1
    for _ in range((1 << m) - 1):
        # multiply by x, reducing the degree-m overflow bit
        cur <<= 1
        if cur >> m:
            cur ^= modulus
        if cur == 1:
            break
        powers.append(cur)
    if len(powers) != (1 << m) - 1:
        raise ParameterError(f"modulus {modulus:#b} is not primitive of degree {m}")
    return np.array(powers, dtype=np.int64)
