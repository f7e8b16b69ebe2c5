"""Arithmetic over prime fields F_q and binary extension fields GF(2^m).

Prime-field vectors are handled elsewhere as plain integer arrays mod q;
this module supplies the primality/range checks plus full GF(2^m)
arithmetic in polynomial-basis representation.  Extension fields appear
only inside the Gold-code construction, so the field object insists on a
primitive modulus and fails fast on a wrong constant.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class PrimeField:
    """The prime field F_q; elements are plain ints in [0, q)."""

    q: int

    def __post_init__(self) -> None:
        if not (2 <= self.q < MAX_PRIME):
            raise ParameterError(f"prime modulus out of range: {self.q}")
        if not is_prime(self.q):
            raise ParameterError(f"modulus {self.q} is not prime")

    def element(self, value: int) -> int:
        return value % self.q


def is_primitive_poly(modulus: int, m: int) -> bool:
    """True iff x generates the full multiplicative group of F_2[x]/(modulus).

    Primitivity of x implies irreducibility of the modulus, so this one
    check validates shipped constants completely.
    """
    if m < 2:
        raise ParameterError(f"extension degree must be >= 2, got {m}")
    if modulus.bit_length() != m + 1:
        raise ParameterError(
            f"modulus degree {modulus.bit_length() - 1} does not match m={m}"
        )
    order = (1 << m) - 1
    cur = 1
    for step in range(1, order + 1):
        # multiply by x, reducing the degree-m overflow bit
        if cur >> (m - 1) & 1:
            cur = (cur << 1) ^ modulus
        else:
            cur <<= 1
        if cur == 1:
            return step == order
    return False


@dataclass(frozen=True)
class Gf2m:
    """GF(2^m) in polynomial basis; elements are ints with < m bits."""

    m: int
    modulus: int

    def __post_init__(self) -> None:
        if not is_primitive_poly(self.modulus, self.m):
            raise ParameterError(
                f"modulus {self.modulus:#b} is not primitive of degree {self.m}"
            )

    @property
    def order(self) -> int:
        """Size of the multiplicative group, 2^m - 1."""
        return (1 << self.m) - 1

    def check(self, a: int) -> int:
        if not 0 <= a < (1 << self.m):
            raise ParameterError(f"element {a} outside GF(2^{self.m})")
        return a

    def mul(self, a: int, b: int) -> int:
        # carry-less product, then reduction by the modulus
        r = 0
        x = a
        while b:
            if b & 1:
                r ^= x
            x <<= 1
            b >>= 1
        for i in range(r.bit_length() - 1, self.m - 1, -1):
            if r >> i & 1:
                r ^= self.modulus << (i - self.m)
        return r

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            raise ParameterError("negative exponent")
        r = 1
        base = a
        while e:
            if e & 1:
                r = self.mul(r, base)
            base = self.mul(base, base)
            e >>= 1
        return r

    def inv(self, a: int) -> int:
        if a == 0:
            raise ParameterError("zero has no inverse")
        return self.pow(a, self.order - 1)

    def trace(self, a: int) -> int:
        """Tr(a) = a + a^2 + ... + a^(2^(m-1)), an element of {0, 1}."""
        acc = a
        cur = a
        for _ in range(self.m - 1):
            cur = self.mul(cur, cur)
            acc ^= cur
        return acc

    def element(self, bits: int) -> "Gf2mElement":
        return Gf2mElement(self.check(bits), self)


def default_field(m: int) -> Gf2m:
    if m not in DEFAULT_PRIMITIVE_POLY:
        raise ParameterError(
            f"no shipped primitive polynomial for m={m}; "
            f"available: {sorted(DEFAULT_PRIMITIVE_POLY)}"
        )
    return Gf2m(m, DEFAULT_PRIMITIVE_POLY[m])


@dataclass(frozen=True)
class Gf2mElement:
    bits: int
    field: Gf2m

    def __mul__(self, other: "Gf2mElement") -> "Gf2mElement":
        return ff_mul(self, other)

    def trace(self) -> int:
        return self.field.trace(self.bits)


def ff_mul(a: Gf2mElement, b: Gf2mElement) -> Gf2mElement:
    """Product in GF(2^m); both operands must live in the same field."""
    if a.field != b.field:
        raise ParameterError(
            f"field mismatch: GF(2^{a.field.m})/{a.field.modulus:#x} vs "
            f"GF(2^{b.field.m})/{b.field.modulus:#x}"
        )
    return Gf2mElement(a.field.mul(a.bits, b.bits), a.field)


def trace(a: Gf2mElement) -> int:
    """Absolute trace GF(2^m) -> F_2, returned as 0 or 1."""
    return a.field.trace(a.bits)
