"""Arithmetic in GF(2^k) in a polynomial basis, with the trace map.

Field elements are coefficient vectors packed into ints (coefficient of
x^j at bit j).  The modulus is the canonical irreducible of degree k:
the one whose packed mask is numerically smallest, so files and tensors
built from the field are reproducible.  Bias and tensor rank of the
constructions downstream are basis-independent, so the choice costs
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ._bitops import parity
from .errors import InvariantError
from .f2linalg import BitVec

MAX_DEGREE = 64


def _poly_mulmod(a: int, b: int, mod: int, k: int) -> int:
    """Carry-less multiply of a and b, reduced mod the degree-k `mod`."""
    red = mod ^ (1 << k)
    res = 0
    while b:
        if b & 1:
            res ^= a
        b >>= 1
        a <<= 1
        if a >> k:
            a = (a ^ (1 << k)) ^ red
    return res


def _poly_mod(a: int, m: int) -> int:
    dm = m.bit_length() - 1
    while a.bit_length() - 1 >= dm and a:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def _poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _poly_mod(a, b)
    return a


def _is_irreducible(mask: int, k: int) -> bool:
    """True iff `mask` (degree k) has no factor of degree <= k/2.

    Checks gcd(x^(2^i) - x mod p, p) = 1 for i = 1..k//2 via repeated
    squaring; any nontrivial factorization of a degree-k polynomial
    includes a factor of degree at most k/2, so this is complete.
    """
    if k == 1:
        return True
    r = 0b10  # the polynomial x
    for _ in range(k // 2):
        r = _poly_mulmod(r, r, mask, k)
        if _poly_gcd(r ^ 0b10, mask) != 1:
            return False
    return True


@lru_cache(maxsize=None)
def _smallest_irreducible(k: int) -> int:
    if k == 1:
        return 0b10  # x; F2[x]/(x) = F2
    for low in range(1, 1 << k, 2):  # constant term must be 1 for k >= 2
        mask = (1 << k) | low
        if _is_irreducible(mask, k):
            return mask
    raise InvariantError(f"no irreducible of degree {k}")


class Gf2kField:
    """GF(2^k) under the canonical modulus; immutable."""

    __slots__ = ("k", "modulus", "_trace_mask")

    def __init__(self, k: int, modulus: int, trace_mask: int):
        self.k = k
        self.modulus = modulus
        self._trace_mask = trace_mask

    def __eq__(self, other):
        return isinstance(other, Gf2kField) and (self.k, self.modulus) == (other.k, other.modulus)

    def __hash__(self):
        return hash((self.k, self.modulus))

    def __repr__(self):
        return f"Gf2kField(k={self.k}, modulus={bin(self.modulus)})"

    def element(self, coeffs: int | BitVec) -> "FieldElement":
        if isinstance(coeffs, BitVec):
            if coeffs.length != self.k:
                raise ValueError("coefficient vector length != k")
            coeffs = coeffs.bits
        if coeffs >> self.k:
            raise ValueError("coefficients outside field degree")
        return FieldElement(self, coeffs)

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def basis(self, i: int) -> "FieldElement":
        """The basis element x^i (0 <= i < k)."""
        if not 0 <= i < self.k:
            raise IndexError("basis index out of range")
        return FieldElement(self, 1 << i)

    def elements(self):
        for b in range(1 << self.k):
            yield FieldElement(self, b)

    def mul_bits(self, a: int, b: int) -> int:
        return _poly_mulmod(a, b, self.modulus, self.k)

    def trace_bits(self, a: int) -> int:
        return parity(a & self._trace_mask)


@dataclass(frozen=True)
class FieldElement:
    field: Gf2kField
    bits: int

    @property
    def coeffs(self) -> BitVec:
        return BitVec(self.field.k, self.bits)

    def __add__(self, other: "FieldElement") -> "FieldElement":
        _same_field(self, other)
        return FieldElement(self.field, self.bits ^ other.bits)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        _same_field(self, other)
        return FieldElement(self.field, self.field.mul_bits(self.bits, other.bits))

    def __pow__(self, e: int) -> "FieldElement":
        if e < 0:
            raise ValueError("negative exponent")
        acc = FieldElement(self.field, 1)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def __repr__(self):
        return f"FieldElement({self.coeffs.to01()!r})"


def _same_field(a: FieldElement, b: FieldElement):
    if a.field != b.field:
        raise ValueError("elements of different fields")


def make_field(k: int) -> Gf2kField:
    """GF(2^k) with the canonical (numerically smallest) modulus."""
    if not 1 <= k <= MAX_DEGREE:
        raise ValueError(f"k must be in [1, {MAX_DEGREE}]")
    modulus = _smallest_irreducible(k)
    # trace of basis powers by k-1 repeated squarings each
    tmask = 0
    for i in range(k):
        e = 1 << i
        acc = e
        cur = e
        for _ in range(k - 1):
            cur = _poly_mulmod(cur, cur, modulus, k)
            acc ^= cur
        if acc not in (0, 1):
            raise InvariantError("trace left the prime subfield")
        tmask |= acc << i
    return Gf2kField(k, modulus, tmask)


def gf_mul(a: FieldElement, b: FieldElement) -> FieldElement:
    """Product in the shared field of a and b."""
    return a * b


def gf_add(a: FieldElement, b: FieldElement) -> FieldElement:
    return a + b


def trace(a: FieldElement) -> int:
    """Trace(a) = a + a^2 + ... + a^(2^(k-1)), as a bit."""
    return a.field.trace_bits(a.bits)
