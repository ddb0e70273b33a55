"""Arithmetic in GF(2^k) in a polynomial basis, with the trace map.

Field elements are plain ints: the coefficient of x^j sits at bit j, so
addition is XOR and the only field operations are `mul_bits` and
`trace_bits`.  The modulus is the canonical irreducible of degree k:
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


@dataclass(frozen=True)
class Gf2kField:
    """GF(2^k) under the canonical modulus; elements are packed ints."""

    k: int
    modulus: int
    trace_mask: int  # bit i = Trace(x^i), so Trace is a masked parity

    def mul_bits(self, a: int, b: int) -> int:
        return _poly_mulmod(a, b, self.modulus, self.k)

    def trace_bits(self, a: int) -> int:
        """Trace(a) = a + a^2 + ... + a^(2^(k-1)), as a bit."""
        return parity(a & self.trace_mask)


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
