"""Seedable counter-based pseudo-random generator.

SplitMix64 over a counter: output i is a fixed mix of (seed, i), so
results are reproducible from the seed alone.  Streams are stable
within this implementation; no cross-implementation bit-equality is
promised, which is why reports carry seeds rather than expected values.
"""

from __future__ import annotations

import sys
from array import array

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z &= _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


class Prng:
    """Counter-based generator: output i is `_mix(base + i * golden)`."""

    def __init__(self, seed: int):
        self.seed = seed
        self._base = _mix(seed & _M64) ^ _mix((seed >> 64) & _M64)
        self._i = 0

    def u64(self) -> int:
        self._i += 1
        return _mix(self._base + self._i * _GOLDEN)

    def bits(self, n: int) -> int:
        """Uniform n-bit integer: the next ceil(n/64) words, word w at
        bits [64w, 64w+64), truncated to n bits."""
        if n < 0:
            raise ValueError("bits() needs n >= 0")
        if n <= 64:
            return self.u64() & ((1 << n) - 1) if n else 0
        nwords = (n + 63) >> 6
        first = self._base + (self._i + 1) * _GOLDEN
        self._i += nwords
        buf = array("Q", map(_mix, range(first, first + nwords * _GOLDEN, _GOLDEN)))
        buf[-1] &= _M64 >> (-n & 63)
        if sys.byteorder == "big":
            buf.byteswap()
        return int.from_bytes(buf, "little")

    def float01(self) -> float:
        return self.u64() / float(1 << 64)
