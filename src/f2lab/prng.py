"""Seedable counter-based pseudo-random generator.

SplitMix64 over a counter: output i is a fixed mix of (seed, i), so
results are reproducible from the seed alone.  Multi-word draws mix
their words in parallel on one big int, and the stream is the one the
word-at-a-time mix gives.  `Prng` alone cuts stream words into values,
in two layouts: `draws` (ceil(n/64) words a value, the values successive
`bits(n)` calls give) and `planes` (groups of one word per plane, 64
lanes a group, for bit-sliced lanes).  It draws integers only; a caller
that wants a float in [0, 1] divides a `u64` word by 2^64.  Streams are
stable within this implementation; no cross-implementation bit-equality
is promised, which is why reports carry seeds rather than expected
values.
"""

from __future__ import annotations

from array import array

from ._bitops import int_bytes

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# the SplitMix64 finalizer's multipliers
_C1 = 0xBF58476D1CE4E5B9
_C2 = 0x94D049BB133111EB

# Word-parallel layout: word i of a chunk sits in the low half of 128-bit
# field i, so a 64x64-bit product stays inside its field and what a right
# shift spills out of field i + 1 lands in the high half of field i.
# _CHUNK_WORDS is measured, like f2linalg's LANE_CHUNK_BITS, not an option.
_CHUNK_WORDS = 1024
_FIELD_BYTES = 16
_ONES = int.from_bytes(b"\x01".ljust(_FIELD_BYTES, b"\x00") * _CHUNK_WORDS, "little")
_STEPS = _GOLDEN * int.from_bytes(
    b"".join(i.to_bytes(_FIELD_BYTES, "little") for i in range(_CHUNK_WORDS)), "little")
_LOW_HALVES = _ONES * _M64
# what a full chunk adds to each of its counters to give the next chunk's
_CHUNK_STEP = ((_CHUNK_WORDS * _GOLDEN) & _M64) * _ONES


def _mix(z: int) -> int:
    z &= _M64
    z = ((z ^ (z >> 30)) * _C1) & _M64
    z = ((z ^ (z >> 27)) * _C2) & _M64
    return z ^ (z >> 31)


def _mix_words(first: int, n: int) -> bytearray:
    """Little-endian bytes of `_mix(first + i * _GOLDEN)` for i < n, mixed
    `_CHUNK_WORDS` words at a time on one big int.  A full chunk's counter
    fields are the previous full chunk's plus `_CHUNK_STEP`, so only the
    first one pays a multiply by `_ONES`; a partial chunk (the last, or the
    only one of a short draw) truncates the constants to its m fields
    before it multiplies.  `& mask` after every sum, shift-XOR and product
    clears the high half of each field."""
    out = bytearray(8 * n)
    counters = None
    for start in range(0, n, _CHUNK_WORDS):
        m = min(_CHUNK_WORDS, n - start)
        f = (first + start * _GOLDEN) & _M64
        if m == _CHUNK_WORDS:
            mask = _LOW_HALVES
            if counters is None:
                counters = (f * _ONES + _STEPS) & mask
            else:
                counters = (counters + _CHUNK_STEP) & mask
            z = counters
        else:
            low = (1 << (8 * _FIELD_BYTES * m)) - 1
            mask = _LOW_HALVES & low
            z = (f * (_ONES & low) + (_STEPS & low)) & mask
        z = (((z ^ (z >> 30)) & mask) * _C1) & mask
        z = (((z ^ (z >> 27)) & mask) * _C2) & mask
        # this shift spills only into the high halves, which [0::2] drops
        z ^= z >> 31
        out[8 * start:8 * (start + m)] = array("Q", z.to_bytes(_FIELD_BYTES * m, "little"))[0::2]
        del z  # not held while the next chunk's fields are built
    return out


def words_bytes(nwords: int) -> int:
    """Bytes a `Prng.words(nwords)` call holds at its peak, the block it
    returns included: the block's 8 bytes a word, and at most 128 bytes per
    word of one `_CHUNK_WORDS`-word chunk for the chunk's fields and their
    temporaries.  Measured under tracemalloc (Python 3.11) beside the
    block: 70,136 B from one full chunk on, 87,568 B for a 1,023-word
    draw, and 105,181 B for 19 full chunks and a 1,023-word one, whose
    fields are built while the stepped counters are still held."""
    return 8 * nwords + 128 * min(nwords, _CHUNK_WORDS) + 1024


def draw_bytes(n: int) -> int:
    """Bytes a `Prng.bits(n)` call holds at its peak beside the int it
    returns: its ceil(n/64)-word block (`words_bytes`) and the bytes copy
    of the cut that `int.from_bytes` makes."""
    return int_bytes(n) + words_bytes((n + 63) >> 6)


class Prng:
    """Counter-based generator: output i is `_mix(base + i * golden)`."""

    def __init__(self, seed: int):
        self.seed = seed
        self._base = _mix(seed & _M64) ^ _mix((seed >> 64) & _M64)
        self._i = 0

    def u64(self) -> int:
        self._i += 1
        return _mix(self._base + self._i * _GOLDEN)

    def words(self, n: int) -> bytearray:
        """Little-endian bytes of the next n words of the stream, the words
        n `u64` calls would give.  A negative n is refused before the
        counter moves."""
        if n < 0:
            raise ValueError(f"words needs n >= 0, got n={n}")
        first = self._base + (self._i + 1) * _GOLDEN
        self._i += n
        return _mix_words(first, n)

    def bits(self, n: int) -> int:
        """Uniform n-bit integer: the next ceil(n/64) words, word w at
        bits [64w, 64w+64), truncated to n bits."""
        if n < 0:
            raise ValueError("bits() needs n >= 0")
        if n <= 64:
            return self.u64() & ((1 << n) - 1) if n else 0
        return self.draws(1, n)[0]

    def draws(self, count: int, n: int) -> list[int]:
        """The values of `count` successive `bits(n)` calls, cut from one
        `words` block: ceil(n/64) words a draw, cut to ceil(n/8) bytes,
        the last byte masked in place to n bits."""
        if n < 1 or count < 0:
            raise ValueError(f"draws needs n >= 1 and count >= 0, got n={n}, count={count}")
        step = 8 * ((n + 63) >> 6)
        cut = (n + 7) >> 3
        block = self.words(count * step >> 3)
        if n & 7:
            top = (1 << (n & 7)) - 1
            for i in range(cut - 1, len(block), step):
                block[i] &= top
        block = memoryview(block)
        return [int.from_bytes(block[i:i + cut], "little") for i in range(0, len(block), step)]

    def planes(self, nplanes: int, nlanes: int) -> list[int]:
        """`nplanes` uniform nlanes-bit ints from ceil(nlanes/64) groups of
        `nplanes` words, word j of group g holding lanes 64g..64g+63 of
        plane j: draws of 64a and then b lanes give the lanes one draw of
        64a + b gives, and leave the stream where it does.  `array` moves
        whole words and never reads them, so host byte order does not matter."""
        if nplanes < 0 or nlanes < 0:
            raise ValueError("planes needs nplanes >= 0 and nlanes >= 0, "
                             f"got nplanes={nplanes}, nlanes={nlanes}")
        block = array("Q", self.words(nplanes * ((nlanes + 63) >> 6)))
        mask = (1 << nlanes) - 1
        return [int.from_bytes(block[j::nplanes].tobytes(), "little") & mask
                for j in range(nplanes)]
