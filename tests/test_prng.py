"""Prng: the word stream, and bits() as a view of it."""

import pytest

from f2lab.prng import Prng


@pytest.mark.parametrize("seed", [0, 1, 12345, (1 << 64) + 7])
def test_bits_is_the_word_stream(seed):
    for n in (1, 63, 64, 65, 127, 128, 129, 1000, (1 << 21) + 3):
        a, b = Prng(seed), Prng(seed)
        words = [b.u64() for _ in range((n + 63) // 64)]
        packed = int.from_bytes(b"".join(w.to_bytes(8, "little") for w in words),
                                "little")
        assert a.bits(n) == packed & ((1 << n) - 1), n
        assert a.u64() == b.u64(), n


def test_bits_zero_and_negative():
    a, b = Prng(3), Prng(3)
    assert a.bits(0) == 0
    assert a.u64() == b.u64()  # bits(0) draws nothing
    with pytest.raises(ValueError, match="n >= 0"):
        a.bits(-1)


def _word_stream(p, nwords):
    """The next nwords of p as one little-endian int, drawn with u64."""
    return sum(p.u64() << (64 * w) for w in range(nwords))


@pytest.mark.parametrize("n", [64 * 1024 - 1, 64 * 1024, 64 * 1024 + 1, 64 * 2048 + 65])
def test_bits_at_chunk_edges(n):
    a, b = Prng(99), Prng(99)
    a.u64(), b.u64()  # start off a chunk boundary of the counter
    assert a.bits(n) == _word_stream(b, (n + 63) // 64) & ((1 << n) - 1)
    assert a.u64() == b.u64()


@pytest.mark.parametrize("wraps", [3, 5, 1 << 70])
def test_bits_past_counter_wraps(wraps):
    # the counter is reduced mod 2^64 only inside the mix; the second draw
    # takes three full chunks, whose counters are stepped, and a partial one
    a, b = Prng(7), Prng(7)
    a._i = b._i = wraps * (1 << 64) + 11
    for n in (64 * 1500 + 3, 64 * 3 * 1024 + 3):
        assert a.bits(n) == _word_stream(b, (n + 63) // 64) & ((1 << n) - 1), n
        assert a.u64() == b.u64(), n


def test_u64_and_bits_interleaved():
    a, b = Prng(2024), Prng(2024)
    for n in (65, 1, 64 * 1024 + 7, 0, 200, 64, 129, 64 * 3000):
        assert a.bits(n) == _word_stream(b, (n + 63) // 64) & ((1 << n) - 1), n
        assert a.u64() == b.u64(), n


@pytest.mark.parametrize("n", [1, 63, 64, 65, 100, 129])
def test_words_block_is_consecutive_bits_draws(n):
    # a block of ceil(n/64) words per draw, long enough to cross the mix's
    # 1024-word chunks, is the draws bits(n) would make one by one
    a, b = Prng(n), Prng(n)
    per, count = (n + 63) // 64, 700
    block = a.words(per * count)
    assert len(block) == 8 * per * count
    for s in range(count):
        record = int.from_bytes(block[8 * per * s:8 * per * (s + 1)], "little")
        assert record & ((1 << n) - 1) == b.bits(n), (n, s)
    assert a.u64() == b.u64()
