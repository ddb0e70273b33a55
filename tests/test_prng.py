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
