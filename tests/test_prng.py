"""Prng: the word stream, and bits() as a view of it."""

import hashlib

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


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 100, 129])
def test_words_block_is_consecutive_bits_draws(n):
    # a block of ceil(n/64) words per draw, long enough to cross the mix's
    # 1024-word chunks, is the draws bits(n) would make one by one, and
    # draws(count, n) cuts them from such a block
    a, b, c = Prng(n), Prng(n), Prng(n)
    per, count = (n + 63) // 64, 700
    block = a.words(per * count)
    assert len(block) == 8 * per * count
    cut = c.draws(count, n)
    assert len(cut) == count
    for s in range(count):
        record = int.from_bytes(block[8 * per * s:8 * per * (s + 1)], "little")
        want = b.bits(n)
        assert record & ((1 << n) - 1) == want == cut[s], (n, s)
    assert a.u64() == b.u64() == c.u64()


@pytest.mark.parametrize("count, n", [(0, 5), (-1, 5), (3, 0), (3, -2)])
def test_draws_rejects_bad_sizes(count, n):
    p, q = Prng(4), Prng(4)
    if count == 0:
        assert p.draws(count, n) == []
    else:
        with pytest.raises(ValueError, match="draws needs n >= 1 and count >= 0"):
            p.draws(count, n)
    assert p.u64() == q.u64()  # nothing drawn


@pytest.mark.parametrize("method, args, message", [
    ("words", (-2,), "words needs n >= 0, got n=-2"),
    ("planes", (3, -200), "planes needs nplanes >= 0 and nlanes >= 0, got nplanes=3, nlanes=-200"),
    ("planes", (-1, 64), "planes needs nplanes >= 0 and nlanes >= 0, got nplanes=-1, nlanes=64")])
def test_refused_sizes_leave_the_stream_where_it_was(method, args, message):
    p, q = Prng(5), Prng(5)
    p.u64(), q.u64()  # off the start of the stream
    with pytest.raises(ValueError, match=message):
        getattr(p, method)(*args)
    assert p.u64() == q.u64()
    assert p.words(0) == bytearray() and p.planes(0, 64) == [] and p.planes(3, 0) == [0, 0, 0]
    assert p.u64() == q.u64()  # empty draws take nothing


@pytest.mark.parametrize("nplanes, nlanes", [(1, 1), (4, 63), (4, 64), (9, 65), (81, 200),
                                             (3, 64 * 1024 + 5)])
def test_planes_are_word_groups(nplanes, nlanes):
    # word j of group g, in u64 order, holds lanes 64g..64g+63 of plane j
    a, b = Prng(nplanes * nlanes), Prng(nplanes * nlanes)
    planes = a.planes(nplanes, nlanes)
    groups = (nlanes + 63) // 64
    words = [b.u64() for _ in range(groups * nplanes)]
    assert len(planes) == nplanes
    for j, plane in enumerate(planes):
        assert plane == sum(words[g * nplanes + j] << (64 * g)
                            for g in range(groups)) & ((1 << nlanes) - 1), j
    assert a.u64() == b.u64()


@pytest.mark.parametrize("first, second", [(64, 1), (64, 64), (128, 77), (1024, 1000)])
def test_planes_in_two_draws_are_the_lanes_of_one(first, second):
    # a first draw of a multiple of 64 lanes: lane s is the same bit
    # however the lanes are cut, and the stream ends in the same place
    a, b = Prng(first + second), Prng(first + second)
    one = a.planes(10, first + second)
    low, high = b.planes(10, first), b.planes(10, second)
    assert one == [lo | (hi << first) for lo, hi in zip(low, high)]
    assert a.u64() == b.u64()

# SHA-256 of `_seeded_stream_text`, computed at the release whose
# `random_rank_decomp` and `bias_mc` cut their own blocks: these outputs
# must not move when the cutting moves into `Prng`
STREAM_DIGEST = "671e18feb7ea23ed9e5291db96548109f9c32c151110a685c07b7af1cb46f6da"


def _seeded_stream_text(tmp_path):
    """Seeded outputs of every route that cuts stream words into values,
    one line each: `bits` for n = 0..4097 and past a 1,024-word mix chunk,
    `random_rank_decomp`, `random_tensor`, `bias_mc` at 1, 63, 64, 65 and
    more than 2^16 samples (and at a block of 41,943, not a multiple of
    64), and the file `gen random-rank` writes."""
    from f2lab.bias import bias_mc
    from f2lab.cli import main
    from f2lab.tensors import random_rank_decomp, random_tensor

    lines = []
    p = Prng(2024)
    for n in [*range(4098), 64 * 1024 - 1, 64 * 1024 + 1, 64 * 2048 + 65]:
        lines.append(f"bits {n} {p.bits(n):x}")
    for d, k, t, seed in [(1, 1, 1, 0), (2, 7, 3, 1), (3, 8, 5, 2), (2, 9, 4, 3),
                          (3, 64, 2, 4), (2, 65, 3, 5), (1, 1000, 2, 6), (3, 129, 1, 7),
                          (2, 3, 0, 8), (1, 5, 700, 9)]:
        dec = random_rank_decomp(d, k, t, seed)
        lines.append(f"decomp {d} {k} {t} {seed} "
                     + " ".join(f"{v.bits:x}" for term in dec.terms for v in term.vectors))
    for d, k, seed in [(1, 1, 0), (2, 3, 1), (3, 4, 2), (2, 9, 3), (3, 7, 4), (1, 1000, 5),
                       (3, 20, 6)]:
        lines.append(f"tensor {d} {k} {seed} {random_tensor(d, k, seed).bits:x}")
    for (d, k, seed), samples in [((3, 3, 1), s) for s in (1, 63, 64, 65, 70_001)] + [
            ((2, 5, 2), 65), ((2, 100, 3), 50_000)]:
        est = bias_mc(random_tensor(d, k, seed), samples, 0.99, seed + samples)
        lines.append(f"mc {d} {k} {seed} {samples} {est.point.hex()}")
    out = tmp_path / "d.f2d"
    assert main(["gen", "random-rank", "--d", "3", "--k", "70", "--t", "4",
                 "--seed", "11", "--out", str(out)]) == 0
    lines.append(out.read_text())
    return "\n".join(lines)


def test_seeded_streams_match_their_digest(tmp_path):
    text = _seeded_stream_text(tmp_path)
    assert hashlib.sha256(text.encode()).hexdigest() == STREAM_DIGEST
