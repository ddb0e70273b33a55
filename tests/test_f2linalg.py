"""f2linalg: rank, echelon bases, kernels, duals, weights, batching."""

import tracemalloc

import pytest

from f2lab.errors import CapacityError
from f2lab.f2linalg import (LANE_CHUNK_BITS, BitMatrix, BitVec, Subspace,
                            block_pivot_dims, dual_space, echelonize, kernel,
                            mat_rank, min_weight, rank_of_row_ints,
                            span_rank_histogram, subspace_contains)
from f2lab.prng import Prng
from f2lab.tensors import first_block_slices, trace_tensor


def dense_rank_oracle(rows, cols):
    """Schoolbook Gaussian elimination on 0/1 lists, no bit packing."""
    m = [[(r >> j) & 1 for j in range(cols)] for r in rows]
    rank = 0
    row = 0
    for col in range(cols):
        piv = None
        for i in range(row, len(m)):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        for i in range(len(m)):
            if i != row and m[i][col]:
                m[i] = [a ^ b for a, b in zip(m[i], m[row])]
        rank += 1
        row += 1
        if row == len(m):
            break
    return rank


def test_rank_identity_and_zero():
    assert mat_rank(BitMatrix.identity(7)) == 7
    assert mat_rank(BitMatrix.zeros(4, 5)) == 0


def test_rank_dependent_rows():
    assert mat_rank(BitMatrix.from_row_ints([0b11, 0b11], 2)) == 1


def test_rank_against_dense_oracle():
    rng = Prng(2024)
    for _ in range(10_000):
        r = 1 + rng.below(10)
        c = 1 + rng.below(10)
        rows = [rng.bits(c) for _ in range(r)]
        assert rank_of_row_ints(rows) == dense_rank_oracle(rows, c)


def test_rank_against_dense_oracle_large():
    rng = Prng(77)
    for _ in range(30):
        r = 32 + rng.below(33)
        c = 32 + rng.below(33)
        rows = [rng.bits(c) for _ in range(r)]
        assert rank_of_row_ints(rows) == dense_rank_oracle(rows, c)


def test_echelonize_examples():
    e1, e2 = BitVec.from01("10"), BitVec.from01("01")
    s = echelonize([e1, e1 ^ e2, e2], 2)
    assert s.dim == 2
    assert [v.to01() for v in s.basis] == ["10", "01"]
    assert echelonize([], 2).dim == 0
    s = echelonize([BitVec.from01("1100"), BitVec.from01("0110"),
                    BitVec.from01("1010")], 4)
    assert s.dim == 2


def test_echelonize_rejects_length_mismatch():
    with pytest.raises(ValueError):
        echelonize([BitVec.from01("101")], 4)


def test_echelonize_idempotent():
    rng = Prng(5)
    for _ in range(500):
        n = 1 + rng.below(12)
        vs = [BitVec.random(n, rng) for _ in range(rng.below(n + 2))]
        s = echelonize(vs, n)
        assert echelonize(s.basis, n) == s


def test_subspace_invariants_enforced():
    with pytest.raises(ValueError):
        Subspace(3, (BitVec.from01("110"), BitVec.from01("010")), (0, 1))


def test_contains_matches_rank_test():
    rng = Prng(6)
    for _ in range(10_000):
        n = 1 + rng.below(12)
        vs = [BitVec.random(n, rng) for _ in range(rng.below(n + 1))]
        s = echelonize(vs, n)
        v = BitVec.random(n, rng)
        by_rank = rank_of_row_ints([b.bits for b in s.basis] + [v.bits]) == s.dim
        assert subspace_contains(s, v) == by_rank


def test_contains_trivia():
    s = echelonize([BitVec.from01("1000"), BitVec.from01("0100")], 4)
    assert subspace_contains(s, BitVec.zeros(4))
    e11 = echelonize([BitVec.from01("1000")], 4)  # e1 (x) e1 flattened, k=2
    assert subspace_contains(e11, BitVec.from01("1000"))
    assert not subspace_contains(e11, BitVec.from01("0001"))


def test_kernel_examples():
    assert kernel(BitMatrix.identity(5)).dim == 0
    assert kernel(BitMatrix.zeros(3, 4)).dim == 4
    k = kernel(BitMatrix.from_rows([BitVec.from01("110"), BitVec.from01("011")]))
    assert k.dim == 1
    assert k.basis[0].to01() == "111"


def test_kernel_annihilates():
    rng = Prng(7)
    for _ in range(300):
        r = 1 + rng.below(6)
        c = 1 + rng.below(8)
        a = BitMatrix.random(r, c, rng)
        ker = kernel(a)
        assert ker.dim == c - mat_rank(a)
        for v in ker.basis:
            assert a.matvec(v).bits == 0


def test_dual_examples():
    full = echelonize([BitVec.unit(3, j) for j in range(3)], 3)
    assert dual_space(full).dim == 0
    d = dual_space(echelonize([BitVec.from01("111")], 3))
    assert d.dim == 2
    for bits in d.elements_bits():
        assert bits.bit_count() % 2 == 0  # even overlap with 111
    zero = echelonize([], 4)
    assert dual_space(zero).dim == 4


def test_dual_involution_and_dimension():
    rng = Prng(8)
    for _ in range(300):
        n = 1 + rng.below(10)
        s = echelonize([BitVec.random(n, rng) for _ in range(rng.below(n + 1))], n)
        d = dual_space(s)
        assert s.dim + d.dim == n
        assert dual_space(d) == s


def test_min_weight():
    s = echelonize([BitVec.from01("1110"), BitVec.from01("0111")], 4)
    assert min_weight(s) == 2  # the element 1001
    assert min_weight(echelonize([BitVec.from01("1")], 1)) == 1
    assert min_weight(echelonize([], 6)) == 7  # sentinel for the zero space


def gray_walk_min_weight(s):
    best = s.ambient_dim + 1
    for e in s.elements_bits():
        if e:
            best = min(best, e.bit_count())
    return best


def test_min_weight_matches_gray_walk():
    rng = Prng(12)
    for dim in range(LANE_CHUNK_BITS + 3):
        n = dim + rng.below(9)
        vecs = []
        while len(vecs) < dim:
            v = BitVec.random(n, rng)
            if echelonize(vecs + [v], n).dim > len(vecs):
                vecs.append(v)
        s = echelonize(vecs, n)
        assert s.dim == dim
        assert min_weight(s) == gray_walk_min_weight(s)


def test_min_weight_only_in_a_high_chunk():
    # the last basis row e_cap (weight 1) is the lone weight-1 word, and it
    # is lane 0 of the second lane chunk; every other word has weight >= 2
    n = LANE_CHUNK_BITS + 2
    vecs = [BitVec(n, (1 << i) | (1 << (n - 1))) for i in range(LANE_CHUNK_BITS)]
    s = echelonize(vecs + [BitVec.unit(n, LANE_CHUNK_BITS)], n)
    assert s.basis[-1] == BitVec.unit(n, LANE_CHUNK_BITS)
    assert min_weight(s) == gray_walk_min_weight(s) == 1


def test_min_weight_guard():
    vecs = [BitVec.unit(40, j) for j in range(30)]
    with pytest.raises(CapacityError):
        min_weight(echelonize(vecs, 40))


def test_block_pivot_dims_extremes():
    k, kp = 3, 4
    # V (x) full, dim V = 2 with pivots in the first two blocks
    vecs = [BitVec(k * kp, (1 << j) << (i * kp)) for i in range(2) for j in range(kp)]
    s = echelonize(vecs, k * kp)
    assert block_pivot_dims(s, k, kp) == (kp, kp, 0)
    # full (x) W, dim W = 2
    vecs = [BitVec(k * kp, w << (i * kp)) for i in range(k) for w in (0b0011, 0b0101)]
    s = echelonize(vecs, k * kp)
    assert block_pivot_dims(s, k, kp) == (2, 2, 2)
    assert block_pivot_dims(echelonize([], 12), 3, 4) == (0, 0, 0)


def test_block_pivot_dims_sum():
    rng = Prng(9)
    for _ in range(1000):
        k = 1 + rng.below(4)
        kp = 1 + rng.below(4)
        s = echelonize([BitVec.random(k * kp, rng)
                        for _ in range(rng.below(k * kp + 1))], k * kp)
        assert sum(block_pivot_dims(s, k, kp)) == s.dim


def test_block_pivot_dims_shape_mismatch():
    with pytest.raises(ValueError):
        block_pivot_dims(echelonize([], 12), 3, 5)


def brute_span_hist(gens):
    nrows, ncols = gens[0].nrows, gens[0].cols
    counts = [0] * (min(nrows, ncols) + 1)
    for c in range(1 << len(gens)):
        rows = [0] * nrows
        for j in range(len(gens)):
            if (c >> j) & 1:
                for i in range(nrows):
                    rows[i] ^= gens[j].rows[i].bits
        counts[rank_of_row_ints(rows)] += 1
    return counts


def test_span_rank_histogram_vs_brute():
    rng = Prng(10)
    for _ in range(60):
        m = 1 + rng.below(7)
        nr = 1 + rng.below(5)
        nc = 1 + rng.below(5)
        gens = [BitMatrix.random(nr, nc, rng) for _ in range(m)]
        assert span_rank_histogram(gens) == brute_span_hist(gens)


def test_span_rank_histogram_chunked():
    rng = Prng(11)
    gens = [BitMatrix.random(4, 4, rng) for _ in range(9)]
    # a tiny budget forces lane chunking; result must not change
    assert span_rank_histogram(gens, budget=64) == span_rank_histogram(gens)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("extra", [1, 2])
def test_span_rank_histogram_high_chunks(n, extra):
    # the low generators keep the last row zero; the `extra` high ones share
    # one nonzero last row, so the chunks of base h0 and h1 have rank-n
    # matrices and the chunk of base h0 ^ h1 has none
    rng = Prng(13 + 10 * n + extra)

    def gen(last_row):
        return BitMatrix.from_row_ints([rng.bits(n) for _ in range(n - 1)] + [last_row], n)

    last = 1 + rng.below((1 << n) - 1)
    gens = [gen(0) for _ in range(LANE_CHUNK_BITS)] + [gen(last) for _ in range(extra)]
    assert span_rank_histogram(gens) == brute_span_hist(gens)


@pytest.mark.parametrize("budget", [1 << 18, 1 << 20, 1 << 22])
def test_span_rank_histogram_peak_within_budget(budget):
    # 20x20 slices of trace_tensor(20), as bias_exact ranks them; 16 of the 20
    # generators keep several chunks with high generators at every budget
    k = 20
    gens = [BitMatrix.from_row_ints([(s >> (i * k)) & ((1 << k) - 1) for i in range(k)], k)
            for s in first_block_slices(trace_tensor(k))[:16]]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        span_rank_histogram(gens, budget=budget)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= budget, (peak, budget)
