"""f2linalg: rank, echelon bases, kernels, duals, weights, batching."""

import os
import threading
from collections import Counter

import pytest

from f2lab import bias, f2linalg
from f2lab._bitops import ones, parity
from f2lab.errors import CapacityError, InvariantError
from f2lab.f2linalg import (LANE_CHUNK_BITS, BitVec, Subspace, dual_space,
                            _batched_rank_histogram, echelonize, kernel, mat_rank,
                            min_weight, rank_of_row_ints, sampled_rank_histogram,
                            span_rank_histogram)
from f2lab.prng import Prng
from f2lab.tensors import random_tensor
from oracles import below, lane_matrices, span_elements


def identity(n):
    return [1 << i for i in range(n)]


def zeros(nrows):
    return [0] * nrows


def random_matrix(nrows, cols, rng):
    return [rng.bits(cols) for _ in range(nrows)]


def pack(rows, cols):
    """The rows as one packed matrix, row i at bits [i cols, (i+1) cols)."""
    return sum(r << (i * cols) for i, r in enumerate(rows))


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
    assert mat_rank(pack(identity(7), 7), 7, 7) == 7
    assert mat_rank(pack(zeros(4), 5), 4, 5) == 0


def test_rank_dependent_rows():
    assert mat_rank(pack([0b11, 0b11], 2), 2, 2) == 1


def test_mat_rank_packed_against_dense_oracle():
    rng = Prng(2025)
    for _ in range(2_000):
        r = 1 + below(rng, 10)
        c = 1 + below(rng, 10)
        bits = rng.bits(r * c)
        rows = [(bits >> (i * c)) & ((1 << c) - 1) for i in range(r)]
        assert mat_rank(bits, r, c) == dense_rank_oracle(rows, c), (bits, r, c)


def test_mat_rank_rejects_bits_outside_the_shape():
    with pytest.raises(ValueError):
        mat_rank(1 << 6, 2, 3)
    with pytest.raises(ValueError):
        mat_rank(-1, 2, 3)


def test_rank_against_dense_oracle():
    rng = Prng(2024)
    for _ in range(10_000):
        r = 1 + below(rng, 10)
        c = 1 + below(rng, 10)
        rows = [rng.bits(c) for _ in range(r)]
        assert rank_of_row_ints(rows) == dense_rank_oracle(rows, c)


def test_rank_against_dense_oracle_large():
    rng = Prng(77)
    for _ in range(30):
        r = 32 + below(rng, 33)
        c = 32 + below(rng, 33)
        rows = [rng.bits(c) for _ in range(r)]
        assert rank_of_row_ints(rows) == dense_rank_oracle(rows, c)


def test_echelonize_examples():
    e1, e2 = 0b01, 0b10
    s = echelonize([e1, e1 ^ e2, e2], 2)
    assert s.dim == 2
    assert s.basis == (e1, e2)
    assert echelonize([], 2).dim == 0
    s = echelonize([0b0011, 0b0110, 0b0101], 4)
    assert s.dim == 2


def test_echelonize_rejects_length_mismatch():
    with pytest.raises(ValueError):
        echelonize([0b10000], 4)
    with pytest.raises(ValueError):
        echelonize([-1], 4)


def test_echelonize_idempotent():
    rng = Prng(5)
    for _ in range(500):
        n = 1 + below(rng, 12)
        vs = [rng.bits(n) for _ in range(below(rng, n + 2))]
        s = echelonize(vs, n)
        assert echelonize(s.basis, n) == s


def test_subspace_invariants_enforced():
    with pytest.raises(ValueError):  # 0b011 is not reduced at pivot 1
        Subspace(3, (0b011, 0b010))
    with pytest.raises(ValueError):
        Subspace(3, (0b1000,))
    with pytest.raises(ValueError):
        Subspace(3, (0,))
    with pytest.raises(ValueError):
        Subspace(3, (0b010, 0b001))


def test_contains_matches_rank_test():
    rng = Prng(6)
    for _ in range(10_000):
        n = 1 + below(rng, 12)
        vs = [rng.bits(n) for _ in range(below(rng, n + 1))]
        s = echelonize(vs, n)
        v = rng.bits(n)
        by_rank = rank_of_row_ints(list(s.basis) + [v]) == s.dim
        assert s.contains_bits(v) == by_rank


def test_contains_trivia():
    s = echelonize([0b0001, 0b0010], 4)
    assert s.contains_bits(0)
    e11 = echelonize([0b0001], 4)  # e1 (x) e1 flattened, k=2
    assert e11.contains_bits(BitVec.from01("1000").bits)
    assert not e11.contains_bits(BitVec.from01("0001").bits)


def test_kernel_examples():
    assert kernel(identity(5), 5).dim == 0
    assert kernel(zeros(3), 4).dim == 4
    k = kernel([0b011, 0b110], 3)
    assert k.dim == 1
    assert k.basis == (0b111,)
    with pytest.raises(ValueError):
        kernel([0b1000], 3)


def test_kernel_annihilates():
    rng = Prng(7)
    for _ in range(300):
        r = 1 + below(rng, 6)
        c = 1 + below(rng, 8)
        a = random_matrix(r, c, rng)
        ker = kernel(a, c)
        assert ker.dim == c - mat_rank(pack(a, c), r, c)
        for v in ker.basis:
            assert not any(parity(row & v) for row in a)


def test_dual_examples():
    full = echelonize([1 << j for j in range(3)], 3)
    assert dual_space(full).dim == 0
    d = dual_space(echelonize([0b111], 3))
    assert d.dim == 2
    for bits in span_elements(d):
        assert bits.bit_count() % 2 == 0  # even overlap with 111
    zero = echelonize([], 4)
    assert dual_space(zero).dim == 4


def test_dual_involution_and_dimension():
    rng = Prng(8)
    for _ in range(300):
        n = 1 + below(rng, 10)
        s = echelonize([rng.bits(n) for _ in range(below(rng, n + 1))], n)
        d = dual_space(s)
        assert s.dim + d.dim == n
        assert dual_space(d) == s


def test_min_weight():
    s = echelonize([0b0111, 0b1110], 4)
    assert min_weight(s) == 2  # the element 0b1001
    assert min_weight(echelonize([1], 1)) == 1
    assert min_weight(echelonize([], 6)) == 7  # sentinel for the zero space


def gray_walk_min_weight(s):
    best = s.ambient_dim + 1
    for e in span_elements(s):
        if e:
            best = min(best, e.bit_count())
    return best


def test_min_weight_matches_gray_walk():
    rng = Prng(12)
    for dim in range(LANE_CHUNK_BITS + 3):
        n = dim + below(rng, 9)
        vecs = []
        while len(vecs) < dim:
            v = rng.bits(n)
            if echelonize(vecs + [v], n).dim > len(vecs):
                vecs.append(v)
        s = echelonize(vecs, n)
        assert s.dim == dim
        assert min_weight(s) == gray_walk_min_weight(s)


def test_min_weight_only_in_a_high_chunk():
    # the last basis row e_cap (weight 1) is the lone weight-1 word, and it
    # is lane 0 of the second lane chunk; every other word has weight >= 2
    n = LANE_CHUNK_BITS + 2
    vecs = [(1 << i) | (1 << (n - 1)) for i in range(LANE_CHUNK_BITS)]
    s = echelonize(vecs + [1 << LANE_CHUNK_BITS], n)
    assert s.basis[-1] == 1 << LANE_CHUNK_BITS
    assert min_weight(s) == gray_walk_min_weight(s) == 1


def test_min_weight_guard():
    vecs = [1 << j for j in range(30)]
    with pytest.raises(CapacityError):
        min_weight(echelonize(vecs, 40))


def brute_span_hist(gens, nrows, ncols):
    counts = [0] * (min(nrows, ncols) + 1)
    for c in range(1 << len(gens)):
        m = 0
        for j in range(len(gens)):
            if (c >> j) & 1:
                m ^= gens[j]
        counts[rank_of_row_ints((m >> (i * ncols)) & ((1 << ncols) - 1)
                                for i in range(nrows))] += 1
    return counts


def test_span_rank_histogram_vs_brute():
    rng = Prng(10)
    for _ in range(60):
        m = 1 + below(rng, 7)
        nr = 1 + below(rng, 5)
        nc = 1 + below(rng, 5)
        gens = [pack(random_matrix(nr, nc, rng), nc) for _ in range(m)]
        assert span_rank_histogram(gens, nr, nc) == brute_span_hist(gens, nr, nc)


def test_span_rank_histogram_rejects_bad_generators():
    with pytest.raises(ValueError):
        span_rank_histogram([], 2, 2)
    with pytest.raises(ValueError):
        span_rank_histogram([0b1, -1], 2, 2)
    with pytest.raises(ValueError):  # bit 6 lies beyond the 2 x 3 entries
        span_rank_histogram([0b1, 1 << 6], 2, 3)
    assert span_rank_histogram([(1 << 6) - 1], 2, 3) == [1, 1, 0]


def test_span_rank_histogram_chunked(monkeypatch):
    rng = Prng(11)
    for nr, nc in ((4, 4), (3, 5)):
        gens = [pack(random_matrix(nr, nc, rng), nc) for _ in range(9)]
        # 8 KiB forces 128-lane chunks, four of them; result must not change
        monkeypatch.setenv("F2LAB_BUDGET_BYTES", "8192")
        chunked = span_rank_histogram(gens, nr, nc)
        monkeypatch.delenv("F2LAB_BUDGET_BYTES")
        assert chunked == span_rank_histogram(gens, nr, nc) == brute_span_hist(gens, nr, nc)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("extra", [1, 2])
def test_span_rank_histogram_high_chunks(n, extra):
    # the low generators keep the last row zero; the `extra` high ones share
    # one nonzero last row, so the chunks of base h0 and h1 have rank-n
    # matrices and the chunk of base h0 ^ h1 has none
    rng = Prng(13 + 10 * n + extra)

    def gen(last_row):
        return pack([rng.bits(n) for _ in range(n - 1)] + [last_row], n)

    last = 1 + below(rng, (1 << n) - 1)
    gens = [gen(0) for _ in range(LANE_CHUNK_BITS)] + [gen(last) for _ in range(extra)]
    assert span_rank_histogram(gens, n, n) == brute_span_hist(gens, n, n)


def parent_lanes(monkeypatch):
    """The lane counts of the kernel calls made in this process, through
    the bindings of `f2linalg` and of `bias` (a forked walk worker appends
    to its own copy)."""
    lanes = []
    real = f2linalg._batched_rank_histogram

    def counted(planes, nrows, ncols, nlanes):
        lanes.append(nlanes)
        return real(planes, nrows, ncols, nlanes)

    for module in (f2linalg, bias):
        monkeypatch.setattr(module, "_batched_rank_histogram", counted)
    return lanes


def use_cpus(monkeypatch, n):
    monkeypatch.setattr(f2linalg, "_usable_cpus", lambda: n)


# (nrows, ncols, generators): 8 or 16 lane chunks in one process at the
# budget, so the walk splits over three workers too, which never divide a
# power of two; under 14 KiB, where only (2, 2) has three shares that hold
# a 64-lane chunk, the others split over two
SPLIT_SPANS = {"14336": [(2, 2, 14), (3, 2, 14), (2, 3, 13)],
               "65536": [(3, 3, 17), (4, 5, 15), (2, 6, 16)],
               "131072": [(4, 4, 16)]}
# (d, k) of tensors whose d >= 4 walk does not contract x_1: its stored
# delta sets leave fewer shares than the packed spans have, so only 128
# KiB holds two or three narrowest chunks of each and 8 or more chunks in
# one process
SPLIT_TENSORS = {"14336": [], "65536": [], "131072": [(4, 7), (4, 8), (5, 5)]}


@pytest.mark.parametrize("budget", list(SPLIT_SPANS))
def test_split_walk_matches_one_process(budget, monkeypatch):
    # the CPU count is patched, so the walk splits on any Linux host; the
    # parent ranks only the first of the ranges
    monkeypatch.setenv("F2LAB_BUDGET_BYTES", budget)
    rng = Prng(int(budget))
    lanes = parent_lanes(monkeypatch)
    for nr, nc, m in SPLIT_SPANS[budget]:
        gens = [pack(random_matrix(nr, nc, rng), nc) for _ in range(m)]
        hists = []
        for cpus in (1, 2, 3):
            use_cpus(monkeypatch, cpus)
            lanes.clear()
            hists.append(span_rank_histogram(gens, nr, nc))
            assert (sum(lanes) == 1 << m) == (cpus == 1), (nr, nc, cpus)
        assert hists[0] == hists[1] == hists[2], (nr, nc)
        assert sum(hists[0]) == 1 << m
    built = []
    tail_planes = bias._tail_matrix_planes
    monkeypatch.setattr(bias, "_tail_matrix_planes", lambda t, c: built.append(c) or
                        tail_planes(t, c))
    for d, k in SPLIT_TENSORS[budget]:
        t = random_tensor(d, k, 10 * d + k)
        hists = []
        for cpus in (1, 2, 3):
            use_cpus(monkeypatch, cpus)
            lanes.clear()
            built.clear()
            hists.append(bias._prefix_rank_histogram(t))
            assert len(built) == 1, (d, k, cpus)
            assert (sum(lanes) == 1 << k * (d - 2)) == (cpus == 1), (d, k, cpus)
        assert hists[0] == hists[1] == hists[2], (d, k)
    codes = [echelonize([rng.bits(20) for _ in range(dim)], 20) for dim in (11, 12, 13, 14)]
    for s in codes:
        weights = []
        for cpus in (1, 2, 3):
            use_cpus(monkeypatch, cpus)
            weights.append(min_weight(s))
        assert weights == [gray_walk_min_weight(s)] * 3, s.dim


def test_split_walk_divides_the_budget(monkeypatch):
    # a 4 x 4 chunk holds 68 ints: 128 KiB gives one process 2^13-lane
    # chunks and each of two 2^12; the parent walks 8 chunks either way
    monkeypatch.setenv("F2LAB_BUDGET_BYTES", "131072")
    rng = Prng(52)
    gens = [pack(random_matrix(4, 4, rng), 4) for _ in range(16)]
    lanes = parent_lanes(monkeypatch)
    hists = []
    for cpus, chunk in ((1, 1 << 13), (2, 1 << 12)):
        use_cpus(monkeypatch, cpus)
        lanes.clear()
        hists.append(span_rank_histogram(gens, 4, 4))
        assert lanes == [chunk] * 8, cpus
    assert hists[0] == hists[1]


def test_split_walk_runs_no_more_workers_than_shares(monkeypatch):
    # a 64-lane chunk of 2 x 2 matrices needs 1,188 bytes and one of 3 x 2
    # matrices 1,364, each with 3 KiB and 144 bytes a row beside it: 14 KiB
    # holds three shares of the first and two of the second, so three CPUs
    # fork two workers and one
    monkeypatch.setenv("F2LAB_BUDGET_BYTES", "14336")
    use_cpus(monkeypatch, 3)
    splits = []
    real = f2linalg._split_walk

    def spy(chunk_histograms, nsteps, workers, nbins):
        splits.append((nsteps, workers))
        return real(chunk_histograms, nsteps, workers, nbins)

    monkeypatch.setattr(f2linalg, "_split_walk", spy)
    rng = Prng(54)
    for nr, nc in ((2, 2), (3, 2)):
        gens = [pack(random_matrix(nr, nc, rng), nc) for _ in range(14)]
        assert span_rank_histogram(gens, nr, nc) == brute_span_hist(gens, nr, nc)
    assert splits == [(128, 3), (32, 2)]


def test_walk_workers(monkeypatch):
    # one per usable CPU with two chunks each; one where the host does not
    # say, inside a walk worker and beside another thread
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert f2linalg._usable_cpus() == 1
    use_cpus(monkeypatch, 3)
    assert [f2linalg._walk_workers(n) for n in (1, 2, 3, 4, 5, 6, 64)] == [1, 1, 1, 2, 2, 3, 3]
    monkeypatch.setattr(f2linalg, "_in_walk_worker", True)
    assert f2linalg._walk_workers(64) == 1
    monkeypatch.setattr(f2linalg, "_in_walk_worker", False)
    done = threading.Event()
    other = threading.Thread(target=done.wait, args=(10,))
    other.start()
    try:
        assert f2linalg._walk_workers(64) == 1
    finally:
        done.set()
        other.join(10)
    assert not other.is_alive()


@pytest.mark.parametrize("data", [b"", b"1 2", b"1 2 3 4", b"1 -2 3", b"1 x 3", b"1 2.0 3"])
def test_malformed_worker_histogram_is_refused(data):
    assert f2linalg._read_histogram(data, 3) is None
    assert f2linalg._read_histogram(b"1 20 3\n", 3) == [1, 20, 3]


@pytest.mark.parametrize("where", ["worker", "parent"])
def test_a_failed_walk_leaves_no_child(where, monkeypatch):
    # a worker that raises exits nonzero, an InvariantError naming its
    # steps; a parent that raises kills its workers; both reap them all
    # (20 KiB: three workers, each walking 64-lane chunks)
    monkeypatch.setenv("F2LAB_BUDGET_BYTES", "20480")
    use_cpus(monkeypatch, 3)
    parent = os.getpid()
    real = f2linalg._batched_rank_histogram

    def fails(planes, nrows, ncols, nlanes):
        if (os.getpid() == parent) == (where == "parent"):
            raise KeyError(where)
        return real(planes, nrows, ncols, nlanes)

    monkeypatch.setattr(f2linalg, "_batched_rank_histogram", fails)
    rng = Prng(53)
    gens = [pack(random_matrix(4, 4, rng), 4) for _ in range(13)]
    error, match = ((InvariantError, r"walk worker for steps \[\d+, \d+\) exited with status 1 ")
                    if where == "worker" else (KeyError, "parent"))
    with pytest.raises(error, match=match):
        span_rank_histogram(gens, 4, 4)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def lane_matrix(kind, nrows, ncols, rng):
    """One lane's matrix as row ints: random, all-zero, all-ones, or
    random with rows copied from earlier ones (the last row always a
    copy), so the lane is rank-deficient; `mixed` picks one per lane."""
    if kind == "mixed":
        kind = ("random", "zero", "ones", "duplicated")[below(rng, 4)]
    if kind == "zero":
        return [0] * nrows
    if kind == "ones":
        return [ones(ncols)] * nrows
    rows = random_matrix(nrows, ncols, rng)
    if kind == "duplicated":
        for i in range(1, nrows):
            if i == nrows - 1 or rng.bits(1):
                rows[i] = rows[below(rng, i)]
    return rows


def lane_planes(matrices, nrows, ncols):
    """planes[i][j] holds entry (i, j) of matrices[lane] at bit `lane`."""
    return [[sum(((m[i] >> j) & 1) << lane for lane, m in enumerate(matrices))
             for j in range(ncols)] for i in range(nrows)]


@pytest.mark.parametrize("kind", ["random", "zero", "ones", "duplicated", "mixed"])
def test_batched_rank_histogram_matches_mat_rank_per_lane(kind):
    # the kernel on explicit per-lane matrices, against mat_rank of each
    # lane: as a whole histogram and, lane by lane, one lane per call
    rng = Prng(sum(map(ord, kind)))
    for nrows in range(1, 7):
        for ncols in range(1, 7):
            for nlanes in (1, 3, 64, 200):
                matrices = [lane_matrix(kind, nrows, ncols, rng) for _ in range(nlanes)]
                ranks = [mat_rank(pack(m, ncols), nrows, ncols) for m in matrices]
                planes = lane_planes(matrices, nrows, ncols)
                before = [list(row) for row in planes]
                counts = Counter(ranks)
                want = [counts[r] for r in range(min(nrows, ncols) + 1)]
                shape = (kind, nrows, ncols, nlanes)
                assert _batched_rank_histogram(planes, nrows, ncols, nlanes) == want, shape
                # chunks after the first are chunk 0's planes flipped, so the
                # kernel must leave its input as it found it
                assert planes == before, shape
                if nlanes > 3:
                    continue
                for m, r in zip(matrices, ranks):
                    alone = _batched_rank_histogram(lane_planes([m], nrows, ncols),
                                                    nrows, ncols, 1)
                    assert alone.index(1) == r, (shape, m)


@pytest.mark.parametrize("k, samples, budget", [
    (1, 1, None), (2, 1, None), (8, 1, None), (9, 1, None), (10, 1, None),
    (1, 200, None), (2, (1 << LANE_CHUNK_BITS) + 77, None), (8, 777, None),
    (9, 130, None), (10, 333, None),
    (2, 1_000, "4096"), (8, 1_500, "65536"), (9, 300, "4096"), (10, 200, "65536"),
    (2, 3_000, "4096"), (10, 1_500, "65536")])
def test_sampled_rank_histogram_matches_mat_rank(k, samples, budget, monkeypatch):
    # against mat_rank of lane s of the twin stream's planes(k^2, samples):
    # as a histogram, and lane by lane in every chunk the kernel ranks
    if budget is not None:
        monkeypatch.setenv("F2LAB_BUDGET_BYTES", budget)
    chunks = []

    def spy(planes, nrows, ncols, nlanes):
        hist = _batched_rank_histogram(planes, nrows, ncols, nlanes)
        chunks.append((planes, nlanes, hist))
        return hist

    monkeypatch.setattr(f2linalg, "_batched_rank_histogram", spy)
    rng, ref = Prng(1000 * k + samples), Prng(1000 * k + samples)
    if (k, budget) == (9, "4096"):
        # 64 lanes of 81 planes do not fit 4 KiB: refused before any draw
        with pytest.raises(CapacityError) as refused:
            sampled_rank_histogram(rng, samples, k, k)
        assert refused.value.required > refused.value.budget == 4096
        assert rng.u64() == ref.u64() and not chunks
        return
    got = sampled_rank_histogram(rng, samples, k, k)
    matrices = lane_matrices(ref.planes(k * k, samples), samples)
    ranks = [mat_rank(m, k, k) for m in matrices]
    counts = Counter(ranks)
    assert got == [counts[r] for r in range(k + 1)]
    assert rng.u64() == ref.u64()  # the stream is left where one draw leaves it

    # the chunk the byte model (the mixed word block, its copy, and k^2 + k
    # + 16 lane ints beside the planes) gives: 2^16 lanes by default; under
    # 4 KiB 128 lanes at k = 2, and under 64 KiB 256 at k = 8 and 128 at 10
    limit = {None: 1 << LANE_CHUNK_BITS, "4096": 128,
             "65536": 256 if k == 8 else 128}[budget]
    assert all(nlanes <= limit for _, nlanes, _ in chunks)
    assert sum(nlanes for _, nlanes, _ in chunks) == samples
    if samples > limit:
        assert len(chunks) > 1 and chunks[0][1] == limit
    first = 0
    for planes, nlanes, hist in chunks:
        part = Counter(ranks[first:first + nlanes])
        assert hist == [part[r] for r in range(k + 1)]
        for lane in range(nlanes):
            s = first + lane
            one_lane = [[(p >> lane) & 1 for p in row] for row in planes]
            assert pack([sum(bit << j for j, bit in enumerate(row)) for row in one_lane],
                        k) == matrices[s], s
            if lane < 3 or lane == nlanes - 1:
                alone = _batched_rank_histogram(one_lane, k, k, 1)
                assert alone.index(1) == ranks[s], s
        first += nlanes


@pytest.mark.parametrize("k, budget, chunk", [(2, "4096", 128), (3, "4096", 64),
                                              (16, "1048576", 4096), (12, "262144", 1024)])
def test_sampled_rank_histogram_takes_the_widest_chunk_its_model_admits(k, budget, chunk,
                                                                        monkeypatch):
    # each part of the model moves one of these chunks: without the mixing
    # workspace k = 2 takes 512 lanes, without the 16 kernel ints 256, and
    # without the word block's copy k = 16 takes 8,192
    monkeypatch.setenv("F2LAB_BUDGET_BYTES", budget)
    lanes = parent_lanes(monkeypatch)
    assert sum(sampled_rank_histogram(Prng(k), chunk + 1, k, k)) == chunk + 1
    assert lanes == [chunk, 1]


@pytest.mark.parametrize("k, samples", [(2, 70_001), (9, 70_001)])
def test_sampled_rank_histogram_does_not_depend_on_the_budget(k, samples, monkeypatch):
    # past the chunk at every budget (unset, 64 KiB, 32 KiB): 2^16, 2^12 or
    # 2^11 lanes at k = 2, and 2^16, 2^8 or 64 at k = 9; lane s is the
    # same matrix however the chunks are cut
    hists = []
    for budget in (None, "65536", "32768"):
        if budget is None:
            monkeypatch.delenv("F2LAB_BUDGET_BYTES", raising=False)
        else:
            monkeypatch.setenv("F2LAB_BUDGET_BYTES", budget)
        rng = Prng(k + samples)
        hists.append((sampled_rank_histogram(rng, samples, k, k), rng.u64()))
    assert hists[0] == hists[1] == hists[2]
    assert sum(hists[0][0]) == samples


def test_sampled_rank_histogram_arguments():
    assert sampled_rank_histogram(Prng(1), 0, 3, 3) == [0, 0, 0, 0]
    with pytest.raises(ValueError):
        sampled_rank_histogram(Prng(1), -1, 3, 3)
    with pytest.raises(ValueError):
        sampled_rank_histogram(Prng(1), 5, 0, 3)


def test_repr_names_shape_not_the_bits():
    # packed ints of more than about 14,000 bits exceed Python's 4,300-digit
    # limit for int -> decimal str, so no repr may print one
    assert repr(random_tensor(3, 30, 1)) == "DenseTensor(d=3, k=30)"
    s = echelonize([Prng(2).bits(20000) for _ in range(3)], 20000)
    assert repr(s) == "Subspace(ambient_dim=20000)"
