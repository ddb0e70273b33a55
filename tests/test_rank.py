"""Rank search, the bias ladder, code certificates, rank distributions."""

import json
from fractions import Fraction
from itertools import permutations, product
from math import comb

import pytest

import f2lab.f2linalg as f2linalg
import f2lab.rank as rank_mod
from f2lab._bitops import budget_bytes
from f2lab.bias import DyadicRational as D, bias_exact
from f2lab.errors import CapacityError, InvariantError
from f2lab.f2linalg import LANE_CHUNK_BITS, BitVec, mat_rank, rank_of_row_ints
from f2lab.prng import Prng
from f2lab.rank import (_base_terms, code_certificate, corank_bound, corank_bound_margin,
                        decompositions, matmul_bias_exact, mrrw_rank_lb, rank_count,
                        rank_exact, rank_lb_bias)
from f2lab.tensors import (DenseTensor, RankDecomposition, RankOneTerm, first_block_slices,
                           matmul_tensor, outer_bits, random_rank_decomp,
                           random_tensor, tensor_from_decomp, trace_tensor)
from oracles import below, change_basis, permute_blocks, random_invertible

rng = Prng(90210)


def test_base_terms_order():
    # decompositions() yields in this order: first factor slowest
    bits = _base_terms(3, 2)
    assert bits == [outer_bits(vs, 2) for vs in product(range(1, 4), repeat=3)]
    assert bits[0] == 1 and bits[-1] == (1 << 8) - 1 and len(set(bits)) == 27
    assert [outer_bits(rank_mod._factors(i, 3, 2), 2) for i in range(27)] == bits


def test_rank_exact_trivia():
    assert rank_exact(DenseTensor(3, 2, 0), 5) == 0
    e1 = BitVec.from01("10")
    one = tensor_from_decomp(
        RankDecomposition(3, 2, (RankOneTerm((e1, e1, e1)),)))
    assert rank_exact(one, 5) == 1


def test_rank_exact_trace2():
    t = trace_tensor(2)
    assert rank_exact(t, 4) == 3
    assert rank_exact(t, 2) is None


def _fail(*args, **kwargs):
    raise AssertionError("listed or searched rank-one tensors")


def test_rank_exact_d2_matches_matrix_rank(monkeypatch):
    # d <= 2: every nonzero vector is rank-one, so nothing is enumerated
    monkeypatch.setattr(rank_mod, "_base_terms", _fail)
    for _ in range(100):
        k = 1 + below(rng, 6)
        t = random_tensor(2, k, rng.u64())
        r = mat_rank(t.bits, k, k)
        assert rank_exact(t, k) == r
    t = random_tensor(2, 24, 5)
    assert rank_exact(t, 24) == mat_rank(t.bits, 24, 24)


def test_rank_exact_matches_decomposition_oracle():
    # independent brute force: the least L with a decomposition into L
    # distinct rank-one terms, over every d=3 k=2 tensor
    for bits in range(1 << 8):
        t = DenseTensor(3, 2, bits)
        least = next(n for n in range(9) if next(decompositions(t, n), None) is not None)
        assert rank_exact(t, 8) == least


def test_rank_exact_known_values():
    assert rank_exact(trace_tensor(3), 6) == 6
    assert rank_exact(trace_tensor(3), 5) is None
    assert rank_exact(matmul_tensor(2), 7) == 7  # Hopcroft-Kerr 1971


def test_rank_search_tells_apart_spans_sharing_leading_rows(monkeypatch):
    # s = 3 and rank 4: the 4-dimensional spans S + <R> differ only in later
    # RREF rows, so a search keyed on fewer than all rows skips the one that
    # works and reports 5
    dec = random_rank_decomp(3, 3, 5, 181)
    t = tensor_from_decomp(dec)
    assert len(rank_mod._rref(first_block_slices(t))) == 3
    assert rank_exact(t, 5) == 4
    assert rank_exact(t, 3) is None
    # the 4 from outside the search: one term has a zero factor, so the
    # other four decompose t; no decomposition into 3 or fewer terms exists,
    # and the bias ladder gives 4 from below as well
    nonzero = tuple(term for term in dec.terms if all(v.bits for v in term.vectors))
    assert len(nonzero) == 4
    assert tensor_from_decomp(RankDecomposition(3, 3, nonzero)) == t
    monkeypatch.setenv("F2LAB_BUDGET_BYTES", str(1 << 30))  # C(343, 3) sets
    assert all(next(decompositions(t, n), None) is None for n in range(4))
    assert rank_lb_bias(bias_exact(t), 3) == 4


def test_rank_exact_guard(monkeypatch):
    monkeypatch.setattr(rank_mod, "_slice_span_search", _fail)
    monkeypatch.setattr(rank_mod, "_base_terms", _fail)
    monkeypatch.delenv("F2LAB_BUDGET_BYTES", raising=False)
    cap = max(4096, budget_bytes() // 64)
    # matmul2: s = 4, so t_max = 8 needs C(225, 4) sets of rank-one matrices
    with pytest.raises(CapacityError) as ei:
        rank_exact(matmul_tensor(2), 8)
    assert ei.value.required == comb(225, 4) == 103_962_600
    assert ei.value.budget == cap
    # trace12 at t_max = s lists no set but 4095^2 rank-one matrices
    with pytest.raises(CapacityError) as ei:
        rank_exact(trace_tensor(12), 12)
    assert ei.value.required == 4095 ** 2 and ei.value.budget == cap
    with pytest.raises(CapacityError) as ei:
        next(decompositions(trace_tensor(3), 4))
    assert ei.value.required == comb(7 ** 3, 4) and ei.value.budget == cap


def test_rank_exact_guards_the_rank_ones_bytes(monkeypatch):
    # trace10 at t_max = s lists no set but 1023^2 rank-one matrices and
    # their lookup set, about 94 MiB: refused at a 64 MiB budget before
    # any is listed, within the 128 MiB default
    monkeypatch.setattr(rank_mod, "_slice_span_search", _fail)
    monkeypatch.setattr(rank_mod, "_base_terms", _fail)
    monkeypatch.setenv("F2LAB_BUDGET_BYTES", str(64 << 20))
    with pytest.raises(CapacityError) as ei:
        rank_exact(trace_tensor(10), 10)
    assert ei.value.budget == 64 << 20
    assert ei.value.required == 1023 ** 2 * 120 > ei.value.budget
    monkeypatch.delenv("F2LAB_BUDGET_BYTES")
    rank_mod._check_search_size(2, 10, 0)


def transformed(t, rng):
    """t under each of the 6 orders of its 3 blocks, then under one random
    invertible change of basis in every block: each has t's bias and rank,
    and a different slice span."""
    for perm in permutations(range(3)):
        yield permute_blocks(t, perm)
    yield change_basis(t, [random_invertible(t.k, rng) for _ in range(3)])


def test_exact_bias_and_rank_invariant_on_every_2x2x2_tensor():
    rng = Prng(2222)
    moved = 0
    for bits in range(256):
        t = DenseTensor(3, 2, bits)
        want = (bias_exact(t), rank_exact(t, 3))  # 3 is the largest rank here
        for u in transformed(t, rng):
            assert (bias_exact(u), rank_exact(u, 3)) == want, (bits, u.bits)
            moved += u.bits != bits
    assert moved > 1000


@pytest.mark.parametrize("t, r", [(trace_tensor(2), 3), (trace_tensor(3), 6),
                                  (matmul_tensor(2), 7)], ids=["trace2", "trace3", "matmul2"])
def test_exact_bias_and_rank_invariant_on_known_tensors(t, r):
    # the trace tensors are symmetric, so only the change of basis moves them
    rng = Prng(r)
    want = bias_exact(t)
    assert rank_exact(t, r) == r
    for u in transformed(t, rng):
        assert bias_exact(u) == want
        assert rank_exact(u, r) == r


@pytest.mark.parametrize("k", [5, 6, 7])
def test_exact_bias_invariant_on_random_tensors(k):
    t = random_tensor(3, k, 300 + k)
    want = bias_exact(t)
    variants = list(transformed(t, Prng(k)))
    assert len({u.bits for u in variants}) == 7
    for u in variants:
        assert bias_exact(u) == want


def test_decomposition_is_rank_witness():
    for _ in range(1000):
        t_count = below(rng, 4)
        dec = random_rank_decomp(3, 2, t_count, rng.u64())
        tensor = tensor_from_decomp(dec)
        r = rank_exact(tensor, t_count)
        assert r is not None and r <= t_count


def test_ladder_values():
    assert rank_lb_bias(D.one(), 3) == 0
    assert rank_lb_bias(D.from_ratio(7, 4), 3) == 3
    assert rank_lb_bias(D.from_ratio((1 << 11) - 1, 20), 3) == 22
    assert rank_lb_bias(D.half_pow(3), 2) == 3
    with pytest.raises(ValueError):
        rank_lb_bias(D.zero(), 3)
    with pytest.raises(ValueError):
        rank_lb_bias(D.from_ratio(3, 1), 3)


def test_ladder_sound_on_all_small_tensors():
    # end-to-end soundness: lower bound never beats the exact rank,
    # exhaustively over every d=3 k=2 tensor
    for bits in range(1 << 8):
        t = DenseTensor(3, 2, bits)
        b = bias_exact(t)
        r = rank_exact(t, 8)
        if b.numerator:
            assert rank_lb_bias(b, 3) <= r


def test_trace2_decompositions_and_certificates():
    t = trace_tensor(2)
    decs = list(decompositions(t, 3))
    assert decs, "the rank-3 witnesses must exist"
    for dec in decs:
        cert = code_certificate(dec)
        assert cert.reconstructed_bias == D.from_ratio(7, 4)
        assert cert.kernel_dim == 1
        assert cert.dual_dim == 2
        assert cert.lower_bound == 3


def test_certificate_zero_first_block():
    z = BitVec(2, 0)
    u = BitVec(2, 3)
    dec = RankDecomposition(3, 2, (RankOneTerm((z, u, u)),
                                   RankOneTerm((z, u, BitVec(2, 1)))))
    cert = code_certificate(dec)
    assert cert.reconstructed_bias == D.one()
    assert cert.kernel_dim == 2


def test_certificate_independent_first_block():
    u = BitVec(2, 3)
    dec = RankDecomposition(3, 2, (RankOneTerm((BitVec(2, 1), u, u)),
                                   RankOneTerm((BitVec(2, 2), u, BitVec(2, 1)))))
    cert = code_certificate(dec)
    assert cert.kernel_dim == 0
    assert cert.reconstructed_bias == bias_exact(tensor_from_decomp(dec))


def test_certificate_random_reconstruction():
    for _ in range(150):
        t_count = 1 + below(rng, 5)
        k = 2 + below(rng, 2)
        dec = random_rank_decomp(3, k, t_count, rng.u64())
        cert = code_certificate(dec)
        assert cert.kernel_dim + cert.dual_dim == t_count


def test_certificate_dual_span_over_lane_chunks():
    # k = t - 6 = LANE_CHUNK_BITS + 2: the dual span, min_weight and the
    # outside check bias_exact all run over several lane chunks
    k = LANE_CHUNK_BITS + 2
    for seed in (61, 62):
        dec = random_rank_decomp(3, k, k + 6, seed)
        cert = code_certificate(dec)
        rank_a = rank_of_row_ints(term.vectors[0].bits for term in dec.terms)
        assert rank_a > LANE_CHUNK_BITS
        assert (cert.dual_dim, cert.kernel_dim) == (rank_a, dec.t - rank_a)
        assert cert.reconstructed_bias == bias_exact(tensor_from_decomp(dec))


def _certificate_family():
    """Seeded d=3 decompositions: t below, at and above k, and the
    degenerate shapes (repeated terms, a zero first-block vector, an
    all-zero first block with dual dimension 0)."""
    draws = Prng(2323)
    for k in range(1, 7):
        for t_count in (0, 1, k - 1, k, k + 2, 2 * k + 2):
            yield random_rank_decomp(3, k, t_count, draws.u64())
        terms = random_rank_decomp(3, k, k + 1, draws.u64()).terms
        yield RankDecomposition(3, k, terms + terms[:2])
        zero = BitVec(k, 0)
        yield RankDecomposition(3, k, terms + (RankOneTerm((zero,) + terms[0].vectors[1:]),))
        yield RankDecomposition(3, k, tuple(RankOneTerm((zero,) + term.vectors[1:])
                                            for term in terms))


def test_certificate_bias_is_the_exact_bias():
    # outside check: the certificate never calls bias_exact
    duals = set()
    for dec in _certificate_family():
        cert = code_certificate(dec)
        bias = bias_exact(tensor_from_decomp(dec))
        assert cert.reconstructed_bias == bias, dec
        assert cert.lower_bound == rank_lb_bias(bias, 3)
        duals.add(cert.dual_dim)
    assert min(duals) == 0 and max(duals) == 6


def test_certificate_premise_faults_raise(monkeypatch):
    dec = random_rank_decomp(3, 3, 5, 44)
    code_certificate(dec)
    real_dual = rank_mod.dual_space

    def shifted_dual(s):
        # same dimension, but not the row space of the first-block matrix
        dual = real_dual(s)
        other = f2linalg.echelonize([1 << j for j in range(dual.dim)], s.ambient_dim)
        assert other != dual
        return other

    monkeypatch.setattr(rank_mod, "dual_space", shifted_dual)
    with pytest.raises(InvariantError, match="bias identity violated"):
        code_certificate(dec)
    monkeypatch.undo()
    built = []

    def skip_first_term(vectors, k):
        # the contraction helper's pair of term 0 goes missing
        built.append(vectors)
        return 0 if len(built) == 1 else outer_bits(vectors, k)

    monkeypatch.setattr(rank_mod, "outer_bits", skip_first_term)
    with pytest.raises(InvariantError, match="bias identity violated"):
        code_certificate(dec)
    assert len(built) == dec.t


def test_certificate_ranks_the_dual_span_once(monkeypatch):
    decs = [*_certificate_family(), random_rank_decomp(3, 9, 12, 45)]
    # a 16 KiB budget splits the span of dimension 9 into 128-lane chunks;
    # one walk process, so every chunk is ranked where the lanes are counted
    monkeypatch.setenv("F2LAB_BUDGET_BYTES", "16384")
    monkeypatch.setattr(f2linalg, "_usable_cpus", lambda: 1)

    def no_bias_exact(t):
        raise AssertionError("the certificate ranked the slices again")

    monkeypatch.setattr(rank_mod, "bias_exact", no_bias_exact)
    lanes = []
    real = f2linalg._batched_rank_histogram

    def counted(planes, nrows, ncols, nlanes):
        lanes.append(nlanes)
        return real(planes, nrows, ncols, nlanes)

    monkeypatch.setattr(f2linalg, "_batched_rank_histogram", counted)
    for dec in decs:
        lanes.clear()
        cert = code_certificate(dec)
        assert sum(lanes) == (1 << cert.dual_dim if cert.dual_dim else 0)
    assert lanes == [128] * 4


def test_certificate_json():
    dec = next(iter(decompositions(trace_tensor(2), 3)))
    payload = code_certificate(dec).to_dict()
    assert payload["method"] == "code"
    assert payload["reconstructed_bias"] == "7/2^4"
    assert payload["kernel_dim"] == 1


@pytest.mark.parametrize("n", [0, -1])
def test_rank_count_rejects_sizes_below_one(n):
    with pytest.raises(ValueError, match="n >= 1"):
        rank_count(n)


def test_rank_count_small():
    assert rank_count(1).counts == (1, 1)
    assert rank_count(2).counts == (1, 9, 6)
    assert rank_count(3).counts == (1, 49, 294, 168)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rank_count_matches_enumeration(n):
    counts = [0] * (n + 1)
    for bits in range(1 << (n * n)):
        counts[mat_rank(bits, n, n)] += 1
    assert tuple(counts) == rank_count(n).counts


def test_corank_margin_documents_violation():
    rows = corank_bound_margin(2)
    r, exact, bound, ratio = rows[1]
    assert (r, exact, bound) == (1, D.from_ratio(9, 4), D.half_pow(1))
    assert ratio == pytest.approx(1.125)
    assert rows[2][3] <= 1.0
    assert corank_bound_margin(1)[0][1] == D.half_pow(1)


def test_corank_bound_values_and_slack():
    # 2^(-s^2) / prod_{i<=s} (1 - 2^-i)^2 by hand; Pr[corank = s] divided
    # by it is prod_{i<=n} (1 - 2^-i)^2 / prod_{i<=n-s} (1 - 2^-i), at most
    # 1/2, which n = 1, s = 0 reaches
    assert [corank_bound(s) for s in range(4)] == [1, 2, Fraction(4, 9), Fraction(8, 441)]

    def keep(m):  # prod_{i<=m} (1 - 2^-i)
        out = Fraction(1)
        for i in range(1, m + 1):
            out *= 1 - Fraction(1, 1 << i)
        return out

    worst = 0
    for n in range(1, 17):
        for r, exact, _, _ in corank_bound_margin(n):
            ratio = exact / corank_bound(n - r)
            assert ratio == keep(n) ** 2 / keep(r), (n, r)
            worst = max(worst, ratio)
    assert worst == Fraction(1, 2)


def test_matmul_bias_values():
    assert matmul_bias_exact(1) == D.from_ratio(3, 2)
    assert matmul_bias_exact(2) == D.from_ratio(29, 7)
    assert matmul_bias_exact(3).to_float() == pytest.approx(0.023529052734375)
    for n in (2, 3, 4):
        assert matmul_bias_exact(n).to_float() <= n * 2.0 ** (-3 * n * n / 4)


def test_mrrw_rank_lb():
    assert mrrw_rank_lb(0) == 0.0
    assert abs(mrrw_rank_lb(100) - 352.0) <= 1.0
    assert mrrw_rank_lb(24) > mrrw_rank_lb(12) > 0
