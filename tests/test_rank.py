"""Rank search, the bias ladder, code certificates, rank distributions."""

import json
from itertools import product
from math import comb

import pytest

import f2lab.rank as rank_mod
from f2lab._bitops import budget_bytes
from f2lab.bias import DyadicRational as D, bias_exact
from f2lab.errors import CapacityError
from f2lab.f2linalg import LANE_CHUNK_BITS, BitVec, mat_rank, rank_of_row_ints
from f2lab.prng import Prng
from f2lab.rank import (_base_terms, code_certificate, corank_bound_margin, decompositions,
                        matmul_bias_exact, mrrw_rank_lb, rank_count,
                        rank_exact, rank_lb_bias)
from f2lab.tensors import (DenseTensor, RankDecomposition, RankOneTerm, matmul_tensor,
                           random_rank_decomp, random_tensor, tensor_from_decomp,
                           trace_tensor)
from oracles import below

rng = Prng(90210)


def test_base_terms_order():
    # decompositions() yields in this order: first factor slowest
    bits, vecs = _base_terms(3, 2)
    assert vecs == list(product(range(1, 4), repeat=3))
    assert bits[0] == 1 and bits[-1] == (1 << 8) - 1 and len(set(bits)) == 27


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
        cert = code_certificate(dec)  # internal equality assert
        assert cert.kernel_dim + cert.dual_dim == t_count


def test_certificate_dual_span_over_lane_chunks():
    # k = t - 6 = LANE_CHUNK_BITS + 2: the dual span, bias_exact and
    # min_weight all run over several lane chunks
    k = LANE_CHUNK_BITS + 2
    for seed in (61, 62):
        dec = random_rank_decomp(3, k, k + 6, seed)
        cert = code_certificate(dec)  # checks the bias identity itself
        rank_a = rank_of_row_ints(term.vectors[0].bits for term in dec.terms)
        assert rank_a > LANE_CHUNK_BITS
        assert (cert.dual_dim, cert.kernel_dim) == (rank_a, dec.t - rank_a)


def test_certificate_json():
    dec = next(iter(decompositions(trace_tensor(2), 3)))
    payload = code_certificate(dec).to_dict()
    assert payload["method"] == "code"
    assert payload["reconstructed_bias"] == "7/2^4"
    assert payload["kernel_dim"] == 1


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
