"""Bias and correlation: exact routes agree, closed forms hit exactly."""

from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from math import comb
import tracemalloc

import pytest

from f2lab._bitops import anf_pieces, budget_bytes, form_table, var_mask, walsh_spectrum
from f2lab import bias, f2linalg
from f2lab.bias import (_MC_BLOCK, _MC_PLANE_BITS, CORR_CLASS_WORK, EXACT_WORK, BiasEstimate,
                        DyadicRational as D, bias_bruteforce, bias_exact,
                        bias_mc, corr_class_max, corr_exact)
from f2lab.errors import CapacityError, InvariantError
from f2lab.f2linalg import LANE_CHUNK_BITS, BitVec, mat_rank
from f2lab.harness import _lifted_form, _lifted_monomials
from f2lab.prng import Prng
from f2lab.rank import code_certificate, matmul_bias_exact, rank_count
from f2lab.report import fmt_dyadic
from f2lab.tensors import (DenseTensor, Polynomial, RankDecomposition,
                           RankOneTerm, evaluate, explicit_form_tensor,
                           matmul_tensor, random_rank_decomp, random_tensor,
                           tensor_from_decomp, trace_tensor)
from oracles import (anf_table, below, bias_mc_per_plane, class_max_walk,
                     corr_whole_table, entry, permute_blocks, poly_eval,
                     random_invertible, walsh_sum)

rng = Prng(31337)


class TestDyadicRational:
    def test_reduction_and_str(self):
        assert str(D.from_ratio(4, 6)) == "1/2^4"
        assert D.from_ratio(0, 9) == D.zero()
        assert str(D.from_ratio(29, 7)) == "29/2^7"
        with pytest.raises(ValueError):
            D.from_ratio(-1, 0)
        with pytest.raises(ValueError):
            D.from_ratio(1, -1)

    def test_arithmetic(self):
        assert D.from_ratio(7, 4) + D.from_ratio(1, 4) == D.from_ratio(1, 1)
        assert D.one() - D.from_ratio(1, 2) == D.from_ratio(3, 2)
        assert D.from_ratio(7, 4) * D.from_ratio(2, 3) == D.from_ratio(7, 6)
        assert D.from_ratio(3, 2) ** 3 == D.from_ratio(27, 6)
        # a difference may leave the exact values' range; printing it is the fault
        assert D.zero() - D.one() == -1
        with pytest.raises(InvariantError):
            fmt_dyadic(D.zero() - D.one())

    def test_ordering_exact(self):
        assert D.from_ratio(7, 4) > D.from_ratio(27, 6)   # 28/64 > 27/64
        assert D.from_ratio(1, 2) <= D.from_ratio(2, 3)
        assert D.from_ratio(7, 4).to_float() == 0.4375

    def test_integers_allowed(self):
        assert float(D.one() + D.one()) == 2.0

    def test_compares_and_hashes_as_a_number(self):
        assert bias_exact(DenseTensor(3, 2, 0)) == 1
        assert D.half_pow(1) == Fraction(1, 2)
        assert D.half_pow(2) < 1 and 1 > D.half_pow(2)
        assert D.from_ratio(3, 3) >= Fraction(1, 3)
        assert hash(D.one()) == hash(1)
        assert hash(D.from_ratio(7, 4)) == hash(Fraction(7, 16))

    def test_from_ratio_matches_halving_loop(self):
        def halving(numerator, exponent):
            # the loop `from_ratio` used before its one shift, as the reference
            if numerator < 0:
                raise ValueError("negative value")
            if numerator == 0:
                return 0, 0
            while numerator % 2 == 0 and exponent > 0:
                numerator //= 2
                exponent -= 1
            if exponent < 0:
                raise ValueError("value exceeds dyadic range")
            return numerator, exponent

        for numerator in [-(3 << 200), -1, *range(65), 3 << 200]:
            for exponent in range(-2, 71):
                try:
                    want = halving(numerator, exponent)
                except ValueError as exc:
                    with pytest.raises(ValueError, match=f"^{exc}$"):
                        D.from_ratio(numerator, exponent)
                    continue
                got = D.from_ratio(numerator, exponent)
                assert (got.numerator, got.exponent) == want, (numerator, exponent)


# every route whose result the benchmark reads (`perfbench/workloads.py`):
# it takes the numerator, the exponent and the float of a DyadicRational
ROUTES = {
    "bias_exact-d1-one": lambda: bias_exact(DenseTensor(1, 3, 0)),
    "bias_exact-d1-zero": lambda: bias_exact(DenseTensor(1, 3, 0b101)),
    "bias_exact-d2": lambda: bias_exact(DenseTensor(2, 3, 0b100_010_000)),
    "bias_exact-d3": lambda: bias_exact(trace_tensor(5)),
    "bias_exact-d4": lambda: bias_exact(explicit_form_tensor(4, 2)),
    "bias_bruteforce": lambda: bias_bruteforce(trace_tensor(4)),
    "corr_exact": lambda: corr_exact(trace_tensor(2), Polynomial(6, ((0, 3), (1,)))),
    "corr_class_max": lambda: corr_class_max(trace_tensor(2), 1)[0],
    "corr_class_max-degree0": lambda: corr_class_max(trace_tensor(2), 0)[0],
    "code_certificate": lambda: code_certificate(
        random_rank_decomp(3, 3, 4, 7)).reconstructed_bias,
    "matmul_bias_exact": lambda: matmul_bias_exact(3),
    "rank_count-prob": lambda: rank_count(3).prob(2),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_routes_return_dyadic_rationals(route):
    value = ROUTES[route]()
    assert type(value) is D
    assert Fraction(value.numerator, 2 ** value.exponent) == value
    assert value.to_float() == float(Fraction(value.numerator, 2 ** value.exponent))


def test_bias_zero_tensor():
    z = DenseTensor(3, 2, 0)
    assert bias_exact(z) == D.one()
    assert bias_bruteforce(z) == D.one()


def test_bias_d1():
    assert bias_exact(DenseTensor(1, 3, 0)) == D.one()
    assert bias_exact(DenseTensor(1, 3, 0b101)) == D.zero()
    assert bias_bruteforce(DenseTensor(1, 3, 0b101)) == D.zero()


@pytest.mark.parametrize("k", range(1, 9))
def test_trace_bias_both_routes(k):
    want = D.from_ratio((1 << (k + 1)) - 1, 2 * k)
    t = trace_tensor(k)
    assert bias_exact(t) == want
    assert bias_bruteforce(t) == want


def test_matmul2_bias_both_routes():
    m2 = matmul_tensor(2)
    assert bias_exact(m2) == D.from_ratio(29, 7)
    assert bias_bruteforce(m2) == D.from_ratio(29, 7)


def test_rank_one_nonzero_bias():
    u = BitVec.from01("11")
    t = RankDecomposition(3, 2, (RankOneTerm((u, u, u)),))
    from f2lab.tensors import tensor_from_decomp
    assert bias_bruteforce(tensor_from_decomp(t)) == D.from_ratio(3, 2)


@pytest.mark.parametrize("d,k", [(d, k) for d in (2, 3, 4) for k in (1, 2, 3, 4)])
def test_explicit_form_bias(d, k):
    want = D.one() - (D.one() - D.half_pow(k)) ** (d - 1)
    assert bias_exact(explicit_form_tensor(d, k)) == want


def test_exact_equals_bruteforce_sweep():
    for _ in range(600):
        d = 1 + below(rng, 4)
        k = 1 + below(rng, 3)
        if k * d > 12:
            continue
        t = random_tensor(d, k, rng.u64())
        assert bias_exact(t) == bias_bruteforce(t)


def _form_table_reference(t):
    """Bit x of the table is f_T at the blocks packed in x, first block high."""
    k, d = t.k, t.d
    out = 0
    for x in range(1 << (k * d)):
        xs = [BitVec(k, (x >> ((d - 1 - j) * k)) & ((1 << k) - 1))
              for j in range(d)]
        out |= evaluate(t, xs) << x
    return out


@pytest.mark.parametrize("d,k", [(d, k) for d in range(1, 6) for k in range(1, 4)]
                         + [(1, 4), (2, 4), (3, 4), (1, 5), (2, 5)])
def test_form_table_matches_evaluate(d, k):
    # residual tables of 2^(k(d-1)) bits: below one byte at d = 2, k <= 2,
    # one byte at k = 3 and above it at k = 4, 5
    step = k ** (d - 1)
    for seed in (1, 2):
        t = random_tensor(d, k, 100 * d + 10 * k + seed)
        # clear the last first-block slice too, so zero slices are covered
        holed = DenseTensor(d, k, t.bits & ((1 << ((k - 1) * step)) - 1))
        for u in (t, holed):
            assert form_table(u.bits, d, k) == _form_table_reference(u)


def _table_bias(ones_count, n):
    return D.from_ratio(abs((1 << n) - 2 * ones_count), n)


def _no_ranks(*args):
    raise AssertionError("brute force ranked a matrix")


@pytest.mark.parametrize("d,k", [(d, k) for d in range(1, 5) for k in range(1, 4)]
                         + [(1, 5), (2, 4), (5, 1), (5, 2)])
def test_bias_bruteforce_matches_per_input_count(d, k, monkeypatch):
    # brute force shares no rank kernel with bias_exact
    for name in ("mat_rank", "span_rank_histogram", "_batched_rank_histogram"):
        monkeypatch.setattr(f"f2lab.bias.{name}", _no_ranks)
    step = k ** (d - 1)
    for seed in (1, 2):
        t = random_tensor(d, k, 200 * d + 10 * k + seed)
        # a zero first slice leaves a zero table on the most frequent flip
        holed = DenseTensor(d, k, t.bits >> step << step)
        for u in (t, holed):
            want = _table_bias(_form_table_reference(u).bit_count(), k * d)
            assert bias_bruteforce(u) == want


def _poly_assignment(x, k, d):
    """Polynomial variables j*k + i from the form's input x (block j of
    the form at bits [(d-1-j)k, (d-j)k) of x)."""
    out = 0
    for j in range(d):
        out |= ((x >> ((d - 1 - j) * k)) & ((1 << k) - 1)) << (j * k)
    return out


@pytest.mark.parametrize("d,k", [(1, 3), (2, 2), (2, 3), (3, 2), (4, 2), (3, 3)])
def test_corr_exact_matches_per_input_count(d, k):
    n = k * d
    prng = Prng(60 + 10 * d + k)
    t = random_tensor(d, k, prng.u64())
    f = _form_table_reference(t)
    spanning = [tuple(j * k + below(prng, k) for j in range(d)) for _ in range(3)]
    polys = [Polynomial(n, ()), Polynomial(n, ((),)),
             Polynomial.reduce(n, [(), (0,), (n - 1,), (0, n - 1)] + spanning),
             Polynomial.reduce(n, [sorted({below(prng, n) for _ in range(1 + below(prng, 4))})
                                   for _ in range(8)])]
    for p in polys:
        ones_count = sum(((f >> x) & 1) ^ poly_eval(p, _poly_assignment(x, k, d))
                         for x in range(1 << n))
        assert corr_exact(t, p) == _table_bias(ones_count, n), p


@pytest.mark.parametrize("m", range(1, 7))
def test_anf_table_matches_polynomial_evaluate(m):
    # anf_pieces at every split width, and the whole-table oracle, against
    # the polynomial evaluated input by input
    prng = Prng(70 + m)
    for _ in range(4):
        p = Polynomial.reduce(m, [sorted({below(prng, m) for _ in range(below(prng, m + 1))})
                                  for _ in range(1 + below(prng, 6))])
        masks = [sum(1 << v for v in mono) for mono in p.monomials]
        want = [poly_eval(p, x) for x in range(1 << m)]
        anf = 0
        for w in masks:
            anf ^= 1 << w
        table = anf_table(anf, m)
        assert [(table >> x) & 1 for x in range(1 << m)] == want, p
        for low in range(m + 1):
            pieces = anf_pieces(masks, m, low)
            assert len(pieces) == 1 << (m - low)
            assert [(pieces[x >> low] >> (x & ((1 << low) - 1))) & 1
                    for x in range(1 << m)] == want, (p, low)


@pytest.mark.parametrize("m", [0, 1, 2])
def test_anf_pieces_cancels_pairs_inside_narrow_buckets(m):
    # pieces of 2^m < 8 bits, one byte a bucket: a monomial flips bit
    # w & (2^m - 1) of its bucket, so a monomial given twice cancels there
    # and no bit of its high part reaches the piece
    n = m + 3
    prng = Prng(75 + m)
    for _ in range(30):
        masks = [below(prng, 1 << n) for _ in range(1 + below(prng, 8))]
        given = masks + masks[:1 + below(prng, len(masks))]
        anf = 0
        for w in given:
            anf ^= 1 << w
        pieces = anf_pieces(given, n, m)
        assert all(p >> (1 << m) == 0 for p in pieces), given
        assert sum(p << (x << m) for x, p in enumerate(pieces)) == anf_table(anf, n), given


@pytest.mark.parametrize("d", [2, 3, 4])
def test_corr_exact_of_a_form_is_bias_of_the_sum(d):
    # P_{T'} has one monomial per entry of T', so f_T - P_{T'} = f_{T ^ T'};
    # bias_exact reaches the same value through ranks, with no truth table
    prng = Prng(80 + d)
    for k in range(1, 13 // d + 1):
        n = k * d
        for _ in range(3):
            t = random_tensor(d, k, prng.u64())
            other = random_tensor(d, k, prng.u64())
            monos = []
            for flat in range(k ** d):
                if (other.bits >> flat) & 1:
                    idx = [(flat // k ** (d - 1 - j)) % k for j in range(d)]
                    monos.append(tuple(j * k + i for j, i in enumerate(idx)))
            p = Polynomial.reduce(n, monos)
            assert corr_exact(t, p) == bias_exact(DenseTensor(d, k, t.bits ^ other.bits))


def _random_monomials(prng, variables, count):
    return [sorted({variables[below(prng, len(variables))]
                    for _ in range(below(prng, 5))}) for _ in range(count)]


@pytest.mark.parametrize("d,ks", [(1, (1, 3, 8)), (2, (1, 3, 6)), (3, (1, 2, 4)),
                                  (4, (1, 2, 3)), (5, (1, 2)), (6, (4,)), (13, (2,))])
def test_corr_exact_matches_whole_table_oracle(d, ks):
    # the pieces of one ANF table of f_T + P against the popcount of the
    # whole 2^n-bit tables of f_T (`form_table`) and of P; at (6, 4) and
    # (13, 2) a random form sends thousands of monomials into the pieces,
    # checked with three of the polynomials (the whole tables take seconds)
    prng = Prng(90 + d)
    for k in ks:
        n = k * d
        first, rest = list(range(k)), list(range(k, n))
        polys = [[], [()], _random_monomials(prng, first, 6),
                 _random_monomials(prng, rest or first, 6), [tuple(range(n))],
                 _random_monomials(prng, list(range(n)), 60) + [tuple(range(n))]]
        tensors = [random_tensor(d, k, prng.u64()), DenseTensor(d, k, 0)]
        if n > 20:
            polys, tensors = polys[1::2], tensors[:1]
        for t in tensors:
            for monos in polys:
                p = Polynomial.reduce(n, monos)
                assert corr_exact(t, p) == D.from_ratio(*corr_whole_table(t, p)), (k, p)


def test_corr_exact_matches_whole_table_oracle_at_26_variables():
    prng = Prng(96)
    t = random_tensor(2, 13, prng.u64())
    p = Polynomial.reduce(26, _random_monomials(prng, list(range(26)), 40)
                          + [(0, 1), (2,), (13, 25), tuple(range(26))])
    assert corr_exact(t, p) == D.from_ratio(*corr_whole_table(t, p))


@pytest.mark.parametrize("case", ["explicit d=3 k=8, lifted", "dense d=2 k=12",
                                  "dense d=1 k=24"])
def test_corr_exact_peaks_below_a_table_and_a_half(case, monkeypatch):
    # the 2^24-bit table of f_T + P is held once, in pieces split at the
    # high min(k, n // 2) input bits, and never joined
    monkeypatch.delenv("F2LAB_BUDGET_BYTES", raising=False)
    if case.startswith("explicit"):
        t, p = explicit_form_tensor(3, 8), _lifted_form(3, 8, Prng(97), _lifted_monomials(3, 8))
    else:
        d = int(case[len("dense d=")])
        t = random_tensor(d, 24 // d, 98)
        p = Polynomial.reduce(24, _random_monomials(Prng(99), list(range(24)), 3000))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        corr_exact(t, p)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (1 << 24) / 8, peak


def _no_tables(*args):
    raise AssertionError("built a truth table before the guard")


def test_bias_bruteforce_guards_table_bytes(monkeypatch):
    monkeypatch.delenv("F2LAB_BUDGET_BYTES", raising=False)
    monkeypatch.setattr("f2lab.bias.form_table", _no_tables)
    monkeypatch.setattr("f2lab.bias.linear_form_table", _no_tables)
    # d = 30, k = 1: one 2^29-bit slice table alone is 64 MiB; trace k = 9
    # holds four 32 KiB tables at once
    for t, budget in [(DenseTensor(30, 1, 0), None),
                      (DenseTensor(1, 30, 0), None),
                      (trace_tensor(9), 1 << 17)]:
        if budget is None:
            monkeypatch.delenv("F2LAB_BUDGET_BYTES", raising=False)
        else:
            monkeypatch.setenv("F2LAB_BUDGET_BYTES", str(budget))
        with pytest.raises(CapacityError) as ei:
            bias_bruteforce(t)
        assert ei.value.budget == budget_bytes()
        assert ei.value.required > ei.value.budget
        assert ei.value.required >= (1 << (t.k * (t.d - 1))) // 8


@pytest.mark.parametrize("d,k", [(5, 1), (5, 2), (5, 3), (6, 1), (6, 2)])
def test_exact_equals_bruteforce_high_degree(d, k):
    # d >= 5 ranks residual matrices over (d-2)-linear planes
    for seed in range(4):
        t = random_tensor(d, k, 1000 * d + 10 * k + seed)
        assert bias_exact(t) == bias_bruteforce(t)
    e = explicit_form_tensor(d, k)
    assert bias_exact(e) == bias_bruteforce(e)


def test_bilinear_bias_is_rank_law():
    for _ in range(300):
        k = 2 + below(rng, 5)
        t = random_tensor(2, k, rng.u64())
        r = mat_rank(t.bits, k, k)
        assert bias_exact(t) == D.half_pow(r)


def test_trilinear_bias_floor():
    for _ in range(400):
        k = 2 + below(rng, 5)
        t = random_tensor(3, k, rng.u64())
        assert bias_exact(t) >= D.from_ratio((1 << (k + 1)) - 1, 2 * k)


@pytest.mark.parametrize("d, k", [(3, 12), (4, 8), (5, 4)])
def test_diagonal_tensors_reach_the_rank_bias_floor(d, k):
    # T_t = sum_{i<t} e_i^(x)d is t independent forms x1_i ... xd_i, each of
    # bias 1 - 2^(1-d): rank t with bias exactly (1 - 2^(1-d))^t, the least
    # value the floor allows at rank t
    for t in range(k + 1):
        terms = tuple(RankOneTerm((BitVec(k, 1 << i),) * d) for i in range(t))
        tensor = tensor_from_decomp(RankDecomposition(d, k, terms))
        assert bias_exact(tensor) == D.from_ratio(((1 << (d - 1)) - 1) ** t, (d - 1) * t)


def test_bias_capacity_guards():
    with pytest.raises(CapacityError):
        bias_bruteforce(DenseTensor(2, 16, 0))
    with pytest.raises(CapacityError):
        bias_exact(DenseTensor(4, 16, 0))


def _tail_plane_reference(t, c):
    """Base and delta planes of the d >= 4 walk, lane by lane from
    `evaluate`: lane (l, y) has x_1 = l (low c bits) at the high lane bits
    and x_2..x_{d-2} at the low ones, x_2 slowest; base entry (i, j) is
    T(x_1, x_2, ..., e_i, e_j) and delta a - c is T(e_a, x_2, ..., e_i, e_j)."""
    k, d = t.k, t.d
    inner = k * (d - 3)
    base = [[0] * k for _ in range(k)]
    deltas = [[[0] * k for _ in range(k)] for _ in range(k - c)]
    for lane in range(1 << (c + inner)):
        rest = [BitVec(k, (lane >> ((d - 4 - m) * k)) & ((1 << k) - 1))
                for m in range(d - 3)]
        for i in range(k):
            for j in range(k):
                tail = rest + [BitVec(k, 1 << i), BitVec(k, 1 << j)]
                base[i][j] |= evaluate(t, [BitVec(k, lane >> inner)] + tail) << lane
                for a in range(c, k):
                    deltas[a - c][i][j] |= evaluate(t, [BitVec(k, 1 << a)] + tail) << lane
    return base, deltas


@pytest.mark.parametrize("d,k", [(4, 2), (4, 3), (4, 4), (5, 2)])
def test_tail_matrix_planes_match_evaluate(d, k):
    # c = 0 and 1, and all k bits of x_1 in the lanes, as the default budget
    # gives these shapes
    for seed in (1, 2):
        t = random_tensor(d, k, 500 * d + 10 * k + seed)
        for c in sorted({0, 1, k}):
            assert bias._tail_matrix_planes(t, c) == _tail_plane_reference(t, c), (seed, c)


def test_bias_exact_reach_and_work_guard(monkeypatch):
    # d = 4, k = 12 ranks 2^24 residual matrices in 2^16-lane chunks at the
    # default budget; k = 16 is refused by the work guard before any plane;
    # one walk process, so every chunk is ranked where the lanes are counted
    monkeypatch.delenv("F2LAB_BUDGET_BYTES", raising=False)
    monkeypatch.setattr(f2linalg, "_usable_cpus", lambda: 1)
    lanes = []
    kernel = bias._batched_rank_histogram

    def chunk(planes, nrows, ncols, nlanes):
        lanes.append(nlanes)
        return kernel(planes, nrows, ncols, nlanes)
    monkeypatch.setattr(bias, "_batched_rank_histogram", chunk)
    want = D.one() - (D.one() - D.half_pow(12)) ** 3
    assert bias_exact(explicit_form_tensor(4, 12)) == want
    assert lanes == [1 << LANE_CHUNK_BITS] * (1 << (24 - LANE_CHUNK_BITS))

    def no_planes(*args):
        raise AssertionError("built planes before the guard")
    for name in ("_tail_matrix_planes", "_batched_rank_histogram",
                 "span_rank_histogram"):
        monkeypatch.setattr(f"f2lab.bias.{name}", no_planes)
    with pytest.raises(CapacityError) as ei:
        bias_exact(DenseTensor(4, 16, 0))
    assert ei.value.required == 16 * 16 << 32
    assert ei.value.budget == EXACT_WORK
    assert ei.value.required > ei.value.budget


def _counting(monkeypatch, calls, name):
    fn = getattr(bias, name)

    def counted(*args):
        calls[name] += 1
        return fn(*args)
    monkeypatch.setattr(bias, name, counted)


@pytest.mark.parametrize("budget", [1 << 13, 12 << 10, 1 << 15])
def test_bias_exact_walk_matches_bruteforce(budget, monkeypatch):
    # 32 KiB splits the d >= 4 walk into several chunks and delta steps even
    # at small k; 12 and 32 KiB contract x_1 where not even the narrowest
    # chunk fits, and under 8 KiB no contraction fits; one walk process, so
    # every chunk is counted here
    shapes = ([(4, k) for k in range(1, 8)] + [(5, k) for k in range(1, 6)]
              + [(6, k) for k in range(1, 5)])
    tensors = [random_tensor(d, k, 300 * d + k) for d, k in shapes]
    tensors += [explicit_form_tensor(d, k) for d, k in shapes]
    want = [bias_bruteforce(t) for t in tensors]
    calls = Counter()
    for name in ("_tail_matrix_planes", "_batched_rank_histogram",
                 "span_rank_histogram"):
        _counting(monkeypatch, calls, name)
    monkeypatch.setenv("F2LAB_BUDGET_BYTES", str(budget))
    monkeypatch.setattr(f2linalg, "_usable_cpus", lambda: 1)
    walked = stepped = contracted = 0
    refused = []
    for t, w in zip(tensors, want):
        calls.clear()
        try:
            got = bias_exact(t)
        except CapacityError as e:
            # contracting x_1 reaches a d = 3 span walk, whose 64-lane chunk
            # of k x k matrices, fixed costs and the contraction's held
            # bytes pass 8 KiB wherever it contracts, and 12 KiB from 13 KiB
            assert str(e).startswith(f"span_rank_histogram(nrows={t.k}"), e
            refused.append((t.d, t.k))
            continue
        assert got == w, (t, budget)
        walked += calls["_tail_matrix_planes"] == 1
        stepped += calls["_batched_rank_histogram"] > calls["_tail_matrix_planes"] > 0
        contracted += calls["_tail_matrix_planes"] > 1 or calls["span_rank_histogram"] > 0
    assert walked >= 4 and (contracted >= 4) == (budget > 1 << 13), (walked, contracted)
    assert (stepped >= 4) == (budget == 1 << 15), stepped
    assert refused == {1 << 13: [(4, 5), (4, 6), (4, 7), (5, 4), (5, 5), (6, 3), (6, 4)],
                       12 << 10: [(4, 6), (4, 7), (5, 5), (6, 4)], 1 << 15: []}[budget] * 2


def test_bias_exact_contracts_inner_lanes_past_the_chunk(monkeypatch):
    # with 2^6-lane chunks, the d = 4, k = 6 walk has inner blocks of 2^6
    # lanes and runs; at k = 7 the walk refuses them before building any
    # plane, and x_1 is contracted into d = 3 spans instead
    monkeypatch.setattr(f2linalg, "LANE_CHUNK_BITS", 6)
    calls = Counter()
    for name in ("_tail_matrix_planes", "span_rank_histogram"):
        _counting(monkeypatch, calls, name)
    for k, walked, spans in ((6, 1, 0), (7, 0, 1 << 7)):
        t = random_tensor(4, k, 400 + k)
        calls.clear()
        assert bias_exact(t) == bias_bruteforce(t), k
        assert (calls["_tail_matrix_planes"], calls["span_rank_histogram"]) == (walked, spans)


@pytest.mark.parametrize("budget", [None, 1 << 13])
def test_bias_exact_d4_block_permutation_invariant(budget, monkeypatch):
    # the 24 orders of the blocks put other slices in x_1, the lanes and the
    # residual matrices
    if budget is not None:
        monkeypatch.setenv("F2LAB_BUDGET_BYTES", str(budget))
    for k in (1, 2, 3):
        for seed in range(3):
            t = random_tensor(4, k, 700 + 10 * k + seed)
            want = bias_exact(t)
            for perm in permutations(range(4)):
                assert bias_exact(permute_blocks(t, perm)) == want, (k, seed, perm)


def test_bias_mc_zero_tensor_and_reproducibility():
    est = bias_mc(DenseTensor(3, 2, 0), 200, 0.95, seed=4)
    assert est.point == 1.0
    assert bias_mc(trace_tensor(3), 500, 0.9, seed=8) == bias_mc(
        trace_tensor(3), 500, 0.9, seed=8)


def test_bias_mc_tracks_exact_value():
    import math
    t4 = trace_tensor(4)
    est = bias_mc(t4, 100_000, 0.95, seed=11)
    assert abs(est.point - bias_exact(t4).to_float()) <= est.ci_halfwidth
    assert est.ci_halfwidth == pytest.approx(
        math.sqrt(math.log(2 / 0.05) / (2 * 100_000)))


def test_bias_mc_coverage():
    # statistical acceptance of the interval: on a high-bias target the
    # nominal level genuinely holds for the +-1 estimator
    t = DenseTensor(4, 1, 1)        # f = x1 x2 x3 x4, bias 7/8
    exact = bias_exact(t).to_float()
    hits = 0
    for rep in range(100):
        est = bias_mc(t, 2_000, 0.95, seed=1000 + rep)
        if abs(est.point - exact) <= est.ci_halfwidth:
            hits += 1
    assert hits >= 95


def test_bias_mc_depends_only_on_seed():
    t = trace_tensor(3)
    a = bias_mc(t, 999, 0.9, seed=5)
    assert a == bias_mc(t, 999, 0.9, seed=5)
    assert a.point != bias_mc(t, 999, 0.9, seed=6).point


def _bias_mc_reference(t, samples, seed):
    """Sum of 1 - 2 f(x) over the samples bias_mc draws, one evaluate call
    per sample: block-major planes of rng.bits(n), sample s at bit s."""
    k, d = t.k, t.d
    rng = Prng(seed)
    acc = 0
    for start in range(0, samples, _MC_BLOCK):
        n = min(_MC_BLOCK, samples - start)
        planes = [[rng.bits(n) for _ in range(k)] for _ in range(d)]
        for s in range(n):
            xs = [BitVec(k, sum(((p >> s) & 1) << c for c, p in enumerate(block)))
                  for block in planes]
            acc += 1 - 2 * evaluate(t, xs)
    return acc


@pytest.mark.parametrize("d,k,samples", [
    (1, 5, 700), (2, 3, 1000), (3, 3, _MC_BLOCK + 1001), (4, 2, 999)])
def test_bias_mc_matches_per_sample_evaluate(d, k, samples):
    t = random_tensor(d, k, 40 + d)
    est = bias_mc(t, samples, 0.95, seed=d)
    assert est.point == _bias_mc_reference(t, samples, d) / samples


@pytest.mark.parametrize("d,k,samples", [
    (3, 4, 100_000), (2, 8, 200_000), (2, 65, 2 * 64_527 + 1_001)])
def test_bias_mc_equals_the_per_plane_draws(d, k, samples):
    # a sample block's d*k planes cut from one Prng.words draw are the planes
    # d*k successive Prng.bits(n) calls give; at (2, 65) the planes' bits cap
    # the block at 64,527 samples, so each plane's last word is cut short
    assert (d, k) != (2, 65) or _MC_PLANE_BITS // (d * k) == 64_527
    t = random_tensor(d, k, 50 + k)
    assert bias_mc(t, samples, 0.99, seed=k) == bias_mc_per_plane(t, samples, 0.99, seed=k)


def test_bias_mc_rejects_bad_confidence_before_sampling(monkeypatch):
    def no_draws(seed):
        raise AssertionError("drew samples before validating confidence")
    monkeypatch.setattr("f2lab.bias.Prng", no_draws)
    for confidence in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError, match="confidence"):
            bias_mc(trace_tensor(2), 100, confidence, seed=1)


def test_corr_exact_cases():
    tr2 = trace_tensor(2)
    assert corr_exact(tr2, Polynomial(6, ())) == D.from_ratio(7, 4)
    monos = []
    for i in range(2):
        for j in range(2):
            for l in range(2):
                if entry(tr2, (i, j, l)):
                    monos.append((i, 2 + j, 4 + l))
    assert corr_exact(tr2, Polynomial.reduce(6, monos)) == D.one()
    z = DenseTensor(3, 2, 0)
    assert corr_exact(z, Polynomial(6, ((0,),))) == D.zero()


def test_corr_exact_symmetry_under_difference():
    # bias(f - g) = bias(g - f): over F2 the difference is the same
    # function, so swapping the roles must not change anything
    t = random_tensor(2, 2, 17)
    p = Polynomial.reduce(4, [(0,), (1, 3)])
    v1 = corr_exact(t, p)
    zero = DenseTensor(2, 2, 0)
    f_monos = []
    for i in range(2):
        for j in range(2):
            if entry(t, (i, j)):
                f_monos.append((i, 2 + j))
    swapped = Polynomial.reduce(4, f_monos + list(p.monomials))
    assert corr_exact(zero, swapped) == v1


def test_corr_exact_validates_variables():
    with pytest.raises(ValueError):
        corr_exact(trace_tensor(2), Polynomial(5, ()))


def test_corr_exact_guards_table_size(monkeypatch):
    monkeypatch.setattr("f2lab.bias._form_monomials", _no_tables)
    monkeypatch.setattr("f2lab.bias.anf_pieces", _no_tables)
    with pytest.raises(CapacityError) as ei:
        corr_exact(DenseTensor(3, 9, 0), Polynomial(27, ((),)))
    assert ei.value.required == 1 << 27
    assert ei.value.budget == 1 << 26
    # within the variable count, the byte budget refuses: a 2^22-bit table
    # alone is 512 KiB, even in 2^11 pieces
    monkeypatch.setenv("F2LAB_BUDGET_BYTES", str(1 << 18))
    with pytest.raises(CapacityError) as ei:
        corr_exact(DenseTensor(2, 11, 0), Polynomial(22, ((),)))
    assert ei.value.budget == 1 << 18
    assert ei.value.required > 3 * (1 << 20) // 8


def test_corr_class_max_contains_self():
    t = random_tensor(2, 2, 5)
    val, _ = corr_class_max(t, 4)
    assert val == D.one()
    val, wit = corr_class_max(DenseTensor(2, 2, 0), 0)
    assert val == D.one() and wit.monomials == ()


def test_corr_class_max_identity_affine():
    # both diagonal entries set: f = x1 y1 + x2 y2; every affine
    # polynomial sits at correlation exactly 1/4
    ident = DenseTensor(2, 2, 0b1001)
    val, wit = corr_class_max(ident, 1)
    assert val == D.from_ratio(1, 2)
    assert all(len(m) <= 1 for m in wit.monomials)
    assert corr_exact(ident, wit) == val


def test_corr_class_max_guard_reports_size():
    with pytest.raises(CapacityError) as ei:
        corr_class_max(random_tensor(2, 4, 1), 4)
    assert "2^" in str(ei.value)
    # counts, like every other capacity error: 163 monomials of degree
    # <= 4 in 8 variables, 154 of degree >= 2, so 2^154 transforms of
    # 8 x 2^8 fields against the 2^25-field cap
    assert ei.value.required == 8 << 162
    assert ei.value.budget == CORR_CLASS_WORK == 2**25


@pytest.mark.parametrize("degree", [-1, 0, 1, 2])
def test_corr_class_max_matches_whole_class_walk(degree):
    # the oracle walks every member but the constant, P and P + 1 tying;
    # the value and the least maximizer must agree (classes up to 2^16
    # members, kd <= 12)
    prng = Prng(90 + degree)
    for d in range(1, 13):
        for k in range(1, 12 // d + 1):
            n = k * d
            if sum(comb(n, j) for j in range(min(degree, n) + 1)) > 16:
                continue
            t = random_tensor(d, k, prng.u64())
            num, monos = class_max_walk(t, degree)
            val, wit = corr_class_max(t, degree)
            assert (val, wit) == (D.from_ratio(num, n), Polynomial.reduce(n, monos)), (d, k)


@pytest.mark.parametrize("seed", [3, 4])
def test_corr_class_max_degree_zero_is_bias(seed):
    # the degree-0 class is {0, 1}, so its maximum correlation is the bias
    t = random_tensor(3, 8, seed)
    val, wit = corr_class_max(t, 0)
    assert val == bias_exact(t)
    assert all(not m for m in wit.monomials)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_corr_class_max_affine_is_bias(d):
    # summing out the first block against a.x leaves the indicator of
    # {v(rest) = a}, whose mass is at most the kernel's: the affine class
    # maximum is the bias, reached by a route that shares no rank kernel
    prng = Prng(38 + d)
    for k in range(1, 15 // d + 1):
        for _ in range(2):
            t = random_tensor(d, k, prng.u64())
            assert corr_class_max(t, 1)[0] == bias_exact(t)


@pytest.mark.parametrize("n", range(9))
def test_walsh_spectrum_matches_direct_sum(n):
    # every field of the packed int and of the array, against the sum over
    # the inputs, for the all-zero, all-one and four random tables
    prng = Prng(120 + n)
    size = 1 << n
    for table in [0, (1 << size) - 1] + [prng.bits(size) for _ in range(4)]:
        fields, spectrum = walsh_spectrum(table, n)
        want = [walsh_sum(table, n, u) + size for u in range(size)]
        assert list(spectrum) == want, (n, table)
        assert [(fields >> (32 * u)) & 0xFFFFFFFF for u in range(size)] == want


def _full_rank_form(k, prng):
    rows = random_invertible(k, prng)
    return DenseTensor(2, k, sum(row << (i * k) for i, row in enumerate(rows)))


def test_corr_class_max_matches_whole_class_walk_on_flat_spectra():
    # a full-rank bilinear form has |W| = 2^k everywhere, so every linear
    # part is a maximizer and the least is 0; the zero tensor has W = 2^n
    # at 0 only
    prng = Prng(130)
    tensors = [_full_rank_form(k, prng) for k in (1, 2, 3, 4, 5)]
    tensors += [DenseTensor(2, k, sum(1 << (i * k + i) for i in range(k))) for k in (1, 3, 6)]
    tensors += [DenseTensor(d, k, 0) for d, k in ((1, 4), (2, 3), (3, 2), (4, 3))]
    for t in tensors:
        n = t.k * t.d
        num, monos = class_max_walk(t, 1)
        assert corr_class_max(t, 1) == (D.from_ratio(num, n), Polynomial.reduce(n, monos)), t


def test_corr_class_max_matches_whole_class_walk_at_odd_high_parity():
    # f_T itself at d = 2, with an odd number of entries: the one state
    # whose spectrum reaches 2^n takes an odd number of degree-2
    # monomials, and the witness is the form's own polynomial
    for t in (DenseTensor(2, 1, 1), DenseTensor(2, 2, 0b0001), DenseTensor(2, 2, 0b0111),
              DenseTensor(2, 2, 0b1110)):
        n = t.k * t.d
        num, monos = class_max_walk(t, 2)
        assert sum(len(m) == 2 for m in monos) % 2 == 1, t
        form = Polynomial.reduce(n, [(f // t.k, t.k + f % t.k) for f in range(t.k ** 2)
                                     if (t.bits >> f) & 1])
        assert corr_class_max(t, 2) == (D.one(), form) == (D.from_ratio(num, n),
                                                            Polynomial.reduce(n, monos)), t


@pytest.mark.parametrize("degree", [1, 2])
def test_class_max_spectrum_is_over_the_input_coordinates(degree, monkeypatch):
    # every field of every transform the walk runs: field a is W(u) of the
    # state's table over the inputs (`form_table`, degree-2 monomials XORed
    # in), u the linear part a with variable v at `form_table`'s input bit
    # of v; the witnesses of degree 1 are 0 from d = 2 on, so only this sees
    # the order of the blocks and the variables
    def input_bit(v):
        # coordinate v % k of block v // k, the first block at the high bits
        j, i = divmod(v, k)
        return (d - 1 - j) * k + i

    spectra = []

    def spy(table, n):
        fields, spectrum = walsh_spectrum(table, n)
        spectra.append(list(spectrum))
        return fields, spectrum
    monkeypatch.setattr(bias, "walsh_spectrum", spy)
    prng = Prng(140 + degree)
    max_vars = 8 if degree == 1 else 4
    for d in range(1, 5):
        for k in range(1, max_vars // d + 1):
            n = k * d
            size = 1 << n
            t = random_tensor(d, k, prng.u64())
            spectra.clear()
            corr_class_max(t, degree)
            pairs = list(combinations(range(n), 2)) if degree == 2 else []
            assert len(spectra) == 1 << len(pairs)
            form = form_table(t.bits, d, k)
            for state, spectrum in enumerate(spectra):
                high = state ^ (state >> 1)
                table = form
                for i, (v, w) in enumerate(pairs):
                    if (high >> i) & 1:
                        table ^= var_mask(input_bit(v), n) & var_mask(input_bit(w), n)
                for a in range(size):
                    u = sum(1 << input_bit(v) for v in range(n) if (a >> v) & 1)
                    assert spectrum[a] == walsh_sum(table, n, u) + size, (d, k, state, a)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_corr_class_max_degree_one_witness_is_zero(d):
    # from d = 2 on the bias is W(0) / 2^n, so the least linear part is 0:
    # classes of up to 2^16 members, beyond the whole-class oracle's reach
    prng = Prng(160 + d)
    for k in range(1, 15 // d + 1):
        t = random_tensor(d, k, prng.u64())
        assert corr_class_max(t, 1) == (bias_exact(t), Polynomial(k * d, ())), k


def test_corr_class_max_matches_whole_class_walk_on_the_benchmark_shape():
    t = random_tensor(3, 5, 131)
    num, monos = class_max_walk(t, 1)
    assert corr_class_max(t, 1) == (D.from_ratio(num, 15), Polynomial.reduce(15, monos))


@pytest.mark.parametrize("k", [LANE_CHUNK_BITS + 1, LANE_CHUNK_BITS + 2])
def test_bias_exact_block_permutation_invariant(k):
    # every order of the blocks gives other slices, so other lane chunks
    t = random_tensor(3, k, 50 + k)
    want = bias_exact(t)
    permuted = [permute_blocks(t, perm) for perm in permutations(range(3))]
    assert len({p.bits for p in permuted}) == 6
    for p in permuted:
        assert bias_exact(p) == want


def test_corr_class_max_guards_table_size(monkeypatch):
    def no_tables(*args):
        raise AssertionError("built a truth table before the guard")
    monkeypatch.setattr("f2lab.bias._form_monomials", no_tables)
    monkeypatch.setattr("f2lab.bias.anf_pieces", no_tables)
    with pytest.raises(CapacityError) as ei:
        corr_class_max(DenseTensor(3, 9, 0), 0)
    assert ei.value.required == 1 << 27
    assert ei.value.budget == 1 << 26


def test_corr_class_max_degree_one_runs_in_two_mib(monkeypatch):
    # 16 variables: the transform's 2^16 32-bit fields are 256 KiB an int,
    # and the call peaks near five of them
    monkeypatch.setenv("F2LAB_BUDGET_BYTES", str(2 << 20))
    t = random_tensor(2, 8, 7)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        val, wit = corr_class_max(t, 1)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2 << 20, peak
    assert (val, wit) == (bias_exact(t), Polynomial(16, ()))


def test_corr_class_max_guards_work(monkeypatch):
    # degree 1 over 21 variables: one transform of 21 x 2^21 fields
    def no_tables(*args):
        raise AssertionError("built a truth table before the guard")
    monkeypatch.setattr("f2lab.bias._form_monomials", no_tables)
    monkeypatch.setattr("f2lab.bias.anf_pieces", no_tables)
    with pytest.raises(CapacityError) as ei:
        corr_class_max(DenseTensor(3, 7, 0), 1)
    assert ei.value.required == 21 << 21
    assert ei.value.budget == 1 << 25


def test_corr_class_max_refuses_before_listing(monkeypatch):
    # degree 11 over 22 variables: 2,449,845 monomials of degree 2..11,
    # counted by binomial sums; neither the class nor a table is built, and
    # the count of 22 x 2^(22 + 2,449,845) fields is refused as
    # 22 x 2^(26 + 1024), `capped_power` of the states against the 26-bit cap
    def no_build(*args):
        raise AssertionError("listed monomials or built a table before the guard")
    monkeypatch.setattr("f2lab.bias._monomials_upto", no_build)
    monkeypatch.setattr("f2lab.bias.form_table", no_build)
    monkeypatch.setattr("f2lab.bias.var_mask", no_build)
    with pytest.raises(CapacityError) as ei:
        corr_class_max(random_tensor(1, 22, 7), 11)
    assert ei.value.required == 22 << 26 + 1024
    assert ei.value.budget == 1 << 25


def test_corr_class_max_degree_one_over_20_variables():
    # x . y over 10 + 10 variables is bent: |W| = 2^10 everywhere, so every
    # affine polynomial sits at correlation 2^-10; one 20 x 2^20-field
    # transform, within the work cap
    ident = DenseTensor(2, 10, sum(1 << (11 * i) for i in range(10)))
    val, wit = corr_class_max(ident, 1)
    assert val == D.half_pow(10)
    assert all(len(m) <= 1 for m in wit.monomials)
    assert corr_exact(ident, wit) == val


@pytest.mark.parametrize("d,degree,refused_k", [(3, 1, 7), (1, 2, 7)])
def test_corr_class_max_work_is_the_transforms(d, degree, refused_k, monkeypatch):
    # the guard's count, read from its refusal under a zero cap, against
    # the fields of the transforms the call runs, on every shape the cap
    # admits: the family grows until the cap refuses at refused_k
    cap = bias.CORR_CLASS_WORK
    spectrum = bias.walsh_spectrum
    transforms = []

    def spy(table, n):
        transforms.append(n)
        return spectrum(table, n)
    monkeypatch.setattr(bias, "walsh_spectrum", spy)
    for k in range(1, refused_k + 1):
        t = random_tensor(d, k, 150 + k)
        monkeypatch.setattr(bias, "CORR_CLASS_WORK", 0)
        with pytest.raises(CapacityError) as ei:
            corr_class_max(t, degree)
        monkeypatch.setattr(bias, "CORR_CLASS_WORK", cap)
        if k == refused_k:
            assert ei.value.required > cap
            break
        transforms.clear()
        corr_class_max(t, degree)
        assert sum(n << n for n in transforms) == ei.value.required, (d, k)
