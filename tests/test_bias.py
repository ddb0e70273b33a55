"""Bias and correlation: exact routes agree, closed forms hit exactly."""

import tracemalloc
from itertools import permutations

import pytest

from f2lab._bitops import anf_table, budget_bytes, form_table
from f2lab.bias import (_MC_BLOCK, CORR_CLASS_WORK_LOG2, BiasEstimate,
                        DyadicRational as D, bias_bruteforce, bias_exact,
                        bias_mc, corr_class_max, corr_exact)
from f2lab.errors import CapacityError
from f2lab.f2linalg import LANE_CHUNK_BITS, BitMatrix, BitVec, mat_rank
from f2lab.prng import Prng
from f2lab.tensors import (DenseTensor, Polynomial, RankDecomposition,
                           RankOneTerm, evaluate, explicit_form_tensor,
                           first_block_slices, matmul_tensor, random_tensor,
                           trace_tensor)

rng = Prng(31337)


class TestDyadicRational:
    def test_reduction_and_parse(self):
        assert str(D.from_ratio(4, 6)) == "1/2^4"
        assert D.from_ratio(0, 9) == D.zero()
        assert D.parse("29/2^7") == D.from_ratio(29, 7)
        with pytest.raises(ValueError):
            D(2, 1)   # not reduced
        with pytest.raises(ValueError):
            D(-1, 0)

    def test_arithmetic(self):
        assert D.from_ratio(7, 4) + D.from_ratio(1, 4) == D.from_ratio(1, 1)
        assert D.one() - D.from_ratio(1, 2) == D.from_ratio(3, 2)
        assert D.from_ratio(7, 4) * D.from_ratio(2, 3) == D.from_ratio(7, 6)
        assert D.from_ratio(3, 2) ** 3 == D.from_ratio(27, 6)
        with pytest.raises(ValueError):
            D.zero() - D.one()

    def test_ordering_exact(self):
        assert D.from_ratio(7, 4) > D.from_ratio(27, 6)   # 28/64 > 27/64
        assert D.from_ratio(1, 2) <= D.from_ratio(2, 3)
        assert D.from_ratio(7, 4).to_float() == 0.4375

    def test_integers_allowed(self):
        assert (D.one() + D.one()).to_float() == 2.0


def test_bias_zero_tensor():
    z = DenseTensor.zeros(3, 2)
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
        d = 1 + rng.below(4)
        k = 1 + rng.below(3)
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
                         + [(1, 4), (2, 4), (3, 4)])
def test_form_table_matches_evaluate(d, k):
    step = k ** (d - 1)
    for seed in (1, 2):
        t = random_tensor(d, k, 100 * d + 10 * k + seed)
        # clear the last first-block slice too, so zero slices are covered
        holed = DenseTensor(d, k, t.bits & ((1 << ((k - 1) * step)) - 1))
        for u in (t, holed):
            assert form_table(u.bits, d, k) == _form_table_reference(u)


def _table_bias(ones_count, n):
    return D.from_ratio(abs((1 << n) - 2 * ones_count), n)


@pytest.mark.parametrize("d,k", [(d, k) for d in range(1, 5) for k in range(1, 4)]
                         + [(1, 5), (2, 4)])
def test_bias_bruteforce_matches_per_input_count(d, k):
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
    spanning = [tuple(j * k + prng.below(k) for j in range(d)) for _ in range(3)]
    polys = [Polynomial(n, ()), Polynomial(n, ((),)),
             Polynomial.reduce(n, [(), (0,), (n - 1,), (0, n - 1)] + spanning),
             Polynomial.reduce(n, [sorted({prng.below(n) for _ in range(1 + prng.below(4))})
                                   for _ in range(8)])]
    for p in polys:
        ones_count = sum(((f >> x) & 1) ^ p.evaluate(_poly_assignment(x, k, d))
                         for x in range(1 << n))
        assert corr_exact(t, p) == _table_bias(ones_count, n), p


@pytest.mark.parametrize("m", range(1, 7))
def test_anf_table_matches_polynomial_evaluate(m):
    prng = Prng(70 + m)
    for _ in range(4):
        p = Polynomial.reduce(m, [sorted({prng.below(m) for _ in range(prng.below(m + 1))})
                                  for _ in range(1 + prng.below(6))])
        anf = 0
        for mono in p.monomials:
            anf ^= 1 << sum(1 << v for v in mono)
        table = anf_table(anf, m)
        assert all((table >> x) & 1 == p.evaluate(x) for x in range(1 << m)), p


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


def _no_tables(*args):
    raise AssertionError("built a truth table before the guard")


def test_bias_bruteforce_guards_table_bytes(monkeypatch):
    monkeypatch.delenv("F2LAB_BUDGET_BYTES", raising=False)
    monkeypatch.setattr("f2lab.bias.form_table", _no_tables)
    monkeypatch.setattr("f2lab.bias.linear_form_table", _no_tables)
    # d = 30, k = 1: one 2^29-bit slice table alone is 64 MiB
    for t, budget in [(DenseTensor.zeros(30, 1), None),
                      (DenseTensor.zeros(1, 30), None),
                      (trace_tensor(9), 1 << 18)]:
        with pytest.raises(CapacityError) as ei:
            bias_bruteforce(t, budget=budget)
        assert ei.value.budget == budget_bytes(budget)
        assert ei.value.required > ei.value.budget
        assert ei.value.required >= (1 << (t.k * (t.d - 1))) // 8


@pytest.mark.parametrize("budget", [1 << 18, 1 << 20, 1 << 22])
def test_bias_bruteforce_peak_within_budget(budget):
    # every shape up to the first one the budget refuses
    for d in (1, 2, 3, 4, 6, 9):
        for k in range(1, 31):
            t = random_tensor(d, k, 90 * d + k)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                try:
                    bias_bruteforce(t, budget=budget)
                except CapacityError:
                    break
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert peak <= budget, (d, k, peak, budget)


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
        k = 2 + rng.below(5)
        t = random_tensor(2, k, rng.u64())
        r = mat_rank(BitMatrix.from_row_ints(first_block_slices(t), k))
        assert bias_exact(t) == D.half_pow(r)


def test_trilinear_bias_floor():
    for _ in range(400):
        k = 2 + rng.below(5)
        t = random_tensor(3, k, rng.u64())
        assert bias_exact(t) >= D.from_ratio((1 << (k + 1)) - 1, 2 * k)


def test_bias_capacity_guards():
    with pytest.raises(CapacityError):
        bias_bruteforce(DenseTensor.zeros(2, 16))
    with pytest.raises(CapacityError):
        bias_exact(DenseTensor.zeros(4, 16))


def test_bias_mc_zero_tensor_and_reproducibility():
    est = bias_mc(DenseTensor.zeros(3, 2), 200, 0.95, seed=4)
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
                if tr2.entry((i, j, l)):
                    monos.append((i, 2 + j, 4 + l))
    assert corr_exact(tr2, Polynomial.reduce(6, monos)) == D.one()
    z = DenseTensor.zeros(3, 2)
    assert corr_exact(z, Polynomial(6, ((0,),))) == D.zero()


def test_corr_exact_symmetry_under_difference():
    # bias(f - g) = bias(g - f): over F2 the difference is the same
    # function, so swapping the roles must not change anything
    t = random_tensor(2, 2, 17)
    p = Polynomial.reduce(4, [(0,), (1, 3)])
    v1 = corr_exact(t, p)
    zero = DenseTensor.zeros(2, 2)
    f_monos = []
    for i in range(2):
        for j in range(2):
            if t.entry((i, j)):
                f_monos.append((i, 2 + j))
    swapped = Polynomial.reduce(4, f_monos + list(p.monomials))
    assert corr_exact(zero, swapped) == v1


def test_corr_exact_validates_variables():
    with pytest.raises(ValueError):
        corr_exact(trace_tensor(2), Polynomial(5, ()))


def test_corr_exact_guards_table_size(monkeypatch):
    monkeypatch.setattr("f2lab.bias.form_table", _no_tables)
    monkeypatch.setattr("f2lab.bias.anf_table", _no_tables)
    with pytest.raises(CapacityError) as ei:
        corr_exact(DenseTensor.zeros(3, 9), Polynomial(27, ((),)))
    assert ei.value.required == 1 << 27
    assert ei.value.budget == 1 << 26


def test_corr_class_max_contains_self():
    t = random_tensor(2, 2, 5)
    val, _ = corr_class_max(t, 4)
    assert val == D.one()
    val, wit = corr_class_max(DenseTensor.zeros(2, 2), 0)
    assert val == D.one() and wit.monomials == ()


def test_corr_class_max_identity_affine():
    # both diagonal entries set: f = x1 y1 + x2 y2; every affine
    # polynomial sits at correlation exactly 1/4
    ident = DenseTensor(2, 2, 0b1001)
    val, wit = corr_class_max(ident, 1)
    assert val == D.from_ratio(1, 2)
    assert wit.degree() <= 1
    assert corr_exact(ident, wit) == val


def test_corr_class_max_guard_reports_size():
    with pytest.raises(CapacityError) as ei:
        corr_class_max(random_tensor(2, 4, 1), 4)
    assert "2^" in str(ei.value)
    # counts, like every other capacity error: 163 monomials of degree
    # <= 4 in 8 variables against the 2^24-member cap
    assert ei.value.required == 1 << 163
    assert ei.value.budget == 1 << 24


@pytest.mark.parametrize("seed", [3, 4])
def test_corr_class_max_degree_zero_is_bias(seed):
    # the degree-0 class is {0, 1}, so its maximum correlation is the bias
    t = random_tensor(3, 8, seed)
    val, wit = corr_class_max(t, 0)
    assert val == bias_exact(t)
    assert wit.degree() <= 0


def test_corr_class_max_affine_is_bias():
    # summing out the first block against a.x leaves the indicator of
    # {v(rest) = a}, whose mass is at most the kernel's: the affine class
    # maximum is the bias, reached by a route that shares no rank kernel
    prng = Prng(41)
    for k in range(1, 6):
        for _ in range(2):
            t = random_tensor(3, k, prng.u64())
            assert corr_class_max(t, 1)[0] == bias_exact(t)


def permute_blocks(t, perm):
    """The tensor whose block j is block perm[j] of t."""
    k, d = t.k, t.d
    out = 0
    for flat in range(k ** d):
        if (t.bits >> flat) & 1:
            idx = [(flat // k ** (d - 1 - j)) % k for j in range(d)]
            new = 0
            for j in range(d):
                new = new * k + idx[perm[j]]
            out |= 1 << new
    return DenseTensor(d, k, out)


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
    monkeypatch.setattr("f2lab.bias.form_table", no_tables)
    with pytest.raises(CapacityError) as ei:
        corr_class_max(DenseTensor.zeros(3, 9), 0)
    assert ei.value.required == 1 << 27
    assert ei.value.budget == 1 << 26


def test_corr_class_max_guards_work(monkeypatch):
    # degree 1 over 20 variables: 2^21 members, each a 2^20-bit table XOR
    def no_tables(*args):
        raise AssertionError("built a truth table before the guard")
    monkeypatch.setattr("f2lab.bias.form_table", no_tables)
    with pytest.raises(CapacityError) as ei:
        corr_class_max(DenseTensor.zeros(4, 5), 1)
    assert ei.value.required == 1 << 41
    assert ei.value.budget == 1 << CORR_CLASS_WORK_LOG2 == 1 << 40

