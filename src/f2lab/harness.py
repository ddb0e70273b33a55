"""Named, reproducible verification experiments.

Every experiment returns a VerificationReport from `numerics.make_report`
and states each assert as a `Check`, one per value compared: a sampled
extreme (the least bias) is one.  Exact statements (identities, closed
forms, finite bounds) are hard assertions; purely asymptotic statements
are displayed but never asserted (`report_only`), so a failing suite
always means a checkable statement broke.  Reports include the
measured/bound gap so a tightness regression is visible even while
everything still passes.

`EXPERIMENTS` is the one list of experiments, read by `run_all` and by
`f2lab verify NAME`: per report name, its function and argument rows.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import product
from math import comb, prod
from operator import mul
from typing import Sequence

from . import f2linalg
from ._bitops import form_table, linear_form_table, ones, var_mask
from .bias import DyadicRational, bias_bruteforce, bias_exact, bias_mc, corr_exact
from .errors import CapacityError, InvariantError, capped_power, check_capacity, check_sizes
from .f2linalg import Subspace, echelonize, rank_of_row_ints, sampled_rank_histogram
from .numerics import Check, f_dk_bound, inequality_checks, make_report, profile_max_check
from .prng import Prng
from .rank import (corank_bound, corank_bound_margin, matmul_bias_exact, rank_count,
                   rank_lb_bias)
from .report import VerificationReport, fmt_dyadic, fmt_float, timed
from .tensors import (DenseTensor, Polynomial, explicit_form_tensor, matmul_tensor,
                      outer_bits, random_rank_decomp, random_tensor,
                      tensor_from_decomp, trace_tensor)

MOMENT_TENSOR_BITS_LIMIT = 16      # 2^(k^d) tensors enumerated
CENSUS_STEPS_BITS = 24             # 2^24 steps of a sum census (`_census_work`)
TUPLE_BITS_LIMIT = 24              # 2^(k t d) vector tuples enumerated
ASSIGN_BITS_LIMIT = 22             # 2^(k d) assignments per instance
PREIMAGE_K_LIMIT = 16

D = DyadicRational


def _rank_one_census(d: int, k: int) -> dict[int, int]:
    """Each rank-one d-tensor (packed bits) -> the number of the (2^k)^d
    vector tuples whose outer product it is."""
    return Counter(outer_bits(vs, k) for vs in product(range(1 << k), repeat=d))


def _sum_census(d: int, k: int, t: int, one: dict[int, int] | None = None) -> dict[int, int]:
    """Each sum of t rank-one d-tensors -> the number of the (2^k)^(td)
    vector tuples giving it: the t-fold XOR convolution of the rank-one
    census `one`, built here unless given and not at all at t = 0."""
    sums = {0: 1}
    if t == 0:
        return sums
    one = _rank_one_census(d, k) if one is None else one
    for _ in range(t):
        nxt = Counter()
        for s, c in sums.items():
            for x, m in one.items():
                nxt[s ^ x] += c * m
        sums = nxt
    return sums


def _census_work(d: int, k: int, t: int, vanish: bool = False) -> int:
    """Steps of `_sum_census(d, k, t)`, or with `vanish` of `_vanish_count(d,
    k, t)`.  The census runs none at t = 0.  Else it enumerates the 2^(kd)
    tuples of `_rank_one_census`, then in round j < t makes one update for
    each of the at most min(2^(k^d), |R|^j) sums held and each of the |R| =
    (2^k - 1)^d + 1 distinct rank-ones (zero among them).  `_vanish_count`
    builds the rank-one census once, runs t - 1 rounds of the sum census
    on it and then dots the sums with it: |R| lookups.  Summed term by term
    until past 2^CENSUS_STEPS_BITS, so a refused count is a lower bound and
    builds no large int; 2^(kd) tuples past the cap count as
    2^(CENSUS_STEPS_BITS + 1)."""
    if t == 0:
        return 0
    if k * d > CENSUS_STEPS_BITS:
        return 1 << CENSUS_STEPS_BITS + 1
    tuples = 1 << k * d
    rank_ones = ((1 << k) - 1) ** d + 1
    rounds = t - vanish
    work = tuples + (rank_ones if vanish else 0)
    held = 1
    for _ in range(rounds):
        if work > 1 << CENSUS_STEPS_BITS:
            break
        work += held * rank_ones
        held = min(held * rank_ones, 1 << k ** d)
    return work


def _vanish_count(d: int, k: int, t: int) -> int:
    """`_sum_census(d, k, t)[0]`, the tuples whose t rank-ones sum to zero:
    a sum s of t - 1 plus a rank-one x is zero exactly when x = s, so it
    is the (t-1)-fold census dotted with the rank-one census, built once."""
    if t == 0:
        return 1
    one = _rank_one_census(d, k)
    sums = _sum_census(d, k, t - 1, one)
    return sum(m * sums.get(x, 0) for x, m in one.items())


def _span_bound(d: int, k: int, t: int, r: int, w):  # picklable, as every check bound
    """C(t, r) ((d + w)/2^k)^(t - r), w a power of 2 (`Check.power`)."""
    return comb(t, r) * ((d + w) / (1 << k)) ** (t - r)


def _refined_exact(d: int, k: int, w):  # f_{d,k} at w = 2^(u/k^(d-1)): 1 - c + c w/2^k
    a = ((1 << k) - 1) ** (d - 1)       # c = a/2^(k(d-1))
    return ((((1 << k * (d - 1)) - a) << k) + a * w) / (1 << k * d)


# ---------------------------------------------------------------------------
# Moment identity and vanishing-sum probabilities.
# ---------------------------------------------------------------------------


def verify_moment_identity(d: int, k: int, t: int) -> VerificationReport:
    """E over all tensors of bias^t equals Pr[sum of t random rank-one
    tensors is zero]; both sides by full enumeration, compared exactly."""
    check_sizes("moment-identity", ("d", d, 1), ("k", k, 1), ("t", t, 0))
    cells = k ** d
    what = f"moment-identity(d={d}, k={k}, t={t})"
    check_capacity(what, _census_work(d, k, t, vanish=True), 1 << CENSUS_STEPS_BITS,
                   "census steps")
    check_capacity(what, capped_power(cells, MOMENT_TENSOR_BITS_LIMIT),
                   1 << MOMENT_TENSOR_BITS_LIMIT, "tensors")
    lhs = sum(bias_exact(DenseTensor(d, k, x)) ** t for x in range(1 << cells)) / (1 << cells)
    rhs = D.from_ratio(_vanish_count(d, k, t), k * t * d)
    return make_report(
        "moment-identity", [("d", str(d)), ("k", str(k)), ("t", str(t))],
        [("moment", fmt_dyadic(lhs)), ("vanish_prob", fmt_dyadic(rhs))],
        ("equality", fmt_dyadic(rhs)), [Check("moment", lhs, "==", rhs)], "exhaustive")


def verify_sum_zero(d: int, k: int, t: int, eps: float = 0.5) -> VerificationReport:
    """Exact Pr[sum of t random rank-one d-tensors = 0] against its
    bounds.

    The in-proof bound ((d + 2^(t/k^(d-2)))/2^k)^t is always asserted;
    the headline 2^(-(1-eps/2)kt) is asserted only when its
    preconditions d < 2^(eps k/5), t < eps k^(d-1)/5 hold, and is
    otherwise displayed report-only.  Bounds and preconditions are decided
    exactly, eps read as the decimal it prints as (`power_at_most`).
    """
    check_sizes("sum-zero", ("d", d, 2), ("k", k, 1), ("t", t, 0))
    check_capacity(f"sum-zero(d={d}, k={k}, t={t})", _census_work(d, k, t, vanish=True),
                   1 << CENSUS_STEPS_BITS, "census steps")
    exact = D.from_ratio(_vanish_count(d, k, t), k * t * d)
    proof_bound = ((d + 2.0 ** (t / k ** (d - 2))) / 2.0 ** k) ** t
    headline = 2.0 ** (-(1.0 - eps / 2.0) * k * t)
    e = Fraction(str(eps))
    cut, power = e * k / 5, -(1 - e / 2) * k * t   # d < 2^cut; the headline is 2^power
    applies = d ** cut.denominator < Fraction(2) ** cut.numerator and t < e * k ** (d - 1) / 5
    checks = [Check("proof_bound", exact, "<=", partial(_span_bound, d, k, t, 0),
                    (t, k ** (d - 2)))]
    if applies:
        checks.append(Check("headline", exact, "<=", partial(mul, 1), power.as_integer_ratio()))
    return make_report(
        "sum-zero",
        [("d", str(d)), ("k", str(k)), ("t", str(t)), ("eps", fmt_float(eps))],
        [("exact", fmt_dyadic(exact)),
         ("headline", fmt_float(headline)),
         ("headline_asserted", "yes" if applies else "no")],
        ("proof_bound", fmt_float(proof_bound)), checks, "exhaustive")


# ---------------------------------------------------------------------------
# Rank-one tensors against subspaces.
# ---------------------------------------------------------------------------


def _random_subspace(ambient: int, dim: int, rng: Prng) -> Subspace:
    """Echelonized random vectors, rejecting draws of the wrong dimension."""
    if not 0 <= dim <= ambient:
        raise ValueError("dim out of range")
    while True:
        s = echelonize([rng.bits(ambient) for _ in range(dim)], ambient)
        if s.dim == dim:
            return s


def _membership_prob(s: Subspace, census: dict[int, int], tuple_bits: int) -> D:
    """Pr[a uniform vector tuple's outer product lies in s], from the
    rank-one `census` of the 2^tuple_bits tuples, which the caller builds
    once for all its subspaces."""
    hits = sum(c for x, c in census.items() if s.contains_bits(x))
    return D.from_ratio(hits, tuple_bits)


def verify_subspace_membership(d: int, k: int, subspace_dims: Sequence[int] | None,
                               trials: int, seed: int) -> VerificationReport:
    """Exact Pr[random rank-one tensor lies in U] for random subspaces U,
    against the refined bound f_{d,k}(dim U) (`power_at_most`), which
    `f_dk_bound` checks against its relaxation.  `min_gap_to_refined`
    skips dim U = 0 and k^d, where value and bound are equal.

    `subspace_dims=None` sweeps dim U from 0 to k^d in steps of
    max(1, k^d // 8).
    """
    check_sizes("subspace-membership", ("d", d, 1), ("k", k, 1))
    check_capacity(f"subspace-membership(d={d}, k={k})", capped_power(k * d, ASSIGN_BITS_LIMIT),
                   1 << ASSIGN_BITS_LIMIT, "tuples")
    ambient = k ** d
    if subspace_dims is None:
        subspace_dims = range(0, ambient + 1, max(1, ambient // 8))
    census = _rank_one_census(d, k)
    refined_exact = partial(_refined_exact, d, k)
    rng = Prng(seed)
    checks = []
    worst_gap = math.inf
    for u in subspace_dims:
        for _ in range(trials):
            pr = _membership_prob(_random_subspace(ambient, u, rng), census, k * d)
            checks.append(Check(f"Pr[in U], dim U={u}", pr, "<=", refined_exact,
                                (u, k ** (d - 1))))
            refined = f_dk_bound(d, k, float(u))
            if 0 < u < ambient:
                worst_gap = min(worst_gap, refined - float(pr))
    return make_report(
        "subspace-membership",
        [("d", str(d)), ("k", str(k)),
         ("dims", ",".join(map(str, subspace_dims))), ("trials", str(trials))],
        [("subspaces", str(len(checks))), ("min_gap_to_refined", fmt_float(worst_gap))],
        ("refined<=relaxed", "f_dk <= d/2^k + 2^(u/k^(d-1))/2^k"),
        checks, "exhaustive", samples=len(checks), seed=seed)


def verify_span_dimension(d: int, k: int, t: int) -> VerificationReport:
    """Exact distribution of dim span(T_1..T_t) for independent rank-one
    tensors, against the binomial-style bound for every r (exactly)."""
    check_sizes("span-dimension", ("d", d, 1), ("k", k, 1), ("t", t, 0))
    check_capacity(f"span-dimension(d={d}, k={k}, t={t})",
                   capped_power(k * t * d, TUPLE_BITS_LIMIT), 1 << TUPLE_BITS_LIMIT, "tuples")
    counts = [0] * (t + 1)
    for combo in product(_rank_one_census(d, k).items(), repeat=t):
        counts[rank_of_row_ints([x for x, _ in combo])] += prod(c for _, c in combo)
    total = k * t * d
    dist = [D.from_ratio(c, total) for c in counts]
    if sum(counts) != 1 << total:
        raise InvariantError("span-dimension counts do not cover every tuple")
    base = (d + 2.0 ** (t / k ** (d - 1))) / 2.0 ** k
    worst_ratio = max(float(pr) / (comb(t, r) * base ** (t - r)) for r, pr in enumerate(dist))
    return make_report(
        "span-dimension", [("d", str(d)), ("k", str(k)), ("t", str(t))],
        [("distribution", " ".join(map(fmt_dyadic, dist))),
         ("worst_ratio_to_bound", fmt_float(worst_ratio))],
        ("bound", "C(t,r) ((d + 2^(t/k^(d-1)))/2^k)^(t-r)"),
        [Check(f"Pr[dim={r}]", pr, "<=", partial(_span_bound, d, k, t, r), (t, k ** (d - 1)))
         for r, pr in enumerate(dist)], "exhaustive")


# ---------------------------------------------------------------------------
# Bias distribution of random forms.
# ---------------------------------------------------------------------------


def verify_bias_tail(d: int, k: int, eps: float, samples: int,
                     seed: int) -> VerificationReport:
    """Empirical Pr[bias >= 2^(-(1-eps)k)] over random tensors, with eps
    read as the decimal it prints as and the threshold decided exactly.

    The tail bound 2^(-eps^2 k^d / 20) is proof-internal and asymptotic,
    so it is displayed but never asserted.  For d = 2 the exact tail is
    available from the matrix rank distribution and the sampler must
    agree with it within 3 Hoeffding standard errors; that cross-check
    is the asserted part.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    power = -(1 - Fraction(str(eps))) * k     # the threshold is 2^power
    rng = Prng(seed)
    if d == 2:
        # a rank-r matrix has bias 2^-r; rank_count refuses a k beyond its
        # reach before anything is sampled
        dist = rank_count(k)
        tail = [r for r in range(k + 1) if r <= -power]
        p_exact = sum(dist.prob(r) for r in tail)
        ranks = sampled_rank_histogram(rng, samples, k, k)
        hits = sum(ranks[r] for r in tail)
    else:
        p, q = power.as_integer_ratio()  # bias >= 2^(p/q) is bias^q >= 2^p
        biases = (bias_exact(DenseTensor(d, k, rng.bits(k ** d))) for _ in range(samples))
        hits = sum(b ** q >= Fraction(2) ** p for b in biases)
    empirical = hits / samples
    displayed = 2.0 ** (-(eps * eps) * (k ** d) / 20.0)
    measured, checks = [("empirical", fmt_float(empirical))], []
    if d == 2:
        se3 = 3.0 / (2.0 * math.sqrt(samples))
        checks.append(Check("deviation", abs(empirical - float(p_exact)), "<=", se3))
        measured += [("exact_tail", fmt_dyadic(p_exact)), ("allowed_dev", fmt_float(se3))]
    return make_report(
        "bias-tail",
        [("d", str(d)), ("k", str(k)), ("eps", fmt_float(eps))],
        measured,
        ("asymptotic_tail_2^(-eps^2 k^d/20)", fmt_float(displayed)),
        checks, "monte-carlo", samples=samples, seed=seed, report_only=d != 2)


def verify_low_rank_bias_floor(d: int, k: int, t: int, trials: int,
                               seed: int) -> VerificationReport:
    """bias >= (1 - 2^(1-d))^t for tensors given with t rank-one terms,
    by exact rational comparison on random decompositions."""
    check_sizes("low-rank-bias-floor", ("d", d, 2), ("k", k, 1), ("t", t, 0))
    floor = D.from_ratio((1 << (d - 1)) - 1, d - 1) ** t
    rng = Prng(seed)
    min_bias = min((bias_exact(tensor_from_decomp(random_rank_decomp(d, k, t, rng.u64())))
                    for _ in range(trials)), default=1)
    return make_report(
        "low-rank-bias-floor",
        [("d", str(d)), ("k", str(k)), ("t", str(t)), ("trials", str(trials))],
        [("min_bias", fmt_dyadic(min_bias))], ("floor", fmt_dyadic(floor)),
        [Check("min_bias", min_bias, ">=", floor)], "exhaustive", samples=trials, seed=seed)


def verify_joint_vanishing(d: int, k: int, t: int, trials: int,
                           seed: int) -> VerificationReport:
    """Pr[all of t rank-one forms vanish] >= (1 - 2^-d)^t, with the
    probability computed exactly per random tuple."""
    check_sizes("joint-vanishing", ("d", d, 1), ("k", k, 1), ("t", t, 0))
    check_capacity(f"joint-vanishing(d={d}, k={k})", capped_power(k * d, ASSIGN_BITS_LIMIT),
                   1 << ASSIGN_BITS_LIMIT, "assignments")
    floor = D.from_ratio((1 << d) - 1, d) ** t
    rng = Prng(seed)
    min_pr = 1
    for _ in range(trials):
        forms = [[rng.bits(k) for _ in range(d)] for _ in range(t)]
        nonzero = 0  # inputs where some form is 1
        for form in forms:
            nonzero |= form_table(outer_bits(form, k), d, k)
        min_pr = min(min_pr, D.from_ratio((1 << (k * d)) - nonzero.bit_count(), k * d))
    return make_report(
        "joint-vanishing",
        [("d", str(d)), ("k", str(k)), ("t", str(t)), ("trials", str(trials))],
        [("min_prob", fmt_dyadic(min_pr))], ("floor", fmt_dyadic(floor)),
        [Check("min_prob", min_pr, ">=", floor)], "exhaustive", samples=trials, seed=seed)


def verify_expected_bias(d: int, k: int, t: int) -> VerificationReport:
    """Mean bias of a random t-term decomposition, over the sum census of
    all (2^k)^(td) vector tuples, asserted equal to its closed form
    1 - (1-2^-k)^d + (1-2^-k)^d (1-2^(1-d))^t, and the closed form asserted
    below the relaxed d 2^-k + (1-2^(1-d))^t."""
    check_sizes("expected-bias", ("d", d, 2), ("k", k, 1), ("t", t, 0))
    check_capacity(f"expected-bias(d={d}, k={k}, t={t})", _census_work(d, k, t),
                   1 << CENSUS_STEPS_BITS, "census steps")
    q = 1 - D.half_pow(k)
    floor = D.from_ratio((1 << (d - 1)) - 1, d - 1) ** t
    closed = (1 - q ** d) + q ** d * floor
    relaxed = D.from_ratio(d, k) + floor
    nbits = k * t * d
    mean = sum(c * bias_exact(DenseTensor(d, k, x))
               for x, c in _sum_census(d, k, t).items()) / (1 << nbits)
    return make_report(
        "expected-bias",
        [("d", str(d)), ("k", str(k)), ("t", str(t)), ("mode", "exhaustive")],
        [("mean", fmt_dyadic(mean)), ("closed_form", fmt_dyadic(closed)),
         ("relaxed", fmt_dyadic(relaxed))],
        ("equality", fmt_dyadic(closed)),
        [Check("mean", mean, "==", closed), Check("closed_form", closed, "<=", relaxed)],
        "exhaustive")


# ---------------------------------------------------------------------------
# The explicit tensors.
# ---------------------------------------------------------------------------


def verify_bias_trace(k: int) -> VerificationReport:
    """Bias of the field-trace tensor equals 2 2^-k - 2^-2k exactly, via
    the rank fast path and, where its tables fit the byte budget, a
    truth-table count."""
    formula = D.from_ratio((1 << (k + 1)) - 1, 2 * k)
    t = trace_tensor(k)
    fast = bias_exact(t)
    checks = [Check("fast", fast, "==", formula)]
    try:
        checks.append(Check("brute", bias_bruteforce(t), "==", formula))
    except CapacityError:
        pass  # tables over the byte budget: the fast route alone
    return make_report(
        "bias-trace", [("k", str(k)), ("routes", "+".join(c.label for c in checks))],
        [("bias", fmt_dyadic(fast))], ("formula", fmt_dyadic(formula)), checks, "exhaustive")


def verify_bias_matmul(n: int) -> VerificationReport:
    """Matrix-product tensor bias: rank-distribution formula, cross-checked
    by tensor routes at n <= 2, against the n 2^(-3n^2/4) bound (exactly);
    the rank lower bound implied by the ladder is displayed next to the
    asymptotic 1.8 n^2."""
    value = matmul_bias_exact(n)
    routes, checks = ["rank-distribution"], []
    if n <= 2:
        mt = matmul_tensor(n)
        routes += ["fast", "brute"]
        checks += [Check("fast", bias_exact(mt), "==", value),
                   Check("brute", bias_bruteforce(mt), "==", value)]
    if n >= 2:  # at n = 1 the exact bias 3/4 exceeds the bound: the routes alone
        checks.append(Check("bound", value, "<=", partial(mul, n), (-3 * n * n, 4)))
    return make_report(
        "bias-matmul", [("n", str(n)), ("routes", "+".join(routes))],
        [("bias", fmt_dyadic(value)), ("ladder_rank_lb", str(rank_lb_bias(value, 3))),
         ("asymptotic_1.8n^2", fmt_float(1.8 * n * n))],
        ("bound_n*2^(-3n^2/4)", fmt_float(n * 2.0 ** (-3.0 * n * n / 4.0))),
        checks, "closed-form", report_only=n == 1)


def _lifted_monomials(d: int, k: int) -> list[list[tuple[int, ...]]]:
    """For each block left out, the monomial of each flat index of a
    (d-1)-linear form on the other blocks: entry (i_1..i_(d-1)), first
    index slowest, is the sorted variables j*k + i_j of those blocks."""
    table = []
    for skip in range(d):
        blocks = [j for j in range(d) if j != skip]
        table.append([tuple(sorted(j * k + i for j, i in zip(blocks, idx)))
                      for idx in product(range(k), repeat=d - 1)])
    return table


def _lifted_form(d: int, k: int, rng: Prng,
                 monomials: list[list[tuple[int, ...]]]) -> Polynomial:
    """Random degree-(d-1) multilinear form as a sum over i of a random
    (d-1)-linear form on the blocks other than i: one `rng.bits(k^(d-1))`
    per block left out picks its monomials from `_lifted_monomials(d, k)`,
    which the caller builds once for all its forms.  Monomials of
    different blocks left out differ, so none cancels and the sorted
    picks are the reduced polynomial."""
    monos: list[tuple[int, ...]] = []
    for table in monomials:
        sub = rng.bits(k ** (d - 1))
        while sub:
            low = sub & -sub
            sub ^= low
            monos.append(table[low.bit_length() - 1])
    monos.sort()
    return Polynomial(k * d, tuple(monos))


def verify_explicit_form(d: int, k: int, samples: int,
                         seed: int) -> VerificationReport:
    """The product-then-project form: bias equals 1 - (1-2^-k)^(d-1)
    exactly, and its correlation with random degree-(d-1) multilinear
    forms never exceeds (d-1) 2^-k."""
    t = explicit_form_tensor(d, k)
    formula = 1 - (1 - D.half_pow(k)) ** (d - 1)
    cap = D.from_ratio(d - 1, k)
    monomials = _lifted_monomials(d, k)
    rng = Prng(seed)
    worst = max((corr_exact(t, _lifted_form(d, k, rng, monomials)) for _ in range(samples)),
                default=0)
    return make_report(
        "explicit-form",
        [("d", str(d)), ("k", str(k)), ("g_samples", str(samples))],
        [("bias", fmt_dyadic(formula)), ("max_correlation_seen", fmt_dyadic(worst))],
        ("correlation_cap", fmt_dyadic(cap)),
        [Check("bias", bias_exact(t), "==", formula), Check("max_correlation", worst, "<=", cap)],
        "exhaustive", samples=samples or None, seed=seed if samples else None)


def _preimage_counts(h: list[int], a: int, k: int, masks: list[int]) -> tuple[int, int]:
    """#{x : h(x) = a} and #{x : h(x) = 0} over the 2^k inputs x, where
    bit i of h(x) is the parity of h[i] & x.

    Bit-sliced over the inputs: row i's table is `linear_form_table`
    with the shared variable masks.  The fiber is where every table
    equals its bit of `a`, the AND of the tables or their complements;
    the kernel is the AND of the complements.
    """
    every = ones(1 << k)
    fiber = kernel = every
    for i, row in enumerate(h):
        table = linear_form_table(row, k, masks)
        fiber &= table if (a >> i) & 1 else every ^ table
        kernel &= every ^ table
    return fiber.bit_count(), kernel.bit_count()


def verify_linear_preimage(k: int, trials: int, seed: int) -> VerificationReport:
    """For linear maps h, no fiber beats the kernel:
    #{x : h(x) = a} <= #{x : h(x) = 0}, counted over all 2^k inputs
    (`_preimage_counts`)."""
    check_sizes("linear-preimage", ("k", k, 1))
    check_capacity(f"linear-preimage(k={k})", capped_power(k, PREIMAGE_K_LIMIT),
                   1 << PREIMAGE_K_LIMIT, "inputs")
    rng = Prng(seed)
    masks = [var_mask(v, k) for v in range(k)]
    def excess() -> int:  # #h^-1(a) - #h^-1(0) for a map h drawn first, then a point a
        fiber, kernel = _preimage_counts([rng.bits(k) for _ in range(k)], rng.bits(k), k, masks)
        return fiber - kernel

    return make_report(
        "linear-preimage", [("k", str(k)), ("trials", str(trials))],
        [("trials", str(trials))], ("fiber<=kernel", "#h^-1(a) <= #h^-1(0)"),
        [Check("fiber-kernel", max((excess() for _ in range(trials)), default=0), "<=", 0)],
        "exhaustive", samples=trials, seed=seed)


def verify_corank_margin(n: int) -> VerificationReport:
    """Exact Pr[rank = r] against the corank bound, for every r.

    Asserts Pr[corank = s] <= 2^(-s^2) / prod_{i<=s} (1 - 2^-i)^2
    (`corank_bound`) exactly in Fractions.  The ratios printed are to the
    plain 2^-(n-r)^2, which fails by a bounded factor at small n (1.125
    at n=2, r=1).
    """
    rows = corank_bound_margin(n)
    worst = max(r[3] for r in rows)
    cells = " ".join(f"r={r}:{fmt_float(ratio)}" for r, _, _, ratio in rows)
    return make_report(
        "corank-margin", [("n", str(n))],
        [("ratios", cells), ("worst_ratio", fmt_float(worst))],
        ("corank_bound", "2^(-s^2)/prod_{i<=s}(1-2^-i)^2 at s=n-r"),
        [Check(f"Pr[rank={r}]", exact, "<=", corank_bound(n - r)) for r, exact, _, _ in rows],
        "closed-form")


def verify_mc_bias(d: int, k: int, samples: int, seed: int) -> VerificationReport:
    """Monte-Carlo bias estimate of a random tensor is consistent with
    the exact value.

    Asserted at a 3.5-sigma band (sigma = 1/sqrt(samples), the worst
    case for a +-1 mean), so a single run is a stable regression check;
    the reported Hoeffding half-width, at 99% confidence, is the interval
    callers get.
    """
    confidence = 0.99
    t = random_tensor(d, k, seed ^ 0x5EED)
    exact = float(bias_exact(t))
    est = bias_mc(t, samples, confidence, seed)
    allowed = max(est.ci_halfwidth, 3.5 / math.sqrt(samples))
    return make_report(
        "mc-bias",
        [("d", str(d)), ("k", str(k)), ("confidence", fmt_float(confidence))],
        [("point", fmt_float(est.point)), ("exact", fmt_float(exact)),
         ("ci_halfwidth", fmt_float(est.ci_halfwidth))],
        ("allowed_dev", fmt_float(allowed)),
        [Check("deviation", abs(est.point - exact), "<=", allowed)], "monte-carlo",
        samples=samples, seed=seed)


# ---------------------------------------------------------------------------
# Suite driver.
# ---------------------------------------------------------------------------


# report name -> (experiment, quick rows, rows the full profile adds); a
# row is the experiment's positional arguments
EXPERIMENTS = {
    "moment-identity": (verify_moment_identity,
                        [(2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2), (3, 1, 2)],
                        [(2, 2, 3)]),
    "sum-zero": (verify_sum_zero, [(2, 1, 1), (2, 2, 2), (2, 4, 2), (3, 2, 2)],
                 [(3, 2, 3), (2, 3, 3)]),
    "subspace-membership": (verify_subspace_membership,
                            [(2, 2, None, 2, 1022), (2, 3, None, 2, 1023),
                             (3, 2, None, 2, 1032), (3, 3, list(range(28)), 2, 1033)],
                            []),
    "span-dimension": (verify_span_dimension, [(2, 2, 2), (2, 2, 3), (3, 2, 2)],
                       [(2, 3, 2), (2, 2, 4)]),
    "bias-tail": (verify_bias_tail, [(2, 8, 0.25, 10_000, 301)],
                  [(2, 8, 0.25, 40_000, 501), (2, 10, 0.2, 10_000, 502),
                   (3, 3, 0.3, 2_000, 503)]),
    "low-rank-bias-floor": (verify_low_rank_bias_floor,
                            [(2, 2, 2, 150, 406), (2, 3, 3, 150, 408),
                             (3, 2, 3, 150, 408), (3, 3, 4, 150, 410)],
                            [(2, 2, 5, 400, 709), (2, 3, 5, 400, 710),
                             (3, 2, 5, 400, 710), (3, 3, 5, 400, 711)]),
    "joint-vanishing": (verify_joint_vanishing,
                        [(3, 2, 3, 100, 302), (2, 3, 4, 100, 303)], []),
    "expected-bias": (verify_expected_bias,
                      [(2, 1, 1), (2, 1, 2), (2, 2, 1), (3, 2, 1)],
                      [(3, 2, 2), (2, 3, 5)]),
    "bias-trace": (verify_bias_trace, [(k,) for k in range(2, 21)], []),
    "bias-matmul": (verify_bias_matmul, [(n,) for n in range(1, 5)], []),
    "explicit-form": (verify_explicit_form,
                      [(3, 2, 200, 304), (4, 2, 100, 305), (3, 3, 100, 306)],
                      [(3, 2, 400, 505), (4, 2, 300, 506), (3, 3, 300, 507),
                       (2, 6, 200, 508)]),
    "linear-preimage": (verify_linear_preimage, [(4, 150, 307), (6, 100, 308)],
                        [(8, 200, 509)]),
    "corank-margin": (verify_corank_margin, [(2,), (3,), (4,)], []),
    "mc-bias": (verify_mc_bias, [(3, 4, 20_000, 309)], [(2, 8, 200_000, 510)]),
    "profile-max": (profile_max_check, [(2, 2.0), (5, 13.7)],
                    [(k, (i + 0.37) * k * k / 4.0) for k in range(1, 7) for i in range(4)]),
    "scalar-inequalities": (inequality_checks, [(4, 8)], [(6, 12)]),
}

PROFILES = ("quick", "full")


def run_all(profile: str) -> list[VerificationReport]:
    """Run every row of the named profile; reports sorted by name.

    Rows run on one process per usable CPU (one under `taskset -c 0`): the
    parent queues the row indices in one pipe, forks the other workers and
    takes rows as they do; each worker pickles its reports back.  Walks in
    this pool do not split, and each row's routes keep the whole byte
    budget, so reports do not depend on the CPU count and the pool may
    hold CPUs x budget.  A worker that exits nonzero is an InvariantError,
    and a row that raised runs again here, lowest first, so this raises as
    a loop over the rows would.  Experiments are called through this
    module's bindings, so a wrapper installed after import sees the call.
    `all(r.ok() for r in ...)` is the suite verdict.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; choose from {sorted(PROFILES)}")
    rows = [partial(timed, globals()[fn.__name__], *row)
            for fn, quick, full in EXPERIMENTS.values()
            for row in (quick + full if profile == "full" else quick)]
    queue, end = os.pipe()  # 2-byte row indices; a 64 KiB pipe holds 2^15
    os.write(end, b"".join(i.to_bytes(2, "little") for i in range(len(rows))))
    os.close(end)

    def take() -> dict:  # {i: report} of this process's rows, up to the first to raise (None)
        done = {}
        while rec := os.read(queue, 2):
            i = int.from_bytes(rec, "little")
            try:
                done[i] = rows[i]()
            except Exception:
                done[i] = None
                break
        return done

    workers, split, children = f2linalg._walk_workers(len(rows), 1), f2linalg._in_walk_worker, []
    try:
        if workers > 1:
            import pickle  # here only, as `signal` in `f2linalg._split_walk`
            f2linalg._in_walk_worker = True
        for _ in range(workers - 1):
            out, end = os.pipe()
            if (pid := os.fork()) == 0:
                try:
                    with open(end, "wb") as f:
                        pickle.dump(take(), f)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(end)
            children.append((pid, out))
        done = take()
        parts = [b"".join(iter(partial(os.read, out, 1 << 16), b"")) for _, out in children]
    except BaseException:
        import signal
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        f2linalg._in_walk_worker = split
        for fd in (queue, *(out for _, out in children)):
            os.close(fd)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _ in children]
    for worker, (code, part) in enumerate(zip(codes, parts), 1):
        if code:
            raise InvariantError(f"row worker {worker} of {workers} exited with status {code}")
        done.update(pickle.loads(part))
    return sorted((done[i] or rows[i]() for i in range(len(rows))),
                  key=lambda r: (r.name, r.params))
