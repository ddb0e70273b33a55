"""Tensor rank for small instances and rank lower bounds.

Three rank routes live here:

* the exact slice-span search (`rank_exact`), ground truth at toy
  sizes (d=3, k <= 3, and the 2x2 matrix product);
* the bias ladder (`rank_lb_bias`): any tensor whose form has bias b
  has rank at least the first t with (1 - 2^(1-d))^t <= b, by exact
  rational comparison;
* the kernel/dual-code certificate (`code_certificate`): for a d=3
  decomposition, the first-block vectors define a matrix whose kernel K
  and dual code K-perp reconstruct the bias as
  (|K|/2^t) * sum_{v in K-perp} 2^-rank(M_v), ranking each M_v once
  and checking by equality the two premises that make this the bias;
  the certificate records the dual dimension and its minimum weight, the
  quantities a rate-distance bound converts into a rank lower bound.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import combinations, product
from math import prod
from typing import Iterator

from ._bitops import budget_bytes, int_bytes
from .bias import DyadicRational, _histogram_to_mean, bias_exact
from .errors import InvariantError, capped_power, check_capacity
from .f2linalg import (BitVec, _rref, dual_space, echelonize, kernel, min_weight,
                       rank_of_row_ints, span_rank_histogram)
from .numerics import mrrw_constant
from .report import fmt_dyadic
from .tensors import (DenseTensor, RankDecomposition, RankOneTerm, first_block_slices,
                      outer_bits, tensor_from_decomp)

RANK_COUNT_MAX_N = 16


@dataclass(frozen=True)
class RankBoundCertificate:
    """A checked tensor-rank lower bound and the data that witnesses it."""

    method: str                      # always "code"
    lower_bound: int
    kernel_dim: int
    dual_dim: int
    dual_min_weight: int
    reconstructed_bias: DyadicRational

    def to_dict(self) -> dict:
        return {**asdict(self), "reconstructed_bias": fmt_dyadic(self.reconstructed_bias)}


@dataclass(frozen=True)
class RankDistribution:
    """counts[r] = number of n x n matrices over F2 of rank r."""

    n: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if sum(self.counts) != 1 << (self.n * self.n):
            raise ValueError("counts do not cover all matrices")

    def prob(self, r: int) -> DyadicRational:
        return DyadicRational.from_ratio(self.counts[r], self.n * self.n)


# ---------------------------------------------------------------------------
# Exact rank search.
# ---------------------------------------------------------------------------


def _base_terms(d: int, k: int) -> list[int]:
    """All rank-one tensors with nonzero factor vectors (zero factors never
    help a minimal decomposition), packed, in the order of
    `product(range(1, 2^k), repeat=d)`: first factor slowest."""
    return [outer_bits(vs, k) for vs in product(range(1, 1 << k), repeat=d)]


def _factors(i: int, d: int, k: int) -> list[int]:
    """The factor vectors of rank-one i of `_base_terms`: the base 2^k - 1
    digits of i, first factor most significant, each plus one."""
    vs = []
    for _ in range(d):
        i, digit = divmod(i, (1 << k) - 1)
        vs.append(digit + 1)
    return vs[::-1]


def _check_search_size(d: int, k: int, m: int):
    """Refuse, before anything is listed, the sets of m of the (2^k-1)^d
    rank-one d-tensors (or the tensors alone, if more) beyond the budget,
    counted until past it (a refused count may be a lower bound),
    and rank-ones that would not fit the byte budget: each is a k^d-bit
    int (`int_bytes`) with 40 bytes of header and list slot, and up to
    four 16-byte slots of the search's lookup set.  Under tracemalloc
    `rank_exact` holds about 90 bytes a rank-one at k^d = 100."""
    nbase = ((1 << k) - 1) ** d
    what = f"rank search over sets of {m} of the {nbase} rank-one tensors"
    budget = budget_bytes()
    cap = max(1 << 12, budget // 64)
    sets, j = nbase, 1  # max(nbase, C(nbase, m))
    while j < min(m, nbase - m) and sets <= cap:
        sets, j = sets * (nbase - j) // (j + 1), j + 1  # C(n, j + 1) = C(n, j) (n - j) / (j + 1)
    check_capacity(what, sets, cap, "sets")
    check_capacity(what, nbase * (int_bytes(k ** d) + 104), budget, "bytes")


def _slice_span_search(span: list[int], rank_ones: list[int], width: int,
                       t_max: int) -> int | None:
    """Least r <= t_max for which a new r-dimensional W = S + span(r - dim S
    of the rank-ones) is spanned by the rank-ones inside it, else None."""
    lookup = set(rank_ones)
    for r in range(len(span), t_max + 1):
        seen: set[int] = set()  # each W of dimension r, RREF rows packed into one int
        for extra in combinations(rank_ones, r - len(span)):
            rows = _rref(span + list(extra))
            key = sum(row << (i * width) for i, row in enumerate(rows))
            if len(rows) < r or key in seen:
                continue
            seen.add(key)
            elements = [0]
            for row in rows:
                elements += [e ^ row for e in elements]
            if rank_of_row_ints(lookup.intersection(elements)) == r:
                return r
    return None


def rank_exact(t: DenseTensor, t_max: int) -> int | None:
    """Exact tensor rank if it is <= t_max, else None.

    rank(T) is the least r such that the span S of the first-block slices
    lies in the span of r rank-one (d-1)-tensors (Buergisser-Clausen-
    Shokrollahi); for d <= 2 it is s = dim S.  The C(#rank-ones, t_max - s)
    sets of rank-ones tried beyond S, and the bytes of the rank-ones and
    their lookup set, are guarded before any is listed.
    """
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    span = _rref(first_block_slices(t))
    s = len(span)
    if s > t_max:
        return None
    if t.d <= 2 or s == 0:
        return s
    _check_search_size(t.d - 1, t.k, t_max - s)
    return _slice_span_search(span, _base_terms(t.d - 1, t.k), t.k ** (t.d - 1), t_max)


def decompositions(t: DenseTensor, length: int) -> Iterator[RankDecomposition]:
    """All decompositions of `t` into `length` distinct rank-one terms.

    Direct enumeration of term combinations; guarded by the same budget
    as the rank search.
    """
    if t.d < 2:
        raise ValueError("decomposition search needs d >= 2")
    _check_search_size(t.d, t.k, length)
    base_bits = _base_terms(t.d, t.k)
    for idxs in combinations(range(len(base_bits)), length):
        acc = 0
        for i in idxs:
            acc ^= base_bits[i]
        if acc == t.bits:
            yield RankDecomposition(t.d, t.k, tuple(
                RankOneTerm(tuple(BitVec(t.k, v) for v in _factors(i, t.d, t.k)))
                for i in idxs))


def rank_lb_bias(bias: DyadicRational, d: int) -> int:
    """Rank lower bound from bias: 1 + max{t : (1 - 2^(1-d))^t > bias}.

    Exact rational ladder, no floating logarithms; any tensor of this
    bias has rank at least the returned value.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if not 0 < bias <= 1:
        raise ValueError("bias must lie in (0, 1]")
    c = DyadicRational.from_ratio((1 << (d - 1)) - 1, d - 1)  # 1 - 2^(1-d)
    power = 1
    t = 0
    while power > bias:
        t += 1
        power *= c
    return t


def code_certificate(decomp: RankDecomposition) -> RankBoundCertificate:
    """Kernel/dual-code certificate for a d=3 decomposition.

    Builds the k x t matrix A of first-block vectors, K = ker(A) and its
    dual, ranks M_v = sum_i v_i (y_i (x) z_i) once for every dual word v,
    and records the dual minimum weight.  The reconstruction is the bias
    exactly when two premises hold, and both are checked by equality
    before any dual word is enumerated: the dual is the row space of A,
    and M_a for row a of A is the matching first-block slice of the
    tensor.  Then the tensor's contraction at x is M_{x^T A}, so its 2^k
    contractions cover the dual span 2^(k - dim dual) times each.  When
    the tensor has no zero first-block contraction, dim K = t - k is
    checked too.
    """
    if decomp.d != 3:
        raise ValueError("code certificates are for 3-dimensional decompositions")
    k, t = decomp.k, decomp.t
    check_capacity(f"code_certificate(k={k})", capped_power(k, 24), 1 << 24, "dual codewords")
    a_cols = [term.vectors[0] for term in decomp.terms]
    a_rows = [0] * k
    for i, col in enumerate(a_cols):
        for r in range(k):
            if (col.bits >> r) & 1:
                a_rows[r] |= 1 << i
    ker = kernel(a_rows, t)
    dual = dual_space(ker)
    pairs = [outer_bits([u.bits for u in term.vectors[1:]], k) for term in decomp.terms]

    def contraction(v: int) -> int:
        """M_v = XOR of y_i (x) z_i over the set coordinates i of v."""
        m = 0
        for i, pair in enumerate(pairs):
            if (v >> i) & 1:
                m ^= pair
        return m

    slices = first_block_slices(tensor_from_decomp(decomp))
    if (echelonize(a_rows, t) != dual
            or [contraction(row) for row in a_rows] != slices):
        raise InvariantError("code-certificate bias identity violated")
    dmw = min_weight(dual)
    if dual.dim == 0:
        counts = [1]  # only v = 0, the zero matrix
    else:
        counts = span_rank_histogram([contraction(v) for v in dual.basis], k, k)
    # (|K| / 2^t) * sum_v 2^-rank(M_v)
    reconstructed = _histogram_to_mean(counts, t - ker.dim)
    # nondegenerate in the first block: no x != 0 kills the whole form,
    # i.e. the k first-index slices are linearly independent
    if rank_of_row_ints(slices) == k and ker.dim != t - k:
        raise InvariantError("kernel dimension should be t - k")
    return RankBoundCertificate(
        method="code",
        lower_bound=rank_lb_bias(reconstructed, 3),
        kernel_dim=ker.dim,
        dual_dim=dual.dim,
        dual_min_weight=dmw,
        reconstructed_bias=reconstructed)


def mrrw_rank_lb(k: int) -> float:
    """Asymptotic rank lower bound c* k for minimal-bias 3-tensors.

    c* = 1/rho* with rho* the fixed point of the rate-distance curve
    rho = h2(1/2 - sqrt(rho(1-rho))); applies when a tensor's
    certificate shows dual_dim = k and dual_min_weight >= k for a
    family of growing k.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    _, inv = mrrw_constant(1e-9)
    return inv * k


def rank_count(n: int) -> RankDistribution:
    """Exact rank counts of n x n matrices by the subspace product formula."""
    if n < 1:
        raise ValueError("rank_count needs n >= 1")
    check_capacity(f"rank_count(n={n})", n, RANK_COUNT_MAX_N, "matrix rows")
    counts = []
    for r in range(n + 1):
        surj = 1
        for i in range(r):
            surj *= (1 << n) - (1 << i)
        denom = 1
        for i in range(r):
            denom *= (1 << r) - (1 << i)
        counts.append(surj * surj // denom)
    return RankDistribution(n, tuple(counts))


def corank_bound(s: int) -> Fraction:
    """2^(-s^2) / prod_{i<=s} (1 - 2^-i)^2, a bound at every n on Pr[corank
    = s] of a uniform n x n matrix over F2, which is 2^(-s^2) times
    prod_{s<i<=n} (1 - 2^-i)^2 / prod_{i<=n-s} (1 - 2^-i)."""
    return Fraction(1, 1 << (s * s)) / prod(1 - Fraction(1, 1 << i) for i in range(1, s + 1)) ** 2


def corank_bound_margin(n: int) -> list[tuple[int, DyadicRational, DyadicRational, float]]:
    """Per-rank comparison of the exact rank probability against the
    2^-(n-r)^2 corank bound.

    That bound fails by a bounded constant factor at small n (e.g.
    9/16 > 1/2 at n=2, r=1), so it is only displayed; callers assert
    `corank_bound(n - r)`, which holds at every n.
    """
    dist = rank_count(n)
    rows = []
    for r in range(n + 1):
        exact = dist.prob(r)
        bound = DyadicRational.half_pow((n - r) ** 2)
        ratio = float(exact) / float(bound)
        rows.append((r, exact, bound, ratio))
    return rows


def matmul_bias_exact(n: int) -> DyadicRational:
    """Bias of the n x n matrix product tensor via the rank distribution.

    sum_r counts[r] 2^(-n r) / 2^(n^2), exactly; cross-checked against
    the generic tensor path for n <= 2.
    """
    dist = rank_count(n)
    num = 0
    for r, c in enumerate(dist.counts):
        num += c << (n * (n - r))
    value = DyadicRational.from_ratio(num, n * n + n * n)
    if n <= 2:
        # imported here so that perfbench, which traces tensors.matmul_tensor, sees the call
        from .tensors import matmul_tensor
        if value != bias_exact(matmul_tensor(n)):
            raise InvariantError("matmul bias disagrees with the generic tensor route")
    return value
