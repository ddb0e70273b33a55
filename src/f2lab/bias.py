"""Exact and Monte-Carlo bias/correlation of multilinear forms.

Every exact probability here is a dyadic rational held as an integer
numerator over a power-of-two denominator, so equality with closed
forms is literal, not approximate.

Two exact routes check each other:

* `bias_bruteforce` popcounts truth tables over all 2^(kd) inputs: the
  first-block slice tables from `_bitops.form_table`, XORed in Gray
  order over the first block.  It knows nothing about ranks.
* `bias_exact` enumerates only the first d-2 blocks; each residual
  bilinear form contributes 2^-rank, computed by the bit-sliced batched
  rank kernel.  All contributions are nonnegative probabilities, so the
  absolute value in the definition never needs a sign.

At d = 3 the two share no code; from d = 4 on both build tables with
`form_table`, which the tests check input by input against `evaluate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from ._bitops import (anf_table, budget_bytes, form_table, gray_flips,
                      linear_form_table, ones, var_mask)
from .errors import CapacityError
from .f2linalg import BitMatrix, mat_rank, span_rank_histogram, _batched_rank_histogram
from .prng import Prng
from .tensors import DenseTensor, Polynomial, first_block_slices

BRUTEFORCE_MAX_BITS = 30  # full-table enumerations up to 2^30 inputs
CORR_MAX_VARS = 26
CORR_CLASS_WORK_LOG2 = 40  # corr_class_max: class size x 2^n table bits XORed
_MC_BLOCK = 1 << 16            # Monte-Carlo samples per bit-sliced block,
_MC_PLANE_BITS = 8 << 20       # fewer when one block's d*k planes pass 1 MiB


@dataclass(frozen=True, order=False)
class DyadicRational:
    """Exact nonnegative value numerator / 2^exponent, kept reduced."""

    numerator: int
    exponent: int

    def __post_init__(self):
        if self.numerator < 0 or self.exponent < 0:
            raise ValueError("numerator and exponent must be nonnegative")
        if self.numerator == 0:
            if self.exponent != 0:
                raise ValueError("zero must carry exponent 0")
        elif self.numerator % 2 == 0 and self.exponent != 0:
            raise ValueError("numerator must be odd (reduced form)")

    @classmethod
    def from_ratio(cls, numerator: int, exponent: int) -> "DyadicRational":
        if numerator < 0:
            raise ValueError("negative value")
        if numerator == 0:
            return cls(0, 0)
        while numerator % 2 == 0 and exponent > 0:
            numerator //= 2
            exponent -= 1
        if exponent < 0:
            raise ValueError("value exceeds dyadic range")
        return cls(numerator, exponent)

    @classmethod
    def zero(cls) -> "DyadicRational":
        return cls(0, 0)

    @classmethod
    def one(cls) -> "DyadicRational":
        return cls(1, 0)

    @classmethod
    def half_pow(cls, e: int) -> "DyadicRational":
        """2^-e."""
        return cls(1, e)

    @classmethod
    def parse(cls, s: str) -> "DyadicRational":
        num, _, rest = s.partition("/")
        if not rest.startswith("2^"):
            raise ValueError(f"not a dyadic literal: {s!r}")
        return cls.from_ratio(int(num), int(rest[2:]))

    def _aligned(self, other: "DyadicRational") -> tuple[int, int, int]:
        e = max(self.exponent, other.exponent)
        return (self.numerator << (e - self.exponent),
                other.numerator << (e - other.exponent), e)

    def __add__(self, other: "DyadicRational") -> "DyadicRational":
        a, b, e = self._aligned(other)
        return DyadicRational.from_ratio(a + b, e)

    def __sub__(self, other: "DyadicRational") -> "DyadicRational":
        a, b, e = self._aligned(other)
        if a < b:
            raise ValueError("dyadic values here are nonnegative")
        return DyadicRational.from_ratio(a - b, e)

    def __mul__(self, other: "DyadicRational") -> "DyadicRational":
        return DyadicRational.from_ratio(self.numerator * other.numerator,
                                         self.exponent + other.exponent)

    def __pow__(self, e: int) -> "DyadicRational":
        if e < 0:
            raise ValueError("negative power")
        return DyadicRational.from_ratio(self.numerator ** e, self.exponent * e)

    def _cmp(self, other: "DyadicRational") -> int:
        a, b, _ = self._aligned(other)
        return (a > b) - (a < b)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def to_float(self) -> float:
        num = self.numerator
        e = self.exponent
        if num.bit_length() > 60:
            shift = num.bit_length() - 60
            num >>= shift
            e -= shift
        return math.ldexp(num, -e)

    def __str__(self):
        return f"{self.numerator}/2^{self.exponent}"


def dyadic_mean(values: Iterable[DyadicRational], log2_count: int) -> DyadicRational:
    """Exact mean of 2^log2_count values."""
    total = DyadicRational.zero()
    n = 0
    for v in values:
        total = total + v
        n += 1
    if n != 1 << log2_count:
        raise ValueError("value count is not 2^log2_count")
    return DyadicRational.from_ratio(total.numerator, total.exponent + log2_count)


@dataclass(frozen=True)
class BiasEstimate:
    """Monte-Carlo estimate of E(-1)^f with a Hoeffding interval.

    Cannot resolve biases much below 1/sqrt(samples); exact routes exist
    for that.
    """

    point: float
    ci_halfwidth: float
    samples: int
    confidence: float
    seed: int


def _hoeffding_halfwidth(samples: int, confidence: float) -> float:
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0,1)")
    return math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * samples))


# ---------------------------------------------------------------------------
# Exact bias: first d-2 blocks enumerated, residual matrices ranked in bulk.
# ---------------------------------------------------------------------------


def _histogram_to_mean(counts: Sequence[int], log2_batch: int) -> DyadicRational:
    """sum_r counts[r] 2^-r divided by 2^log2_batch, exactly."""
    top = len(counts) - 1
    num = 0
    for r, c in enumerate(counts):
        num += c << (top - r)
    return DyadicRational.from_ratio(num, top + log2_batch)


def _tail_matrix_planes(t: DenseTensor, prefix_bits: int) -> list[list[int]]:
    """Truth tables over the 2^prefix_bits prefixes of M(prefix)[i][j].

    Block r (0-based, r <= d-3) occupies bits [(d-3-r)k, (d-2-r)k) of the
    prefix index, so the first block is slowest, matching the flat
    layout of the tensor itself.  Entry (i, j) is itself a (d-2)-linear
    form of the prefix; its plane is that form's `form_table`.
    """
    k, d = t.k, t.d
    planes = [[0] * k for _ in range(k)]
    kk = k * k
    for i in range(k):
        for j in range(k):
            sub = 0
            pos = i * k + j
            for p in range(k ** (d - 2)):
                sub |= ((t.bits >> (p * kk + pos)) & 1) << p
            planes[i][j] = form_table(sub, d - 2, k)
    return planes


def bias_exact(t: DenseTensor, *, budget: int | None = None) -> DyadicRational:
    """|E (-1)^f_T| exactly.

    d=1 is 1 or 0 directly; d=2 is 2^-rank; for d >= 3 the first d-2
    blocks are enumerated and each residual bilinear form contributes
    2^-rank via the batched kernel.
    """
    k, d = t.k, t.d
    if d == 1:
        return DyadicRational.one() if t.bits == 0 else DyadicRational.zero()
    if d == 2:
        rows = first_block_slices(t)
        return DyadicRational.half_pow(mat_rank(BitMatrix.from_row_ints(rows, k)))
    prefix_bits = k * (d - 2)
    if prefix_bits > BRUTEFORCE_MAX_BITS:
        raise CapacityError(
            f"bias_exact needs 2^{prefix_bits} residual matrices "
            f"(guard 2^{BRUTEFORCE_MAX_BITS})",
            required=1 << prefix_bits, budget=1 << BRUTEFORCE_MAX_BITS)
    if d == 3:
        slices = first_block_slices(t)
        gens = [BitMatrix.from_row_ints(
                    [(s >> (i * k)) & ones(k) for i in range(k)], k)
                for s in slices]
        counts = span_rank_histogram(gens, budget=budget)
    else:
        plane_bytes = (k * k << prefix_bits) >> 3
        if plane_bytes > budget_bytes(budget):
            raise CapacityError(
                f"residual-matrix planes need {plane_bytes} bytes",
                required=plane_bytes, budget=budget_bytes(budget))
        planes = _tail_matrix_planes(t, prefix_bits)
        counts = _batched_rank_histogram(planes, k, k, 1 << prefix_bits)
    return _histogram_to_mean(counts, prefix_bits)


# ---------------------------------------------------------------------------
# Brute force over whole truth tables, and Monte Carlo.
# ---------------------------------------------------------------------------


def _bruteforce_bytes(k: int, d: int) -> int:
    """Bytes `bias_bruteforce` holds at once: 4 bytes per 30-bit digit of
    a table, 64 bytes of headers per piece `form_table` joins, and 4 KiB
    of frames and small lists."""
    if d == 1:  # the table, a variable mask being built and their XOR
        return 4096 + 5 * (4 * ((1 << k) // 30 + 1) + 64)
    pieces = 1 << k if d > 2 else 1
    # k slice tables, and the last one's list and join being built
    return 4096 + (k + 4) * (4 * ((1 << (k * d - k)) // 30 + 1) + 64 * pieces)


def bias_bruteforce(t: DenseTensor, *, budget: int | None = None) -> DyadicRational:
    """Bias by counting the ones of the form over all 2^(kd) inputs.

    d = 1 popcounts the linear form's table.  For d >= 2 the k first-block
    slices are tabulated over the other blocks (`form_table`); a Gray walk
    over the first block XORs one slice table into the residual table per
    step and popcounts it.  The tables must fit the byte budget.
    """
    k, d = t.k, t.d
    n = k * d
    if n > BRUTEFORCE_MAX_BITS:
        raise CapacityError(
            f"bias_bruteforce over 2^{n} inputs (guard 2^{BRUTEFORCE_MAX_BITS})",
            required=1 << n, budget=1 << BRUTEFORCE_MAX_BITS)
    required = _bruteforce_bytes(k, d)
    if required > budget_bytes(budget):
        raise CapacityError(
            f"bias_bruteforce holds {required} bytes of truth tables",
            required=required, budget=budget_bytes(budget))
    if d == 1:
        ones_count = linear_form_table(t.bits, k).bit_count()
    else:
        tables = [form_table(s, d - 1, k) for s in first_block_slices(t)]
        ones_count = residual = 0
        for flip in gray_flips(k):
            residual ^= tables[flip]
            ones_count += residual.bit_count()
    return DyadicRational.from_ratio(abs((1 << n) - 2 * ones_count), n)


def _sliced_form(bits: int, planes: list[list[int]], j: int, k: int) -> int:
    """f of the (d-j)-tensor `bits` on every sample of a block at once.

    planes[j][c] holds coordinate c of block j for all samples, sample s
    at bit s; bit s of the result is the form at sample s's blocks j..d-1.
    """
    if j == len(planes) - 1:
        out = 0
        while bits:
            low = bits & -bits
            out ^= planes[j][low.bit_length() - 1]
            bits ^= low
        return out
    step = k ** (len(planes) - 1 - j)
    mask = ones(step)
    out = 0
    for c in range(k):
        sub = (bits >> (c * step)) & mask
        if sub:
            out ^= planes[j][c] & _sliced_form(sub, planes, j + 1, k)
    return out


def bias_mc(t: DenseTensor, samples: int, confidence: float,
            seed: int) -> BiasEstimate:
    """Signed Monte-Carlo estimate of E(-1)^f_T with a Hoeffding CI.

    Bit-sliced: samples are drawn in blocks of up to 2^16, one plane per
    coordinate (block-major, coordinate-minor draw order, sample s at
    bit s), and the form is contracted over the planes, so a block costs
    about nnz(T) big-int AND/XORs.  The result depends only on the seed.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    halfwidth = _hoeffding_halfwidth(samples, confidence)
    k, d = t.k, t.d
    block = max(64, min(_MC_BLOCK, _MC_PLANE_BITS // (d * k)))
    rng = Prng(seed)
    acc = 0
    for start in range(0, samples, block):
        n = min(block, samples - start)
        planes = [[rng.bits(n) for _ in range(k)] for _ in range(d)]
        acc += n - 2 * _sliced_form(t.bits, planes, 0, k).bit_count()
    return BiasEstimate(point=acc / samples, ci_halfwidth=halfwidth,
                        samples=samples, confidence=confidence, seed=seed)


# ---------------------------------------------------------------------------
# Correlation with explicit polynomials.
# ---------------------------------------------------------------------------


def _input_bit(v: int, k: int, d: int) -> int:
    """Truth-table input bit of polynomial variable v: coordinate v % k of
    block v // k, with the first block at the high bits (`form_table`)."""
    j, i = divmod(v, k)
    return (d - 1 - j) * k + i


def corr_exact(t: DenseTensor, poly: Polynomial) -> DyadicRational:
    """Corr(f_T, P) = bias(f_T - P), from the popcount of the XOR of the
    2^n-bit truth tables of f_T and of P."""
    k, d = t.k, t.d
    n = k * d
    if poly.n != n:
        raise ValueError(f"polynomial has {poly.n} variables, form has {n}")
    if n > CORR_MAX_VARS:
        raise CapacityError(f"corr_exact over 2^{n} inputs (guard 2^{CORR_MAX_VARS})",
                            required=1 << n, budget=1 << CORR_MAX_VARS)
    anf = sum(1 << sum(1 << _input_bit(v, k, d) for v in mono)
              for mono in poly.monomials)  # distinct monomials: no carries
    ones_count = (form_table(t.bits, d, k) ^ anf_table(anf, n)).bit_count()
    return DyadicRational.from_ratio(abs((1 << n) - 2 * ones_count), n)


def _monomials_upto(n: int, degree: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    for deg in range(degree + 1):
        out.extend(combinations(range(n), deg))
    return out


def corr_class_max(t: DenseTensor, degree: int, *,
                   budget: int | None = None) -> tuple[DyadicRational, Polynomial]:
    """Exact max correlation over all multilinear polynomials of degree
    <= `degree`, with one maximizer.

    Enumerates the whole class; the class has 2^(#monomials) members and
    the guard message reports that size.  Each member costs one XOR and
    popcount of a 2^n-bit table, and that work is guarded too.
    """
    n = t.k * t.d
    if n > CORR_MAX_VARS:
        raise CapacityError(
            f"corr_class_max builds 2^{n}-bit truth tables "
            f"(guard 2^{CORR_MAX_VARS})",
            required=1 << n, budget=1 << CORR_MAX_VARS)
    monos = _monomials_upto(n, min(degree, n))
    class_bits = len(monos)
    limit = max(16, (8 * budget_bytes(budget)).bit_length() - 1)
    if class_bits > min(limit, 24):
        raise CapacityError(
            f"degree-{degree} class over {n} variables has 2^{class_bits} "
            f"polynomials; enumeration budget is 2^{min(limit, 24)}",
            required=1 << class_bits, budget=1 << min(limit, 24))
    if class_bits + n > CORR_CLASS_WORK_LOG2:
        raise CapacityError(
            f"degree-{degree} class over {n} variables needs 2^{class_bits + n} "
            f"table-bit XORs; work budget is 2^{CORR_CLASS_WORK_LOG2}",
            required=1 << (class_bits + n), budget=1 << CORR_CLASS_WORK_LOG2)
    ftab = form_table(t.bits, t.d, t.k)
    size = 1 << n
    mono_tables = []
    for mono in monos:
        mt = ones(size)
        for v in mono:
            mt &= var_mask(_input_bit(v, t.k, t.d), n)
        mono_tables.append(mt)

    best_num = abs(size - 2 * (ftab.bit_count()))
    best_set = 0
    cur = ftab
    subset = 0
    for flip in gray_flips(class_bits):
        cur ^= mono_tables[flip]
        subset ^= 1 << flip
        num = abs(size - 2 * cur.bit_count())
        if num > best_num:
            best_num = num
            best_set = subset
    witness = Polynomial.reduce(
        n, [monos[i] for i in range(class_bits) if (best_set >> i) & 1])
    return DyadicRational.from_ratio(best_num, n), witness
