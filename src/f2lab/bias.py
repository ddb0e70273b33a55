"""Exact and Monte-Carlo bias/correlation of multilinear forms.

Every exact probability here is a `DyadicRational`, a Fraction whose
denominator is a power of two, so equality with closed forms is
literal, not approximate.

Two exact routes check each other:

* `bias_bruteforce` counts the ones of the form from truth tables: the
  form is linear in the first block, so it is 1 at half of the first
  block exactly where some first-block slice is nonzero, and one popcount
  of the OR of the slice tables from `_bitops.form_table` over the other
  blocks gives the count.  It knows nothing about ranks.
* `bias_exact` ranges over the prefixes x_1..x_{d-2} only: at each, the
  form is the bilinear form of a residual k x k matrix and contributes
  2^-rank, computed by the bit-sliced batched rank kernel in chunks of
  at most 2^16 lanes: the span of the k slices of x_1, each a matrix at
  d = 3 and one per value of x_2..x_{d-2} from d = 4 on (`_span_walk`).
  All contributions are nonnegative probabilities, so the absolute value
  in the definition never needs a sign.

At d = 3 the two share no code; from d = 4 on both build tables with
`form_table`, which the tests check input by input against `evaluate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from ._bitops import (anf_pieces, budget_bytes, ctz, form_table, int_bytes,
                      linear_form_table, ones, repeat, subset_xor_table, var_mask,
                      walsh_spectrum)
from .errors import CapacityError, check_capacity
from .f2linalg import (LANE_CHUNK_BITS, _add, _batched_rank_histogram, _kernel_ints,
                       _span_walk, mat_rank, span_rank_histogram)
from .prng import Prng
from .report import fmt_dyadic
from .tensors import DenseTensor, Polynomial, first_block_slices

BRUTEFORCE_MAX_BITS = 30  # full-table enumerations up to 2^30 inputs
CORR_MAX_VARS = 26
CORR_CLASS_WORK = 1 << 25  # corr_class_max: 32-bit fields transformed, states x n x 2^n
_MC_BLOCK = 1 << 16            # Monte-Carlo samples per bit-sliced block,
_MC_PLANE_BITS = 8 << 20       # fewer when one block's d*k planes pass 1 MiB


class DyadicRational(Fraction):
    """An exact probability n/2^e: a Fraction with its exponent e and
    `fmt_dyadic` as its text.  Arithmetic gives plain Fractions."""

    __slots__ = ()
    __str__ = fmt_dyadic

    @classmethod
    def from_ratio(cls, numerator: int, exponent: int) -> "DyadicRational":
        """numerator / 2^exponent, reduced; a nonzero value needs exponent >= 0."""
        if numerator < 0:
            raise ValueError("negative value")
        if numerator and exponent < 0:
            raise ValueError("value exceeds dyadic range")
        return cls(numerator, 1 << max(exponent, 0))

    @classmethod
    def zero(cls) -> "DyadicRational":
        return cls(0)

    @classmethod
    def one(cls) -> "DyadicRational":
        return cls(1)

    @classmethod
    def half_pow(cls, e: int) -> "DyadicRational":
        """2^-e."""
        return cls(1, 1 << e)

    @property
    def exponent(self) -> int:
        return self.denominator.bit_length() - 1

    def to_float(self) -> float:
        return float(self)


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
# Exact bias: the residual matrices of every prefix, ranked in lane chunks.
# ---------------------------------------------------------------------------

# Work cap of `bias_exact`, in residual-matrix entries ranked (2^(k(d-2))
# prefixes x k^2 entries): the work at d = 3, k = 30, the largest shape the
# earlier guard of 2^30 residual matrices admitted.
EXACT_WORK = (30 * 30) << 30


def _histogram_to_mean(counts: Sequence[int], log2_batch: int) -> DyadicRational:
    """sum_r counts[r] 2^-r divided by 2^log2_batch, exactly."""
    top = len(counts) - 1
    num = 0
    for r, c in enumerate(counts):
        num += c << (top - r)
    return DyadicRational.from_ratio(num, top + log2_batch)


def _tail_matrix_planes(t: DenseTensor, c: int) -> tuple[list[list[int]],
                                                         list[list[list[int]]]]:
    """Built planes and delta plane sets of the d >= 4 span walk.

    Entry (i, j) of the residual matrix is a (d-2)-linear form of the
    prefix x_1..x_{d-2}; its slice at coordinate a of x_1 has a table t_a
    over the inner blocks x_2..x_{d-2}, the walk's inner lanes
    (`form_table`, x_2 slowest, with the k variable masks built once per
    call).  A lane is (l, y): l the low c bits of x_1 at the high lane
    bits, y the inner blocks at the low ones.  base[i][j] holds the XOR of
    t_a(y) over the bits a of l, the entry where the high bits of x_1 are
    0: the `subset_xor_table` of t_0..t_(c-1), built by doubling.
    deltas[a - c][i][j], for a >= c, holds t_a(y) at every lane, 2^c
    copies of t_a (`repeat`): the high generator the walk XORs in.
    """
    k, d = t.k, t.d
    kk = k * k
    inner = k ** (d - 3)
    mask = ones(inner)
    width = 1 << (k * (d - 3))
    masks = [var_mask(v, k) for v in range(k)]
    bits = format(t.bits, "b").zfill(t.size)[::-1]  # bits[n] is bit n of T
    base = [[0] * k for _ in range(k)]
    deltas = [[[0] * k for _ in range(k)] for _ in range(k - c)]
    for pos in range(kk):
        i, j = divmod(pos, k)
        entry = int(bits[pos::kk][::-1], 2)  # the (d-2)-tensor of entry (i, j)
        tabs = [form_table((entry >> (a * inner)) & mask, d - 3, k, masks)
                for a in range(k)]
        base[i][j] = subset_xor_table(tabs[:c], width)
        for a in range(c, k):
            deltas[a - c][i][j] = repeat(tabs[a], width, 1 << c)
    return base, deltas


def _prefix_rank_histogram(t: DenseTensor) -> list[int]:
    """hist[r] = number of prefixes x_1..x_{d-2} whose residual k x k
    matrix M[i][j] = T(x_1, ..., x_{d-2}, e_i, e_j) has rank r, for d >= 3.

    M is linear in x_1, the span of its k slices: at d = 3 the first-block
    slices (`span_rank_histogram`), from d = 4 on a matrix at every value
    of x_2..x_{d-2}, the inner lanes of the same `_span_walk`, with planes
    from `_tail_matrix_planes`.  Where the inner blocks pass
    2^LANE_CHUNK_BITS lanes, or the walk refuses its narrowest chunk
    (before it builds any plane), a Gray walk over the first-block slices
    contracts x_1 instead, one (d-1)-tensor per value.
    """
    k, d = t.k, t.d
    if d == 3:
        return span_rank_histogram(first_block_slices(t), k, k)
    inner = k * (d - 3)
    if inner <= LANE_CHUNK_BITS:
        try:
            return _span_walk(f"bias_exact(d={d}, k={k})", k, inner, k, k, k + 1,
                              lambda c: _tail_matrix_planes(t, c),
                              lambda planes, nlanes: _batched_rank_histogram(planes, k, k, nlanes),
                              _kernel_ints(k))
        except CapacityError:
            pass  # the contraction below
    counts = [0] * (k + 1)
    slices = first_block_slices(t)
    cur = 0
    for step in range(1 << k):
        if step:
            cur ^= slices[ctz(step)]
        _add(counts, _prefix_rank_histogram(DenseTensor(d - 1, k, cur)))
    return counts


def bias_exact(t: DenseTensor) -> DyadicRational:
    """|E (-1)^f_T| exactly.

    d = 1 is 1 or 0 directly and d = 2 is 2^-rank.  For d >= 3 the form
    at a prefix x_1..x_{d-2} is the bilinear form of the residual matrix
    M(prefix), whose bias is 2^-rank M; the mean over all 2^(k(d-2))
    prefixes comes from the rank histogram of `_prefix_rank_histogram`,
    which ranks the matrices in chunks of at most 2^LANE_CHUNK_BITS lanes
    that the byte budget can only shrink.  The guard counts work: the
    k^2 entries of every residual matrix, against `EXACT_WORK`.
    """
    k, d = t.k, t.d
    if d == 1:
        return DyadicRational.one() if t.bits == 0 else DyadicRational.zero()
    if d == 2:
        return DyadicRational.half_pow(mat_rank(t.bits, k, k))
    prefix_bits = k * (d - 2)
    check_capacity(f"bias_exact(d={d}, k={k})", k * k << prefix_bits, EXACT_WORK,
                   "residual-matrix entries")
    return _histogram_to_mean(_prefix_rank_histogram(t), prefix_bits)


# ---------------------------------------------------------------------------
# Brute force over whole truth tables, and Monte Carlo.
# ---------------------------------------------------------------------------


def _bruteforce_bytes(k: int, d: int) -> int:
    """Bytes `bias_bruteforce` holds at once: `int_bytes` of a table and
    64 bytes of header, and 4 KiB of frames and small lists.

    Up to d = 2 five tables of 2^k bits: the support and a linear table,
    a variable mask, their XOR and the OR.  From d = 3 on the support and
    the last doubling step of a slice table (`form_table`): its lower
    half, shifted upper half and OR, 3.5 tables counted as four; and the
    k variable masks of 2^k bits.
    """
    if d <= 2:
        return 4096 + 5 * (int_bytes(1 << k) + 64)
    return 4096 + 4 * (int_bytes(1 << (k * d - k)) + 64) + k * (int_bytes(1 << k) + 64)


def bias_bruteforce(t: DenseTensor) -> DyadicRational:
    """Bias by counting the ones of the form over all 2^(kd) inputs.

    d = 1 popcounts the linear form's table.  For d >= 2 the form is
    linear in the first block: at a point of the other blocks it is
    <x_1, v> with v the vector of first-block slice values there, so it
    is 1 at exactly half of the 2^k first-block values when v != 0 and
    nowhere when v = 0.  The k slice tables over the other blocks
    (`form_table`) are ORed into the support of v, and the ones of the
    form are 2^(k-1) times its popcount.  The tables must fit the byte
    budget.
    """
    k, d = t.k, t.d
    n = k * d
    what = f"bias_bruteforce(d={d}, k={k})"
    check_capacity(what, 1 << n, 1 << BRUTEFORCE_MAX_BITS, "inputs")
    check_capacity(what, _bruteforce_bytes(k, d), budget_bytes(), "bytes")
    if d == 1:
        ones_count = linear_form_table(t.bits, k).bit_count()
    else:
        support = 0
        for s in first_block_slices(t):
            support |= form_table(s, d - 1, k)
        ones_count = support.bit_count() << (k - 1)
    return DyadicRational.from_ratio(abs((1 << n) - 2 * ones_count), n)


def _sliced_form(bits: int, planes: list[list[int]], j: int, k: int) -> int:
    """f of the (d-j)-tensor `bits` on every sample of a block at once.

    planes[j][c] holds coordinate c of block j for all samples, sample s
    at bit s; bit s of the result is the form at sample s's blocks j..d-1.
    The samples are `bias_mc`'s random draws, or all 2^(kd) inputs of
    `corr_class_max`, where each plane is a variable's truth table.
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
    coordinate, and the form is contracted over the planes, so a block
    costs about nnz(T) big-int AND/XORs.  A block of n samples is
    `Prng.draws(d * k, n)`, one n-bit plane per coordinate, sample s at
    bit s: block-major, coordinate-minor.  The result depends only on
    the seed.
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
        flat = rng.draws(d * k, n)
        planes = [flat[j * k:(j + 1) * k] for j in range(d)]
        acc += n - 2 * _sliced_form(t.bits, planes, 0, k).bit_count()
        del flat, planes  # not held while the next block is drawn
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


def _corr_bytes(k: int, d: int) -> int:
    """Bytes `corr_exact` holds at once, counted as in `_bruteforce_bytes`:
    the polynomial's 2^(kd)-bit table in 2^h pieces of 2^m bits (h = k
    for d >= 2 and k // 2 at d = 1, m = kd - h), with 64 bytes of header
    and list slot per piece; the form's h slice tables of 2^m bits; and
    five more pieces for the one slice table being built (a linear
    table's mask and XOR, or from d = 3 on the last doubling step's lower
    half, shifted upper half and OR, and the k variable masks the slice
    tables share, at most half a piece in all and held to the end), or
    for a Moebius step's variable mask and temporaries, or for the walk's
    current piece and its XOR."""
    h = k if d > 1 else k // 2
    piece = int_bytes(1 << (k * d - h))
    return 4096 + ((64 + piece) << h) + (h + 5) * piece


def _class_max_bytes(k: int, d: int, class_bits: int) -> int:
    """Bytes `corr_class_max` holds at once from degree 1 on, counted as in
    `_corr_bytes`: the n = kd variable tables, a table per monomial of
    degree >= 2, and d + 3 more for the form `_sliced_form` builds (an
    output per block, and an AND and XOR at the last) or for the walk's
    current table and the next one; and six ints of 2^n 32-bit fields:
    a butterfly stage holds five (the fields, the stage's mask and offset,
    the masked half and one partial sum), and one is margin.  Under
    tracemalloc a whole call peaks near five of them from n = 12 on."""
    n = k * d
    high = class_bits - 1 - n
    return 4096 + (n + high + d + 3) * int_bytes(1 << n) + 6 * int_bytes(32 << n)


def corr_exact(t: DenseTensor, poly: Polynomial) -> DyadicRational:
    """Corr(f_T, P) = bias(f_T - P), from the popcount of f_T + P over
    all 2^n inputs, n = kd, counted in first-block pieces.

    `form_table` lays the first block out at the high k input bits, so
    both tables split there into 2^k pieces of 2^(n-k) bits, and neither
    is ever joined whole.  The form is linear in x_1, so a Gray walk over
    x_1 gives each form piece with one XOR of a first-block slice table.
    The polynomial's pieces come from `anf_pieces`, with its monomials as
    input-bit masks.  At d = 1 the split is at the high k // 2 input
    bits instead: each form piece is the low bits' linear table,
    complemented by the high bits of the form that the piece's index
    sets, so the same walk XORs all-ones "slice" tables.  The pieces, the
    slice tables and their builders' transients must fit the byte budget
    (`_corr_bytes`).
    """
    k, d = t.k, t.d
    n = k * d
    if poly.n != n:
        raise ValueError(f"polynomial has {poly.n} variables, form has {n}")
    what = f"corr_exact(d={d}, k={k})"
    check_capacity(what, 1 << n, 1 << CORR_MAX_VARS, "inputs")
    check_capacity(what, _corr_bytes(k, d), budget_bytes(), "bytes")
    h = k if d > 1 else k // 2
    m = n - h
    ppieces = anf_pieces([sum(1 << _input_bit(v, k, d) for v in mono)
                          for mono in poly.monomials], n, m)
    if d == 1:
        # <a, x> is <a_low, x_low> + <a_high, x_high>: each piece is the
        # low form's table, complemented by every set bit of a_high in x_high
        cur = linear_form_table(t.bits & ones(m), m)
        every = ones(1 << m)  # one shared int for every high bit of the form
        slices = [every if (t.bits >> (m + j)) & 1 else 0 for j in range(h)]
    else:
        cur = 0
        # from d = 3 on the slice tables share k masks; at d = 2 a mask is a piece
        masks = [var_mask(v, k) for v in range(k)] if d > 2 else None
        slices = [form_table(s, d - 1, k, masks) for s in first_block_slices(t)]
    ones_count = (cur ^ ppieces[0]).bit_count()
    for step in range(1, 1 << h):
        cur ^= slices[ctz(step)]
        ones_count += (cur ^ ppieces[step ^ (step >> 1)]).bit_count()
    return DyadicRational.from_ratio(abs((1 << n) - 2 * ones_count), n)


def _monomials_upto(n: int, degree: int) -> list[tuple[int, ...]]:
    return [m for deg in range(degree + 1) for m in combinations(range(n), deg)]


def corr_class_max(t: DenseTensor, degree: int) -> tuple[DyadicRational, Polynomial]:
    """Exact max correlation over all multilinear polynomials of degree
    <= `degree`, with the least maximizer.

    The class has 2^(#monomials) members.  Its affine part needs no walk:
    the correlation of f with a.x + c is |W(a)| / 2^n for the Walsh
    spectrum W of f's table (`walsh_spectrum`), P and P + 1 alike.  A Gray
    walk over the monomials of degree >= 2 (one state at degree 1) XORs
    their tables into the form's, and each state costs one transform.
    Variable v is input bit v of every table, so field a of a transform
    is the linear part a.  The witness is the least maximizer: the first
    state whose spectrum reaches the maximum, the least linear part a
    there, and no constant, since P and P + 1 tie.  Degree 0 is {0, 1}
    and degree -1 is {0}: both give the bias, from `bias_bruteforce`,
    and the zero polynomial.

    The work guard counts the 32-bit fields the transforms touch, 2^h
    states x n stages x 2^n fields for the h monomials of degree >= 2
    (binomial sums: a refusal lists no monomial), against CORR_CLASS_WORK;
    degree <= 0 runs no transform.  The tables and the 2^n fields must fit
    the byte budget (`_class_max_bytes`).
    """
    k, d = t.k, t.d
    n = k * d
    what = f"corr_class_max(d={d}, k={k}, degree={degree})"
    check_capacity(what, 1 << n, 1 << CORR_MAX_VARS, "inputs")
    class_bits = sum(math.comb(n, j) for j in range(min(degree, n) + 1))
    if class_bits <= 1:
        return bias_bruteforce(t), Polynomial(n, ())
    check_capacity(what, (n << n) << (class_bits - 1 - n), CORR_CLASS_WORK,
                   "transform fields")
    check_capacity(what, _class_max_bytes(k, d, class_bits), budget_bytes(), "bytes")
    variables = [var_mask(v, n) for v in range(n)]
    cur = _sliced_form(t.bits, [variables[j * k:(j + 1) * k] for j in range(d)], 0, k)
    monos = _monomials_upto(n, min(degree, n))[1 + n:]
    high_tables = []
    for mono in monos:
        mt = variables[mono[0]]
        for v in mono[1:]:
            mt &= variables[v]
        high_tables.append(mt)
    del variables

    size = 1 << n
    best_num = -1
    for state in range(1 << len(high_tables)):
        if state:
            cur ^= high_tables[ctz(state)]
        spectrum = walsh_spectrum(cur, n)[1]
        top, low = max(spectrum), min(spectrum)
        num = max(top - size, size - low)
        if num > best_num:
            best_num, best_state = num, state
            best_a = min(spectrum.index(v) for v in (top, low) if abs(v - size) == num)
    high = best_state ^ (best_state >> 1)
    witness = Polynomial.reduce(n, [m for i, m in enumerate(monos) if (high >> i) & 1]
                                + [(v,) for v in range(n) if (best_a >> v) & 1])
    return DyadicRational.from_ratio(best_num, n), witness
