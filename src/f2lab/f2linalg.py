"""Bit-packed exact linear algebra over F2.

Vectors and matrix rows are Python ints (coordinate j at bit j), so row
reduction is a word-parallel XOR.  Subspaces are kept in reduced row
echelon form, which makes membership a deterministic reduction and the
representation canonical (hashable, comparable).

Also hosts the batched rank kernel: given generator matrices
G_1..G_m, it computes the histogram of rank(sum c_j G_j) over all 2^m
coefficient vectors simultaneously, bit-sliced across a lane per
coefficient vector.  This is the inner engine of the exact bias
computation and of the kernel/dual-code certificates.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

from ._bitops import budget_bytes, ctz, gray_flips, ones, parity
from .errors import CapacityError, InvariantError
from .prng import Prng

MIN_WEIGHT_DIM_LIMIT = 28  # exhaustive codeword count guard


@dataclass(frozen=True)
class BitVec:
    """Vector in F2^length, coordinate j stored at bit j of `bits`."""

    length: int
    bits: int

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("negative length")
        if self.bits < 0 or self.bits >> self.length:
            raise ValueError("bits outside declared length")

    @classmethod
    def zeros(cls, length: int) -> "BitVec":
        return cls(length, 0)

    @classmethod
    def unit(cls, length: int, j: int) -> "BitVec":
        return cls(length, 1 << j)

    @classmethod
    def from01(cls, s: str) -> "BitVec":
        """Parse a '0'/'1' string, character j = coordinate j."""
        if set(s) - {"0", "1"}:
            raise ValueError(f"not a 0/1 string: {s!r}")
        bits = 0
        for j, ch in enumerate(s):
            if ch == "1":
                bits |= 1 << j
        return cls(len(s), bits)

    @classmethod
    def random(cls, length: int, rng: Prng) -> "BitVec":
        return cls(length, rng.bits(length))

    def get(self, j: int) -> int:
        if not 0 <= j < self.length:
            raise IndexError(f"coordinate {j} out of range")
        return (self.bits >> j) & 1

    def weight(self) -> int:
        return self.bits.bit_count()

    def dot(self, other: "BitVec") -> int:
        if self.length != other.length:
            raise ValueError("length mismatch")
        return parity(self.bits & other.bits)

    def __xor__(self, other: "BitVec") -> "BitVec":
        if self.length != other.length:
            raise ValueError("length mismatch")
        return BitVec(self.length, self.bits ^ other.bits)

    def to01(self) -> str:
        return "".join("1" if (self.bits >> j) & 1 else "0" for j in range(self.length))

    def __repr__(self):
        return f"BitVec({self.to01()!r})"


@dataclass(frozen=True)
class BitMatrix:
    """Matrix over F2; every row is a BitVec of length `cols`."""

    rows: tuple[BitVec, ...]
    cols: int

    def __post_init__(self):
        for r in self.rows:
            if r.length != self.cols:
                raise ValueError("row length != cols")

    @classmethod
    def from_rows(cls, rows: Sequence[BitVec], cols: int | None = None) -> "BitMatrix":
        rows = tuple(rows)
        if cols is None:
            if not rows:
                raise ValueError("cols required for an empty matrix")
            cols = rows[0].length
        return cls(rows, cols)

    @classmethod
    def from_row_ints(cls, ints: Sequence[int], cols: int) -> "BitMatrix":
        return cls(tuple(BitVec(cols, b) for b in ints), cols)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls.from_row_ints([1 << i for i in range(n)], n)

    @classmethod
    def zeros(cls, nrows: int, cols: int) -> "BitMatrix":
        return cls.from_row_ints([0] * nrows, cols)

    @classmethod
    def random(cls, nrows: int, cols: int, rng: Prng) -> "BitMatrix":
        return cls.from_row_ints([rng.bits(cols) for _ in range(nrows)], cols)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        return self.rows[i].get(j)

    def row_ints(self) -> list[int]:
        return [r.bits for r in self.rows]

    def matvec(self, v: BitVec) -> BitVec:
        """A @ v for v in F2^cols."""
        if v.length != self.cols:
            raise ValueError("length mismatch")
        out = 0
        for i, r in enumerate(self.rows):
            out |= parity(r.bits & v.bits) << i
        return BitVec(self.nrows, out)


@dataclass(frozen=True)
class Subspace:
    """Subspace of F2^ambient_dim held as a reduced-row-echelon basis.

    Pivot columns are strictly increasing and each pivot column has a 1
    only in its own basis row, so the representation is canonical.
    """

    ambient_dim: int
    basis: tuple[BitVec, ...]
    pivots: tuple[int, ...]

    def __post_init__(self):
        if len(self.basis) != len(self.pivots):
            raise ValueError("basis/pivots length mismatch")
        prev = -1
        for v, p in zip(self.basis, self.pivots):
            if v.length != self.ambient_dim:
                raise ValueError("basis vector length != ambient_dim")
            if v.bits == 0:
                raise ValueError("zero basis vector")
            if p <= prev:
                raise ValueError("pivots not strictly increasing")
            prev = p
            if ctz(v.bits) != p:
                raise ValueError("row pivot mismatch")
        for v in self.basis:
            for q, w in zip(self.pivots, self.basis):
                if w is not v and (v.bits >> q) & 1:
                    raise ValueError("basis not fully reduced")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains_bits(self, bits: int) -> bool:
        for p, v in zip(self.pivots, self.basis):
            if (bits >> p) & 1:
                bits ^= v.bits
        return bits == 0

    def elements_bits(self):
        """Iterate all 2^dim elements (Gray-code order, starts at 0)."""
        cur = 0
        yield cur
        rows = [v.bits for v in self.basis]
        for flip in gray_flips(len(rows)):
            cur ^= rows[flip]
            yield cur


def _rref(row_bits: Iterable[int]) -> tuple[list[int], list[int]]:
    """Reduced row echelon form; pivots are lowest set bits, ascending."""
    rows: list[int] = []
    pivots: list[int] = []
    for r in row_bits:
        for p, pr in zip(pivots, rows):
            if (r >> p) & 1:
                r ^= pr
        if r == 0:
            continue
        p = ctz(r)
        for i, pr in enumerate(rows):
            if (pr >> p) & 1:
                rows[i] = pr ^ r
        idx = bisect_left(pivots, p)
        pivots.insert(idx, p)
        rows.insert(idx, r)
    return rows, pivots


def rank_of_row_ints(row_bits: Iterable[int]) -> int:
    """Rank of a collection of packed rows (no BitMatrix wrapping)."""
    pivot_rows: dict[int, int] = {}
    for r in row_bits:
        while r:
            p = ctz(r)
            pr = pivot_rows.get(p)
            if pr is None:
                pivot_rows[p] = r
                break
            r ^= pr
    return len(pivot_rows)


def mat_rank(m: BitMatrix) -> int:
    """Row rank over F2; does not modify the input."""
    return rank_of_row_ints(m.row_ints())


def echelonize(vectors: Iterable[BitVec], ambient_dim: int) -> Subspace:
    """Canonical RREF subspace spanned by `vectors`."""
    bits = []
    for v in vectors:
        if v.length != ambient_dim:
            raise ValueError(f"vector length {v.length} != ambient {ambient_dim}")
        bits.append(v.bits)
    rows, pivots = _rref(bits)
    return Subspace(ambient_dim, tuple(BitVec(ambient_dim, r) for r in rows), tuple(pivots))


def subspace_contains(s: Subspace, v: BitVec) -> bool:
    """Membership by reduction against the echelon basis."""
    if v.length != s.ambient_dim:
        raise ValueError("length mismatch")
    return s.contains_bits(v.bits)


def kernel(a: BitMatrix) -> Subspace:
    """Null space {v : A v = 0} of A acting on F2^cols."""
    rows, pivots = _rref(a.row_ints())
    pivot_set = set(pivots)
    basis = []
    for f in range(a.cols):
        if f in pivot_set:
            continue
        v = 1 << f
        for p, r in zip(pivots, rows):
            if (r >> f) & 1:
                v |= 1 << p
        basis.append(BitVec(a.cols, v))
    ker = echelonize(basis, a.cols)
    if ker.dim != a.cols - len(rows):
        raise InvariantError("rank-nullity violated")
    return ker


def dual_space(s: Subspace) -> Subspace:
    """Orthogonal complement under the standard bilinear form."""
    if s.dim == 0:
        return echelonize([BitVec.unit(s.ambient_dim, j) for j in range(s.ambient_dim)],
                          s.ambient_dim)
    return kernel(BitMatrix.from_rows(s.basis, s.ambient_dim))


def min_weight(s: Subspace) -> int:
    """Minimum Hamming weight over nonzero elements.

    The zero space returns the sentinel ambient_dim + 1: certificate
    paths treat "no nonzero codeword" as vacuously heavy.  Counts the
    weight of all 2^dim codewords bit-sliced, one lane per codeword, in
    the lane chunks of the rank kernel; the basis is independent, so only
    the zero codeword has weight 0.
    """
    if s.dim == 0:
        return s.ambient_dim + 1
    if s.dim > MIN_WEIGHT_DIM_LIMIT:
        raise CapacityError(
            f"min_weight over 2^{s.dim} codewords exceeds the dim <= "
            f"{MIN_WEIGHT_DIM_LIMIT} guard",
            required=1 << s.dim, budget=1 << MIN_WEIGHT_DIM_LIMIT)
    n = s.ambient_dim
    counts = [0] * (n + 1)
    for planes, nlanes in _lane_chunks([[v.bits] for v in s.basis], 1, n, None):
        counter = _LaneCounter(nlanes, n)
        for coordinate in planes[0]:
            counter.add(coordinate)
        for w, c in enumerate(counter.histogram()):
            counts[w] += c
    return next(w for w in range(1, n + 1) if counts[w])


def block_pivot_dims(s: Subspace, num_blocks: int, block_size: int) -> tuple[int, ...]:
    """Pivot counts per coordinate block of size `block_size`.

    For U spanned by an echelon basis of F2^(num_blocks*block_size) these
    are the dims of the per-block projections U_j of the basis rows
    pivoted in block j; they always sum to dim(U).
    """
    if s.ambient_dim != num_blocks * block_size:
        raise ValueError("ambient_dim != num_blocks * block_size")
    dims = [0] * num_blocks
    for p in s.pivots:
        dims[p // block_size] += 1
    if sum(dims) != s.dim:
        raise InvariantError("block pivot counts do not sum to the dimension")
    return tuple(dims)


# ---------------------------------------------------------------------------
# Batched rank histogram over a span of matrices (bit-sliced).
# ---------------------------------------------------------------------------

# Lanes per chunk, a measured constant.  At 2^16 lanes every plane is an
# 8 KiB int and a k=22 chunk's planes and slot rows take about 8 MiB; at
# 2^20 they are 128 KiB ints and about 120 MiB.  bias_exact(trace_tensor(22))
# took a median 0.83 s at 2^16 and 1.32 s at 2^20 (five runs each, 2-vCPU
# x86-64 host, Python 3.11).
LANE_CHUNK_BITS = 16


class _LaneCounter:
    """A small count per lane, bit-sliced: planes[b] holds bit b of
    every lane's count, and adding a lane mask is a ripple carry."""

    def __init__(self, nlanes: int, top: int):
        self.nlanes = nlanes
        self.top = top
        self.planes = [0] * top.bit_length()

    def add(self, mask: int) -> None:
        """Add one to the count of every lane set in `mask`."""
        idx = 0
        while mask:
            carry = self.planes[idx] & mask
            self.planes[idx] ^= mask
            mask = carry
            idx += 1

    def histogram(self) -> list[int]:
        """counts[v] = number of lanes whose count is v, for v = 0..top."""
        full = ones(self.nlanes)
        inverted = [full ^ plane for plane in self.planes]
        counts = []
        for v in range(self.top + 1):
            m = full
            for b, plane in enumerate(self.planes):
                m &= plane if (v >> b) & 1 else inverted[b]
                if not m:
                    break
            counts.append(m.bit_count())
        if sum(counts) != self.nlanes:
            raise InvariantError("lane histogram does not cover every lane")
        return counts


def _batched_rank_histogram(planes: list[list[int]], nrows: int, ncols: int,
                            nlanes: int) -> list[int]:
    """Rank histogram for `nlanes` matrices processed in parallel.

    planes[i][j] holds entry (i, j) of every matrix, one bit per lane.
    Gaussian elimination runs lane-parallel: each lane inserts its row
    into a pivot-indexed slot table, with divergence handled by masks.
    """
    full = ones(nlanes)
    slot_occ = [0] * ncols
    slot_rows = [[0] * ncols for _ in range(ncols)]
    counter = _LaneCounter(nlanes, min(nrows, ncols))

    for i in range(nrows):
        row = list(planes[i])
        live = full
        installed = 0
        for p in range(ncols):
            hit = row[p] & live
            if not hit:
                continue
            red = hit & slot_occ[p]
            if red:
                sr = slot_rows[p]
                for j in range(p, ncols):
                    if sr[j]:
                        row[j] ^= sr[j] & red
            inst = hit & (full ^ slot_occ[p])
            if inst:
                sr = slot_rows[p]
                for j in range(p, ncols):
                    rj = row[j] & inst
                    if rj:
                        sr[j] |= rj
                slot_occ[p] |= inst
                installed |= inst
                live ^= inst
                if not live:
                    break
        counter.add(installed)
    return counter.histogram()


def _doubling_planes(gen_rows: list[list[int]], nrows: int, ncols: int) -> list[list[int]]:
    """Entry planes of sum(c_j G_j) over all 2^m coefficient vectors c.

    Lane b corresponds to coefficient vector b; built by doubling the
    lane space one generator at a time.
    """
    planes = [[0] * ncols for _ in range(nrows)]
    width = 1
    for g in gen_rows:
        w_ones = ones(width)
        for i in range(nrows):
            gi = g[i]
            pi = planes[i]
            for j in range(ncols):
                p = pi[j]
                hi = p ^ w_ones if (gi >> j) & 1 else p
                pi[j] = p | (hi << width)
        width <<= 1
    return planes


def _lane_chunks(gen_rows: list[list[int]], nrows: int, ncols: int,
                 budget: int | None):
    """Yield (planes, nlanes) chunks that together cover every one of the
    2^m coefficient vectors of `gen_rows` exactly once.

    The low generators are doubled into planes once.  Each later chunk
    XORs one high generator into `base` (Gray order) and flips the shared
    planes wherever `base` has a bit set.  The byte budget can only make
    a chunk smaller than 2^LANE_CHUNK_BITS lanes.  It covers every plane a
    chunk holds at once: the shared and the flipped entry planes, and the
    ncols^2 slot rows and ncols-entry row of `_batched_rank_histogram`.
    """
    planes_per_lane = 2 * nrows * ncols + ncols * ncols + ncols
    lane_budget_bits = max(64, (budget_bytes(budget) * 8) // planes_per_lane)
    chunk_m = min(len(gen_rows), max(1, lane_budget_bits.bit_length() - 1),
                  LANE_CHUNK_BITS)
    low, high = gen_rows[:chunk_m], gen_rows[chunk_m:]
    nlanes = 1 << chunk_m
    planes = _doubling_planes(low, nrows, ncols)
    yield planes, nlanes
    lane_ones = ones(nlanes)
    base = [0] * nrows
    for flip in gray_flips(len(high)):
        base = [b ^ h for b, h in zip(base, high[flip])]
        yield [[p ^ lane_ones if (bi >> j) & 1 else p for j, p in enumerate(pi)]
               for pi, bi in zip(planes, base)], nlanes


def span_rank_histogram(generators: Sequence[BitMatrix], *,
                        budget: int | None = None) -> list[int]:
    """hist[r] = #{c in F2^m : rank(sum_j c_j G_j) = r}.

    Exhausts all 2^m coefficient vectors in lane chunks (`_lane_chunks`).
    """
    if not generators:
        raise ValueError("need at least one generator")
    nrows = generators[0].nrows
    ncols = generators[0].cols
    for g in generators:
        if g.nrows != nrows or g.cols != ncols:
            raise ValueError("generator shapes differ")
    gen_rows = [g.row_ints() for g in generators]
    counts = [0] * (min(nrows, ncols) + 1)
    for planes, nlanes in _lane_chunks(gen_rows, nrows, ncols, budget):
        part = _batched_rank_histogram(planes, nrows, ncols, nlanes)
        for r, c in enumerate(part):
            counts[r] += c
    return counts
