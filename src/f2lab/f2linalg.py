"""Bit-packed exact linear algebra over F2.

Vectors are plain Python ints (coordinate j at bit j), so row
reduction is a word-parallel XOR.  A whole nrows x ncols matrix is one
int too, row i at bits [i ncols, (i+1) ncols): the layout of a 2-tensor,
so a tensor's slices are matrices as they stand.  `kernel` and the
echelon routines take a list of row ints instead.  `BitVec` is the
length-carrying vector type at the edges (rank-one terms, the F2D1
files, `evaluate`).  Subspaces are kept in reduced row echelon form,
which makes membership a deterministic reduction and the representation
canonical (hashable, comparable).

Also hosts the batched rank kernel: given generator matrices
G_1..G_m, it computes the histogram of rank(sum c_j G_j) over all 2^m
coefficient vectors simultaneously, bit-sliced across a lane per
coefficient vector.  This is the inner engine of the exact bias
computation and of the kernel/dual-code certificates.  One walk over
the span's lane chunks (`_span_walk`) serves `span_rank_histogram`,
`min_weight`, and `bias_exact` from d = 4 on, whose generators vary over
inner lanes; it uses up to one forked process per usable CPU within one
byte budget (one in `verify all`, whose rows run on one process per usable
CPU, each with the whole budget).  The same kernel ranks blocks of random
matrices, one lane per sample, whose entry planes are drawn as they stand
by `Prng.planes` (`sampled_rank_histogram`), in one process, in stream order.
"""

from __future__ import annotations

import mmap
import os
import threading
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ._bitops import budget_bytes, ctz, int_bytes, ones
from .errors import InvariantError, capped_power, check_capacity
from .prng import Prng, words_bytes

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
    def from01(cls, s: str) -> "BitVec":
        """Parse a '0'/'1' string, character j = coordinate j."""
        if set(s) - {"0", "1"}:
            raise ValueError(f"not a 0/1 string: {s!r}")
        bits = 0
        for j, ch in enumerate(s):
            if ch == "1":
                bits |= 1 << j
        return cls(len(s), bits)

    def to01(self) -> str:
        return "".join("1" if (self.bits >> j) & 1 else "0" for j in range(self.length))

    def __repr__(self):
        return f"BitVec({self.to01()!r})"


@dataclass(frozen=True)
class Subspace:
    """Subspace of F2^ambient_dim held as a reduced-row-echelon basis of
    packed ints.

    A row's pivot is its lowest set bit.  Pivots are strictly increasing
    and each pivot bit is set only in its own row, so the representation
    is canonical.
    """

    ambient_dim: int
    basis: tuple[int, ...] = field(repr=False)

    def __post_init__(self):
        prev = 0
        for v in self.basis:
            if v < 0 or v >> self.ambient_dim:
                raise ValueError("basis vector outside F2^ambient_dim")
            if v == 0:
                raise ValueError("zero basis vector")
            if v & -v <= prev:
                raise ValueError("pivots not strictly increasing")
            prev = v & -v
        pivots = sum(v & -v for v in self.basis)
        if any(v & pivots != v & -v for v in self.basis):
            raise ValueError("basis not fully reduced")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains_bits(self, bits: int) -> bool:
        for v in self.basis:
            if bits & v & -v:
                bits ^= v
        return bits == 0


def _rref(row_bits: Iterable[int]) -> list[int]:
    """Reduced row echelon form, rows in ascending order of pivot (the
    lowest set bit)."""
    rows: list[int] = []
    for r in row_bits:
        for pr in rows:
            if r & pr & -pr:
                r ^= pr
        if r:
            p = r & -r
            rows = [pr ^ r if pr & p else pr for pr in rows]
            rows.append(r)
    rows.sort(key=lambda r: r & -r)
    return rows


def rank_of_row_ints(row_bits: Iterable[int]) -> int:
    """Rank of a collection of packed rows."""
    # pivots keyed by the lowest set bit itself (r & -r): no ctz call per step
    pivot_rows: dict[int, int] = {}
    for r in row_bits:
        while r:
            p = r & -r
            pr = pivot_rows.get(p)
            if pr is None:
                pivot_rows[p] = r
                break
            r ^= pr
    return len(pivot_rows)


def mat_rank(bits: int, nrows: int, ncols: int) -> int:
    """Rank of the nrows x ncols matrix packed in `bits`, row i at bits
    [i ncols, (i+1) ncols): the layout of a 2-tensor."""
    if bits < 0 or bits >> (nrows * ncols):
        raise ValueError(f"bits outside the {nrows} x {ncols} matrices")
    mask = ones(ncols)
    return rank_of_row_ints((bits >> (i * ncols)) & mask for i in range(nrows))


def _check_rows(rows: Sequence[int], cols: int) -> None:
    if any(r < 0 or r >> cols for r in rows):
        raise ValueError(f"row outside F2^{cols}")


def echelonize(rows: Iterable[int], ambient_dim: int) -> Subspace:
    """Canonical RREF subspace spanned by the packed rows."""
    rows = list(rows)
    _check_rows(rows, ambient_dim)
    return Subspace(ambient_dim, tuple(_rref(rows)))


def kernel(rows: Sequence[int], cols: int) -> Subspace:
    """Null space {v : A v = 0} of the matrix A with these packed rows,
    acting on F2^cols."""
    _check_rows(rows, cols)
    reduced = _rref(rows)
    pivots = sum(r & -r for r in reduced)
    basis = []
    for f in range(cols):
        if (pivots >> f) & 1:
            continue
        v = 1 << f
        for r in reduced:
            if (r >> f) & 1:
                v |= r & -r
        basis.append(v)
    ker = echelonize(basis, cols)
    if ker.dim != cols - len(reduced):
        raise InvariantError("rank-nullity violated")
    return ker


def dual_space(s: Subspace) -> Subspace:
    """Orthogonal complement under the standard bilinear form."""
    return kernel(s.basis, s.ambient_dim)


def min_weight(s: Subspace) -> int:
    """Minimum Hamming weight over nonzero elements.

    The zero space returns the sentinel ambient_dim + 1: certificate
    paths treat "no nonzero codeword" as vacuously heavy.  Counts the
    weight of all 2^dim codewords bit-sliced, one lane per codeword, in
    the lane chunks of `_span_walk`; the basis is independent, so only
    the zero codeword has weight 0.
    """
    if s.dim == 0:
        return s.ambient_dim + 1
    what = f"min_weight(dim={s.dim})"
    check_capacity(what, capped_power(s.dim, MIN_WEIGHT_DIM_LIMIT), 1 << MIN_WEIGHT_DIM_LIMIT,
                   "codewords")
    n = s.ambient_dim

    def weights(planes, nlanes):
        counter = _LaneCounter(nlanes, n)
        for coordinate in planes[0]:
            counter.add(coordinate)
        return counter.histogram()

    # beside the planes: the counter's planes, their complements, temporaries
    counts = _span_walk(what, s.dim, 0, 1, n, n + 1,
                        lambda c: (_doubling_planes(s.basis[:c], 1, n), s.basis[c:]), weights,
                        2 * n.bit_length() + 8)
    return next(w for w in range(1, n + 1) if counts[w])


# ---------------------------------------------------------------------------
# Batched rank histogram over a span of matrices (bit-sliced).
# ---------------------------------------------------------------------------

# Lanes per chunk, a measured constant.  At 2^16 lanes every plane is an
# 8 KiB int and a k=22 chunk's planes and slot rows take about 8 MiB; at
# 2^20 they are 128 KiB ints and about 120 MiB.  bias_exact(trace_tensor(22))
# took a median 0.43 s at 2^16 and 0.70 s at 2^20 lanes with a budget fitting
# both (nine alternating runs each, 2-vCPU x86-64 host, Python 3.11).
LANE_CHUNK_BITS = 16


def _chunk_lanes(lane_ints: int, budget: int, most: int = LANE_CHUNK_BITS,
                 extra=lambda nlanes: 0, least: int = 64) -> tuple[int, int]:
    """(lanes, bytes) of the widest power-of-two lane chunk, from 2^most
    lanes down to `least` (or 2^most, when that is less), that fits
    `budget`, or else of the narrowest, which the caller refuses.  A chunk
    holds `lane_ints` nlanes-bit ints, at their digits and 32 bytes of
    object and list slot each, and `extra(nlanes)` bytes beside them."""
    nlanes = 1 << most
    while True:
        need = lane_ints * (int_bytes(nlanes) + 32) + extra(nlanes)
        if need <= budget or nlanes <= least:
            return nlanes, need
        nlanes >>= 1


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
    `planes` is read, never written.

    The loop relies on these invariants, which keep every step to as few
    operations on whole lane planes as it can:
    - slot_occ[p] holds the lanes whose slot p is occupied, and
      slot_rows[p][j] is zero outside them, so hit & slot_occ[p] splits
      the lanes that reach pivot p into those to reduce (red) and those
      to install (hit ^ red);
    - the pivot column is not stored: slot_rows[p][p] stays 0 and both
      slot loops start at p + 1, because after step p nothing reads
      row[p] again and slot_occ[p] already records the pivot;
    - a row is frozen in a lane once that lane installs it: the lane
      leaves `live`, so later steps of the row neither read nor change
      its entries there, and full ^ live counts the lanes that installed;
    - the last row is never installed, since no later row reads its
      slots: its rank contribution is whether it leaves `live`.
    """
    full = ones(nlanes)
    slot_occ = [0] * ncols
    slot_rows = [[0] * ncols for _ in range(ncols)]
    counter = _LaneCounter(nlanes, min(nrows, ncols))

    for i in range(nrows):
        row = list(planes[i])
        live = full
        for p in range(ncols):
            hit = row[p] & live
            if not hit:
                continue
            sr = slot_rows[p]
            red = hit & slot_occ[p]
            if red:
                for j in range(p + 1, ncols):
                    if sr[j]:
                        row[j] ^= sr[j] & red
            inst = hit ^ red
            if inst:
                if i < nrows - 1:
                    for j in range(p + 1, ncols):
                        rj = row[j] & inst
                        if rj:
                            sr[j] |= rj
                    slot_occ[p] |= inst
                live ^= inst
                if not live:
                    break
        counter.add(full ^ live)
    return counter.histogram()


def _kernel_ints(ncols: int) -> int:
    """Lane-plane ints `_batched_rank_histogram` holds beside its input: the
    slot rows above the diagonal, the row, and 16 for masks and temporaries."""
    return ncols * (ncols - 1) // 2 + ncols + 16


def _doubling_planes(gens: Sequence[int], nrows: int, ncols: int) -> list[list[int]]:
    """Entry planes of sum(c_j G_j) over all 2^m coefficient vectors c.

    Lane b corresponds to coefficient vector b; built by doubling the
    lane space one generator at a time.
    """
    planes = [[0] * ncols for _ in range(nrows)]
    width = 1
    for g in gens:
        w_ones = ones(width)
        for i in range(nrows):
            gi = g >> (i * ncols)
            pi = planes[i]
            for j in range(ncols):
                p = pi[j]
                hi = p ^ w_ones if (gi >> j) & 1 else p
                pi[j] = p | (hi << width)
        width <<= 1
    return planes


def _add(counts: list[int], part: Sequence[int]) -> None:
    for r, n in enumerate(part):
        counts[r] += n


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the host does not say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity off Linux
        return 1


_in_walk_worker = False  # set in a forked walk worker and in `verify all`'s pool


def _walk_workers(nsteps: int, least: int = 2) -> int:
    """Processes `nsteps` steps are split over: one per usable CPU, each with
    at least `least` steps (a walk's two chunks: a fork round trip costs a few
    milliseconds).  One inside a walk worker or `harness.run_all`'s pool, and
    one beside other threads, since a forked child holds only the forking
    thread and any lock another thread held stays locked in it."""
    if _in_walk_worker or threading.active_count() > 1:
        return 1
    return max(1, min(_usable_cpus(), nsteps // least))


def _walk_child(chunk_histograms, lo: int, hi: int, row: memoryview, parent: int) -> None:
    """Body of a forked walk worker: add the histograms of steps [lo, hi)
    into `row` of the shared count table, and leave by os._exit (no atexit
    hook or buffer flush), with status 0 only once the range is summed:
    not once its parent is gone, nor when a count passes 64 bits."""
    global _in_walk_worker
    try:
        _in_walk_worker = True
        for part in chunk_histograms(lo, hi):
            _add(row, part)
            if os.getppid() != parent:
                os._exit(1)
        os._exit(0)
    finally:
        os._exit(1)  # the walk raised


def _split_walk(chunk_histograms, nsteps: int, workers: int, nbins: int) -> list[int]:
    """Sum of the histograms `chunk_histograms(lo, hi)` yields for the
    steps of [0, nsteps), in `workers` contiguous ranges: the parent forks
    a worker for each range i > 0, which adds into row i of a shared map of
    64-bit counts, walks the first range itself, reaps every worker (killed
    first if its own walk raised) and adds their rows.  A worker that exits
    nonzero is an InvariantError naming its step range."""
    bounds = [nsteps * i // workers for i in range(workers + 1)]
    parent = os.getpid()
    table = memoryview(mmap.mmap(-1, 8 * nbins * workers)).cast("Q") if workers > 1 else None
    children = []
    counts = [0] * nbins
    try:
        for i in range(1, workers):
            pid = os.fork()
            if pid == 0:
                _walk_child(chunk_histograms, bounds[i], bounds[i + 1],
                            table[i * nbins:(i + 1) * nbins], parent)
            children.append(pid)
        for part in chunk_histograms(0, bounds[1]):
            _add(counts, part)
    except BaseException:
        import signal  # here only: importing it costs a CLI run about a millisecond

        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in children]
    for i, code in enumerate(codes, 1):
        if code:
            raise InvariantError(f"walk worker for steps [{bounds[i]}, {bounds[i + 1]}) "
                                 f"exited with status {code}")
        _add(counts, table[i * nbins:(i + 1) * nbins])
    return counts


def _span_walk(what: str, m: int, inner: int, nrows: int, ncols: int, nbins: int, build,
               chunk_histogram, kernel_ints: int, held: int = 0) -> list[int]:
    """Sum of chunk_histogram(planes, nlanes) over lane chunks that cover
    each of the 2^(m + inner) lanes of the span of m generators once.

    A generator is an nrows x ncols matrix at each of 2^inner inner lanes.
    A chunk of 2^(c + inner) lanes holds the low c generators at its high
    lane bits: build(c) returns its entry planes where the m - c high ones
    are 0, and the high ones.  At inner = 0 a high generator is a packed
    int, and adding it flips the entry planes of its set bits; else it is
    the plane set it XORs in, the same at every value of the low c.
    Chunk s adds the high generators over the set bits of gray(s) =
    s ^ (s >> 1), so a range of chunks [lo, hi) steps the built planes to
    gray(lo), then by one generator a chunk.  Ranges are split over up to
    one forked process per usable CPU (`_walk_workers`); each pops its
    process's one copy of what `build` returned, kept by none past its
    first step.

    Chunks are cut as in `sampled_rank_histogram` (`_chunk_lanes`), never
    below 2^inner lanes, and a refusal names the route `what`; inner
    blocks past 2^LANE_CHUNK_BITS lanes are refused before anything is
    built.  A chunk holds two plane sets (the planes and a step's result),
    the `kernel_ints` of `chunk_histogram`, and at inner > 0 the plane set
    of each high generator with 72 bytes a row of list headers.  Beside
    them a process holds 3 KiB of frames, generators, histograms and small
    lists, 144 bytes a row (the two plane sets' list headers and a
    comprehension's spare slots), and the `held` bytes of its caller.  Each
    process cuts its chunks from its share of the budget, and no more run
    than shares hold the narrowest chunk.
    """
    check_capacity(what, 1 << inner, 1 << LANE_CHUNK_BITS, "inner lanes")
    size = nrows * ncols
    fixed = 3072 + 144 * nrows + held

    def stored(nlanes: int) -> int:
        high = m + inner + 1 - nlanes.bit_length()
        return high * (size * (int_bytes(nlanes) + 32) + 72 * nrows) if inner else 0

    def chunk(share: int) -> tuple[int, int]:
        return _chunk_lanes(2 * size + kernel_ints, share - fixed,
                            min(m + inner, LANE_CHUNK_BITS), stored, max(64, 1 << inner))

    budget = budget_bytes()
    nlanes, need = chunk(budget)
    check_capacity(what, need + fixed, budget, "bytes")
    workers = _walk_workers((1 << m + inner) // nlanes)
    if workers > 1:  # no more processes than the budget holds narrowest chunks
        workers = min(workers, budget // (chunk(0)[1] + fixed))
        nlanes = chunk(budget // workers)[0]
    c = nlanes.bit_length() - 1 - inner
    lane_ones = ones(nlanes)
    built = [build(c)]

    def step(planes, g):
        if inner:
            return [[p ^ q for p, q in zip(pi, qi)] for pi, qi in zip(planes, g)]
        return [[p ^ lane_ones if (g >> (i * ncols + j)) & 1 else p for j, p in enumerate(pi)]
                for i, pi in enumerate(planes)]

    def chunk_histograms(lo: int, hi: int):
        planes, high = built.pop()
        gray = lo ^ (lo >> 1)
        for j in range(m - c):
            if (gray >> j) & 1:
                planes = step(planes, high[j])
        for s in range(lo, hi):
            if s > lo:
                planes = step(planes, high[ctz(s)])
            yield chunk_histogram(planes, nlanes)

    counts = _split_walk(chunk_histograms, 1 << m - c, workers, nbins)
    if sum(counts) != 1 << m + inner:
        raise InvariantError(f"span walk counted {sum(counts)} of 2^{m + inner} lanes")
    return counts


def span_rank_histogram(gens: Sequence[int], nrows: int, ncols: int, held: int = 0) -> list[int]:
    """hist[r] = #{c in F2^m : rank(sum_j c_j G_j) = r} for the packed
    nrows x ncols generators G_j (row i at bits [i ncols, (i+1) ncols)).

    Exhausts all 2^m coefficient vectors in `_span_walk`'s lane chunks,
    charging them the `held` bytes the caller keeps beside the walk.
    """
    if not gens:
        raise ValueError("need at least one generator")
    if any(g < 0 or g >> (nrows * ncols) for g in gens):
        raise ValueError(f"generator outside the {nrows} x {ncols} matrices")

    return _span_walk(f"span_rank_histogram(nrows={nrows}, ncols={ncols})", len(gens), 0,
                      nrows, ncols, min(nrows, ncols) + 1,
                      lambda c: (_doubling_planes(gens[:c], nrows, ncols), gens[c:]),
                      lambda planes, nlanes: _batched_rank_histogram(planes, nrows, ncols, nlanes),
                      _kernel_ints(ncols), held)


def sampled_rank_histogram(rng: Prng, samples: int, nrows: int, ncols: int) -> list[int]:
    """hist[r] = how many of `samples` random nrows x ncols matrices have
    rank r, where matrix s is lane s of rng.planes(nrows * ncols, samples):
    entry (i, j) is bit s of plane i ncols + j.

    Each chunk's entry planes are one `Prng.planes` draw, ranked in the
    lanes of `_batched_rank_histogram`.  Every chunk but the last holds a
    multiple of 64 lanes, so lane s gets the same matrix however the
    chunks are cut, and the stream ends where one draw would leave it.
    Chunks have at most 2^LANE_CHUNK_BITS lanes, and the byte budget can
    only make them smaller, down to 64 lanes (`_chunk_lanes`); where those
    do not fit it refuses before drawing.  It covers the word block and
    what mixing it holds (`words_bytes`), the block's array copy, and the
    nlanes-bit ints: the entry planes and the kernel's (`_kernel_ints`).
    """
    if samples < 0:
        raise ValueError("samples must be >= 0")
    nbits = nrows * ncols
    if nbits < 1:
        raise ValueError("need nrows, ncols >= 1")

    def mixing_bytes(nlanes: int) -> int:
        nwords = nbits * (nlanes >> 6)
        return words_bytes(nwords) + 8 * nwords

    budget = budget_bytes()
    chunk, need = _chunk_lanes(nbits + _kernel_ints(ncols), budget, extra=mixing_bytes)
    check_capacity(f"sampled_rank_histogram(nrows={nrows}, ncols={ncols})", need, budget,
                   "bytes")
    counts = [0] * (min(nrows, ncols) + 1)
    for start in range(0, samples, chunk):
        nlanes = min(chunk, samples - start)
        planes = rng.planes(nbits, nlanes)
        rows = [planes[i * ncols:(i + 1) * ncols] for i in range(nrows)]
        _add(counts, _batched_rank_histogram(rows, nrows, ncols, nlanes))
        del planes, rows  # not held while the next chunk is drawn
    return counts
