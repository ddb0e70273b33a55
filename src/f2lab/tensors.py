"""Dense tensors over F2, rank-one decompositions, the explicit
constructions, and the on-disk formats.

A d-dimensional tensor of side k is one packed int of k^d bits; the
entry at (i_1..i_d) (0-based) sits at flat index
i_1*k^(d-1) + ... + i_d, so the first index is slowest.  Slicing along
the first index is a contiguous bit range, which is what the bias and
rank machinery leans on.

File formats:
  F2T1  tensor   header `F2T1` / `d=<d> k=<k>` / lowercase hex payload,
        flat bit b at bit (b mod 8) of byte (b div 8).
  F2D1  decomposition  `F2D1 d=<d> k=<k> t=<t>` then one line per term,
        d whitespace-separated 0/1 strings, char j = coordinate j+1.
  F2P1  polynomial  `F2P1 n=<n>` then one monomial per line as sorted
        1-based variable indices; `#` alone is the constant-1 monomial.
A header names each of its fields once, in any order, and holds nothing
else; F2T1's shape line counts as the rest of its `F2T1` line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from operator import lt
from typing import Sequence

from ._bitops import budget_bytes, int_bytes, ones
from .errors import FormatError, check_capacity
from .f2linalg import BitVec
from .gf2k import make_field
from .prng import Prng, draw_bytes, words_bytes

TRACE_TENSOR_MAX_K = 24
MATMUL_TENSOR_MAX_N = 4


@dataclass(frozen=True)
class DenseTensor:
    """T : [k]^d -> F2 as k^d packed bits."""

    d: int
    k: int
    bits: int = field(repr=False)

    def __post_init__(self):
        if self.d < 1 or self.k < 1:
            raise ValueError("d and k must be >= 1")
        if self.bits < 0 or self.bits.bit_length() > _tensor_bits(self.d, self.k):
            raise ValueError("bits outside k^d entries")

    @property
    def size(self) -> int:
        return self.k ** self.d

    def __xor__(self, other: "DenseTensor") -> "DenseTensor":
        if (self.d, self.k) != (other.d, other.k):
            raise ValueError("shape mismatch")
        return DenseTensor(self.d, self.k, self.bits ^ other.bits)


def _tensor_bits(d: int, k: int) -> int:
    """k^d, the bits of a tensor of this shape, or 2^64 when it has at least
    that many.  2^((bit_length(k) - 1) d) <= k^d is tested first, so a huge
    shape never forms k ** d (3 ** 10**7 alone takes seconds)."""
    if (k.bit_length() - 1) * d >= 64:
        return 1 << 64
    return k ** d


def outer_bits(vectors: Sequence[int], k: int) -> int:
    """Packed bits of v_1 (x) ... (x) v_m for packed k-bit vectors, first
    factor slowest (the flat layout of DenseTensor)."""
    acc = 1  # the empty product
    for v in vectors:
        nxt = 0
        rest = acc
        while rest:
            low = rest & -rest
            rest ^= low
            nxt |= v << ((low.bit_length() - 1) * k)
        acc = nxt
    return acc


@dataclass(frozen=True)
class RankOneTerm:
    """u_1 (x) ... (x) u_d, entries prod_j u_j(i_j)."""

    vectors: tuple[BitVec, ...]

    def __post_init__(self):
        if not self.vectors:
            raise ValueError("a term needs at least one vector")
        k = self.vectors[0].length
        for v in self.vectors:
            if v.length != k:
                raise ValueError("vectors of differing length")

    @property
    def d(self) -> int:
        return len(self.vectors)

    @property
    def k(self) -> int:
        return self.vectors[0].length

    def tensor_bits(self) -> int:
        """Packed bits of the outer product."""
        return outer_bits([v.bits for v in self.vectors], self.k)


@dataclass(frozen=True)
class RankDecomposition:
    """A list of rank-one terms; its length upper-bounds the rank."""

    d: int
    k: int
    terms: tuple[RankOneTerm, ...]

    def __post_init__(self):
        for t in self.terms:
            if t.d != self.d or t.k != self.k:
                raise ValueError("term shape mismatch")

    @property
    def t(self) -> int:
        return len(self.terms)


def tensor_from_decomp(decomp: RankDecomposition) -> DenseTensor:
    bits = 0
    for term in decomp.terms:
        bits ^= term.tensor_bits()
    return DenseTensor(decomp.d, decomp.k, bits)


def first_block_slices(t: DenseTensor) -> list[int]:
    """Subtensor bits T(i, ., ..., .) for i in [k] (each k^(d-1) bits)."""
    step = t.k ** (t.d - 1)
    mask = ones(step)
    return [(t.bits >> (i * step)) & mask for i in range(t.k)]


def evaluate(t: DenseTensor, xs: Sequence[BitVec]) -> int:
    """f_T(x_1..x_d) over F2."""
    if len(xs) != t.d:
        raise ValueError(f"need {t.d} block vectors")
    k = t.k
    cur = t.bits
    size = t.size
    for x in xs[:-1]:
        if x.length != k:
            raise ValueError("vector length != k")
        step = size // k
        mask = ones(step)
        nxt = 0
        xb = x.bits
        while xb:
            low = xb & -xb
            i = low.bit_length() - 1
            xb ^= low
            nxt ^= (cur >> (i * step)) & mask
        cur = nxt
        size = step
    last = xs[-1]
    if last.length != k:
        raise ValueError("vector length != k")
    return (cur & last.bits).bit_count() & 1


def trace_tensor(k: int) -> DenseTensor:
    """T(i,j,l) = Trace(b_i b_j b_l) in GF(2^k), polynomial basis.

    b_i b_j b_l = x^(i+j+l), so T is a Hankel tensor: bit s of `hankel`
    is Trace(x^s) for s <= 3k - 3, and the row T(i, j, .) is bits
    i + j .. i + j + k - 1 of it."""
    if k < 1:
        raise ValueError("trace_tensor needs k >= 1")
    check_capacity(f"trace_tensor(k={k})", k ** 3, TRACE_TENSOR_MAX_K ** 3, "tensor entries")
    gf = make_field(k)
    hankel = 0
    power = 1  # x^s, reduced
    for s in range(3 * k - 2):
        hankel |= gf.trace_bits(power) << s
        power <<= 1
        if power >> k:
            power ^= gf.modulus
    mask = ones(k)
    bits = 0
    for i in range(k):
        for j in range(k):
            bits |= ((hankel >> (i + j)) & mask) << ((i * k + j) * k)
    return DenseTensor(3, k, bits)


def matmul_tensor(n: int) -> DenseTensor:
    """The n x n matrix product tensor: entries at X_ij Y_jl Z_il."""
    if n < 1:
        raise ValueError("matmul_tensor needs n >= 1")
    check_capacity(f"matmul_tensor(n={n})", n ** 6, MATMUL_TENSOR_MAX_N ** 6, "tensor entries")
    k = n * n
    bits = 0
    for i in range(n):
        for j in range(n):
            for l in range(n):
                a = i * n + j
                b = j * n + l
                c = i * n + l
                bits |= 1 << ((a * k + b) * k + c)
    return DenseTensor(3, k, bits)


def explicit_form_tensor(d: int, k: int) -> DenseTensor:
    """Tensor of <x_1 * x_2 ... x_{d-1}, x_d>, products in GF(2^k).

    T(i_1..i_d) is coordinate i_d of the field product b_{i_1}...b_{i_{d-1}},
    multiplied left to right (the form is symmetric in the first d-1
    blocks, so the order only pins the file bytes).
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    check_capacity(f"explicit_form_tensor(d={d}, k={k})", _tensor_bits(d, k),
                   8 * budget_bytes(), "bits")
    gf = make_field(k)
    bits = 0
    # each product over the first d-1 indices fills k consecutive entries
    for idx in product(range(k), repeat=d - 1):
        prod = 1
        base = 0
        for i in idx:
            prod = gf.mul_bits(prod, 1 << i)
            base = (base + i) * k
        bits |= prod << base
    return DenseTensor(d, k, bits)


def random_tensor(d: int, k: int, seed: int) -> DenseTensor:
    """Uniform tensor, deterministic for a fixed seed.

    Refused before the draw when the tensor's digits and the draw's
    workspace (`draw_bytes`) exceed the byte budget.
    """
    size = _tensor_bits(d, k)
    check_capacity(f"random_tensor(d={d}, k={k})", int_bytes(size) + draw_bytes(size),
                   budget_bytes(), "bytes")
    return DenseTensor(d, k, Prng(seed).bits(size))


# Bytes of a `random_rank_decomp` term beside its vectors' digits (a
# RankOneTerm, its d-tuple and its slot in the terms), and of a vector beside
# its digits (a BitVec and its slot in the vector list): bounds of the 235
# bytes a term peaked at, at d = k = 1, and 443 at d = 3, k = 1, its words of
# the block included, under tracemalloc (Python 3.11).  4 KiB more cover the
# Prng and the frames.
DECOMP_TERM_BYTES = 160
DECOMP_VECTOR_BYTES = 128


def random_rank_decomp(d: int, k: int, t: int, seed: int) -> RankDecomposition:
    """t terms of d independent uniform vectors each; seed-deterministic.

    The t*d vectors are `Prng.draws(t * d, k)`, the values t*d
    `Prng.bits(k)` calls give.  Refused before the draw when the terms,
    the block (`words_bytes`) and the cutting of one vector exceed the
    byte budget; cutting holds one int of a vector's words, the copy
    `int.from_bytes` makes.
    """
    for name, value, least in (("d", d, 1), ("k", k, 1), ("t", t, 0)):
        if value < least:
            raise ValueError(f"random_rank_decomp needs {name} >= {least}")
    words = (k + 63) >> 6
    check_capacity(f"random_rank_decomp(d={d}, k={k}, t={t})",
                   4096 + t * (DECOMP_TERM_BYTES + d * (DECOMP_VECTOR_BYTES + int_bytes(k)))
                   + words_bytes(words * t * d) + int_bytes(64 * words),
                   budget_bytes(), "bytes")
    vectors = [BitVec(k, v) for v in Prng(seed).draws(t * d, k)]
    terms = tuple(RankOneTerm(tuple(vectors[i:i + d])) for i in range(0, t * d, d))
    return RankDecomposition(d, k, terms)


@dataclass(frozen=True)
class Polynomial:
    """Multilinear polynomial over F2 as a tuple of monomials.

    Each monomial is a sorted tuple of 0-based variable indices; the
    empty tuple is the constant 1.  Always reduced: x^2 = x inside a
    monomial, duplicate monomials cancelled mod 2.
    """

    n: int
    monomials: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = set()
        for m in self.monomials:
            if m and not (0 <= min(m) and max(m) < self.n):
                raise ValueError("variable index out of range")
            if not isinstance(m, tuple) or not all(map(lt, m, m[1:])):
                raise ValueError("monomial not sorted/reduced")
            if m in seen:
                raise ValueError("duplicate monomial")
            seen.add(m)

    @classmethod
    def reduce(cls, n: int, raw: Sequence[Sequence[int]]) -> "Polynomial":
        acc: set[tuple[int, ...]] = set()
        for m in raw:
            key = tuple(sorted(set(m)))
            acc.symmetric_difference_update({key})
        return cls(n, tuple(sorted(acc)))


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def _header(line: str, magic: str, names: Sequence[str]) -> list[int]:
    """The ints of a header line `magic name=<int> ...`, in the order of
    `names`.  Each name must appear exactly once, in any order, and nothing
    else may be on the line."""
    words = line.split()
    fields = dict(word.partition("=")[::2] for word in words[1:])
    if words[:1] != [magic] or len(fields) != len(words) - 1 or sorted(fields) != sorted(names):
        raise FormatError(f"bad {magic} header: {line!r}")
    try:
        return [int(fields[name]) for name in names]
    except ValueError as exc:
        raise FormatError(f"bad {magic} header: {line!r}") from exc


def write_tensor(fp, t: DenseTensor) -> None:
    payload = t.bits.to_bytes((t.size + 7) // 8, "little")
    fp.write(f"F2T1\nd={t.d} k={t.k}\n{payload.hex()}\n")


def read_tensor(fp) -> DenseTensor:
    lines = fp.read().splitlines()
    if len(lines) < 3 or lines[0].strip() != "F2T1":
        raise FormatError("missing F2T1 header")
    if any(ln.strip() for ln in lines[3:]):
        raise FormatError("unexpected text after the F2T1 payload line")
    # the shape line is the rest of the header, which the magic line opens
    d, k = _header("F2T1 " + lines[1], "F2T1", ("d", "k"))
    if d < 1 or k < 1:
        raise FormatError("d and k must be positive")
    size = _tensor_bits(d, k)
    if size > 8 * budget_bytes():
        raise FormatError(f"tensor shape d={d} k={k} overflows the budget")
    try:
        payload = bytes.fromhex(lines[2].strip())
    except ValueError as exc:
        raise FormatError("payload is not hex") from exc
    if len(payload) != (size + 7) // 8:
        raise FormatError(f"payload holds {len(payload)} bytes, "
                          f"expected {(size + 7) // 8}")
    bits = int.from_bytes(payload, "little")
    if bits >> size:
        raise FormatError("padding bits beyond k^d are set")
    return DenseTensor(d, k, bits)


def write_decomp(fp, decomp: RankDecomposition) -> None:
    fp.write(f"F2D1 d={decomp.d} k={decomp.k} t={decomp.t}\n")
    for term in decomp.terms:
        fp.write(" ".join(v.to01() for v in term.vectors) + "\n")


def read_decomp(fp) -> RankDecomposition:
    lines = fp.read().splitlines() or [""]
    d, k, t = _header(lines[0], "F2D1", ("d", "k", "t"))
    if d < 1 or k < 1:
        raise FormatError("d and k must be positive")
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != t:
        raise FormatError(f"expected {t} term lines, found {len(body)}")
    terms = []
    for ln in body:
        parts = ln.split()
        if len(parts) != d:
            raise FormatError(f"term line has {len(parts)} vectors, expected {d}")
        vecs = []
        for p in parts:
            if len(p) != k:
                raise FormatError(f"vector {p!r} is not length {k}")
            try:
                vecs.append(BitVec.from01(p))
            except ValueError as exc:
                raise FormatError(str(exc)) from exc
        terms.append(RankOneTerm(tuple(vecs)))
    return RankDecomposition(d, k, tuple(terms))


def read_poly(fp) -> Polynomial:
    lines = fp.read().splitlines() or [""]
    n, = _header(lines[0], "F2P1", ("n",))
    if n < 0:
        raise FormatError("negative variable count")
    raw = []
    for ln in lines[1:]:
        ln = ln.strip()
        if not ln:
            continue
        if ln == "#":
            raw.append(())
            continue
        try:
            idxs = [int(tok) - 1 for tok in ln.split()]
        except ValueError as exc:
            raise FormatError(f"bad monomial line {ln!r}") from exc
        if any(not 0 <= v < n for v in idxs):
            raise FormatError(f"variable out of range in {ln!r}")
        raw.append(idxs)
    return Polynomial.reduce(n, raw)
