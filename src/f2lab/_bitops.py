"""Low-level bit tricks shared by the packed-arithmetic modules.

Vectors, matrices, tensors and whole truth tables are stored as Python
ints, coordinate/flat-index j at bit j.  Python's arbitrary-precision
ints give word-parallel XOR/AND/OR for free, which is the inner kernel
of everything here.
"""

from __future__ import annotations

import os

_DEFAULT_BUDGET_BYTES = 1 << 27  # 128 MiB of table bits per operation


def budget_bytes(override: int | None = None) -> int:
    """Enumeration/table budget in bytes (env F2LAB_BUDGET_BYTES)."""
    if override is not None:
        return int(override)
    env = os.environ.get("F2LAB_BUDGET_BYTES")
    if env:
        return int(env)
    return _DEFAULT_BUDGET_BYTES


def ones(n: int) -> int:
    """n consecutive set bits."""
    return (1 << n) - 1


def ctz(x: int) -> int:
    """Index of the lowest set bit; x must be nonzero."""
    return (x & -x).bit_length() - 1


def parity(x: int) -> int:
    return x.bit_count() & 1


def var_mask(v: int, m: int) -> int:
    """Truth table, over all 2^m inputs, of input bit v.

    Bit i of the result is bit v of i: a repeating pattern of 2^v zeros
    followed by 2^v ones.
    """
    if not 0 <= v < m:
        raise ValueError(f"variable {v} out of range for {m} bits")
    block = ones(1 << v) << (1 << v)
    width = 1 << (v + 1)
    total = 1 << m
    while width < total:
        block |= block << width
        width <<= 1
    return block


def linear_form_table(support: int, m: int) -> int:
    """Truth table over 2^m inputs of the linear form <support, x>."""
    t = 0
    s = support
    while s:
        v = ctz(s)
        s &= s - 1
        t ^= var_mask(v, m)
    return t


def form_table(bits: int, dims: int, k: int) -> int:
    """Truth table over 2^(k*dims) inputs of the dims-linear form `bits`.

    `bits` is a packed tensor of side k (first index slowest).  The input
    index packs the blocks with the first block at the high bits, so
    bits [x * 2^(k(dims-1)), (x+1) * 2^(k(dims-1))) hold the residual
    table at first-block value x.  dims == 1 is `linear_form_table`.
    """
    if dims == 1:
        return linear_form_table(bits, k)
    step = k ** (dims - 1)
    mask = ones(step)
    tabs = [0]
    for i in range(k):
        s = (bits >> (i * step)) & mask
        ti = form_table(s, dims - 1, k) if s else 0
        tabs += [a ^ ti for a in tabs] if ti else tabs  # tabs[x] = xor of t_i, i in x
    width = 1 << (k * (dims - 1))
    if width >= 8:  # a power of two, so whole bytes
        nb = width >> 3
        return int.from_bytes(b"".join(a.to_bytes(nb, "little") for a in tabs),
                              "little")
    out = 0
    for x, a in enumerate(tabs):
        out |= a << (x * width)
    return out


def anf_table(anf: int, m: int) -> int:
    """Truth table over 2^m inputs of the polynomial whose bit u is the
    monomial prod_{i in u} x_i (the binary Moebius transform)."""
    for v in range(m):
        anf ^= (anf << (1 << v)) & var_mask(v, m)
    return anf


def gray_flips(nbits: int):
    """Yield the bit flipped at each step of a full Gray-code walk.

    The walk starts at 0 (not yielded) and visits all 2^nbits values;
    2^nbits - 1 flips are produced.
    """
    for step in range(1, 1 << nbits):
        yield ctz(step)
