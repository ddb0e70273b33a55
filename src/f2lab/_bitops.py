"""Low-level bit tricks shared by the packed-arithmetic modules.

Vectors, matrices, tensors and whole truth tables are stored as Python
ints, coordinate/flat-index j at bit j.  Python's arbitrary-precision
ints give word-parallel XOR/AND/OR for free, which is the inner kernel
of everything here.
"""

from __future__ import annotations

import os
import sys
from array import array
from typing import Iterable

from .errors import InvariantError

_DEFAULT_BUDGET_BYTES = 1 << 27  # 128 MiB of table bits per operation


def budget_bytes() -> int:
    """Enumeration/table budget in bytes.

    The environment variable F2LAB_BUDGET_BYTES is the only way to set it
    and is read at each call.  It must be a positive integer (surrounding
    whitespace is accepted); unset or empty means the 128 MiB default.
    """
    env = os.environ.get("F2LAB_BUDGET_BYTES")
    if not env:
        return _DEFAULT_BUDGET_BYTES
    try:
        value = int(env)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError("F2LAB_BUDGET_BYTES must be a positive integer (bytes), "
                         f"got {env!r}")
    return value


def int_bytes(nbits: int) -> int:
    """Digit bytes of an nbits-bit int in the byte models: 4 per 30 bits."""
    return 4 * (nbits // 30 + 1)


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


def linear_form_table(support: int, m: int, masks: list[int] | None = None) -> int:
    """Truth table over 2^m inputs of the linear form <support, x>: the
    XOR of the variable tables `var_mask(v, m)` over the support, taken
    from `masks` when given, else each built as its bit needs it."""
    t = 0
    s = support
    while s:
        v = ctz(s)
        s &= s - 1
        t ^= var_mask(v, m) if masks is None else masks[v]
    return t


def repeat(table: int, width: int, copies: int) -> int:
    """`copies` copies, a power of two, of the width-bit `table` side by
    side: copy x at bits [x width, (x+1) width).  Built by doubling."""
    total = width * copies
    while width < total:
        table |= table << width
        width <<= 1
    return table


def subset_xor_table(tables: Iterable[int], width: int) -> int:
    """Bits [x width, (x+1) width) hold the XOR of tables[a] over the set
    bits a of x, for every x below 2^len(tables); width a power of two.

    Built by doubling: after step a, `acc` covers the x below 2^(a+1), and
    its new upper half is the lower one XOR 2^a copies of tables[a], so a
    step is one big-int expression and the tables may come one at a time.
    """
    acc = 0
    for a, t in enumerate(tables):
        acc |= (acc ^ repeat(t, width, 1 << a)) << (width << a)
    return acc


def form_table(bits: int, dims: int, k: int, masks: list[int] | None = None) -> int:
    """Truth table over 2^(k*dims) inputs of the dims-linear form `bits`.

    `bits` is a packed tensor of side k (first index slowest).  The input
    index packs the blocks with the first block at the high bits, so
    bits [x * 2^(k(dims-1)), (x+1) * 2^(k(dims-1))) hold the residual
    table at first-block value x: the `subset_xor_table` of the k slice
    tables, built one at a time.  The linear tables at the bottom share
    the k variable masks `masks`, which a dims >= 2 call builds once and a
    caller building many tables may pass in; a linear table alone builds
    one mask at a time (`linear_form_table`), not k of its own size.
    """
    if not bits:
        return 0
    if dims == 1:
        return linear_form_table(bits, k, masks)
    if masks is None:
        masks = [var_mask(v, k) for v in range(k)]
    step = k ** (dims - 1)
    return subset_xor_table((form_table((bits >> (i * step)) & ones(step), dims - 1, k, masks)
                             for i in range(k)), 1 << (k * (dims - 1)))


def anf_pieces(monomials: Iterable[int], n: int, m: int) -> list[int]:
    """Truth table over 2^n inputs of the sum of the monomials
    prod_{i in w} x_i, w an n-bit input mask, in 2^(n-m) pieces of 2^m
    bits: piece x is the table where the high n - m input bits are x.  A
    monomial given twice cancels.

    The monomials are bucketed by their high part S into ANFs over the m
    low bits, each a bytearray in which a monomial flips one bit; each
    bucket becomes its piece's int and is freed in turn.  The binary
    Moebius passes run over the low bits of the nonzero buckets, each
    variable mask built once, and then a subset transform over the high
    bits makes piece x the XOR of the buckets S within x.  A piece no
    bucket reaches is 0, and equal pieces may be one shared int.  m = n
    gives the whole table as the one piece.
    """
    low = ones(m)
    nbytes = ((1 << m) + 7) >> 3
    pieces: list = [0] * (1 << (n - m))
    for w in monomials:
        b = pieces[w >> m] = pieces[w >> m] or bytearray(nbytes)
        lw = w & low
        b[lw >> 3] ^= 1 << (lw & 7)
    for x, b in enumerate(pieces):
        if b:
            pieces[x] = int.from_bytes(b, "little")
    del b  # the last bucket, a whole table when m = n
    live = [x for x, b in enumerate(pieces) if b]
    for v in range(m):
        mask = var_mask(v, m)
        for x in live:
            b = pieces[x]
            pieces[x] = b ^ ((b << (1 << v)) & mask)
    for j in range(n - m):
        bit = 1 << j
        for x, sub in enumerate(pieces):
            if sub and not x & bit:
                y = x | bit
                pieces[y] = pieces[y] ^ sub if pieces[y] else sub
    return pieces


_FIELD_OF_BIT = bytes.maketrans(b"01", b"\x02\x00")  # (-1)^b + 1, as a byte


def walsh_spectrum(table: int, n: int) -> tuple[int, array]:
    """Walsh-Hadamard spectrum W(u) = sum_x (-1)^(table(x) + u.x) of the
    2^n-bit truth table `table` (u.x the parity of u & x), as 2^n 32-bit
    fields W(u) + 2^n: packed in one int, field u at bit 32u, and as
    array("I") entry u.

    Field x starts at (-1)^table(x) + 1.  The stages run over the bits of
    x from the highest down; after j of them field x holds W + 2^j, W the
    sum over the 2^j inputs that differ from x only in those bits.  The
    stage on bit s sends the fields (a, b) that differ only in bit s of x
    to (a + b, a - b + 2^(j+1)): both lie in [0, 2^(j+2)], so no field
    borrows or carries while 2^(n+1) < 2^32, and the stage is one integer
    sum of its parts, (a + b) + ((a - b) << 32*2^s) + offset, whose
    intermediates may borrow freely.  Its mask `high` (the fields with bit
    s set) and `offset` (2^(j+1) in those fields) come from the previous
    stage's by one shift-XOR doubling, starting from the high half of the
    fields.  W(0) and the sum of the spectrum, 2^n (-1)^table(0), are
    checked.
    """
    size = 1 << n
    field_bytes = format(table, "b").zfill(size)[::-1].encode().translate(_FIELD_OF_BIT)
    buf = bytearray(4 << n)
    buf[::4] = field_bytes
    x = int.from_bytes(buf, "little")
    del buf, field_bytes
    high = ones(16 << n) << (16 << n)
    offset = (high // 0xFFFFFFFF) << 1
    for s in reversed(range(n)):
        width = 32 << s
        b = x & high  # the fields with bit s set
        x ^= b  # a, the fields with bit s clear
        b >>= width  # b on a's fields
        x += b  # a + b
        b <<= 1
        b = x - b  # a - b, in place to hold one int less
        b <<= width
        x += b
        del b
        x += offset
        if s:
            high ^= high >> (width >> 1)
            offset = (offset ^ (offset >> (width >> 1))) << 1
    spectrum = array("I", x.to_bytes(4 << n, "little"))
    if sys.byteorder == "big":
        spectrum.byteswap()
    if (spectrum[0] != 2 * (size - table.bit_count())
            or sum(spectrum) != size * size + (-size if table & 1 else size)):
        raise InvariantError("Walsh spectrum fields carried or borrowed")
    return x, spectrum

