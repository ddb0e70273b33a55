"""Tensors, decompositions, explicit constructions, file formats."""

import io
import random
import time
from itertools import product

import pytest

from f2lab._bitops import parity
from f2lab.errors import CapacityError, FormatError
from f2lab.f2linalg import BitVec
from f2lab.gf2k import make_field
from f2lab.prng import Prng
from f2lab.tensors import (DenseTensor, Polynomial, RankDecomposition,
                           RankOneTerm, evaluate, explicit_form_tensor,
                           matmul_tensor, outer_bits, random_rank_decomp,
                           random_tensor, read_decomp, read_poly, read_tensor,
                           tensor_from_decomp, trace_tensor,
                           write_decomp, write_tensor)
from oracles import below, contract, entry, poly_eval, write_poly

rng = Prng(20240)


def test_tensor_from_decomp_cases():
    assert tensor_from_decomp(RankDecomposition(3, 2, ())).bits == 0
    e1 = BitVec.from01("10")
    one_term = RankDecomposition(3, 2, (RankOneTerm((e1, e1, e1)),))
    t = tensor_from_decomp(one_term)
    assert t.bits.bit_count() == 1 and entry(t, (0, 0, 0)) == 1
    doubled = RankDecomposition(3, 2, one_term.terms * 2)
    assert tensor_from_decomp(doubled).bits == 0


def _outer_reference(vs, k):
    # entry (i_1..i_m), flat index in first-slowest order, is set exactly
    # when every u_j has bit i_j set
    bits = 0
    for flat, idx in enumerate(product(range(k), repeat=len(vs))):
        if all((v >> i) & 1 for v, i in zip(vs, idx)):
            bits |= 1 << flat
    return bits


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [1, 2])
def test_outer_bits_all_vectors(d, k):
    for vs in product(range(1 << k), repeat=d):
        assert outer_bits(vs, k) == _outer_reference(vs, k), vs


def test_outer_bits_random_k3():
    for d in range(1, 5):
        for _ in range(40):
            vs = [rng.bits(3) for _ in range(d)]
            assert outer_bits(vs, 3) == _outer_reference(vs, 3), vs
            term = RankOneTerm(tuple(BitVec(3, v) for v in vs))
            assert term.tensor_bits() == outer_bits(vs, 3)


def test_evaluate_matches_field_arithmetic():
    t = trace_tensor(2)
    f4 = make_field(2)
    for a, b, c in product(range(4), repeat=3):
        got = evaluate(t, [BitVec(2, a), BitVec(2, b), BitVec(2, c)])
        want = f4.trace_bits(f4.mul_bits(f4.mul_bits(a, b), c))
        assert got == want
    # spec case: f(w, w, 1) = trace(w^2) = trace(w+1) = 1
    assert evaluate(t, [BitVec(2, 0b10), BitVec(2, 0b10), BitVec(2, 0b01)]) == 1


def test_evaluate_zero_block():
    t = random_tensor(3, 3, 99)
    assert evaluate(t, [BitVec(3, 0), BitVec(3, 5), BitVec(3, 7)]) == 0


def test_evaluate_multilinear():
    for _ in range(300):
        d = 2 + below(rng, 3)
        k = 1 + below(rng, 3)
        t = random_tensor(d, k, rng.u64())
        xs = [BitVec.random(k, rng) for _ in range(d)]
        j = below(rng, d)
        y = BitVec.random(k, rng)
        lhs = evaluate(t, xs[:j] + [BitVec(k, xs[j].bits ^ y.bits)] + xs[j + 1:])
        rhs = evaluate(t, xs) ^ evaluate(t, xs[:j] + [y] + xs[j + 1:])
        assert lhs == rhs


def test_decomp_evaluation_agrees_with_inner_products():
    for _ in range(1000):
        d = 2 + below(rng, 2)
        k = 1 + below(rng, 3)
        t_count = below(rng, 4)
        dec = random_rank_decomp(d, k, t_count, rng.u64())
        xs = [BitVec.random(k, rng) for _ in range(d)]
        direct = 0
        for term in dec.terms:
            prod_val = 1
            for u, x in zip(term.vectors, xs):
                prod_val &= parity(u.bits & x.bits)
            direct ^= prod_val
        assert evaluate(tensor_from_decomp(dec), xs) == direct


def test_contract_commutes_with_evaluate():
    for _ in range(300):
        d = 2 + below(rng, 3)
        k = 1 + below(rng, 3)
        t = random_tensor(d, k, rng.u64())
        xs = [BitVec.random(k, rng) for _ in range(d)]
        j = 1 + below(rng, d)
        c = contract(t, j, xs[j - 1])
        assert evaluate(c, xs[:j - 1] + xs[j:]) == evaluate(t, xs)


def test_contract_cases():
    m2 = matmul_tensor(2)
    assert contract(m2, 2, BitVec(4, 0)).bits == 0
    # substituting the identity for the third operand leaves the
    # bilinear form sum_ij X_ij Y_ji
    ident = BitVec.from01("1001")
    got = contract(m2, 3, ident)
    want = 0
    for i in range(2):
        for j in range(2):
            want |= 1 << ((i * 2 + j) * 4 + (j * 2 + i))
    assert got.bits == want
    # rank-one: contraction picks up the inner product of the first factor
    u, v, w = BitVec.from01("110"), BitVec.from01("011"), BitVec.from01("101")
    t = tensor_from_decomp(RankDecomposition(3, 3, (RankOneTerm((u, v, w)),)))
    x = BitVec.from01("100")
    expected = tensor_from_decomp(RankDecomposition(2, 3, (RankOneTerm((v, w)),)))
    assert contract(t, 1, x) == (expected if parity(u.bits & x.bits) else DenseTensor(2, 3, 0))


def test_trace_tensor_cyclic_symmetry():
    for k in range(1, 9):
        t = trace_tensor(k)
        for idx in product(range(k), repeat=3):
            i, j, l = idx
            assert entry(t, (i, j, l)) == entry(t, (j, l, i))


def test_trace_tensor_k1():
    assert trace_tensor(1).bits == 1


def test_trace_tensor_guard():
    with pytest.raises(CapacityError):
        trace_tensor(25)


@pytest.mark.parametrize("build", [lambda: random_tensor(10000, 3, 0),
                                   lambda: explicit_form_tensor(10000, 3),
                                   lambda: random_tensor(10**7, 3, 0)])
def test_builders_refuse_huge_shapes_at_once(build):
    # 3 ** 10**7 alone takes seconds, and a k^d of more than 4,300 digits
    # cannot be formatted into a message; the guard needs neither
    start = time.perf_counter()
    with pytest.raises(CapacityError) as ei:
        build()
    assert time.perf_counter() - start < 0.05
    assert ei.value.required > ei.value.budget


def test_dense_tensor_huge_shape_small_bits_at_once():
    # bits no longer than (bit_length(k) - 1) d fit in k^d entries, so the
    # constructor accepts them without forming k ** d
    start = time.perf_counter()
    t = DenseTensor(10**7, 3, 1)
    assert time.perf_counter() - start < 0.05
    assert (t.d, t.k, t.bits) == (10**7, 3, 1)


@pytest.mark.parametrize("d, k, bits", [(2, 3, 1 << 9), (3, 2, 1 << 8),
                                        (2, 3, (1 << 10) - 1), (1, 1, 2), (4, 1, 2),
                                        (2, 5, 1 << 25), (1, 3, -1)])
def test_dense_tensor_rejects_bits_outside_shape(d, k, bits):
    with pytest.raises(ValueError, match="outside k\\^d"):
        DenseTensor(d, k, bits)
    # the same bits cut to the k^d entries are accepted
    DenseTensor(d, k, max(bits, 0) & ((1 << k ** d) - 1))


def test_matmul_tensor_entries():
    assert matmul_tensor(1).bits == 1
    assert matmul_tensor(2).bits.bit_count() == 8
    ident = BitVec.from01("1001")
    assert evaluate(matmul_tensor(2), [ident, ident, ident]) == 0
    with pytest.raises(CapacityError):
        matmul_tensor(5)


def test_explicit_form_tensor():
    for k in range(1, 6):
        e = explicit_form_tensor(2, k)
        for i, j in product(range(k), repeat=2):
            assert entry(e, (i, j)) == (1 if i == j else 0)
    # contracting the first block with the field unit gives the identity form
    e3 = explicit_form_tensor(3, 4)
    assert contract(e3, 1, BitVec(4, 1)) == explicit_form_tensor(2, 4)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_explicit_form_tensor_entries(d):
    # T(i_1..i_d) is coordinate i_d of b_{i_1} * ... * b_{i_{d-1}} in GF(2^k)
    for k in range(1, 5):
        field = make_field(k)
        e = explicit_form_tensor(d, k)
        for idx in product(range(k), repeat=d):
            prod = 1
            for i in idx[:-1]:
                prod = field.mul_bits(prod, 1 << i)
            assert entry(e, idx) == (prod >> idx[-1]) & 1, (d, k, idx)


def test_random_decomp_determinism_and_balance():
    assert random_rank_decomp(3, 4, 5, seed=1) == random_rank_decomp(3, 4, 5, seed=1)
    assert random_rank_decomp(2, 3, 0, seed=1).t == 0
    dec = random_rank_decomp(2, 64, 2000, seed=9)
    total = sum(v.bits.bit_count() for term in dec.terms for v in term.vectors)
    freq = total / (2 * 2000 * 64)
    assert 0.49 <= freq <= 0.51


def _tensor_text(t):
    buf = io.StringIO()
    write_tensor(buf, t)
    return buf.getvalue()


def test_tensor_file_roundtrip():
    for t in [trace_tensor(3), matmul_tensor(2), random_tensor(4, 2, 7),
              DenseTensor(2, 5, 0)]:
        assert read_tensor(io.StringIO(_tensor_text(t))) == t


def test_tensor_file_format_errors():
    assert read_tensor(io.StringIO("F2T1\nd=3 k=2\nff\n")).bits == 255
    assert read_tensor(io.StringIO("F2T1\nd=3 k=2\nff\n\n  \n")).bits == 255
    with pytest.raises(FormatError):
        read_tensor(io.StringIO("F2T1\nd=3 k=2\nff\ngarbage\n"))  # trailing line
    with pytest.raises(FormatError):
        read_tensor(io.StringIO("F2T1\nd=3 k=2\nff\n\n00\n"))
    with pytest.raises(FormatError):
        read_tensor(io.StringIO("F2X1\nd=3 k=2\nff\n"))
    with pytest.raises(FormatError):
        read_tensor(io.StringIO("F2T1\nd=3 k=2\nf\n"))       # short payload
    with pytest.raises(FormatError):
        read_tensor(io.StringIO("F2T1\nd=3 k=2\nffff\n"))    # long payload
    with pytest.raises(FormatError):
        read_tensor(io.StringIO("F2T1\nd=3 k=2\nzz\n"))      # not hex
    with pytest.raises(FormatError):
        read_tensor(io.StringIO("F2T1\nd=99 k=99\n00\n"))    # shape overflow
    with pytest.raises(FormatError):
        read_tensor(io.StringIO("F2T1\nd=10000000 k=3\n00\n"))
    assert read_tensor(io.StringIO("F2T1\nd=65 k=1\n01\n")) == DenseTensor(65, 1, 1)


def test_decomp_file_roundtrip_and_errors():
    dec = random_rank_decomp(3, 5, 4, seed=3)
    buf = io.StringIO()
    write_decomp(buf, dec)
    assert read_decomp(io.StringIO(buf.getvalue())) == dec
    with pytest.raises(FormatError):
        read_decomp(io.StringIO("F2D1 d=3 k=2 t=2\n11 01 10\n"))
    with pytest.raises(FormatError):
        read_decomp(io.StringIO("F2D1 d=2 k=2 t=1\n11 0x\n"))
    for head in ("F2D1 d=-1 k=2 t=0", "F2D1 d=0 k=2 t=0", "F2D1 d=3 k=0 t=0"):
        with pytest.raises(FormatError, match="d and k must be positive"):
            read_decomp(io.StringIO(head + "\n"))


def test_poly_file_roundtrip_and_reduction():
    p = read_poly(io.StringIO("F2P1 n=4\n1 2\n#\n3\n3\n"))
    assert p.monomials == ((), (0, 1))    # duplicate monomial cancelled
    p2 = read_poly(io.StringIO("F2P1 n=4\n2 2 1\n"))
    assert p2.monomials == ((0, 1),)      # x^2 = x inside a monomial
    buf = io.StringIO()
    write_poly(buf, p)
    assert read_poly(io.StringIO(buf.getvalue())) == p
    with pytest.raises(FormatError):
        read_poly(io.StringIO("F2P1 n=2\n7\n"))


def test_file_roundtrip_random_sweep():
    for _ in range(100):
        d = 1 + below(rng, 3)
        k = 1 + below(rng, 4)
        t = random_tensor(d, k, rng.u64())
        assert read_tensor(io.StringIO(_tensor_text(t))) == t
        dec = random_rank_decomp(d, k, below(rng, 4), rng.u64())
        buf = io.StringIO()
        write_decomp(buf, dec)
        assert read_decomp(io.StringIO(buf.getvalue())) == dec


# each reader and texts whose header breaks the rule: the right magic word,
# each field exactly once, nothing else on the line
_HEADER_CASES = {
    "F2T1": (read_tensor, {
        "extra key": "F2T1\nd=3 k=2 t=1\nff\n",
        "stray word": "F2T1\nd=3 k=2 x\nff\n",
        "missing key": "F2T1\nd=3\nff\n",
        "duplicate key": "F2T1\nd=3 k=2 k=2\nff\n",
        "wrong magic": "F2X1\nd=3 k=2\nff\n",
        "magic on the shape line": "F2T1\nF2T1 d=3 k=2\nff\n",
        "empty magic line": "\nd=3 k=2\nff\n",
        "empty shape line": "F2T1\n\nff\n",
        "blank shape line": "F2T1\n \t \nff\n",
    }),
    "F2D1": (read_decomp, {
        "extra key": "F2D1 d=2 k=2 t=1 n=1\n11 01\n",
        "stray word": "F2D1 d=2 k=2 t=1 x\n11 01\n",
        "missing key": "F2D1 d=2 k=2\n11 01\n",
        "duplicate key": "F2D1 d=2 d=2 k=2 t=1\n11 01\n",
        "wrong magic": "F2T1 d=2 k=2 t=1\n11 01\n",
        "empty file": "",
        "empty header": "\n11 01\n",
        "blank header": "  \t\n11 01\n",
    }),
    "F2P1": (read_poly, {
        "extra key": "F2P1 n=2 d=1\n1 2\n",
        "stray word": "F2P1 n=2 x\n1 2\n",
        "missing key": "F2P1\n1 2\n",
        "duplicate key": "F2P1 n=2 n=2\n1 2\n",
        "wrong magic": "F2D1 n=2\n1 2\n",
        "empty file": "",
        "empty header": "\n1 2\n",
        "blank header": " \n1 2\n",
    }),
}


def test_header_fields_parse_in_any_order():
    for reader, valid, flipped in [
            (read_tensor, "F2T1\nd=3 k=2\nff\n", "F2T1\nk=2 d=3\nff\n"),
            (read_decomp, "F2D1 d=2 k=2 t=1\n11 01\n", "F2D1 t=1 k=2 d=2\n11 01\n")]:
        assert reader(io.StringIO(flipped)) == reader(io.StringIO(valid))


@pytest.mark.parametrize("fmt, case", [(fmt, case) for fmt in sorted(_HEADER_CASES)
                                       for case in _HEADER_CASES[fmt][1]])
def test_header_rule_violations_raise_format_error(fmt, case):
    reader, bad = _HEADER_CASES[fmt]
    with pytest.raises(FormatError):
        reader(io.StringIO(bad[case]))


_VALID_TEXTS = {
    "F2T1": (read_tensor, lambda buf: write_tensor(buf, random_tensor(3, 3, 5))),
    "F2D1": (read_decomp, lambda buf: write_decomp(buf, random_rank_decomp(3, 4, 3, 5))),
    "F2P1": (read_poly, lambda buf: write_poly(
        buf, Polynomial.reduce(6, [(0, 1, 2), (), (3, 5), (1,)]))),
}


@pytest.mark.parametrize("fmt", sorted(_VALID_TEXTS))
def test_reader_mutations_return_or_raise_format_error(fmt):
    # 2,000 seeded edits of a valid file, each one to three deletions,
    # insertions, substitutions or truncations: a reader returns an object
    # or raises FormatError, never anything else
    reader, write = _VALID_TEXTS[fmt]
    buf = io.StringIO()
    write(buf)
    text = buf.getvalue()
    alphabet = sorted(set(text) | set("0123456789abcdef=-# \nx"))
    rnd = random.Random(f"mutate-{fmt}")
    for _ in range(2000):
        chars = list(text)
        for _ in range(1 + rnd.randrange(3)):
            pos = rnd.randrange(len(chars) + 1)
            op = rnd.choice(("delete", "insert", "substitute", "truncate"))
            if op == "insert":
                chars.insert(pos, rnd.choice(alphabet))
            elif op == "truncate":
                del chars[pos:]
            elif pos < len(chars):
                chars[pos:pos + 1] = [] if op == "delete" else [rnd.choice(alphabet)]
        try:
            reader(io.StringIO("".join(chars)))
        except FormatError:
            pass


def test_polynomial_evaluate():
    p = Polynomial.reduce(3, [(0, 1), ()])
    assert poly_eval(p, 0b011) == 0  # x0 x1 + 1 at (1,1,0): 1 + 1
    assert poly_eval(p, 0b001) == 1
