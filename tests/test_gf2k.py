"""GF(2^k) arithmetic and the trace map, on packed-int elements."""

import pytest

from f2lab.gf2k import _smallest_irreducible, make_field


def test_canonical_moduli():
    assert _smallest_irreducible(1) == 0b10       # x
    assert _smallest_irreducible(2) == 0b111      # x^2 + x + 1
    assert _smallest_irreducible(3) == 0b1011     # x^3 + x + 1
    assert _smallest_irreducible(4) == 0b10011    # x^4 + x + 1


def test_make_field_range():
    with pytest.raises(ValueError):
        make_field(0)
    with pytest.raises(ValueError):
        make_field(65)


def test_gf4_multiplication_table():
    f = make_field(2)
    w = 0b10
    assert f.mul_bits(w, w) == 0b11       # x^2 = x + 1
    assert f.mul_bits(w, 1) == w
    assert f.mul_bits(w, 0) == 0


def test_trace_small_values():
    f4 = make_field(2)
    assert f4.trace_bits(0) == 0
    assert f4.trace_bits(1) == 0          # 1 + 1
    assert f4.trace_bits(0b10) == 1       # w + w^2 = 1
    f8 = make_field(3)
    assert f8.trace_bits(1) == 1          # three copies of 1


@pytest.mark.parametrize("k", range(1, 9))
def test_trace_linear_and_frobenius(k):
    f = make_field(k)
    els = range(1 << k)
    for a in els:
        assert f.trace_bits(f.mul_bits(a, a)) == f.trace_bits(a)
    step = max(1, len(els) // 32)
    for a in els[::step]:
        for b in els[::step]:
            assert f.trace_bits(a ^ b) == f.trace_bits(a) ^ f.trace_bits(b)


@pytest.mark.parametrize("k", range(1, 17))
def test_trace_balance(k):
    f = make_field(k)
    assert sum(f.trace_bits(a) for a in range(1 << k)) == 1 << (k - 1)


@pytest.mark.parametrize("k", range(1, 9))
def test_trace_nondegenerate(k):
    f = make_field(k)
    for a in range(1, 1 << k):
        assert any(f.trace_bits(f.mul_bits(a, b)) for b in range(1 << k))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_field_axioms_exhaustive(k):
    f = make_field(k)
    mul = f.mul_bits
    els = range(1 << k)
    for a in els:
        assert mul(a, 1) == a
        for b in els:
            assert mul(a, b) == mul(b, a)
            for c in els:
                assert mul(mul(a, b), c) == mul(a, mul(b, c))
                assert mul(a, b ^ c) == mul(a, b) ^ mul(a, c)
