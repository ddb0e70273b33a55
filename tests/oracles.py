"""Per-input reference routes the tests compare f2lab against.

None of these is on a program path: each recomputes, one input or one
element at a time, what the library computes in bulk, so a test can
check a packed or bit-sliced route against a plain one.
"""

import math
from fractions import Fraction
from itertools import combinations, product

from f2lab._bitops import ctz, form_table, ones, var_mask
from f2lab.bias import (_MC_BLOCK, _MC_PLANE_BITS, BiasEstimate, _hoeffding_halfwidth,
                        _sliced_form, bias_exact)
from f2lab.f2linalg import BitVec, rank_of_row_ints
from f2lab.gf2k import make_field
from f2lab.prng import Prng
from f2lab.tensors import DenseTensor, Polynomial, RankDecomposition, RankOneTerm


def gray_flips(nbits):
    """Yield the bit flipped at each step of a full Gray-code walk.

    The walk starts at 0 (not yielded) and visits all 2^nbits values;
    2^nbits - 1 flips are produced.
    """
    for step in range(1, 1 << nbits):
        yield ctz(step)


def below(rng, n):
    """Uniform integer in [0, n) by rejection from rng.bits."""
    if n <= 0:
        raise ValueError("below() needs n >= 1")
    nbits = (n - 1).bit_length()
    while True:
        x = rng.bits(nbits)
        if x < n:
            return x


def entry(t, idx):
    """T(i_1..i_d), the first index slowest."""
    if len(idx) != t.d:
        raise ValueError("index arity != d")
    flat = 0
    for i in idx:
        if not 0 <= i < t.k:
            raise IndexError("index out of range")
        flat = flat * t.k + i
    return (t.bits >> flat) & 1


def contract(t, block, x):
    """Substitute the BitVec x into block `block` (1-based); returns a
    (d-1)-tensor with evaluate(contract(T, j, x), rest) = evaluate(T, ..., x
    at j, ...)."""
    if not 1 <= block <= t.d:
        raise ValueError("block index out of range")
    if x.length != t.k:
        raise ValueError("vector length != k")
    if t.d == 1:
        raise ValueError("cannot contract a 1-dimensional tensor")
    k = t.k
    j0 = block - 1
    stride = k ** (t.d - 1 - j0)  # flat distance between consecutive values of this index
    chunk = ones(stride)
    inner = 0
    for c in range(k):
        if (x.bits >> c) & 1:
            # gather every run where index j0 equals c
            for a in range(k ** j0):
                seg = (t.bits >> (a * stride * k + c * stride)) & chunk
                inner ^= seg << (a * stride)
    return DenseTensor(t.d - 1, k, inner)


def permute_blocks(t, perm):
    """The tensor whose block j is block perm[j] of t."""
    k, d = t.k, t.d
    out = 0
    for flat in range(k ** d):
        if (t.bits >> flat) & 1:
            idx = [(flat // k ** (d - 1 - j)) % k for j in range(d)]
            new = 0
            for j in range(d):
                new = new * k + idx[perm[j]]
            out |= 1 << new
    return DenseTensor(d, k, out)


def random_invertible(k, rng):
    """A uniform invertible k x k matrix over F2 as its k column ints, by
    rejection from rng.bits."""
    while True:
        cols = [rng.bits(k) for _ in range(k)]
        if rank_of_row_ints(cols) == k:
            return cols


def change_basis(t, mats):
    """The tensor of f_T(A_1 x_1, ..., A_d x_d), where mats[b][j] is
    column j of A_{b+1}: entry (j_1..j_d) is T(A_1 e_j1, ..., A_d e_jd),
    the parity of T over the product of the columns' supports."""
    k, d = t.k, t.d
    out = 0
    for flat, idx in enumerate(product(range(k), repeat=d)):
        supports = [[i for i in range(k) if (mats[b][j] >> i) & 1]
                    for b, j in enumerate(idx)]
        if sum(entry(t, src) for src in product(*supports)) & 1:
            out |= 1 << flat
    return DenseTensor(d, k, out)


def poly_eval(p, assignment_bits):
    """The Polynomial p at the input whose variable v is bit v."""
    val = 0
    for m in p.monomials:
        if all((assignment_bits >> v) & 1 for v in m):
            val ^= 1
    return val


def span_elements(s):
    """All 2^dim elements of the Subspace s, in Gray-code order from 0."""
    cur = 0
    yield cur
    for flip in gray_flips(s.dim):
        cur ^= s.basis[flip]
        yield cur


def write_poly(fp, poly):
    """F2P1 text of poly, which read_poly reads back."""
    fp.write(f"F2P1 n={poly.n}\n")
    for m in poly.monomials:
        fp.write("#\n" if not m else " ".join(str(v + 1) for v in m) + "\n")


def class_max_walk(t, degree):
    """Max |correlation| of f_T over the polynomials of degree <= `degree`
    in the variables j*k + i (coordinate i of block j), as (numerator over
    2^(kd), monomials of the least maximizer).

    Every member without a constant, P and P + 1 tying: a Gray walk over
    the monomials of degree >= 2 from the zero polynomial, in order of
    degree then lexicographically, and at each of its states every linear
    part sum_{v in a} x_v in increasing order of the int a, keeping the
    first strict maximizer.  Tables are built input by input, variable v
    at bit v.
    """
    k, d = t.k, t.d
    n = k * d
    size = 1 << n

    def table(mono):
        return sum(1 << x for x in range(size) if all((x >> v) & 1 for v in mono))

    form = 0
    for flat in range(k ** d):
        if (t.bits >> flat) & 1:
            form ^= table([j * k + (flat // k ** (d - 1 - j)) % k for j in range(d)])
    high = [m for deg in range(2, degree + 1) for m in combinations(range(n), deg)]
    tables = [table(m) for m in high]
    linear = [table((v,)) for v in range(n)] if degree >= 1 else []
    best = -1
    subset = 0
    for flip in [None, *gray_flips(len(high))]:
        if flip is not None:
            form ^= tables[flip]
            subset ^= 1 << flip
        for a in range(1 << len(linear)):
            cur = form
            for v in range(n):
                if (a >> v) & 1:
                    cur ^= linear[v]
            num = abs(size - 2 * cur.bit_count())
            if num > best:
                best, best_set, best_a = num, subset, a
    return best, ([m for i, m in enumerate(high) if (best_set >> i) & 1]
                  + [(v,) for v in range(n) if (best_a >> v) & 1])


def walsh_sum(table, n, u):
    """W(u) = sum over the 2^n inputs x of (-1)^(table(x) + parity(u & x)),
    one input at a time."""
    return sum(1 - 2 * (((table >> x) ^ (u & x).bit_count()) & 1) for x in range(1 << n))


def lane_matrices(planes, samples):
    """The `samples` matrices held in entry planes, one bit at a time:
    bit b of matrix s is bit s of plane b."""
    return [sum(((p >> s) & 1) << b for b, p in enumerate(planes)) for s in range(samples)]


def bias_tail_hits(d, k, threshold, samples, rng):
    """How many of `samples` random d-tensors of side k have bias_exact >=
    threshold - 1e-15, one DenseTensor per sample: at d = 2 matrix s is
    lane s of rng.planes(k^2, samples) (`lane_matrices`), and from d = 3
    on tensor s is the s-th rng.bits(k^d)."""
    if d == 2:
        draws = lane_matrices(rng.planes(k * k, samples), samples)
    else:
        draws = [rng.bits(k ** d) for _ in range(samples)]
    hits = 0
    for bits in draws:
        if bias_exact(DenseTensor(d, k, bits)).to_float() >= threshold - 1e-15:
            hits += 1
    return hits


def feasible_profile(k, u, b):
    """The profile b, checked to lie in {k >= b_1 >= ... >= b_k >= 0,
    sum_i b_i = u} up to float rounding; ValueError otherwise."""
    if len(b) != k:
        raise ValueError("profile length != k")
    if any(not -1e-12 <= x <= prev + 1e-12 for prev, x in zip((float(k), *b), b)):
        raise ValueError("profile not monotone in [0, k]")
    if abs(sum(b) - u) > 1e-9:
        raise ValueError("profile does not sum to u")
    return b


def random_feasible(k, u, draws):
    """Random profile from k uniform draws, checked by `feasible_profile`:
    sort descending, rescale to sum u, clamp to [0, k] redistributing any
    clamped excess, then move the rounding drift into the leading values."""
    vals = sorted(draws, reverse=True)
    total = sum(vals)
    if total == 0.0:
        vals = [u / k] * k
    else:
        vals = [v * u / total for v in vals]
    for _ in range(k + 1):
        excess = 0.0
        room = 0
        for i, v in enumerate(vals):
            if v > k:
                excess += v - k
                vals[i] = float(k)
            elif v < k:
                room += 1
        if excess <= 1e-12 or room == 0:
            break
        add = excess / room
        vals = [min(float(k), v + add) if v < k else v for v in vals]
    vals.sort(reverse=True)
    drift = u - sum(vals)
    for i in range(k):
        take = min(max(vals[i] + drift, 0.0), float(k))
        drift -= take - vals[i]
        vals[i] = take
        if abs(drift) < 1e-12:
            break
    vals.sort(reverse=True)
    return feasible_profile(k, u, tuple(vals))


def sampled_profile_max(k, u, trials, seed):
    """Largest objective sum_i 2^(i-1) 2^(b_i) over `trials` random
    feasible profiles, one checked profile per trial, each from k stream
    words read as floats."""
    rng = Prng(seed)
    best = -math.inf
    for _ in range(trials):
        draws = [rng.u64() / 2 ** 64 for _ in range(k)]
        b = random_feasible(k, u, draws)
        best = max(best, sum(2.0 ** i * 2.0 ** bi for i, bi in enumerate(b)))
    return best


def solve_gauss_jordan(rows, rhs):
    """The one solution x of rows . x = rhs for a square system of
    Fractions, or None when it is singular: Gauss-Jordan elimination,
    every entry a Fraction, each pivot row divided through."""
    n = len(rows)
    m = [list(row) + [r] for row, r in zip(rows, rhs)]
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col]), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        lead = m[col][col]
        m[col] = [x / lead for x in m[col]]
        for i in range(n):
            if i != col and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return [row[n] for row in m]


def exact_vertices_gauss_jordan(k, u):
    """Vertices of {k >= b_1 >= ... >= b_k >= 0, sum_i b_i = u}, u read
    as Fraction(u): every k x k system of the chain inequalities with two
    left free, plus the sum row, all in Fractions, by
    `solve_gauss_jordan`, kept when feasible."""
    chain = [([Fraction((i == j - 1) - (i == j)) for i in range(k)],
              Fraction(-k if j == 0 else 0)) for j in range(k + 1)]
    total = ([Fraction(1)] * k, Fraction(u))
    vertices = set()
    for free in combinations(range(k + 1), 2):
        eqs = [c for j, c in enumerate(chain) if j not in free] + [total]
        b = solve_gauss_jordan([row for row, _ in eqs], [rhs for _, rhs in eqs])
        if b is not None and all(x >= y for x, y in zip([k, *b], [*b, 0])):
            vertices.add(tuple(b))
    return vertices


def validate_polynomial(n, monomials):
    """Polynomial's checks monomial by monomial, each its own scan: every
    index in [0, n), then the monomial equal to its sorted distinct
    indices, then no monomial seen before; raises the first failure's
    ValueError."""
    seen = set()
    for m in monomials:
        if any(not 0 <= v < n for v in m):
            raise ValueError("variable index out of range")
        if tuple(sorted(set(m))) != m:
            raise ValueError("monomial not sorted/reduced")
        if m in seen:
            raise ValueError("duplicate monomial")
        seen.add(m)


def anf_table(anf, m):
    """Truth table over 2^m inputs of the polynomial whose bit u is the
    monomial prod_{i in u} x_i: the binary Moebius transform of the whole
    table, one variable at a time."""
    for v in range(m):
        anf ^= (anf << (1 << v)) & var_mask(v, m)
    return anf


def corr_whole_table(t, poly):
    """Corr(f_T, P) as (numerator, exponent n = kd): the popcount of the
    XOR of the whole 2^n-bit tables of f_T (`form_table`) and of P
    (`anf_table`), polynomial variable j*k + i at input bit (d-1-j)k + i."""
    k, d = t.k, t.d
    n = k * d
    anf = 0
    for mono in poly.monomials:
        anf ^= 1 << sum(1 << ((d - 1 - v // k) * k + v % k) for v in mono)
    ones_count = (form_table(t.bits, d, k) ^ anf_table(anf, n)).bit_count()
    return abs((1 << n) - 2 * ones_count), n


def preimage_counts(h, a, k):
    """#{x : h(x) = a} and #{x : h(x) = 0}, one input x at a time: bit i
    of h(x) is the parity of h[i] & x."""
    fiber = kernel = 0
    for x in range(1 << k):
        hx = 0
        for i in range(k):
            hx |= ((h[i] & x).bit_count() & 1) << i
        fiber += hx == a
        kernel += hx == 0
    return fiber, kernel


def trace_tensor_cubic(k):
    """T(i,j,l) = Trace(b_i b_j b_l) in GF(2^k), polynomial basis, from k^3
    field multiplications and traces, l fastest."""
    gf = make_field(k)
    bits = 0
    flat = 0
    for i in range(k):
        for j in range(k):
            bij = gf.mul_bits(1 << i, 1 << j)
            for l in range(k):
                if gf.trace_bits(gf.mul_bits(bij, 1 << l)):
                    bits |= 1 << flat
                flat += 1
    return DenseTensor(3, k, bits)


def rank_decomp_per_vector(d, k, t, seed):
    """t terms of d vectors, each vector its own rng.bits(k) draw, in
    term order then block order."""
    rng = Prng(seed)
    return RankDecomposition(d, k, tuple(
        RankOneTerm(tuple(BitVec(k, rng.bits(k)) for _ in range(d))) for _ in range(t)))


def bias_mc_per_plane(t, samples, confidence, seed):
    """bias_mc's estimate with each of a block's d*k planes drawn by its
    own rng.bits(n) call, block-major and coordinate-minor."""
    k, d = t.k, t.d
    block = max(64, min(_MC_BLOCK, _MC_PLANE_BITS // (d * k)))
    rng = Prng(seed)
    acc = 0
    for start in range(0, samples, block):
        n = min(block, samples - start)
        planes = [[rng.bits(n) for _ in range(k)] for _ in range(d)]
        acc += n - 2 * _sliced_form(t.bits, planes, 0, k).bit_count()
    return BiasEstimate(point=acc / samples,
                        ci_halfwidth=_hoeffding_halfwidth(samples, confidence),
                        samples=samples, confidence=confidence, seed=seed)


def inequality_grid(q_max, s):
    """(lhs, rhs, interior) of the two scalar inequalities at each point of
    `inequality_checks`' grid, as Fractions of the real-valued sides: r, x,
    y, l, b and z themselves, and each power taken as the rational it is."""
    F = Fraction
    out = []
    for q in range(1, q_max + 1):
        for i in range(q, q * q_max + 1):
            for a in range(s, 2 * s + 1):
                for b in range(a, 2 * s + 1):
                    x, y = F(b, s) ** q, F(a, s) ** q
                    xr, yr = F(b, s) ** i, F(a, s) ** i       # x^(i/q), y^(i/q)
                    out.append(((yr - 1) * (x - 1), (xr - 1) * (y - 1),
                                1 < y < x and F(i, q) > 1))
        for i in range(q + 1):
            for j in range(q + 1):
                lam, beta = F(i, q), F(j, q)
                for w in range(s, 2 * s + 1):
                    # z = (w/s)^(q^2), so z^e = (w/s)^(e q^2), an integer power
                    z = {e: F(w, s) ** int(e * q * q) for e in (lam, beta, lam * beta, 1)}
                    out.append(((z[lam] - 1) * (z[beta] - 1), (z[lam * beta] - 1) * (z[1] - 1),
                                0 < lam < 1 and 0 < beta < 1 and z[1] > 1))
    return out


def lifted_form(d, k, rng):
    """Random degree-(d-1) multilinear form, one rng.bits(k^(d-1)) per block
    left out: each set flat index's variables found by division, and the
    monomials reduced mod 2."""
    monos = []
    for skip in range(d):
        blocks = [j for j in range(d) if j != skip]
        sub = rng.bits(k ** (d - 1))
        for flat in range(k ** (d - 1)):
            if (sub >> flat) & 1:
                idx = []
                rest = flat
                for j in reversed(blocks):
                    idx.append(j * k + rest % k)
                    rest //= k
                monos.append(tuple(sorted(idx)))
    return Polynomial.reduce(k * d, monos)
