"""The benchmark's four workloads: inputs from a seed, operations, references.

Each workload is a fixed list of operations on inputs built from the
benchmark seed.  `build` is the set-up (it is timed as part of
`setup_s`); each `Op.run` is one timed operation; each `Op.check` compares
the result with a reference that does not share the code path under test:
a closed form, a second exact route, a search written here, or the
Monte-Carlo band the harness itself uses.  Checks run after the timed pass.

Operations look functions up on the f2lab modules at call time, so the
tracer's wrappers (installed on those module attributes) see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Any, Callable

from f2lab import bias, cli, rank, tensors


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    # returns None when the result agrees with its reference, else why not
    check: Callable[[Any], str | None]


@dataclass
class Workload:
    ops: list[Op]
    inputs: dict[str, Any] = field(default_factory=dict)


def _frac(d) -> Fraction:
    return Fraction(d.numerator, 1 << d.exponent)


def _expect(want: Fraction) -> Callable[[Any], str | None]:
    def check(got) -> str | None:
        return None if _frac(got) == want else f"got {got}, want {want}"
    return check


def _trace_bias(k: int) -> Fraction:
    """2 * 2^-k - 2^-2k, the bias of the GF(2^k) trace tensor."""
    return 2 * Fraction(1, 1 << k) - Fraction(1, 1 << (2 * k))


def _explicit_bias(d: int, k: int) -> Fraction:
    """1 - (1 - 2^-k)^(d-1), the bias of the product-then-project form."""
    return 1 - (1 - Fraction(1, 1 << k)) ** (d - 1)


# ---------------------------------------------------------------------------
# Independent exact rank: the least r such that the span of r rank-one
# (d-1)-tensors contains every first-block slice.  Shares nothing with the
# meet-in-the-middle search in f2lab.rank.
# ---------------------------------------------------------------------------


def _rank_rows(rows) -> int:
    pivots: dict[int, int] = {}
    for r in rows:
        while r:
            p = r & -r
            if p not in pivots:
                pivots[p] = r
                break
            r ^= pivots[p]
    return len(pivots)


def _outer(vectors: tuple[int, ...], k: int) -> int:
    """Packed bits of v_1 (x) ... (x) v_m, first factor slowest."""
    positions = [0]
    for v in vectors:
        positions = [p * k + i for p in positions for i in range(k) if (v >> i) & 1]
    return sum(1 << p for p in positions)


def slice_span_rank(t, upper: int) -> int:
    """Exact rank of `t`, given that a decomposition of length `upper` exists."""
    k, d = t.k, t.d
    step = k ** (d - 1)
    slices = [(t.bits >> (i * step)) & ((1 << step) - 1) for i in range(k)]
    dim = _rank_rows(slices)
    if dim == 0:
        return 0
    rank_ones = [_outer(vs, k) for vs in _product(range(1, 1 << k), d - 1)]
    for r in range(dim, upper):
        for combo in combinations(rank_ones, r):
            if _rank_rows(combo) == _rank_rows(list(combo) + slices):
                return r
    return upper


def _product(values, repeat: int):
    out = [()]
    for _ in range(repeat):
        out = [p + (v,) for p in out for v in values]
    return out


def _random_decomp(rnd: random.Random, d: int, k: int, t: int):
    """t rank-one terms whose factor vectors are uniform and nonzero."""
    terms = tuple(
        tensors.RankOneTerm(tuple(tensors.BitVec(k, rnd.randrange(1, 1 << k))
                                  for _ in range(d)))
        for _ in range(t))
    return tensors.RankDecomposition(d, k, terms)


# ---------------------------------------------------------------------------
# exact: the bit-sliced rank kernel at 1, 2 and 4 lane chunks of 2^20.
# ---------------------------------------------------------------------------


def build_exact(seed: int) -> Workload:
    rnd = random.Random(f"exact:{seed}")
    ops = []
    for k in (20, 21, 22):
        t = tensors.trace_tensor(k)
        ops.append(Op(f"bias_exact trace k={k}",
                      lambda t=t: bias.bias_exact(t), _expect(_trace_bias(k))))
    dec = tensors.random_rank_decomp(3, 20, 28, rnd.getrandbits(32))

    def check_cert(cert) -> str | None:
        # code_certificate guards this identity only with `assert`
        ref = bias.bias_exact(tensors.tensor_from_decomp(dec))
        if cert.reconstructed_bias != ref:
            return f"reconstructed {cert.reconstructed_bias} != bias_exact {ref}"
        # the dual code is the row space of the first-block vectors
        rank_a = _rank_rows([term.vectors[0].bits for term in dec.terms])
        if (cert.dual_dim, cert.kernel_dim) != (rank_a, dec.t - rank_a):
            return f"dual_dim {cert.dual_dim}, kernel_dim {cert.kernel_dim}, rank(A) {rank_a}"
        return None

    ops.append(Op("code_certificate d=3 k=20 t=28",
                  lambda: rank.code_certificate(dec), check_cert))
    return Workload(ops, {"certificate_decomposition": dec})


# ---------------------------------------------------------------------------
# exhaustive: the truth-table walkers and the meet-in-the-middle search.
# ---------------------------------------------------------------------------


def _lifted_form(rnd: random.Random, d: int, k: int):
    """Random degree-(d-1) form: a random (d-1)-linear form per left-out block."""
    monos = []
    for skip in range(d):
        blocks = [j for j in range(d) if j != skip]
        for flat in range(k ** (d - 1)):
            if rnd.getrandbits(1):
                idx, rest = [], flat
                for j in reversed(blocks):
                    idx.append(j * k + rest % k)
                    rest //= k
                monos.append(tuple(sorted(idx)))
    return tensors.Polynomial.reduce(k * d, monos)


def _tensor_poly(t):
    """The polynomial f_T of a 3-tensor: one monomial per nonzero entry."""
    k = t.k
    monos = [(f // (k * k), k + (f // k) % k, 2 * k + f % k)
             for f in range(k ** 3) if (t.bits >> f) & 1]
    return tensors.Polynomial.reduce(3 * k, monos)


def build_exhaustive(seed: int) -> Workload:
    rnd = random.Random(f"exhaustive:{seed}")
    ops = [
        Op("bias_bruteforce trace k=10",
           lambda t=tensors.trace_tensor(10): bias.bias_bruteforce(t),
           _expect(_trace_bias(10))),
        Op("bias_bruteforce explicit d=4 k=7",
           lambda t=tensors.explicit_form_tensor(4, 7): bias.bias_bruteforce(t),
           _expect(_explicit_bias(4, 7))),
    ]

    e38 = tensors.explicit_form_tensor(3, 8)
    lifted = _lifted_form(rnd, 3, 8)
    cap = Fraction(2, 1 << 8)
    ops.append(Op("corr_exact explicit d=3 k=8, lifted form",
                  lambda: bias.corr_exact(e38, lifted),
                  lambda c: None if _frac(c) <= cap else f"{c} exceeds (d-1)2^-k"))

    e37 = tensors.explicit_form_tensor(3, 7)
    other = tensors.random_tensor(3, 7, rnd.getrandbits(32))
    other_poly = _tensor_poly(other)
    ops.append(Op("corr_exact explicit d=3 k=7, tensor form",
                  lambda: bias.corr_exact(e37, other_poly),
                  lambda c: _expect(_frac(bias.bias_exact(e37 ^ other)))(c)))

    r35 = tensors.random_tensor(3, 5, rnd.getrandbits(32))

    def check_class_max(result) -> str | None:
        value, witness = result
        direct = bias.corr_exact(r35, witness)
        if value != direct:
            return f"class max {value} != corr_exact(witness) {direct}"
        # the zero polynomial is in the class
        if _frac(value) < _frac(bias.bias_exact(r35)):
            return f"class max {value} below the bias"
        return None

    ops.append(Op("corr_class_max random d=3 k=5 degree 1",
                  lambda: bias.corr_class_max(r35, 1), check_class_max))

    ops.append(Op("bias_exact explicit d=4 k=10",
                  lambda t=tensors.explicit_form_tensor(4, 10): bias.bias_exact(t),
                  _expect(_explicit_bias(4, 10))))

    rank_cases = [(_random_decomp(rnd, 3, 3, 4), 4) for _ in range(4)]
    rank_cases.append((_random_decomp(rnd, 4, 2, 3), 8))
    for i, (dec, t_max) in enumerate(rank_cases, 1):
        t = tensors.tensor_from_decomp(dec)

        def check_rank(got, t=t, upper=dec.t) -> str | None:
            want = slice_span_rank(t, upper)
            return None if got == want else f"rank {got}, slice-span search says {want}"

        ops.append(Op(f"rank_exact #{i} d={dec.d} k={dec.k} t={dec.t} t_max={t_max}",
                      lambda t=t, t_max=t_max: rank.rank_exact(t, t_max), check_rank))
    return Workload(ops, {"rank_cases": rank_cases})


# ---------------------------------------------------------------------------
# sample: seeded Monte Carlo and one long draw.
# ---------------------------------------------------------------------------


def _mc_check(t, samples: int):
    def check(est) -> str | None:
        exact = bias.bias_exact(t).to_float()
        # the band verify_mc_bias asserts
        allowed = max(est.ci_halfwidth, 3.5 / math.sqrt(samples))
        if est.samples != samples or abs(est.point - exact) > allowed:
            return f"point {est.point} vs exact {exact}, allowed {allowed}"
        return None
    return check


def build_sample(seed: int) -> Workload:
    rnd = random.Random(f"sample:{seed}")
    ops = []
    for d, k, n in ((3, 4, 100_000), (2, 8, 200_000)):
        t = tensors.random_tensor(d, k, rnd.getrandbits(32))
        mc_seed = rnd.getrandbits(32)
        ops.append(Op(f"bias_mc random d={d} k={k} n={n}",
                      lambda t=t, n=n, s=mc_seed: bias.bias_mc(t, n, 0.99, s),
                      _mc_check(t, n)))
    draw_seed = rnd.getrandbits(32)
    size = 1448 * 1448

    def check_draw(t) -> str | None:
        # a uniform draw has popcount size/2 +- sqrt(size)/2; allow 5 sigma
        ones = t.bits.bit_count()
        if (t.d, t.k) != (2, 1448) or abs(ones - size / 2) > 2.5 * math.sqrt(size):
            return f"{ones} ones in {size} bits"
        return None

    ops.append(Op("random_tensor d=2 k=1448",
                  lambda: tensors.random_tensor(2, 1448, draw_seed), check_draw))
    return Workload(ops)


# ---------------------------------------------------------------------------
# verify-full: the whole verification harness through the CLI.
# ---------------------------------------------------------------------------

FULL_PROFILE_REPORTS = 107


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _check_verify(result) -> str | None:
    code, text = result
    reports = json.loads(text)
    bad = [r["name"] for r in reports if r["holds"] not in (True, "report-only")]
    if code != 0 or len(reports) != FULL_PROFILE_REPORTS or bad:
        return f"exit {code}, {len(reports)} reports, failing: {bad}"
    return None


def build_verify_full(seed: int) -> Workload:
    # The full profile fixes its own seeds; the benchmark seed changes nothing.
    argv = ["verify", "all", "--profile", "full", "--json"]
    return Workload([Op("verify all --profile full --json",
                        lambda: _run_cli(argv), _check_verify)])


WORKLOADS = {
    "exact": build_exact,
    "exhaustive": build_exhaustive,
    "sample": build_sample,
    "verify-full": build_verify_full,
}
