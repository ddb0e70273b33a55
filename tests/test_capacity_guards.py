"""Every capacity guard reports what it needed and what it was allowed."""

import ast
import tracemalloc
from pathlib import Path

import pytest

import f2lab
from f2lab._bitops import int_bytes
from f2lab.bias import bias_bruteforce, bias_exact, corr_class_max, corr_exact
from f2lab.errors import CapacityError
from f2lab.f2linalg import (echelonize, min_weight, sampled_rank_histogram,
                            span_rank_histogram)
from f2lab.prng import Prng, draw_bytes, words_bytes
from f2lab.rank import code_certificate
from f2lab.tensors import (Polynomial, first_block_slices, random_rank_decomp,
                           random_tensor, trace_tensor)

SRC = Path(f2lab.__file__).resolve().parent
REFUSAL_BYTES = 16 << 10  # a refusal builds its message, no table or plane


def _capacity_raises():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                func = node.exc.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "CapacityError":
                    yield f"{path.name}:{node.lineno}", node.exc


def test_every_capacity_error_carries_required_and_budget():
    raises = list(_capacity_raises())
    assert len(raises) >= 24  # the guards in the tree when this check was written
    for where, call in raises:
        given = {kw.arg: kw.value for kw in call.keywords}
        for key in ("required", "budget"):
            assert key in given, f"{where}: CapacityError without {key}="
            value = given[key]
            assert not (isinstance(value, ast.Constant) and value.value is None), \
                f"{where}: {key}=None"


# ---------------------------------------------------------------------------
# Every exact route stays inside the byte budget or refuses before it builds.
# ---------------------------------------------------------------------------


def _bias_exact_shapes(d, k_max):
    # the d >= 3 walk sizes its chunks from the budget, and its work guard does
    # not depend on the budget, so the shapes stop at k_max (tracemalloc makes
    # the larger ones take seconds)
    def calls():
        for k in range(1, k_max + 1):
            t = random_tensor(d, k, 40 * d + k)
            yield lambda: bias_exact(t)
    return [calls()]


def _bruteforce_shapes():
    def calls(d):
        for k in range(1, 31):
            t = random_tensor(d, k, 90 * d + k)
            yield lambda: bias_bruteforce(t)
    return [calls(d) for d in (1, 2, 3, 4, 6, 9)]


def _corr_exact_shapes():
    # the monomial of all n variables makes the polynomial's ANF as long as
    # its table
    def calls(d):
        for k in range(1, 27):
            n = k * d
            t = random_tensor(d, k, 70 * d + k)
            p = Polynomial.reduce(n, [(), (0,), (n - 1,), tuple(range(n))])
            yield lambda: corr_exact(t, p)
    return [calls(d) for d in (1, 2, 3, 4, 6)]


def _class_max_shapes():
    # degree 0 grows the tables up to the byte refusal; degree 1 adds the
    # Walsh transform's 32-bit fields, and grows to its byte refusal too
    # (k = 7, 8 and 9 at the three budgets); degree 6 over 12 variables has
    # 2,510 monomials, refused by the work guard before they are listed
    def calls(d, degree, k_max):
        for k in range(1, k_max + 1):
            t = random_tensor(d, k, 30 * d + k)
            yield lambda: corr_class_max(t, degree)
    wide = random_tensor(2, 6, 66)
    return [calls(1, 0, 26), calls(3, 0, 8), calls(2, 1, 9),
            iter([lambda: corr_class_max(wide, 6)])]


def _min_weight_shapes():
    # random codes of dimension up to 18 in F2^24: several lane chunks at
    # every budget; the dimension guard (28) does not depend on the budget
    def calls():
        rng = Prng(17)
        for dim in range(1, 19):
            s = echelonize([rng.bits(24) for _ in range(dim)], 24)
            yield lambda: min_weight(s)
    return [calls()]


def _code_certificate_shapes():
    # the k <= 24 guard does not depend on the budget
    def calls():
        for k in range(2, 13):
            dec = random_rank_decomp(3, k, k + 3, 20 + k)
            yield lambda: code_certificate(dec)
    return [calls()]


def _random_rank_decomp_shapes():
    # many small terms, where the objects around the bits dominate, and a
    # few long vectors, where the digits and one draw's workspace do
    def calls(d, k, t, grow):
        for step in range(13):
            dims = {"k": k, "t": t}
            dims[grow] <<= 2 * step
            yield lambda: random_rank_decomp(d, dims["k"], dims["t"], step)
    return [calls(1, 1, 1, "t"), calls(3, 20, 1, "t"), calls(2, 1, 3, "k")]


def _random_tensor_shapes():
    # one long vector, where the digits and the draw's workspace dominate,
    # and d = 3, where k^d grows eightfold a step
    def calls(d, grow):
        for step in range(16):
            k = 1 << (grow * step)
            yield lambda: random_tensor(d, k, step)
    return [calls(1, 2), calls(3, 1)]


def _span_rank_shapes():
    # 20x20 slices of trace_tensor(20), as bias_exact ranks them; 16 of the
    # 20 generators keep several chunks with high generators at every budget
    gens = first_block_slices(trace_tensor(20))[:16]
    return [iter([lambda: span_rank_histogram(gens, 20, 20)])]


def _sampled_rank_shapes():
    # enough samples for several chunks at every budget; k = 9 and 12 take
    # two and three words a matrix
    def calls():
        for k in (1, 2, 8, 9, 12):
            yield lambda: sampled_rank_histogram(Prng(k), 40_000, k, k)
    return [calls()]


ROUTES = {
    "bias_exact-d3": lambda: _bias_exact_shapes(3, 16),
    "bias_exact-d4": lambda: _bias_exact_shapes(4, 9),
    "bias_exact-d5": lambda: _bias_exact_shapes(5, 6),
    "bias_bruteforce": _bruteforce_shapes,
    "corr_exact": _corr_exact_shapes,
    "corr_class_max": _class_max_shapes,
    "min_weight": _min_weight_shapes,
    "code_certificate": _code_certificate_shapes,
    "random_rank_decomp": _random_rank_decomp_shapes,
    "random_tensor": _random_tensor_shapes,
    "span_rank_histogram": _span_rank_shapes,
    "sampled_rank_histogram": _sampled_rank_shapes,
}


def _traced_call(call):
    """(peak bytes, CapacityError or None) of one call under tracemalloc."""
    refused = None
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        try:
            call()
        except CapacityError as e:
            refused = e
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak, refused


@pytest.mark.parametrize("budget", [1 << 18, 1 << 20, 1 << 22])
@pytest.mark.parametrize("route", list(ROUTES))
def test_exact_route_peak_within_budget(route, budget, monkeypatch):
    # each family of shapes grows up to its first refusal: every call peaks
    # within the budget, or refuses with required > budget before it builds
    # anything
    monkeypatch.setenv("F2LAB_BUDGET_BYTES", str(budget))
    for family in ROUTES[route]():
        for call in family:
            peak, refused = _traced_call(call)
            if refused is not None:
                assert refused.required > refused.budget, refused
                assert peak <= REFUSAL_BYTES, (peak, refused)
                break
            assert peak <= budget, (peak, budget)


@pytest.mark.parametrize("nwords", [1, 15, 1023, 1024, 1025, 3 * 1024 + 1023, 20 * 1024 - 1])
def test_prng_draws_peak_within_their_models(nwords):
    # `words_bytes` covers a Prng.words block and its mixing, the stepped
    # counters of full chunks held while a last partial chunk is mixed;
    # `draw_bytes` covers what Prng.bits holds beside the int it returns
    rng = Prng(nwords)
    rng.u64()  # start off a chunk boundary of the counter
    peak, _ = _traced_call(lambda: rng.words(nwords))
    assert peak <= words_bytes(nwords), (peak, words_bytes(nwords))
    n = 64 * nwords - 5
    peak, _ = _traced_call(lambda: rng.bits(n))
    assert peak <= int_bytes(n) + draw_bytes(n), (peak, int_bytes(n) + draw_bytes(n))
