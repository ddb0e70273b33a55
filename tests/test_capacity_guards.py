"""Every capacity guard reports what it needed and what it was allowed."""

import ast
import time
import tracemalloc
from pathlib import Path

import pytest

import f2lab
from f2lab import f2linalg
from f2lab._bitops import int_bytes
from f2lab.cli import main
from f2lab.bias import bias_bruteforce, bias_exact, bias_mc, corr_class_max, corr_exact
from f2lab.errors import CapacityError, check_capacity
from f2lab.f2linalg import (echelonize, min_weight, sampled_rank_histogram,
                            span_rank_histogram)
from f2lab.harness import (verify_expected_bias, verify_joint_vanishing,
                           verify_linear_preimage, verify_moment_identity,
                           verify_span_dimension, verify_subspace_membership,
                           verify_sum_zero)
from f2lab.prng import Prng, draw_bytes, words_bytes
from f2lab.rank import code_certificate, rank_count, rank_exact
from f2lab.tensors import (DenseTensor, Polynomial, RankDecomposition, explicit_form_tensor,
                           first_block_slices, matmul_tensor, random_rank_decomp,
                           random_tensor, trace_tensor)

SRC = Path(f2lab.__file__).resolve().parent
REFUSAL_BYTES = 16 << 10  # a refusal builds its message, no table or plane


def _callee(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _capacity_checks():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and _callee(node) == "check_capacity":
                yield f"{path.name}:{node.lineno}", node


def test_every_capacity_error_carries_required_and_budget():
    # every guard refuses through check_capacity, passing what, required,
    # budget and a named unit, none of them None
    checks = list(_capacity_checks())
    assert len(checks) >= 26  # the guards in the tree when this check was written
    for where, call in checks:
        assert len(call.args) == 4 and not call.keywords, where
        assert not any(isinstance(a, ast.Constant) and a.value is None for a in call.args), \
            where
        unit = call.args[3]
        assert isinstance(unit, ast.Constant) and isinstance(unit.value, str), where


def test_only_check_capacity_constructs_capacity_error():
    # one refusal policy: no module builds a CapacityError of its own
    sites = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {}
        for fn in ast.walk(tree):  # outer functions first, so the innermost wins
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(fn), fn.name))
        sites += [(path.name, owner.get(node)) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and _callee(node) == "CapacityError"]
    assert sites == [("errors.py", "check_capacity")]


def test_check_capacity_refuses_only_past_the_budget():
    check_capacity("route", 5, 5, "bytes")
    with pytest.raises(CapacityError, match=r"^route: 6 bytes exceed the budget of 5 bytes$"):
        check_capacity("route", 6, 5, "bytes")
    # powers of two from 2^10 print as 2^e, other multiples of 2^10 as
    # m*2^e, so a count of a million bits prints at once
    with pytest.raises(CapacityError) as ei:
        check_capacity("route", 3 << 10**6, 1 << 10, "sets")
    assert str(ei.value) == "route: 3*2^1000000 sets exceed the budget of 2^10 sets"
    assert (ei.value.required, ei.value.budget) == (3 << 10**6, 1024)
    with pytest.raises(CapacityError, match=r": 1025 bits exceed the budget of 512 bits$"):
        check_capacity("route", 1025, 512, "bits")


# One row per guard site: (byte budget or None for the default, the refused
# call, its message's route, required and budget as printed, and the unit).
GUARDS = {
    "bias_exact-work": (None, lambda: bias_exact(DenseTensor(3, 31, 0)),
                        "bias_exact(d=3, k=31)", "961*2^31", "225*2^32",
                        "residual-matrix entries"),
    "bias_bruteforce-inputs": (None, lambda: bias_bruteforce(DenseTensor(3, 11, 0)),
                               "bias_bruteforce(d=3, k=11)", "2^33", "2^30", "inputs"),
    "bias_bruteforce-bytes": (1 << 18, lambda: bias_bruteforce(DenseTensor(3, 10, 0)),
                              "bias_bruteforce(d=3, k=10)", "565640", "2^18", "bytes"),
    "corr_exact-inputs": (None, lambda: corr_exact(DenseTensor(3, 9, 0), Polynomial(27, ((),))),
                          "corr_exact(d=3, k=9)", "2^27", "2^26", "inputs"),
    "corr_exact-bytes": (1 << 18, lambda: corr_exact(DenseTensor(2, 11, 0),
                                                     Polynomial(22, ((),))),
                         "corr_exact(d=2, k=11)", "709264", "2^18", "bytes"),
    "corr_class_max-inputs": (None, lambda: corr_class_max(DenseTensor(3, 9, 0), 0),
                              "corr_class_max(d=3, k=9, degree=0)", "2^27", "2^26", "inputs"),
    "corr_class_max-work": (None, lambda: corr_class_max(DenseTensor(3, 7, 0), 1),
                            "corr_class_max(d=3, k=7, degree=1)", "21*2^21", "2^25",
                            "transform fields"),
    "corr_class_max-bytes": (1 << 18, lambda: corr_class_max(DenseTensor(2, 8, 0), 1),
                             "corr_class_max(d=2, k=8, degree=1)", "1747116", "2^18", "bytes"),
    "bias_mc-bytes": (16 << 10, lambda: bias_mc(DenseTensor(3, 4, 0), 20_000, 0.99, 309),
                      "bias_mc(d=3, k=4)", "217576", "2^14", "bytes"),
    "moment-identity-tensors": (None, lambda: verify_moment_identity(3, 3, 2),
                                "moment-identity(d=3, k=3, t=2)", "2^27", "2^16", "tensors"),
    "moment-identity-tuples": (None, lambda: verify_moment_identity(2, 4, 5),
                               "moment-identity(d=2, k=4, t=5)", "26406096", "2^24",
                               "census steps"),
    "sum-zero": (None, lambda: verify_sum_zero(2, 4, 5),
                 "sum-zero(d=2, k=4, t=5)", "26406096", "2^24", "census steps"),
    "subspace-membership": (None, lambda: verify_subspace_membership(2, 12, [1], 1, 0),
                            "subspace-membership(d=2, k=12)", "2^24", "2^22", "tuples"),
    "span-dimension": (None, lambda: verify_span_dimension(2, 4, 4),
                       "span-dimension(d=2, k=4, t=4)", "2^32", "2^24", "tuples"),
    "joint-vanishing": (None, lambda: verify_joint_vanishing(2, 12, 1, 1, 0),
                        "joint-vanishing(d=2, k=12)", "2^24", "2^22", "assignments"),
    "expected-bias": (None, lambda: verify_expected_bias(2, 4, 4),
                      "expected-bias(d=2, k=4, t=4)", "26405870", "2^24", "census steps"),
    "linear-preimage": (None, lambda: verify_linear_preimage(17, 1, 0),
                        "linear-preimage(k=17)", "2^17", "2^16", "inputs"),
    "trace_tensor": (None, lambda: trace_tensor(25),
                     "trace_tensor(k=25)", "15625", "13824", "tensor entries"),
    "matmul_tensor": (None, lambda: matmul_tensor(5),
                      "matmul_tensor(n=5)", "15625", "2^12", "tensor entries"),
    "explicit_form_tensor": (1 << 18, lambda: explicit_form_tensor(3, 200),
                             "explicit_form_tensor(d=3, k=200)", "8000000", "2^21", "bits"),
    "random_tensor": (1 << 18, lambda: random_tensor(3, 200, 0),
                      "random_tensor(d=3, k=200)", "3265432", "2^18", "bytes"),
    "random_rank_decomp": (1 << 18, lambda: random_rank_decomp(3, 1000, 100, 0),
                           "random_rank_decomp(d=3, k=1000, t=100)", "269932", "2^18",
                           "bytes"),
    "rank-search-sets": (None, lambda: rank_exact(matmul_tensor(2), 8),
                         "rank search over sets of 4 of the 225 rank-one tensors",
                         "103962600", "2^21", "sets"),
    "rank-search-bytes": (64 << 20, lambda: rank_exact(trace_tensor(10), 10),
                          "rank search over sets of 0 of the 1046529 rank-one tensors",
                          "125583480", "2^26", "bytes"),
    "code_certificate": (None, lambda: code_certificate(RankDecomposition(3, 25, ())),
                         "code_certificate(k=25)", "2^25", "2^24", "dual codewords"),
    "rank_count": (None, lambda: rank_count(17),
                   "rank_count(n=17)", "17", "16", "matrix rows"),
    "min_weight": (None, lambda: min_weight(echelonize([1 << j for j in range(30)], 40)),
                   "min_weight(dim=30)", "2^30", "2^28", "codewords"),
    "sampled_rank_histogram": (4096, lambda: sampled_rank_histogram(Prng(9), 5_000, 9, 9),
                               "sampled_rank_histogram(nrows=9, ncols=9)", "18936", "2^12",
                               "bytes"),
    # inner blocks of 2^17 lanes, refused before anything is built (no
    # build or kernel is given); bias_exact contracts x_1 instead
    "span_walk-inner": (None, lambda: f2linalg._span_walk("bias_exact(d=4, k=17)", 17, 17, 17,
                                                          17, 18, None, None, 0),
                        "bias_exact(d=4, k=17)", "2^17", "2^16", "inner lanes"),
    # 8 of trace_tensor(20)'s slices: 64 lanes of 1,026 ints at 44 bytes
    # each (two plane sets of 400, and the kernel's 190 slot rows above the
    # diagonal, 20-entry row and 16 more), and 3 KiB and 144 bytes a row
    # beside them
    "span_rank_histogram": (4096, lambda: span_rank_histogram(
                                first_block_slices(trace_tensor(20))[:8], 20, 20),
                            "span_rank_histogram(nrows=20, ncols=20)", "51096", "2^12",
                            "bytes"),
}


def _printed(count):
    """The int a count printed as n, 2^e or m*2^e stands for."""
    head, power, e = count.partition("2^")
    return int(head.rstrip("*") or 1) << int(e) if power else int(count)


@pytest.mark.parametrize("budget, call, what, required, allowed, unit", GUARDS.values(),
                         ids=list(GUARDS))
def test_every_guard_names_its_unit(budget, call, what, required, allowed, unit, monkeypatch):
    if budget is None:
        monkeypatch.delenv("F2LAB_BUDGET_BYTES", raising=False)
    else:
        monkeypatch.setenv("F2LAB_BUDGET_BYTES", str(budget))
    with pytest.raises(CapacityError) as ei:
        call()
    assert ei.value.required > ei.value.budget
    assert (ei.value.required, ei.value.budget) == (_printed(required), _printed(allowed))
    assert str(ei.value) == f"{what}: {required} {unit} exceed the budget of {allowed} {unit}"


def test_every_guard_site_has_a_row():
    assert len(GUARDS) == len(list(_capacity_checks()))


BILLIONS = 4_000_000_000
TRACE_24 = trace_tensor(24)
# Sizes in the billions, as a command line or a file header gives them, and
# counts of thousands of digits: each refusal names its route and builds no
# count of that size.  (call, the start of the refusal's message)
GIANT = {
    "bias_exact": (lambda: bias_exact(DenseTensor(3, BILLIONS, 0)),
                   f"bias_exact(d=3, k={BILLIONS}): "),
    "bias_bruteforce": (lambda: bias_bruteforce(DenseTensor(1, BILLIONS, 0)),
                        f"bias_bruteforce(d=1, k={BILLIONS}): "),
    "corr_exact": (lambda: corr_exact(DenseTensor(1, BILLIONS, 0), Polynomial(BILLIONS, ())),
                   f"corr_exact(d=1, k={BILLIONS}): "),
    "corr_class_max-inputs": (lambda: corr_class_max(DenseTensor(1, BILLIONS, 0), 1),
                              f"corr_class_max(d=1, k={BILLIONS}, degree=1): "),
    "corr_class_max-work": (lambda: corr_class_max(DenseTensor(1, 22, 0), 11),
                            "corr_class_max(d=1, k=22, degree=11): "),
    "moment-identity": (lambda: verify_moment_identity(1, BILLIONS, 0),
                        f"moment-identity(d=1, k={BILLIONS}, t=0): "),
    "subspace-membership": (lambda: verify_subspace_membership(1, BILLIONS, [1], 1, 0),
                            f"subspace-membership(d=1, k={BILLIONS}): "),
    "span-dimension": (lambda: verify_span_dimension(1, 1, BILLIONS),
                       f"span-dimension(d=1, k=1, t={BILLIONS}): "),
    "joint-vanishing": (lambda: verify_joint_vanishing(1, BILLIONS, 1, 1, 0),
                        f"joint-vanishing(d=1, k={BILLIONS}): "),
    "linear-preimage": (lambda: verify_linear_preimage(BILLIONS, 1, 0),
                        f"linear-preimage(k={BILLIONS}): "),
    "code_certificate": (lambda: code_certificate(RankDecomposition(3, BILLIONS, ())),
                         f"code_certificate(k={BILLIONS}): "),
    "rank-search-500": (lambda: rank_exact(TRACE_24, 500),
                        "rank search over sets of 476 of the 281474943156225 "),
    "rank-search-1000000": (lambda: rank_exact(TRACE_24, 1_000_000),
                            "rank search over sets of 999976 of the 281474943156225 "),
}


@pytest.mark.parametrize("call, start", GIANT.values(), ids=list(GIANT))
def test_giant_sizes_refuse_at_once(call, start, monkeypatch):
    # under a second and a megabyte, where the counts once built took
    # gigabytes, or minutes of binomials and a ValueError for their digits
    monkeypatch.delenv("F2LAB_BUDGET_BYTES", raising=False)
    began = time.perf_counter()
    peak, refused = _traced_call(call)
    assert time.perf_counter() - began < 1
    assert isinstance(refused, CapacityError) and str(refused).startswith(start), refused
    assert refused.required > refused.budget
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("args, start", [
    (["rank", "certify", "decomp.f2d"], f"code_certificate(k={BILLIONS}): "),
    (["verify", "span-dimension", "--d", "1", "--k", "1", "--t", str(BILLIONS)],
     f"span-dimension(d=1, k=1, t={BILLIONS}): "),
    (["verify", "moment-identity", "--d", "1", "--k", str(BILLIONS), "--t", "0"],
     f"moment-identity(d=1, k={BILLIONS}, t=0): "),
    (["rank", "exact", "trace.f2t", "--max-t", "500"], "rank search over sets of 476 "),
], ids=["rank-certify", "span-dimension", "moment-identity", "rank-exact"])
def test_giant_cli_sizes_exit_2_at_once(args, start, tmp_path, capsys, monkeypatch):
    # the 27-byte decomposition file and the command lines that once peaked
    # at 526 MiB to refuse, and a search count past 4,300 digits
    monkeypatch.delenv("F2LAB_BUDGET_BYTES", raising=False)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "decomp.f2d").write_text(f"F2D1 d=3 k={BILLIONS} t=0\n")
    assert main(["gen", "trace", "--k", "24", "--out", "trace.f2t"]) == 0
    status = []
    began = time.perf_counter()
    peak, _ = _traced_call(lambda: status.append(main(args)))
    assert time.perf_counter() - began < 1
    assert peak < 1 << 20, peak
    assert status == [2, 2]  # the untraced run and the traced one
    assert capsys.readouterr().err.startswith(f"f2lab: error: {start}")


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


def _mc_shapes():
    # blocks of 2^16 samples of 12 and 16 planes, and of 59,918 samples of
    # 140 planes: the samples double a step up to the byte refusal
    def calls(d, k, samples):
        t = random_tensor(d, k, 10 * d + k)
        for step in range(10):
            yield lambda: bias_mc(t, samples << step, 0.95, step)
    return [calls(3, 4, 500), calls(2, 8, 1000), calls(2, 70, 250)]


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
    # few long vectors, where the digits and one draw's workspace do; k = 9
    # masks the last byte of each vector's cut
    def calls(d, k, t, grow):
        for step in range(13):
            dims = {"k": k, "t": t}
            dims[grow] <<= 2 * step
            yield lambda: random_rank_decomp(d, dims["k"], dims["t"], step)
    return [calls(1, 1, 1, "t"), calls(3, 20, 1, "t"), calls(2, 1, 3, "k"), calls(2, 9, 1, "t")]


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
    # one chunk at k <= 2, up to 20 at k = 12 under the least budget;
    # k = 3, 9 and 12 draw 9, 81 and 144 planes
    def calls():
        for k in (1, 2, 3, 8, 9, 12):
            yield lambda: sampled_rank_histogram(Prng(k), 40_000, k, k)
    return [calls()]


ROUTES = {
    "bias_exact-d3": lambda: _bias_exact_shapes(3, 16),
    "bias_exact-d4": lambda: _bias_exact_shapes(4, 9),
    "bias_exact-d5": lambda: _bias_exact_shapes(5, 6),
    "bias_bruteforce": _bruteforce_shapes,
    "corr_exact": _corr_exact_shapes,
    "corr_class_max": _class_max_shapes,
    "bias_mc": _mc_shapes,
    "min_weight": _min_weight_shapes,
    "code_certificate": _code_certificate_shapes,
    "random_rank_decomp": _random_rank_decomp_shapes,
    "random_tensor": _random_tensor_shapes,
    "span_rank_histogram": _span_rank_shapes,
    "sampled_rank_histogram": _sampled_rank_shapes,
}


def _traced_call(call):
    """(peak bytes, CapacityError or None) of one call under tracemalloc.

    The call runs once untraced first, so the interpreter's first-use
    allocations (its free lists of lists, tuples and frames, which the
    tests run before may or may not have filled) are not charged to it,
    and a verdict does not depend on the order the tests run in."""
    try:
        call()
    except CapacityError:
        pass
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
    def started(drawn):
        rng = Prng(nwords)
        rng.u64()  # start off a chunk boundary of the counter
        rng.words(drawn)
        return rng

    # one generator for the untraced run and one for the traced run, the
    # draw of bits starting where the draw of words ended
    rngs = [started(0), started(0)]
    peak, _ = _traced_call(lambda: rngs.pop().words(nwords))
    assert peak <= words_bytes(nwords), (peak, words_bytes(nwords))
    n = 64 * nwords - 5
    rngs = [started(nwords), started(nwords)]
    peak, _ = _traced_call(lambda: rngs.pop().bits(n))
    assert peak <= int_bytes(n) + draw_bytes(n), (peak, int_bytes(n) + draw_bytes(n))


@pytest.mark.parametrize("budget", [1 << 18, 1 << 20, 1 << 22])
def test_split_span_walk_peaks_within_each_process_share(budget, monkeypatch):
    # two walk processes on any host: each cuts its chunks from half the
    # budget, so this one peaks within that half
    monkeypatch.setattr(f2linalg, "_usable_cpus", lambda: 2)
    monkeypatch.setenv("F2LAB_BUDGET_BYTES", str(budget))
    for family in _span_rank_shapes():
        for call in family:
            peak, refused = _traced_call(call)
            assert refused is None
            assert peak <= budget // 2, (peak, budget)


@pytest.mark.parametrize("budget", [1 << 14, 1 << 15, 1 << 16])
def test_span_walk_peaks_within_small_budgets(budget, monkeypatch):
    # chunks cut down to 64 lanes by the model of `sampled_rank_histogram`:
    # spans of 10 n x n matrices and codes of dimension 10, n up to 20, and
    # the 10 x 10 slices of trace_tensor(10), each peak within the budget or
    # are refused before any plane is built; a 64-lane chunk of n x n
    # matrices needs (2n^2 + n(n-1)/2 + n + 16) 44 bytes, and the walk 3 KiB
    # and 144 bytes a row beside it: past 16 KiB from n = 10 on, past 32 KiB
    # from n = 16 on.  bias_exact of a d = 4, k = 7 tensor walks x_1 in 16
    # chunks under 64 KiB, its 7 delta sets stored beside them, and
    # contracts x_1 under less
    monkeypatch.setattr(f2linalg, "_usable_cpus", lambda: 1)
    monkeypatch.setenv("F2LAB_BUDGET_BYTES", str(budget))
    rng = Prng(budget)
    trace = first_block_slices(trace_tensor(10))
    calls = []
    for n in range(2, 21, 2):
        gens = [rng.bits(n * n) for _ in range(10)]
        code = echelonize([rng.bits(n + 6) for _ in range(10)], n + 6)
        calls += [(n, lambda gens=gens, n=n: span_rank_histogram(gens, n, n)),
                  (n, lambda code=code: min_weight(code))]
    calls.append(("trace", lambda: span_rank_histogram(trace, 10, 10)))
    quartic = random_tensor(4, 7, 47)
    calls.append(("d4", lambda: bias_exact(quartic)))
    refused = []
    for label, call in calls:
        peak, error = _traced_call(call)
        if error is None:
            assert peak <= budget, (label, peak)
        else:
            assert error.required > error.budget == budget
            assert peak <= REFUSAL_BYTES, peak
            refused.append(label)
    assert refused == {1 << 14: [10, 12, 14, 16, 18, 20, "trace"], 1 << 15: [16, 18, 20],
                       1 << 16: []}[budget]


@pytest.mark.parametrize("k", [2, 9, 16])
def test_sampled_rank_peak_within_4_kib(k, monkeypatch):
    # 5,000 samples under 4 KiB: k = 2 runs in 128-lane chunks; 64 lanes of
    # 81 or 256 planes do not fit, and are refused before any draw
    monkeypatch.setenv("F2LAB_BUDGET_BYTES", "4096")
    peak, refused = _traced_call(lambda: sampled_rank_histogram(Prng(k), 5_000, k, k))
    if refused is None:
        assert peak <= 4096, peak
    else:
        assert refused.required > refused.budget == 4096
        assert peak <= REFUSAL_BYTES, peak
    assert (refused is None) == (k == 2)


@pytest.mark.parametrize("d, k, seed, budget, admitted", [
    (5, 5, 205, 1 << 13, False), (5, 5, 205, 12 << 10, False), (5, 5, 205, 1 << 14, True),
    (4, 9, 169, 1 << 14, False)])
def test_contracted_bias_exact_peaks_within_small_budgets(d, k, seed, budget, admitted,
                                                          monkeypatch):
    # x_1 contracted down to d = 3 span walks, which are charged the slices
    # and current tensor each contraction level holds: each call peaks
    # within the budget, or is refused before any plane is built; the two
    # shapes once peaked past 8 and 16 KiB (d = 4, k = 9 at 20 KiB peaks
    # within it too, but takes 13 s under tracemalloc)
    monkeypatch.setattr(f2linalg, "_usable_cpus", lambda: 1)
    t = random_tensor(d, k, seed)
    monkeypatch.setenv("F2LAB_BUDGET_BYTES", str(budget))
    peak, error = _traced_call(lambda: bias_exact(t))
    if error is None:
        assert peak <= budget, peak
    else:
        assert error.required > error.budget == budget
        assert peak <= REFUSAL_BYTES, peak
    assert (error is None) == admitted, error
