"""Acceptance suite: one test per shipped guarantee, at its stated
tolerance (exact unless noted).

Each test prints one PASS line (visible with -s or -rP; the pytest -v
status line itself is the per-criterion verdict either way).
"""

import json
import time
from pathlib import Path

import pytest

from f2lab import f2linalg, harness
from f2lab.bias import DyadicRational as D, bias_bruteforce, bias_exact, corr_exact
from f2lab.errors import CapacityError
from f2lab.f2linalg import mat_rank
from f2lab.harness import (_lifted_form, _lifted_monomials, run_all, verify_bias_tail,
                           verify_bias_trace, verify_expected_bias,
                           verify_low_rank_bias_floor, verify_moment_identity,
                           verify_subspace_membership)
from f2lab.numerics import inequality_checks, mrrw_constant, profile_max_check
from f2lab.prng import Prng
from f2lab.rank import (code_certificate, corank_bound_margin, decompositions,
                        matmul_bias_exact, rank_count, rank_exact, rank_lb_bias)
from f2lab.tensors import (explicit_form_tensor, matmul_tensor,
                           random_rank_decomp, tensor_from_decomp,
                           trace_tensor)


FULL_PROFILE = Path(__file__).parent / "data" / "full_profile.json"


def _line(num, text):
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def test_criterion_01_trace_bias_exact_all_routes():
    start = time.perf_counter()
    for k in range(2, 11):
        r = verify_bias_trace(k)
        assert r.holds is True, (k, r)
        assert "brute" in dict(r.params)["routes"]
    for k in range(11, 21):
        r = verify_bias_trace(k)
        assert r.holds is True, (k, r)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"trace sweep took {elapsed:.1f}s"
    _line(1, f"bias(trace) = 2*2^-k - 2^-2k for k=2..20 in {elapsed:.1f}s")


def test_criterion_02_bias_ladder_meets_exact_rank():
    start = time.perf_counter()
    t = trace_tensor(2)
    b = bias_exact(t)
    assert b == D.from_ratio(7, 4)
    lb = rank_lb_bias(b, 3)
    assert lb == 3
    exact = rank_exact(t, 4)
    assert exact == 3
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _line(2, f"trace_tensor(2): bias 7/16, lower bound 3, exact rank 3 "
             f"({elapsed:.2f}s)")


def test_criterion_03_bias_rank_soundness_sweep():
    rng = Prng(2203)
    floor_cache = {}
    checked = 0
    for d in (2, 3):
        for k in (2, 3):
            for t in range(1, 6):
                floor = floor_cache.setdefault(
                    (d, t), D.from_ratio((1 << (d - 1)) - 1, d - 1) ** t)
                for _ in range(52):
                    dec = random_rank_decomp(d, k, t, rng.u64())
                    assert bias_exact(tensor_from_decomp(dec)) >= floor
                    checked += 1
    assert checked >= 1000
    _line(3, f"{checked} random decompositions, zero bias-floor violations")


def test_criterion_04_expected_bias_closed_form():
    for d, k, t in [(2, 1, 1), (2, 1, 2), (2, 2, 1), (3, 2, 1)]:
        r = verify_expected_bias(d, k, t)
        assert r.method == "exhaustive"
        assert r.holds is True, (d, k, t)
        assert dict(r.measured)["mean"] == dict(r.measured)["closed_form"]
    _line(4, "expected-bias closed form exact at all four tuples")


def test_criterion_05_moment_identity():
    for d, k, t in [(2, 1, 1), (2, 2, 1), (2, 2, 2)]:
        r = verify_moment_identity(d, k, t)
        assert r.holds is True, (d, k, t)
    r = verify_moment_identity(2, 2, 2)
    assert dict(r.measured)["moment"] == "29/2^7"
    _line(5, "moment identity exact; both sides 29/128 at (2,2,2)")


def test_criterion_06_subspace_membership_bound():
    total = 0
    for d, k in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        dims = list(range(k ** d + 1))
        r = verify_subspace_membership(d, k, dims, trials=4, seed=600 + d + k)
        assert r.holds is True, (d, k)
        total += int(dict(r.measured)["subspaces"])
    assert total >= 200
    _line(6, f"{total} random subspaces, membership <= f_dk <= relaxed bound")


def test_criterion_07_matmul_bias_and_rank_counts():
    assert matmul_bias_exact(2) == D.from_ratio(29, 7)
    assert bias_bruteforce(matmul_tensor(2)) == D.from_ratio(29, 7)
    for n in (2, 3, 4):
        assert matmul_bias_exact(n).to_float() <= n * 2.0 ** (-3 * n * n / 4)
    for n in (2, 3):
        counts = [0] * (n + 1)
        for bits in range(1 << (n * n)):
            counts[mat_rank(bits, n, n)] += 1
        assert tuple(counts) == rank_count(n).counts
    assert rank_count(2).counts == (1, 9, 6)
    assert rank_count(3).counts == (1, 49, 294, 168)
    _line(7, "matmul bias 29/128 both routes; bound holds n=2..4; counts match")


def test_criterion_08_corank_margin_documented(quick_profile):
    rows = corank_bound_margin(2)
    assert rows[1][3] == pytest.approx(1.125)
    reports, _ = quick_profile
    margin_reports = [r for r in reports if r.name == "corank-margin"]
    assert margin_reports and all(r.holds is True for r in margin_reports)
    assert all(r.ok() for r in reports)
    _line(8, "corank bound violation (ratio 1.125) reported; corrected bound holds")


def test_criterion_09_code_certificates_for_trace2():
    t = trace_tensor(2)
    found = 0
    for dec in decompositions(t, 3):
        cert = code_certificate(dec)
        assert cert.reconstructed_bias == D.from_ratio(7, 4)
        assert cert.reconstructed_bias == bias_exact(t)
        assert cert.kernel_dim == 1
        found += 1
    assert found >= 1
    _line(9, f"{found} rank-3 witnesses certified: bias 7/16, kernel dim 1")


def test_criterion_10_mrrw_constant():
    _, inv = mrrw_constant(1e-9)
    assert 3.51 <= inv <= 3.53
    _line(10, f"rate-distance constant 1/rho* = {inv:.4f} in [3.51, 3.53]")


def test_criterion_11_profile_maximization():
    rng = Prng(2211)
    checks = 0
    vertices = 0
    for k in range(1, 7):
        for _ in range(100):
            u = rng.u64() / 2 ** 64 * k * k
            rng.u64()  # a skipped word per point keeps the grid's 600 points fixed
            # the exact vertex check: a missing or extra extreme profile, or
            # a maximum off the closed form, raises InvariantError
            r = profile_max_check(k, u)
            assert r.holds is True, (k, u)
            checks += 1
            vertices += int(dict(r.measured)["extreme_points"])
    assert checks == 600
    double = profile_max_check(2, 2.0)
    assert dict(double.measured)["extreme_argmax_count"] == "2"
    _line(11, f"{checks} (k,u) grid points, {vertices} extreme profiles matched "
              f"to exact vertices; k=2 u=2 double maximum reported")


def test_criterion_12_scalar_inequalities():
    # the full profile's grid: every check one exact integer comparison,
    # and each inequality strict inside the grid
    r = inequality_checks(6, 12)
    assert r.holds is True
    checks, least = (value for _, value in r.measured)
    assert int(checks) == 11_908 and float(least) > 0
    _line(12, f"{checks} grid points of both inequalities compared exactly; "
              f"least interior relative slack {least}")


def test_criterion_13_explicit_form_bias_and_correlation():
    for d in (2, 3, 4):
        for k in range(1, 7):
            want = D.one() - (D.one() - D.half_pow(k)) ** (d - 1)
            assert bias_exact(explicit_form_tensor(d, k)) == want, (d, k)
    rng = Prng(2213)
    forms = 0
    for d, k, n_forms in [(3, 2, 400), (4, 2, 300), (3, 3, 300)]:
        t = explicit_form_tensor(d, k)
        cap = D.from_ratio(d - 1, k)
        monomials = _lifted_monomials(d, k)
        for _ in range(n_forms):
            g = _lifted_form(d, k, rng, monomials)
            assert corr_exact(t, g) <= cap, (d, k)
            forms += 1
    assert forms >= 1000
    _line(13, f"bias closed form exact on the d<=4, k<=6 grid; "
              f"{forms} lifted forms under (d-1)2^-k")


def test_criterion_14_tail_distribution_crosscheck():
    r = verify_bias_tail(2, 8, 0.25, samples=10_000, seed=2214)
    assert r.holds is True
    m = dict(r.measured)
    _line(14, f"empirical tail {m['empirical']} vs exact {m['exact_tail']} "
              f"within {m['allowed_dev']}")


def test_criterion_15_suite_profiles_within_budget(quick_profile):
    quick, quick_s = quick_profile
    assert all(r.ok() for r in quick), [r.format_line() for r in quick if not r.ok()]
    assert quick_s < 60.0, f"quick profile took {quick_s:.1f}s"
    start = time.perf_counter()
    full = run_all("full")
    full_s = time.perf_counter() - start
    assert all(r.ok() for r in full), [r.format_line() for r in full if not r.ok()]
    assert full_s < 1800.0, f"full profile took {full_s:.1f}s"
    # the gate for refactors: the full profile, timings
    # stripped, equals tests/data/full_profile.json (regenerated the same
    # way as tests/data/quick_profile.json when a value moves on purpose)
    assert all(r.elapsed_ms > 0 for r in full)
    got = [r.to_dict(timing=False) for r in full]
    want = json.loads(FULL_PROFILE.read_text())
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w
    _line(15, f"quick {quick_s:.1f}s (< 60s), full {full_s:.1f}s (< 30min), "
              f"zero failures")


@pytest.mark.parametrize("cpus", [1, 3])
def test_full_profile_does_not_depend_on_the_cpu_count(cpus, monkeypatch):
    # the span walks split over one process per usable CPU: patched to one,
    # no walk forks; patched to three, some walk forks two workers on any host
    monkeypatch.setattr(f2linalg, "_usable_cpus", lambda: cpus)
    workers = []
    split = f2linalg._split_walk

    def spy(chunk_histograms, nsteps, nworkers, nbins):
        workers.append(nworkers)
        return split(chunk_histograms, nsteps, nworkers, nbins)

    monkeypatch.setattr(f2linalg, "_split_walk", spy)
    got = [r.to_dict(timing=False) for r in run_all("full")]
    assert got == json.loads(FULL_PROFILE.read_text())
    assert max(workers) == cpus


def _without_routes(report):
    """A report less `routes`, which names the routes that ran."""
    return {**report, "params": {k: v for k, v in report["params"].items() if k != "routes"}}


def _row_key(report):
    """What tells a full-profile row's report from every other row's."""
    return json.dumps([report["name"], report["params"], report.get("samples"),
                       report.get("seed")], sort_keys=True)


# the rows each budget refuses, with the route that refuses them: the
# sampled kernel's 64-lane chunk of 10 x 10 matrices, and the d = 3 span
# walk's from k = 10 on, pass 16 KiB
BUDGET_REFUSALS = {
    1 << 20: [],
    16 << 10: ([("bias-tail", (2, 10, 0.2, 10000, 502),
                 "sampled_rank_histogram(nrows=10, ncols=10)")]
               + [("bias-trace", (k,), f"span_rank_histogram(nrows={k}, ncols={k})")
                  for k in range(10, 21)]
               + [("mc-bias", row, f"bias_mc(d={row[0]}, k={row[1]})")
                  for row in [(3, 4, 20_000, 309), (2, 8, 200_000, 510)]]),
}


@pytest.mark.parametrize("budget", list(BUDGET_REFUSALS))
def test_full_profile_does_not_depend_on_the_budget(budget, monkeypatch):
    # every row of the full profile alone: an admitted report equals the
    # golden apart from `routes` (under 16 KiB bias-trace k = 8 and 9 lose
    # the brute route), and a refused row is a CapacityError naming its route
    monkeypatch.setenv("F2LAB_BUDGET_BYTES", str(budget))
    want = {_row_key(r): r for r in map(_without_routes, json.loads(FULL_PROFILE.read_text()))}
    admitted, refused = 0, []
    for name, (fn, quick, full) in harness.EXPERIMENTS.items():
        for row in quick + full:
            try:
                got = _without_routes(fn(*row).to_dict(timing=False))
            except CapacityError as e:
                refused.append((name, row, str(e).partition(": ")[0]))
                continue
            assert got == want[_row_key(got)], (name, row)
            admitted += 1
    assert refused == BUDGET_REFUSALS[budget]
    assert admitted + len(refused) == len(want) == 107
