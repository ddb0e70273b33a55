"""Harness experiments: frozen exact values and suite behavior."""

import json
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from f2lab import f2linalg, harness
from f2lab._bitops import var_mask
from f2lab.bias import DyadicRational as D
from f2lab.errors import CapacityError
from f2lab.harness import (EXPERIMENTS, _census_work, _sum_census, _vanish_count, run_all,
                           verify_bias_matmul,
                           verify_bias_tail, verify_bias_trace, verify_corank_margin,
                           verify_expected_bias, verify_explicit_form,
                           verify_joint_vanishing, verify_linear_preimage,
                           verify_low_rank_bias_floor, verify_mc_bias,
                           verify_moment_identity, verify_span_dimension,
                           verify_subspace_membership, verify_sum_zero)
from f2lab.numerics import power_at_most
from f2lab.prng import Prng
from f2lab.rank import code_certificate, corank_bound_margin
from f2lab.report import REPORT_ONLY, fmt_float
from f2lab.tensors import RankDecomposition
from oracles import bias_tail_hits, lifted_form, preimage_counts


QUICK_PROFILE = Path(__file__).parent / "data" / "quick_profile.json"


def measured(report):
    return dict(report.measured)


def _literal_sum_census(d, k, t):
    """Every (2^k)^(td) vector tuple, its t rank-one tensors built entry
    by entry and XORed."""
    cells = list(product(range(k), repeat=d))
    ref = Counter()
    for tup in product(range(1 << k), repeat=t * d):
        acc = 0
        for i in range(t):
            vs = tup[i * d:(i + 1) * d]
            for flat, idx in enumerate(cells):
                if all((v >> j) & 1 for v, j in zip(vs, idx)):
                    acc ^= 1 << flat
        ref[acc] += 1
    return ref


@pytest.mark.parametrize("d,k,t", [(2, 1, 1), (2, 2, 2), (2, 2, 3), (3, 1, 2),
                                   (3, 2, 1)])
def test_sum_census_matches_literal_enumeration(d, k, t):
    census = _sum_census(d, k, t)
    assert dict(census) == dict(_literal_sum_census(d, k, t))
    assert sum(census.values()) == 1 << (k * t * d)


@pytest.mark.parametrize("d,k,t", sorted({row[:3] for name in ("sum-zero", "moment-identity")
                                          for rows in EXPERIMENTS[name][1:] for row in rows}))
def test_vanish_count_matches_census_on_profile_rows(d, k, t):
    assert _vanish_count(d, k, t) == _sum_census(d, k, t).get(0, 0)


def test_vanish_count_matches_census_up_to_16_tuple_bits():
    # every shape with k t d <= 16 and t <= 4; t = 0 counts as 1 in the
    # size, and its one tuple, the empty one, sums to zero
    shapes = [(d, k, t) for t in range(5) for d in range(1, 17) for k in range(1, 17)
              if k * max(t, 1) * d <= 16]
    assert len(shapes) == 138
    for d, k, t in shapes:
        assert _vanish_count(d, k, t) == _sum_census(d, k, t).get(0, 0), (d, k, t)


def test_census_work_covers_every_census_step(monkeypatch):
    # each step of _sum_census sets one Counter entry: a tuple of the
    # rank-one census, or one held sum plus one rank-one; _vanish_count
    # adds a lookup per rank-one; _census_work counts at least as many for
    # each route, at every k^d <= 9 and t <= 6, and none at t = 0
    steps = 0

    class Counted(Counter):
        def __setitem__(self, key, value):
            nonlocal steps
            steps += 1
            super().__setitem__(key, value)

    monkeypatch.setattr(harness, "Counter", Counted)
    shapes = [(d, k) for k in range(1, 10) for d in range(1, 7) if k ** d <= 9]
    assert len(shapes) == 17
    for d, k in shapes:
        rank_ones = ((1 << k) - 1) ** d + 1
        assert len(harness._rank_one_census(d, k)) == rank_ones, (d, k)
        for t in range(7):
            steps = 0
            _sum_census(d, k, t)
            assert steps <= _census_work(d, k, t), (d, k, t)
            assert (steps > 0) == (_census_work(d, k, t) > 0) == (t > 0), (d, k, t)
            steps = 0
            _vanish_count(d, k, t)
            lookups = rank_ones if t else 0
            assert steps + lookups <= _census_work(d, k, t, vanish=True), (d, k, t)
    # the full profile's (2, 3, 5); (2, 6, 2), the most the 2^24 cap admits
    # of the shapes with ktd <= 24; two it refuses, (2, 12, 1) for its 2^24
    # rank-one tuples and 4095^2 + 1 rank-ones
    assert [_census_work(*shape) for shape in [(2, 3, 5), (2, 6, 2), (2, 4, 4), (2, 12, 1)]] \
        == [79_414, 15_768_966, 26_405_870, 33_546_242]
    # the vanishing count of (3, 3, 3): 2^9 tuples, 344 rank-ones times 1
    # and 344 sums, and the dot product's 344 lookups
    assert _census_work(3, 3, 3, vanish=True) == 119_536


def test_vanish_count_builds_one_census_at_t_1(monkeypatch):
    # the empty sum needs no rank-one census, and a count at t = 1, 2 or 3
    # builds it once, for its sums and its dot product alike
    calls = []
    census = harness._rank_one_census

    def spy(d, k):
        calls.append((d, k))
        return census(d, k)
    monkeypatch.setattr(harness, "_rank_one_census", spy)
    assert _sum_census(3, 2, 0) == {0: 1} and _vanish_count(3, 2, 0) == 1 and calls == []
    assert _vanish_count(3, 2, 1) == 4 ** 3 - 3 ** 3  # a zero vector among the three
    assert calls == [(3, 2)]
    for t in (2, 3):
        calls.clear()
        count = _vanish_count(2, 2, t)
        assert calls == [(2, 2)], t
        assert count == _literal_sum_census(2, 2, t)[0], t


# (2, 4, 4) takes 26,405,870 census steps: 2^8 tuples, then 226 rank-ones
# times 1, 226, 226^2 and 2^16 sums (`_census_work`); the vanishing count
# of (2, 4, 5) runs those four rounds, then dots the sums with the same
# rank-one census, 226 lookups: 26,406,096 steps
@pytest.mark.parametrize("call,required,budget,message", [
    (lambda: verify_moment_identity(3, 3, 2), 1 << 27, 1 << 16,
     "moment-identity(d=3, k=3, t=2): 2^27 tensors exceed the budget of 2^16 tensors"),
    (lambda: verify_moment_identity(2, 4, 5), 26_406_096, 1 << 24,
     "moment-identity(d=2, k=4, t=5): 26406096 census steps exceed the budget of "
     "2^24 census steps"),
    (lambda: verify_sum_zero(2, 4, 5), 26_406_096, 1 << 24,
     "sum-zero(d=2, k=4, t=5): 26406096 census steps exceed the budget of 2^24 census steps"),
    (lambda: verify_subspace_membership(2, 12, [1], 1, 0), 1 << 24, 1 << 22,
     "subspace-membership(d=2, k=12): 2^24 tuples exceed the budget of 2^22 tuples"),
    (lambda: verify_span_dimension(2, 4, 4), 1 << 32, 1 << 24,
     "span-dimension(d=2, k=4, t=4): 2^32 tuples exceed the budget of 2^24 tuples"),
    (lambda: verify_joint_vanishing(2, 12, 1, 1, 0), 1 << 24, 1 << 22,
     "joint-vanishing(d=2, k=12): 2^24 assignments exceed the budget of 2^22 assignments"),
    (lambda: verify_expected_bias(2, 4, 4), 26_405_870, 1 << 24,
     "expected-bias(d=2, k=4, t=4): 26405870 census steps exceed the budget of "
     "2^24 census steps"),
    (lambda: verify_linear_preimage(17, 1, 0), 1 << 17, 1 << 16,
     "linear-preimage(k=17): 2^17 inputs exceed the budget of 2^16 inputs"),
    (lambda: code_certificate(RankDecomposition(3, 25, ())), 1 << 25, 1 << 24,
     "code_certificate(k=25): 2^25 dual codewords exceed the budget of 2^24 dual codewords"),
], ids=["moment-tensors", "moment-tuples", "sum-zero", "subspace-membership",
        "span-dimension", "joint-vanishing", "expected-bias", "linear-preimage",
        "code-certificate"])
def test_capacity_guards_report_counts(call, required, budget, message):
    with pytest.raises(CapacityError, match=re.escape(message)) as ei:
        call()
    assert ei.value.required == required
    assert ei.value.budget == budget


class TestMomentIdentity:
    def test_211(self):
        r = verify_moment_identity(2, 1, 1)
        assert measured(r)["moment"] == "3/2^2" and r.holds is True

    def test_221(self):
        r = verify_moment_identity(2, 2, 1)
        assert measured(r)["moment"] == "7/2^4" and r.holds is True

    def test_222_is_29_128(self):
        r = verify_moment_identity(2, 2, 2)
        assert measured(r)["moment"] == "29/2^7"
        assert measured(r)["vanish_prob"] == "29/2^7"
        assert r.holds is True

    def test_capacity(self):
        with pytest.raises(CapacityError):
            verify_moment_identity(3, 3, 2)


class TestSumZero:
    def test_222(self):
        r = verify_sum_zero(2, 2, 2)
        assert measured(r)["exact"] == "29/2^7"    # 58/256
        assert r.holds is True

    def test_242(self):
        r = verify_sum_zero(2, 4, 2)
        assert measured(r)["exact"] == "593/2^15"  # 1186/65536
        assert r.holds is True

    def test_211(self):
        r = verify_sum_zero(2, 1, 1)
        assert measured(r)["exact"] == "3/2^2" and r.holds is True

    def test_headline_gating_is_reported(self):
        r = verify_sum_zero(2, 2, 2)
        assert measured(r)["headline_asserted"] == "no"

    def test_bounds_have_no_absolute_slack(self):
        bound = D.half_pow(40)            # about 9.1e-13
        over = D.from_ratio(3, 41)        # 1.5 x bound, over it by 4.5e-13
        assert over.to_float() <= bound.to_float() + 1e-12  # an absolute slack passes it
        # at the rational 2^-40 and at the irrational 2^(-79/2), 1.41 x bound
        assert not power_at_most(over, lambda w: w, -40, 1)
        assert not power_at_most(over, lambda w: w, -79, 2)
        assert power_at_most(bound, lambda w: w, -40, 1)
        assert power_at_most(bound, lambda w: w, -79, 2)

    @pytest.mark.parametrize("excess, holds", [(0, True), (1, False)])
    def test_proof_bound_is_exact_at_its_value(self, excess, holds, monkeypatch):
        # (2, 4, 2) binds: its proof bound ((2 + 2^2)/2^4)^2 = 9/64 is 9216
        # of the 2^16 tuples; one tuple more fails it
        monkeypatch.setattr(harness, "_vanish_count", lambda d, k, t: 9216 + excess)
        assert verify_sum_zero(2, 4, 2).holds is holds


class TestSubspaceMembership:
    def test_small_grid(self):
        for d, k in [(2, 2), (2, 3), (3, 2)]:
            dims = list(range(k ** d + 1))
            r = verify_subspace_membership(d, k, dims, trials=2, seed=5)
            assert r.holds is True

    def test_full_space_dim(self):
        r = verify_subspace_membership(2, 2, [4], trials=1, seed=1)
        assert r.holds is True

    def test_profile_row_meets_the_bound_inside(self):
        # the (2, 2) row's draws, redone: at u = 2, where 2^(u/k^(d-1)) = 2
        # is rational, a subspace holds f_{2,2}(2) = 1/4 + 3/4 2/4 = 5/8 of
        # the rank-ones exactly, and the exact comparison accepts it
        d, k, dims, trials, seed = EXPERIMENTS["subspace-membership"][1][0]
        assert (d, k, dims) == (2, 2, None)
        census, rng = harness._rank_one_census(d, k), Prng(seed)
        probs = {u: [harness._membership_prob(harness._random_subspace(4, u, rng), census, 4)
                     for _ in range(trials)] for u in range(5)}
        assert D.from_ratio(5, 3) in probs[2]
        assert power_at_most(D.from_ratio(5, 3), lambda w: 1 - Fraction(3, 4) * (1 - w / 4), 2, 2)
        r = verify_subspace_membership(*EXPERIMENTS["subspace-membership"][1][0])
        assert r.holds is True and measured(r)["min_gap_to_refined"] == "0"

    @pytest.mark.parametrize("row", EXPERIMENTS["subspace-membership"][1][1:])
    def test_min_gap_skips_the_ends(self, row):
        # at dim U = 0 and k^d value and bound are equal; inside, these rows
        # stay strictly below f_{d,k}
        assert float(measured(verify_subspace_membership(*row))["min_gap_to_refined"]) > 0
        r = verify_subspace_membership(row[0], row[1], [0, row[1] ** row[0]], 2, 7)
        assert measured(r)["min_gap_to_refined"] == "inf"


class TestSpanDimension:
    def test_222_distribution(self):
        r = verify_span_dimension(2, 2, 2)
        dist = measured(r)["distribution"].split()
        assert dist[0] == "49/2^8"     # both rank-one factors vanish
        assert r.holds is True

    def test_d1_distribution(self):
        r = verify_span_dimension(1, 2, 2)
        assert measured(r)["distribution"].split() == ["1/2^4", "9/2^4", "3/2^3"]
        assert r.holds is True


class TestBiasTail:
    def test_d2_crosscheck(self):
        r = verify_bias_tail(2, 8, 0.25, samples=10_000, seed=301)
        assert r.holds is True
        assert "exact_tail" in measured(r)

    def test_d3_report_only(self):
        r = verify_bias_tail(3, 2, 0.25, samples=500, seed=302)
        assert r.holds == REPORT_ONLY

    def test_seeded_reproducibility(self):
        a = verify_bias_tail(2, 6, 0.25, samples=2_000, seed=9)
        b = verify_bias_tail(2, 6, 0.25, samples=2_000, seed=9)
        assert a == b

    def test_d2_beyond_rank_count_refused_before_sampling(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the refusal")

        # neither the per-sample route, the batch ranker nor any stream draw
        # may run before rank_count refuses k = 17
        monkeypatch.setattr(harness, "bias_exact", no_sampling)
        monkeypatch.setattr(harness, "sampled_rank_histogram", no_sampling)
        monkeypatch.setattr(f2linalg, "_batched_rank_histogram", no_sampling)
        for draw in ("words", "bits", "u64"):
            monkeypatch.setattr(Prng, draw, no_sampling)
        with pytest.raises(CapacityError) as info:
            verify_bias_tail(2, 17, 0.25, samples=1_000_000, seed=9)
        assert (info.value.required, info.value.budget) == (17, 16)

    @pytest.mark.parametrize("d, k, eps, samples", [
        (2, 1, 0.25, 1_001), (2, 2, 0.5, 333), (2, 8, 0.25, 5_003),
        (2, 10, 0.2, 1_111), (3, 2, 0.25, 301)])
    def test_hits_match_one_sample_at_a_time(self, d, k, eps, samples):
        # d = 2 ranks the samples in kernel lanes; the oracle takes the
        # same stream one DenseTensor and one bias_exact at a time
        seed = 100 * k + samples
        r = verify_bias_tail(d, k, eps, samples=samples, seed=seed)
        hits = bias_tail_hits(d, k, 2.0 ** (-(1.0 - eps) * k), samples, Prng(seed))
        assert measured(r)["empirical"] == fmt_float(hits / samples)

    @pytest.mark.parametrize("budget, few", [(None, 1 << 16), ("262144", 1 << 12)])
    def test_d2_peak_does_not_grow_with_samples(self, budget, few, monkeypatch):
        # the samples are drawn and ranked one lane chunk at a time: past
        # one full chunk (2^16 lanes by default, 2^12 under a 256 KiB
        # budget) the peak stays where it is
        if budget is not None:
            monkeypatch.setenv("F2LAB_BUDGET_BYTES", budget)

        def peak(samples):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                verify_bias_tail(2, 8, 0.25, samples=samples, seed=18)
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        small, large = peak(few), peak(1 << 18)
        assert large <= small + (64 << 10), (small, large)
        assert large <= 6 << 20, large


class TestFloors:
    def test_low_rank_bias_floor(self):
        for d, k, t in [(2, 2, 3), (2, 3, 5), (3, 2, 4), (3, 3, 5)]:
            assert verify_low_rank_bias_floor(d, k, t, 100, seed=7).holds is True

    def test_joint_vanishing_random(self):
        assert verify_joint_vanishing(3, 2, 3, 60, seed=8).holds is True

    def test_joint_vanishing_equality_case(self):
        # coordinate forms on disjoint coordinates: exactly (3/4)^2
        r = verify_joint_vanishing(2, 2, 2, 5, seed=1)
        assert r.holds is True


class TestExpectedBias:
    @pytest.mark.parametrize("d,k,t,mean", [
        (2, 1, 1, "7/2^3"),
        (2, 1, 2, "13/2^4"),
        (2, 2, 1, "23/2^5"),
        (3, 2, 1, "229/2^8"),
        (2, 3, 5, "529/2^11"),
    ])
    def test_exhaustive_closed_form(self, d, k, t, mean):
        r = verify_expected_bias(d, k, t)
        assert measured(r)["mean"] == mean
        assert measured(r)["closed_form"] == mean
        assert r.holds is True


class TestExplicitTensors:
    def test_bias_trace_both_routes(self):
        r = verify_bias_trace(8)
        assert r.holds is True
        assert dict(r.params)["routes"] == "fast+brute"

    def test_bias_trace_fast_only(self):
        r = verify_bias_trace(14)
        assert r.holds is True
        assert dict(r.params)["routes"] == "fast"

    @pytest.mark.parametrize("budget", [1 << 18, 1 << 19])
    def test_bias_trace_brute_route_follows_the_byte_budget(self, budget, monkeypatch):
        # k = 10 is within the input guard, but its tables hold 1,030,836 bytes
        monkeypatch.setenv("F2LAB_BUDGET_BYTES", str(budget))
        r = verify_bias_trace(10)
        assert r.holds is True
        assert dict(r.params)["routes"] == "fast"

    def test_bias_trace_brute_route_fits_one_mib(self, monkeypatch):
        monkeypatch.setenv("F2LAB_BUDGET_BYTES", str(1 << 20))
        r = verify_bias_trace(10)
        assert r.holds is True
        assert dict(r.params)["routes"] == "fast+brute"

    def test_bias_matmul(self):
        r = verify_bias_matmul(2)
        assert r.holds is True
        assert measured(r)["bias"] == "29/2^7"

    def test_bias_matmul_n1_report_only(self):
        assert verify_bias_matmul(1).holds == REPORT_ONLY

    def test_explicit_form(self):
        r = verify_explicit_form(3, 2, samples=100, seed=13)
        assert r.holds is True
        r = verify_explicit_form(2, 3, samples=50, seed=14)
        assert measured(r)["bias"] == "1/2^3"
        assert r.holds is True


@pytest.mark.parametrize("d, k", [(2, 6), (3, 2), (3, 3), (4, 2), (5, 2)])
def test_lifted_form_matches_the_division_loop(d, k):
    # the profiles' explicit-form shapes and (5, 2): the shared monomial map
    # picks the forms the per-index division gave, from the same draws
    monomials = harness._lifted_monomials(d, k)
    rng, ref = Prng(60 + d * k), Prng(60 + d * k)
    for _ in range(40):
        assert harness._lifted_form(d, k, rng, monomials) == lifted_form(d, k, ref)
    assert rng.u64() == ref.u64()


def test_subspace_membership_builds_the_census_once(monkeypatch):
    calls = Counter()
    census = harness._rank_one_census

    def spy(d, k):
        calls[d, k] += 1
        return census(d, k)

    monkeypatch.setattr(harness, "_rank_one_census", spy)
    r = verify_subspace_membership(2, 2, None, trials=3, seed=7)
    assert r.samples == 15 and r.holds is True
    assert calls == {(2, 2): 1}


def test_linear_preimage():
    assert verify_linear_preimage(5, trials=200, seed=15).holds is True


@pytest.mark.parametrize("k", [1, 2, 5, 8])
def test_preimage_counts_match_per_input_loop(k):
    # random maps, mostly of full rank, and maps of rank < k: a zero row
    # leaves output bit i at 0, so an a with bit i set is outside the image
    prng = Prng(400 + k)
    masks = [var_mask(v, k) for v in range(k)]
    outside = 0
    for trial in range(12):
        h = [prng.bits(k) for _ in range(k)]
        if trial % 3 == 0:
            h[trial % k] = 0
        for a in (0, prng.bits(k), 1 << (trial % k)):
            want = preimage_counts(h, a, k)
            assert harness._preimage_counts(h, a, k, masks) == want, (h, a)
            outside += want[0] == 0
    assert outside > 0


def test_corank_margin_asserts_the_corrected_bound(monkeypatch):
    # it asserts 2^(-s^2) / prod_{i<=s} (1 - 2^-i)^2 exactly and prints the
    # ratios to 2^(-(n-r)^2), which it does not assert; a bound met with
    # equality holds, and one a hair too small at one corank fails
    assert "1.125" in dict(verify_corank_margin(2).measured)["worst_ratio"]
    for n in (1, 2, 3, 4, 8, 16):
        r = verify_corank_margin(n)
        assert r.holds is True, n
        assert r.bound == ("corank_bound", "2^(-s^2)/prod_{i<=s}(1-2^-i)^2 at s=n-r")
        exact = {n - rr: e for rr, e, _, _ in corank_bound_margin(n)}  # keyed by corank
        with monkeypatch.context() as m:
            m.setattr(harness, "corank_bound", exact.get)
            assert verify_corank_margin(n).holds is True, n
            m.setattr(harness, "corank_bound",
                      lambda s: exact[s] * (Fraction(1023, 1024) if s == 0 else 1))
            assert verify_corank_margin(n).holds is False, n


def test_mc_bias_experiment():
    assert verify_mc_bias(3, 4, samples=20_000, seed=16).holds is True


class TestSuite:
    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            run_all("nope")

    def test_quick_profile_green(self, quick_profile):
        reports, _ = quick_profile
        assert len(reports) > 40
        bad = [r for r in reports if not r.ok()]
        assert not bad, [r.format_line() for r in bad]
        names = {r.name for r in reports}
        assert {"moment-identity", "sum-zero", "bias-trace", "bias-matmul",
                "corank-margin", "profile-max", "scalar-inequalities"} <= names

    def test_quick_profile_matches_golden_file(self, quick_profile):
        """The quick profile, timings stripped, equals tests/data/quick_profile.json.

        This is the byte-identical gate for refactors.  A change that
        deliberately moves a seeded or exact value regenerates the file
        (the JSON list of `to_dict(timing=False)` over `run_all("quick")`,
        `indent=1, sort_keys=True`) and says so in CHANGES.md.
        """
        got = [r.to_dict(timing=False) for r in quick_profile[0]]
        want = json.loads(QUICK_PROFILE.read_text())
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g == w

    def test_run_all_times_every_report(self, monkeypatch):
        table = {"corank-margin": (verify_corank_margin, [(2,)], []),
                 "moment-identity": (verify_moment_identity, [(2, 1, 1)], [])}
        monkeypatch.setattr(harness, "EXPERIMENTS", table)
        reports = run_all("quick")
        assert len(reports) == 2 and all(r.elapsed_ms > 0 for r in reports)
        assert verify_corank_margin(2).elapsed_ms == 0.0

    def test_run_all_calls_the_module_bindings(self, monkeypatch):
        # a wrapper bound after import, as the benchmark's tracer binds
        # one, sees every row the table holds for the wrapped function
        calls = []

        def wrapper(*args):
            calls.append(args)
            return verify_corank_margin(*args)

        monkeypatch.setattr(harness, "verify_corank_margin", wrapper)
        run_all("quick")
        assert calls == harness.EXPERIMENTS["corank-margin"][1]

    def test_exhaustive_reports_deterministic(self):
        a = verify_moment_identity(2, 2, 2)
        b = verify_moment_identity(2, 2, 2)
        assert a == b
        assert a.to_dict(timing=False) == b.to_dict(timing=False)
